package history

import (
	"reflect"
	"slices"
	"testing"
)

// buildDepGraph records a tiny write/read chain over two partitions:
//
//	a1 writes P at t=10
//	a2 reads  P at t=20
//	a3 writes Q at t=30
//	a4 reads P and Q at t=40
func buildDepGraph() (*Graph, []ActionID) {
	g := New()
	p := g.Intern(PartitionName("t/user=a"))
	q := g.Intern(PartitionName("t/user=b"))
	a1 := g.Append(&Action{Kind: KindQuery, Time: 10, Outputs: []Dep{{Node: p, Time: 10}}})
	a2 := g.Append(&Action{Kind: KindQuery, Time: 20, Inputs: []Dep{{Node: p, Time: 20}}})
	a3 := g.Append(&Action{Kind: KindQuery, Time: 30, Outputs: []Dep{{Node: q, Time: 30}}})
	a4 := g.Append(&Action{Kind: KindQuery, Time: 40, Inputs: []Dep{{Node: p, Time: 40}, {Node: q, Time: 40}}})
	return g, []ActionID{a1, a2, a3, a4}
}

func TestDepsUnknownAction(t *testing.T) {
	g, _ := buildDepGraph()
	if a := g.Get(999); a != nil {
		t.Fatalf("unknown action = %+v, want nil", a)
	}
}

// TestAddDepsLeavesEarlierEdgesIntact: AddDeps only appends, so an edge
// list read before it keeps its length and contents, and the action's
// list afterwards starts with it.
func TestAddDepsLeavesEarlierEdgesIntact(t *testing.T) {
	g, ids := buildDepGraph()
	before := g.Get(ids[3]).Inputs
	kept := slices.Clone(before)
	r := g.Intern(PartitionName("t/user=c"))
	g.AddDeps(ids[3], []Dep{{Node: r, Time: 40}}, nil)
	if !slices.Equal(before, kept) {
		t.Fatalf("edges read before AddDeps = %v, then %v", kept, before)
	}
	if after := g.Get(ids[3]).Inputs; len(after) != 3 || !slices.Equal(after[:2], kept) || after[2].Node != r {
		t.Fatalf("Inputs after AddDeps = %v, want %v then %d", after, kept, r)
	}
}

func TestDepsAfterAddDeps(t *testing.T) {
	g, ids := buildDepGraph()
	q := g.Intern(PartitionName("t/user=b"))
	// Repair discovers that a2 also reads Q.
	g.AddDeps(ids[1], []Dep{{Node: q, Time: 20}}, nil)
	if in := g.Get(ids[1]).Inputs; len(in) != 2 || in[1].Node != q {
		t.Fatalf("Get(a2).Inputs = %v, want P then Q", in)
	}
	if got := g.Readers(q, 0); len(got) != 2 || got[0].ID != ids[1] {
		t.Fatalf("Readers(Q) = %v, want a2 then a4", got)
	}
}

// TestActionEdgesByDirection: an action keeps its edges by direction, in
// edge order. Its partition and cookie edges are posted to the readers or
// writers of their node, and an exchange edge to the exchange index, not
// to a node.
func TestActionEdgesByDirection(t *testing.T) {
	g := New()
	cookie := g.Intern(CookieName("c"))
	keyed, wild := g.Intern(PartitionName("t/user=a")), g.Intern(PartitionName("t/*"))
	exch := Exchange{Client: "c", Visit: 1, Request: 1}
	in := []Dep{{Node: keyed, Time: 10}, {Node: ExchangeNode, Time: 10}}
	out := []Dep{{Node: wild, Time: 10}, {Node: cookie, Time: 10}}
	id := g.Append(&Action{Kind: KindQuery, Time: 10, Exchange: exch, Inputs: in, Outputs: out})
	a := g.Get(id)
	if !reflect.DeepEqual(a.Inputs, in) || !reflect.DeepEqual(a.Outputs, out) {
		t.Fatalf("edges = %v / %v, want %v / %v", a.Inputs, a.Outputs, in, out)
	}
	posted := func(acts []*Action) bool { return len(acts) == 1 && acts[0].ID == id }
	if !posted(g.Readers(keyed, 0)) || !posted(g.Writers(wild, 0)) || !posted(g.Writers(cookie, 0)) {
		t.Fatal("an edge is missing from its node's postings")
	}
	if len(g.Writers(keyed, 0)) != 0 || len(g.Readers(wild, 0)) != 0 || len(g.Readers(cookie, 0)) != 0 {
		t.Fatal("an edge is posted in the wrong direction")
	}
	if !posted(g.ExchangeActions(exch)) {
		t.Fatalf("ExchangeActions = %v, want action %d", g.ExchangeActions(exch), id)
	}
}

// TestLookupDoesNotIntern: Lookup finds interned names only and adds none.
func TestLookupDoesNotIntern(t *testing.T) {
	g := New()
	n := g.Intern(PartitionName("t/user=a"))
	if got, ok := g.Lookup(PartitionName("t/user=a")); !ok || got != n {
		t.Fatalf("Lookup(interned) = %d, %v; want %d, true", got, ok, n)
	}
	_, before, _ := g.Stats()
	if _, ok := g.Lookup(PartitionName("t/user=b")); ok {
		t.Fatal("Lookup found a name never interned")
	}
	if _, after, _ := g.Stats(); after != before {
		t.Fatalf("Lookup interned: %d nodes, then %d", before, after)
	}
}
