package history

import (
	"reflect"
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
	var in, out Handles
	if g.AppendHandles(999, &in, &out); in.Nodes != nil || out.Nodes != nil {
		t.Fatal("unknown action should have no deps")
	}
}

// TestAppendHandlesReturnsCopies: AppendHandles appends to the caller's
// lists; writing them does not reach the graph's edges.
func TestAppendHandlesReturnsCopies(t *testing.T) {
	g, ids := buildDepGraph()
	var in, out Handles
	g.AppendHandles(ids[3], &in, &out)
	if len(in.Nodes) != 2 {
		t.Fatalf("AppendHandles reads = %v", in.Nodes)
	}
	want := in.Nodes[0]
	in.Nodes[0] = 999
	var again Handles
	if g.AppendHandles(ids[3], &again, &out); again.Nodes[0] != want {
		t.Fatal("AppendHandles must return copies, not aliases")
	}
	if g.AppendHandles(ids[3], &again, &out); len(again.Nodes) != 4 {
		t.Fatalf("a second call appends: reads = %v, want 4 handles", again.Nodes)
	}
}

func TestDepsAfterAddDeps(t *testing.T) {
	g, ids := buildDepGraph()
	q := g.Intern(PartitionName("t/user=b"))
	// Repair discovers that a2 also reads Q.
	g.AddDeps(ids[1], []Dep{{Node: q, Time: 20}}, nil)
	var reads, writes Handles
	if g.AppendHandles(ids[1], &reads, &writes); len(reads.Nodes) != 2 {
		t.Fatalf("AppendHandles(a2) reads = %v, want 2", reads.Nodes)
	}
}

// TestAppendHandles lists an action's handles by direction, with the
// table wildcard of each keyed partition and its exchange.
func TestAppendHandles(t *testing.T) {
	g := New()
	cookie := g.Intern(CookieName("c"))
	keyed, wild := g.Intern(PartitionName("t/user=a")), g.Intern(PartitionName("t/*"))
	exch := Exchange{Client: "c", Visit: 1, Request: 1}
	id := g.Append(&Action{
		Kind: KindQuery, Time: 10, Exchange: exch,
		Inputs:  []Dep{{Node: keyed, Time: 10}, {Node: ExchangeNode, Time: 10}},
		Outputs: []Dep{{Node: wild, Time: 10}, {Node: cookie, Time: 10}},
	})
	var in, out Handles
	g.AppendHandles(id, &in, &out)
	if want := (Handles{Nodes: []Node{keyed}, Wilds: []Node{wild}, Exchanges: []Exchange{exch}}); !reflect.DeepEqual(in, want) {
		t.Fatalf("reads = %+v, want %+v", in, want)
	}
	// The wildcard is its own table's: it lists no second wildcard.
	if want := (Handles{Nodes: []Node{wild, cookie}}); !reflect.DeepEqual(out, want) {
		t.Fatalf("writes = %+v, want %+v", out, want)
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
