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

func TestDepsAndDependents(t *testing.T) {
	g, ids := buildDepGraph()
	a1, a2, a3, a4 := ids[0], ids[1], ids[2], ids[3]

	if got := g.Deps(a2); !reflect.DeepEqual(got, []ActionID{a1}) {
		t.Fatalf("Deps(a2) = %v, want [a1]", got)
	}
	if got := g.Deps(a4); !reflect.DeepEqual(got, []ActionID{a1, a3}) {
		t.Fatalf("Deps(a4) = %v, want [a1 a3]", got)
	}
	if got := g.Deps(a1); len(got) != 0 {
		t.Fatalf("Deps(a1) = %v, want none", got)
	}
	if got := g.Dependents(a1); !reflect.DeepEqual(got, []ActionID{a2, a4}) {
		t.Fatalf("Dependents(a1) = %v, want [a2 a4]", got)
	}
	if got := g.Dependents(a3); !reflect.DeepEqual(got, []ActionID{a4}) {
		t.Fatalf("Dependents(a3) = %v, want [a4]", got)
	}
	if got := g.Dependents(a4); len(got) != 0 {
		t.Fatalf("Dependents(a4) = %v, want none", got)
	}
}

func TestDepsRespectsTimeDirection(t *testing.T) {
	g := New()
	p := g.Intern(PartitionName("t/user=a"))
	// A write strictly after the reader's time is not a dependency.
	late := g.Append(&Action{Kind: KindQuery, Time: 50, Outputs: []Dep{{Node: p, Time: 50}}})
	rd := g.Append(&Action{Kind: KindQuery, Time: 20, Inputs: []Dep{{Node: p, Time: 20}}})
	if got := g.Deps(rd); len(got) != 0 {
		t.Fatalf("Deps(reader) = %v, want none (writer is later)", got)
	}
	if got := g.Dependents(late); len(got) != 0 {
		t.Fatalf("Dependents(late writer) = %v, want none (reader is earlier)", got)
	}
}

func TestDepsUnknownAction(t *testing.T) {
	g, _ := buildDepGraph()
	if g.Deps(999) != nil || g.Dependents(999) != nil {
		t.Fatal("unknown action should have no edges")
	}
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
	// a2 still has only a1 as dep (a3 wrote Q later than a2's time)...
	if got := g.Deps(ids[1]); !reflect.DeepEqual(got, []ActionID{ids[0]}) {
		t.Fatalf("Deps(a2) = %v", got)
	}
	// ...but a2 now reads Q as well.
	var reads, writes Handles
	if g.AppendHandles(ids[1], &reads, &writes); len(reads.Nodes) != 2 {
		t.Fatalf("AppendHandles(a2) reads = %v, want 2", reads.Nodes)
	}
}

// TestDepsHonorWholeTableOverlap: the action-level dependency API must
// treat a whole-table partition edge as overlapping every keyed partition
// of that table, in both directions.
func TestDepsHonorWholeTableOverlap(t *testing.T) {
	g := New()
	keyed := g.Intern(PartitionName("t/user=a"))
	wild := g.Intern(PartitionName("t/*"))
	otherTable := g.Intern(PartitionName("u/*"))

	wWild := g.Append(&Action{Kind: KindQuery, Time: 10, Outputs: []Dep{{Node: wild, Time: 10}}})
	rKeyed := g.Append(&Action{Kind: KindQuery, Time: 20, Inputs: []Dep{{Node: keyed, Time: 20}}})
	wKeyed := g.Append(&Action{Kind: KindQuery, Time: 30, Outputs: []Dep{{Node: keyed, Time: 30}}})
	rWild := g.Append(&Action{Kind: KindQuery, Time: 40, Inputs: []Dep{{Node: wild, Time: 40}}})
	rOther := g.Append(&Action{Kind: KindQuery, Time: 50, Inputs: []Dep{{Node: otherTable, Time: 50}}})

	// A keyed reader depends on an earlier whole-table writer.
	if got := g.Deps(rKeyed); !reflect.DeepEqual(got, []ActionID{wWild}) {
		t.Fatalf("Deps(keyed reader) = %v, want [whole-table writer]", got)
	}
	// A whole-table reader depends on earlier keyed and wildcard writers.
	if got := g.Deps(rWild); !reflect.DeepEqual(got, []ActionID{wWild, wKeyed}) {
		t.Fatalf("Deps(wildcard reader) = %v, want [wild keyed]", got)
	}
	// Dependents of the whole-table writer include both later readers.
	if got := g.Dependents(wWild); !reflect.DeepEqual(got, []ActionID{rKeyed, rWild}) {
		t.Fatalf("Dependents(wildcard writer) = %v, want both readers", got)
	}
	// Dependents of the keyed writer include the wildcard reader.
	if got := g.Dependents(wKeyed); !reflect.DeepEqual(got, []ActionID{rWild}) {
		t.Fatalf("Dependents(keyed writer) = %v, want [wildcard reader]", got)
	}
	// A different table never overlaps.
	if got := g.Deps(rOther); len(got) != 0 {
		t.Fatalf("Deps(other-table reader) = %v, want none", got)
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
