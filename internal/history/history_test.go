package history

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestAppendAndLookup(t *testing.T) {
	g := New()
	file := g.Intern(FileName("edit.php"))
	part := g.Intern(PartitionName("pages/title=tMain"))

	a1 := &Action{Kind: KindAppRun, Time: 10, Inputs: []Dep{{Node: file, Time: 10}}, Outputs: []Dep{{Node: part, Time: 11}}}
	a2 := &Action{Kind: KindQuery, Time: 12, Inputs: []Dep{{Node: part, Time: 12}}}
	a3 := &Action{Kind: KindAppRun, Time: 20, Inputs: []Dep{{Node: file, Time: 20}}}
	id1 := g.Append(a1)
	g.Append(a2)
	g.Append(a3)

	if g.Len() != 3 {
		t.Fatalf("len = %d", g.Len())
	}
	if got := g.Get(id1); got != a1 {
		t.Fatal("Get returned wrong action")
	}

	readers := g.Readers(file, 0)
	if len(readers) != 2 || readers[0] != a1 || readers[1] != a3 {
		t.Fatalf("readers of file = %v", readers)
	}
	readers = g.Readers(file, 15)
	if len(readers) != 1 || readers[0] != a3 {
		t.Fatalf("readers from t=15 = %v", readers)
	}
	writers := g.Writers(part, 0)
	if len(writers) != 1 || writers[0] != a1 {
		t.Fatalf("writers of part = %v", writers)
	}
}

func TestByKindAndOrder(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		kind := KindAppRun
		if i%2 == 1 {
			kind = KindQuery
		}
		g.Append(&Action{Kind: kind, Time: int64(i)})
	}
	runs := g.ByKind(KindAppRun)
	if len(runs) != 5 {
		t.Fatalf("runs = %d", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].Time < runs[i-1].Time {
			t.Fatal("ByKind must preserve time order")
		}
	}
}

// TestCountKindMatchesByKind: the per-kind live counts stay equal to the
// listing they replace across appends, collection and restores.
func TestCountKindMatchesByKind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, restored := New(), New()
	check := func(g *Graph, when string) {
		for k := KindAppRun; k <= KindPatch; k++ {
			if got, want := g.CountKind(k), len(g.ByKind(k)); got != want {
				t.Fatalf("%s: CountKind(%s) = %d, ByKind lists %d", when, k, got, want)
			}
		}
	}
	tick := int64(0)
	for step := 0; step < 300; step++ {
		if rng.Intn(25) == 0 {
			g.GC(tick - int64(rng.Intn(40)))
			check(g, fmt.Sprintf("step %d, after GC", step))
			continue
		}
		tick++
		if rng.Intn(3) == 0 {
			g.AppendRun([]Action{{Kind: KindAppRun, Time: tick}, {Kind: KindQuery, Time: tick}}, nil)
		} else {
			g.Append(&Action{Kind: Kind(rng.Intn(int(KindPatch) + 1)), Time: tick})
		}
		check(g, fmt.Sprintf("step %d, after append", step))
	}
	for _, a := range g.All() {
		if err := restored.RestoreAction(&Action{ID: a.ID, Kind: a.Kind, Time: a.Time}); err != nil {
			t.Fatal(err)
		}
	}
	check(restored, "after restore")
	if restored.CountKind(KindQuery) != g.CountKind(KindQuery) || g.CountKind(KindQuery) == 0 {
		t.Fatalf("restored %d queries of %d", restored.CountKind(KindQuery), g.CountKind(KindQuery))
	}
}

func TestReadersSortedByTime(t *testing.T) {
	g := New()
	n := g.Intern("part:x")
	// Append out of time order; lookups must still return time order.
	g.Append(&Action{Kind: KindQuery, Time: 30, Inputs: []Dep{{Node: n, Time: 30}}})
	g.Append(&Action{Kind: KindQuery, Time: 10, Inputs: []Dep{{Node: n, Time: 10}}})
	g.Append(&Action{Kind: KindQuery, Time: 20, Inputs: []Dep{{Node: n, Time: 20}}})
	rs := g.Readers(n, 0)
	if len(rs) != 3 || rs[0].Time != 10 || rs[1].Time != 20 || rs[2].Time != 30 {
		t.Fatalf("order = %v", []int64{rs[0].Time, rs[1].Time, rs[2].Time})
	}
}

func TestGC(t *testing.T) {
	g := New()
	n := g.Intern("part:x")
	for i := 0; i < 100; i++ {
		g.Append(&Action{Kind: KindQuery, Time: int64(i), Inputs: []Dep{{Node: n, Time: int64(i)}}})
	}
	removed := g.GC(50)
	if removed != 50 {
		t.Fatalf("removed = %d", removed)
	}
	if g.Len() != 50 {
		t.Fatalf("len = %d", g.Len())
	}
	rs := g.Readers(n, 0)
	if len(rs) != 50 || rs[0].Time != 50 {
		t.Fatalf("post-GC readers: %d from %d", len(rs), rs[0].Time)
	}
	// Collected actions are gone from Get.
	if g.Get(1) != nil {
		t.Fatal("collected action still reachable")
	}
}

// TestRevert: Revert drops the actions a repair appended and the edges
// it added with AddDeps, so lookups, counts and exchanges read as they
// did before; an action appended after Revert is indexed as usual.
func TestRevert(t *testing.T) {
	g := New()
	x, y := g.Intern(PartitionName("t/k=x")), g.Intern(PartitionName("t/k=y"))
	e := Exchange{Client: "c", Visit: 1, Request: 1}
	orig := g.Append(&Action{Kind: KindAppRun, Time: 10, Exchange: e,
		Inputs: []Dep{{Node: ExchangeNode, Time: 10}, {Node: x, Time: 10}}})
	q := g.Append(&Action{Kind: KindQuery, Time: 11, Outputs: []Dep{{Node: x, Time: 11}}})
	state := func() string {
		ids := func(as []*Action) (out []ActionID) {
			for _, a := range as {
				out = append(out, a.ID)
			}
			return out
		}
		return fmt.Sprint(g.Len(), g.CountKind(KindAppRun), g.CountKind(KindQuery),
			ids(g.Readers(x, 0)), ids(g.Writers(x, 0)), ids(g.Readers(y, 0)), ids(g.Writers(y, 0)),
			ids(g.ExchangeActions(e)), g.TableNodes("t"))
	}
	before := state()

	redo := g.Append(&Action{Kind: KindAppRun, Time: 10, Exchange: e,
		Inputs: []Dep{{Node: ExchangeNode, Time: 10}, {Node: y, Time: 10}}})
	rq := g.Append(&Action{Kind: KindQuery, Time: 12, Outputs: []Dep{{Node: y, Time: 12}}})
	g.AddDeps(q, []Dep{{Node: y, Time: 11}}, []Dep{{Node: y, Time: 11}})
	if state() == before {
		t.Fatal("the repair's appends and edges changed nothing")
	}
	g.Revert([]ActionID{redo, rq}, map[ActionID][2]int{q: {0, 1}})
	if got := state(); got != before {
		t.Fatalf("after Revert: %s, want %s", got, before)
	}
	if g.Get(redo) != nil || g.Get(rq) != nil || g.Get(orig) == nil {
		t.Fatal("Revert dropped the wrong actions")
	}
	next := g.Append(&Action{Kind: KindQuery, Time: 13, Inputs: []Dep{{Node: x, Time: 13}}})
	if rs := g.Readers(x, 13); len(rs) != 1 || rs[0].ID != next {
		t.Fatalf("readers of x from 13 after Revert = %v, want action %d", rs, next)
	}
}

func TestLoadedNodesAccounting(t *testing.T) {
	g := New()
	a, b := g.Intern("part:a"), g.Intern("part:b")
	g.Append(&Action{Kind: KindQuery, Time: 1, Inputs: []Dep{{Node: a, Time: 1}}})
	g.ResetLoadStats()
	g.Readers(a, 0)
	g.Readers(a, 0) // same node: still one
	g.Readers(b, 0) // miss still counts as a load probe
	if got := g.LoadedNodes(); got != 2 {
		t.Fatalf("loaded nodes = %d, want 2", got)
	}
}

// TestPropertyIndexConsistency: after random appends and GCs, every
// reader/writer lookup returns exactly the live actions that declared the
// dependency, in time order.
func TestPropertyIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New()
	type expect struct {
		node Node
		time int64
		id   ActionID
	}
	var reads, writes []expect
	gcHorizon := int64(0)
	tick := int64(0)
	for step := 0; step < 500; step++ {
		if rng.Intn(20) == 0 {
			gcHorizon = tick - int64(rng.Intn(50))
			g.GC(gcHorizon)
			continue
		}
		tick++
		node := g.Intern(fmt.Sprintf("part:n%d", rng.Intn(8)))
		a := &Action{Kind: KindQuery, Time: tick}
		if rng.Intn(2) == 0 {
			a.Inputs = []Dep{{Node: node, Time: tick}}
		} else {
			a.Outputs = []Dep{{Node: node, Time: tick}}
		}
		id := g.Append(a)
		if len(a.Inputs) > 0 {
			reads = append(reads, expect{node, tick, id})
		} else {
			writes = append(writes, expect{node, tick, id})
		}
	}
	check := func(lookup func(Node, int64) []*Action, exp []expect) {
		byNode := map[Node][]expect{}
		for _, e := range exp {
			if e.time >= gcHorizon {
				byNode[e.node] = append(byNode[e.node], e)
			}
		}
		for node, want := range byNode {
			got := lookup(node, 0)
			if len(got) != len(want) {
				t.Fatalf("node %s: %d results, want %d", g.NodeName(node), len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].id {
					t.Fatalf("node %s: result %d = action %d, want %d", g.NodeName(node), i, got[i].ID, want[i].id)
				}
			}
		}
	}
	check(g.Readers, reads)
	check(g.Writers, writes)
}
