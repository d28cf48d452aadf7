package history

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The graph's model oracle: a naive reference that keeps every action
// with its edges as node *names* and answers each query by scanning all
// of them. TestGraphMatchesNaiveModel drives the Graph and the reference
// through the same seeded stream of appends, batches, dependency
// extensions, restores and collections, and after every step requires
// equal answers — so interning, the slab, the lazily built exchange index
// and the per-table node lists are checked against the one obvious
// definition of each query.

type refDep struct {
	name string // node name; an exchange edge carries the exchange's name
	time int64
}

type refAction struct {
	id      ActionID
	kind    Kind
	time    int64
	in, out []refDep
}

type refGraph struct {
	actions map[ActionID]*refAction
	nextID  ActionID
}

// sorted returns the reference's actions picked by keep, in (time, ID)
// order, or in ID order — the graph's append order — when byID is set.
func (r *refGraph) sorted(byID bool, keep func(*refAction) bool) []ActionID {
	var picked []*refAction
	for _, a := range r.actions {
		if keep(a) {
			picked = append(picked, a)
		}
	}
	sort.Slice(picked, func(i, j int) bool {
		if !byID && picked[i].time != picked[j].time {
			return picked[i].time < picked[j].time
		}
		return picked[i].id < picked[j].id
	})
	ids := make([]ActionID, len(picked))
	for i, a := range picked {
		ids[i] = a.id
	}
	return ids
}

func hasDep(deps []refDep, match func(name string) bool) bool {
	for _, d := range deps {
		if match(d.name) {
			return true
		}
	}
	return false
}

func ids(acts []*Action) []ActionID {
	out := make([]ActionID, len(acts))
	for i, a := range acts {
		out[i] = a.ID
	}
	return out
}

func TestGraphMatchesNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runGraphModel(t, seed, 300) })
	}
}

func runGraphModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	ref := &refGraph{actions: map[ActionID]*refAction{}, nextID: 1}

	// The name pool: keyed and whole-table partitions of three tables,
	// files, cookies. Names are interned in a shuffled order, so handle
	// order differs from name order.
	var pool []string
	for tbl := 0; tbl < 3; tbl++ {
		pool = append(pool, PartitionName(fmt.Sprintf("t%d/*", tbl)))
		for k := 0; k < 4; k++ {
			pool = append(pool, PartitionName(fmt.Sprintf("t%d/owner=k%d", tbl, k)))
		}
	}
	for i := 0; i < 3; i++ {
		pool = append(pool, FileName(fmt.Sprintf("f%d.php", i)), CookieName(fmt.Sprintf("c%d", i)))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	exchanges := []Exchange{{Client: "srv", Request: 1}, {Client: "c0", Visit: 1, Request: 1}, {Client: "c/0", Visit: 2, Request: 3}}

	clock := int64(100)
	randDeps := func(a *Action, max int, exch bool) ([]Dep, []refDep) {
		var deps []Dep
		var rdeps []refDep
		for n := rng.Intn(max + 1); n > 0; n-- {
			name, at := pool[rng.Intn(len(pool))], clock-int64(rng.Intn(3))
			deps = append(deps, Dep{Node: g.Intern(name), Time: at})
			rdeps = append(rdeps, refDep{name, at})
		}
		if exch && a.Exchange != (Exchange{}) && rng.Intn(3) > 0 {
			i := rng.Intn(len(deps) + 1)
			deps = append(deps[:i], append([]Dep{{Node: ExchangeNode, Time: a.Time}}, deps[i:]...)...)
			rdeps = append(rdeps[:i], append([]refDep{{a.Exchange.Name(), a.Time}}, rdeps[i:]...)...)
		}
		return deps, rdeps
	}
	newAction := func() (Action, *refAction) {
		clock += int64(rng.Intn(4))
		a := Action{Kind: Kind(rng.Intn(3)), Time: clock - int64(rng.Intn(6))}
		if rng.Intn(3) == 0 {
			a.Exchange = exchanges[rng.Intn(len(exchanges))]
		}
		r := &refAction{kind: a.Kind, time: a.Time}
		a.Inputs, r.in = randDeps(&a, 3, true)
		a.Outputs, r.out = randDeps(&a, 2, true)
		return a, r
	}
	liveID := func() ActionID {
		all := ref.sorted(true, func(*refAction) bool { return true })
		if len(all) == 0 {
			return 0
		}
		return all[rng.Intn(len(all))]
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 8: // Append
			a, r := newAction()
			r.id = g.Append(&a)
			if r.id != ref.nextID {
				t.Fatalf("step %d: Append assigned %d, want %d", step, r.id, ref.nextID)
			}
			ref.actions[r.id], ref.nextID = r, r.id+1
		case op < 12: // AppendRun: consecutive IDs, visible to link
			acts := make([]Action, 1+rng.Intn(4))
			refs := make([]*refAction, len(acts))
			for i := range acts {
				acts[i], refs[i] = newAction()
			}
			linked := false
			first := g.AppendRun(acts, func() {
				linked = true
				for i := range acts {
					if acts[i].ID != ref.nextID+ActionID(i) {
						t.Fatalf("step %d: batch action %d has ID %d at link time, want %d", step, i, acts[i].ID, ref.nextID+ActionID(i))
					}
				}
			})
			if !linked || first != ref.nextID {
				t.Fatalf("step %d: AppendRun linked=%v first=%d, want %d", step, linked, first, ref.nextID)
			}
			for _, r := range refs {
				r.id = ref.nextID
				ref.actions[r.id], ref.nextID = r, r.id+1
			}
		case op < 15: // AddDeps, duplicates included
			id := liveID()
			if id == 0 {
				continue
			}
			r := ref.actions[id]
			a := &Action{Time: r.time}
			in, rin := randDeps(a, 2, false)
			out, rout := randDeps(a, 2, false)
			if len(r.in) > 0 && rng.Intn(2) == 0 {
				if d := r.in[rng.Intn(len(r.in))]; !strings.HasPrefix(d.name, "http:") {
					in, rin = append(in, Dep{Node: g.Intern(d.name), Time: d.time}), append(rin, d)
				}
			}
			g.AddDeps(id, in, out)
			for _, d := range rin {
				if !containsDep(r.in, d) {
					r.in = append(r.in, d)
				}
			}
			for _, d := range rout {
				if !containsDep(r.out, d) {
					r.out = append(r.out, d)
				}
			}
		case op < 17: // RestoreAction: ahead of the allocator, or a duplicate
			a, r := newAction()
			if id := liveID(); id != 0 && rng.Intn(3) == 0 {
				a.ID = id
				if err := g.RestoreAction(&a); err == nil {
					t.Fatalf("step %d: restore of live action %d succeeded", step, id)
				}
				continue
			}
			a.ID = ref.nextID + ActionID(rng.Intn(3))
			if err := g.RestoreAction(&a); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			r.id = a.ID
			ref.actions[r.id], ref.nextID = r, r.id+1
		default: // GC
			before := clock - int64(rng.Intn(40))
			want := 0
			for id, r := range ref.actions {
				if r.time < before {
					delete(ref.actions, id)
					want++
				}
			}
			if got := g.GC(before); got != want {
				t.Fatalf("step %d: GC(%d) removed %d, want %d", step, before, got, want)
			}
		}
		checkAgainstModel(t, step, g, ref, pool, exchanges)
	}
}

func containsDep(deps []refDep, d refDep) bool {
	for _, h := range deps {
		if h == d {
			return true
		}
	}
	return false
}

func checkAgainstModel(t *testing.T, step int, g *Graph, ref *refGraph, pool []string, exchanges []Exchange) {
	t.Helper()
	eq := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: %s = %v, the model says %v", step, what, got, want)
		}
	}
	all := func(*refAction) bool { return true }
	if g.Len() != len(ref.actions) {
		t.Fatalf("step %d: Len = %d, the model holds %d", step, g.Len(), len(ref.actions))
	}
	eq("All", ids(g.All()), ref.sorted(true, all))
	for k := KindAppRun; k <= KindPatch; k++ {
		eq("ByKind "+k.String(), ids(g.ByKind(k)), ref.sorted(true, func(a *refAction) bool { return a.kind == k }))
	}
	from := int64(0)
	if len(ref.actions) > 0 {
		from = ref.actions[ref.sorted(false, all)[len(ref.actions)/2]].time
	}
	for _, name := range pool {
		n := g.Intern(name)
		for _, since := range []int64{0, from} {
			eq("Readers "+name, ids(g.Readers(n, since)), ref.sorted(false, func(a *refAction) bool {
				return a.time >= since && hasDep(a.in, func(m string) bool { return m == name })
			}))
			eq("Writers "+name, ids(g.Writers(n, since)), ref.sorted(false, func(a *refAction) bool {
				return a.time >= since && hasDep(a.out, func(m string) bool { return m == name })
			}))
		}
	}
	for _, e := range exchanges {
		name := e.Name()
		if back, ok := ParseExchange(name); !ok || back != e {
			t.Fatalf("ParseExchange(%q) = %+v, %v", name, back, ok)
		}
		eq("ExchangeActions "+name, ids(g.ExchangeActions(e)), ref.sorted(true, func(a *refAction) bool {
			return hasDep(append(append([]refDep{}, a.in...), a.out...), func(m string) bool { return m == name })
		}))
	}
	for tbl := 0; tbl < 3; tbl++ {
		table := fmt.Sprintf("t%d", tbl)
		var want []string
		for _, name := range pool {
			if tb, _, ok := partitionTable(name); ok && tb == table {
				posted := func(a *refAction) bool {
					return hasDep(append(append([]refDep{}, a.in...), a.out...), func(m string) bool { return m == name })
				}
				if len(ref.sorted(true, posted)) > 0 {
					want = append(want, name)
				}
			}
		}
		sort.Strings(want)
		var got []string
		for _, n := range g.TableNodes(table) {
			got = append(got, g.NodeName(n))
		}
		eq("TableNodes "+table, got, want)
	}
	for id, r := range ref.actions {
		var in, out, wantIn, wantOut Handles
		g.AppendHandles(id, &in, &out)
		handles := func(deps []refDep, h *Handles) {
			for _, d := range deps {
				if strings.HasPrefix(d.name, "http:") {
					e, _ := ParseExchange(d.name)
					h.Exchanges = append(h.Exchanges, e)
					continue
				}
				h.Nodes = append(h.Nodes, g.Intern(d.name))
				if table, whole, ok := partitionTable(d.name); ok && !whole {
					h.Wilds = append(h.Wilds, g.Intern(PartitionName(table+"/*")))
				}
			}
		}
		handles(r.in, &wantIn)
		handles(r.out, &wantOut)
		eq(fmt.Sprintf("AppendHandles(%d) reads", id), in, wantIn)
		eq(fmt.Sprintf("AppendHandles(%d) writes", id), out, wantOut)
	}
}

// TestSortNodesOrdersByName: handle order is interning order; every order
// repair can observe must be the name order.
func TestSortNodesOrdersByName(t *testing.T) {
	g := New()
	names := []string{"part:t/owner=z", "part:t/*", "cookie:c", "part:t/owner=a", "file:f"}
	nodes := make([]Node, len(names))
	for i, name := range names {
		nodes[i] = g.Intern(name)
	}
	g.SortNodes(nodes)
	sort.Strings(names)
	for i, n := range nodes {
		if g.NodeName(n) != names[i] {
			t.Fatalf("position %d holds %s, want %s", i, g.NodeName(n), names[i])
		}
	}
}
