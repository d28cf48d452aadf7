package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"warp/internal/app"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// buildDisjointWorkload creates a notes deployment where each of users
// owners wrote notes notes into their own partition, then retro-patches
// with a sanitizing handler so every run re-executes. Returns the report
// and the final table contents.
func buildDisjointWorkload(t *testing.T, workers, users, notes int) (*Report, []string) {
	t.Helper()
	w := newNotesAppWorkers(t, workers)
	for u := 0; u < users; u++ {
		for n := 0; n < notes; n++ {
			resp := w.HandleRequest(httpd.NewRequest("GET",
				fmt.Sprintf("/?owner=u%d&body=<b>note-%d-%d</b>", u, u, n)))
			if resp.Status != 200 {
				t.Fatalf("seed request failed: %d", resp.Status)
			}
		}
	}
	rep, err := w.RetroPatch("notes.php", app.Version{Entry: sanitizedNotes, Note: "sanitize"})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := w.DB.Exec("SELECT owner, body FROM notes ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, r[0].AsText()+"|"+r[1].AsText())
	}
	return rep, rows
}

// sanitizedNotes is the notes handler with note bodies escaped.
func sanitizedNotes(c *app.Ctx) *httpd.Response {
	if body := c.Req.Param("body"); body != "" {
		clean := strings.ReplaceAll(strings.ReplaceAll(body, "<", "&lt;"), ">", "&gt;")
		id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM notes").FirstValue()
		c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			id, sqldb.Text(c.Req.Param("owner")), sqldb.Text(clean))
	}
	res := c.MustQuery("SELECT body FROM notes WHERE owner = ?", sqldb.Text(c.Req.Param("owner")))
	var sb strings.Builder
	sb.WriteString("<html><body><ul>")
	for _, row := range res.Rows {
		sb.WriteString("<li>" + row[0].AsText() + "</li>")
	}
	sb.WriteString("</ul></body></html>")
	return httpd.HTML(sb.String())
}

// newNotesAppWorkers is newNotesApp with an explicit worker count.
func newNotesAppWorkers(t *testing.T, workers int) *Warp {
	t.Helper()
	w := New(Config{Seed: 5, RepairWorkers: workers})
	if err := w.DB.Annotate("notes", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	handler := func(c *app.Ctx) *httpd.Response {
		if body := c.Req.Param("body"); body != "" {
			id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM notes").FirstValue()
			c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
				id, sqldb.Text(c.Req.Param("owner")), sqldb.Text(body))
		}
		res := c.MustQuery("SELECT body FROM notes WHERE owner = ?", sqldb.Text(c.Req.Param("owner")))
		var b strings.Builder
		b.WriteString("<html><body><ul>")
		for _, row := range res.Rows {
			b.WriteString("<li>" + row[0].AsText() + "</li>")
		}
		b.WriteString("</ul></body></html>")
		return httpd.HTML(b.String())
	}
	if err := w.Runtime.Register("notes.php", app.Version{Entry: handler}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "notes.php")
	return w
}

// TestParallelRepairMatchesSerial repairs the same partition-disjoint
// workload with the serial engine and with 4 workers and requires
// identical reports (work accounting, conflicts) and identical final
// table states.
func TestParallelRepairMatchesSerial(t *testing.T) {
	serialRep, serialRows := buildDisjointWorkload(t, 1, 6, 3)
	parallelRep, parallelRows := buildDisjointWorkload(t, 4, 6, 3)

	if serialRep.RepairWorkers != 1 || parallelRep.RepairWorkers != 4 {
		t.Fatalf("workers = %d / %d, want 1 / 4", serialRep.RepairWorkers, parallelRep.RepairWorkers)
	}
	if serialRep.AppRunsReexecuted == 0 {
		t.Fatal("workload repaired nothing")
	}
	type counts struct{ runs, queries, visits, cancelled, conflicts int }
	s := counts{serialRep.AppRunsReexecuted, serialRep.QueriesReexecuted, serialRep.PageVisitsReplayed, serialRep.RunsCancelled, len(serialRep.Conflicts)}
	p := counts{parallelRep.AppRunsReexecuted, parallelRep.QueriesReexecuted, parallelRep.PageVisitsReplayed, parallelRep.RunsCancelled, len(parallelRep.Conflicts)}
	if s != p {
		t.Fatalf("report mismatch:\n  serial   %+v\n  parallel %+v", s, p)
	}
	if len(serialRows) != len(parallelRows) {
		t.Fatalf("row count mismatch: %d vs %d", len(serialRows), len(parallelRows))
	}
	for i := range serialRows {
		if serialRows[i] != parallelRows[i] {
			t.Fatalf("row %d mismatch: %q vs %q", i, serialRows[i], parallelRows[i])
		}
	}
	// The sanitizer must have rewritten every note in both timelines.
	for _, r := range parallelRows {
		if strings.Contains(r, "<b>") {
			t.Fatalf("unsanitized row survived parallel repair: %q", r)
		}
	}
}

// TestSerialIdenticalToLegacyEngine pins the serial path's report against
// the values the pre-scheduler engine produced for the same workload, so
// RepairWorkers=1 stays a faithful reproduction of the paper's loop.
func TestSerialIdenticalToLegacyEngine(t *testing.T) {
	rep, _ := buildDisjointWorkload(t, 1, 3, 2)
	// 3 users x 2 notes = 6 runs, each re-executed once by the patch.
	if rep.AppRunsReexecuted != 6 {
		t.Fatalf("runs re-executed = %d, want 6", rep.AppRunsReexecuted)
	}
	if rep.TotalAppRuns != 6 {
		t.Fatalf("total runs = %d, want 6", rep.TotalAppRuns)
	}
	// Every run's response changes (sanitized body) and the extensionless
	// client yields one conflict per changed response.
	if len(rep.Conflicts) != 6 {
		t.Fatalf("conflicts = %d, want 6", len(rep.Conflicts))
	}
	if rep.Generation != 2 {
		t.Fatalf("generation = %d, want 2", rep.Generation)
	}
}

// TestRepairWorkersKnob checks the default resolution of the knob.
func TestRepairWorkersKnob(t *testing.T) {
	w := newNotesAppWorkers(t, 0)
	rs := w.newSession(2)
	if rs.sched.workers < 1 {
		t.Fatalf("default workers = %d, want >= 1", rs.sched.workers)
	}
	w2 := newNotesAppWorkers(t, 7)
	rs2 := w2.newSession(2)
	if rs2.sched.workers != 7 {
		t.Fatalf("workers = %d, want 7", rs2.sched.workers)
	}
	w3 := newNotesAppWorkers(t, -3)
	rs3 := w3.newSession(2)
	if rs3.sched.workers != 1 {
		t.Fatalf("negative workers = %d, want clamp to 1", rs3.sched.workers)
	}
}

// TestUndoPartition rolls back one owner's partition to before an attack
// and checks the rest of the table is untouched, at both worker counts.
func TestUndoPartition(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := newNotesAppWorkers(t, workers)
		seed := func(owner, body string) {
			resp := w.HandleRequest(httpd.NewRequest("GET", "/?owner="+owner+"&body="+body))
			if resp.Status != 200 {
				t.Fatalf("seed failed: %d", resp.Status)
			}
		}
		seed("alice", "clean")
		seed("bob", "bob-note")
		preAttack := w.Clock.Now()
		seed("alice", "INJECTED")

		alice := ttdb.Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
		rep, err := w.UndoPartition(alice, preAttack+1)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.RunsCancelled == 0 {
			t.Fatalf("workers=%d: no runs cancelled", workers)
		}
		res, _, _ := w.DB.Exec("SELECT owner, body FROM notes ORDER BY id")
		var bodies []string
		for _, r := range res.Rows {
			bodies = append(bodies, r[1].AsText())
		}
		for _, b := range bodies {
			if b == "INJECTED" {
				t.Fatalf("workers=%d: injected row survived partition undo: %v", workers, bodies)
			}
		}
		found := false
		for _, b := range bodies {
			if b == "bob-note" {
				found = true
			}
		}
		if !found {
			t.Fatalf("workers=%d: bob's partition damaged: %v", workers, bodies)
		}
	}
}

// TestUndoPartitionPastGCHorizon: once GC has collected the versions that
// were live at t, undoing a partition back to t can restore nothing. The
// repair fails and aborts; it used to commit having undone no write.
func TestUndoPartitionPastGCHorizon(t *testing.T) {
	w := newNotesAppWorkers(t, 1)
	for _, body := range []string{"clean", "INJECTED"} {
		if resp := w.HandleRequest(httpd.NewRequest("GET", "/?owner=alice&body="+body)); resp.Status != 200 {
			t.Fatalf("seed failed: %d", resp.Status)
		}
	}
	if err := w.GC(w.Clock.Now() + 1); err != nil {
		t.Fatal(err)
	}
	gen := w.DB.CurrentGen()
	alice := ttdb.Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	rep, err := w.UndoPartition(alice, 1)
	if err == nil || !strings.Contains(err.Error(), "GC horizon") {
		t.Fatalf("UndoPartition past the horizon: report %+v, err %v; want a GC-horizon error", rep, err)
	}
	if w.DB.InRepair() || w.DB.CurrentGen() != gen {
		t.Fatalf("the failed repair was not aborted: in repair %v, generation %d -> %d", w.DB.InRepair(), gen, w.DB.CurrentGen())
	}
	if _, err := w.UndoPartition(alice, w.Clock.Now()+2); err != nil {
		t.Fatalf("UndoPartition after the horizon: %v", err)
	}
}

// TestParallelUndoVisit exercises the exclusive visit path and run
// cancellation under the parallel scheduler.
func TestParallelUndoVisit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := newNotesAppWorkers(t, workers)
		b := w.NewBrowser()
		b.Open("/?owner=alice&body=keep")
		evil := b.Open("/?owner=alice&body=EVIL")
		_ = evil
		undoVisit := int64(2)
		rep, err := w.UndoVisit(b.ClientID, undoVisit, true)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.RunsCancelled == 0 {
			t.Fatalf("workers=%d: nothing cancelled", workers)
		}
		res, _, _ := w.DB.Exec("SELECT body FROM notes ORDER BY id")
		for _, r := range res.Rows {
			if r[0].AsText() == "EVIL" {
				t.Fatalf("workers=%d: undone note survived", workers)
			}
		}
	}
}

// TestDispatchScanMatchesPairwiseScan: the dispatch scan remembers what
// blocked an item and skips the footprint comparisons while that blocker
// is unfinished. On random queues, dispatches, completions and late pushes
// it must pick the item a scan that compares every pair afresh picks.
func TestDispatchScanMatchesPairwiseScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := history.New()
	part := func() history.Dep {
		p := ttdb.WholeTable("pages")
		if rng.Intn(40) > 0 {
			p = ttdb.Partition{Table: "pages", Column: "title", Key: fmt.Sprint(rng.Intn(12))}
		}
		return history.Dep{Node: g.Intern(partitionName(p))}
	}
	var seq int64
	item := func() *workItem {
		seq++
		act := &history.Action{Kind: history.KindQuery, Inputs: []history.Dep{part()}}
		if rng.Intn(2) == 0 {
			act.Outputs = []history.Dep{part()}
		}
		return &workItem{kind: workQueryCheck, time: int64(rng.Intn(400)), seq: seq, fp: footprintOf(g, g.Append(act))}
	}
	for round := 0; round < 20; round++ {
		s := newScheduler(nil, 4, 1<<30)
		for i := 0; i < 150; i++ {
			heap.Push(&s.pending, item())
		}
		for len(s.pending)+len(s.blocked)+len(s.inflight) > 0 {
			// The reference: every queued item in time order, compared
			// against everything in flight and every blocked item before it.
			queued := append(append(workQueue{}, s.pending...), s.blocked...)
			sort.Sort(queued)
			var want *workItem
			var ahead []*footprint
			for _, it := range queued {
				if len(ahead) == lookahead {
					break
				}
				free := true
				for in := range s.inflight {
					free = free && !it.fp.conflicts(in.fp)
				}
				for _, fp := range ahead {
					free = free && !it.fp.conflicts(fp)
				}
				if free {
					want = it
					break
				}
				ahead = append(ahead, it.fp)
			}
			got := s.nextDispatchable()
			if got != want {
				t.Fatalf("round %d: scan picked %+v, the pairwise scan %+v (%d queued, %d in flight)", round, got, want, len(queued), len(s.inflight))
			}
			if got != nil && len(s.inflight) < s.workers {
				s.inflight[got] = true
				s.busy++
			} else if got != nil {
				heap.Push(&s.pending, got) // no idle worker: leave it queued
			}
			if len(s.inflight) > 0 && (got == nil || rng.Intn(3) > 0) {
				for it := range s.inflight { // whichever the map yields first
					s.complete(it, nil)
					break
				}
			}
			if seq < 4000 && rng.Intn(8) == 0 {
				heap.Push(&s.pending, item())
			}
		}
	}
}

// footprintOf is the sealed footprint of some actions' graph edges.
func footprintOf(g *history.Graph, ids ...history.ActionID) *footprint {
	fp := &footprint{}
	for _, id := range ids {
		g.AppendHandles(id, &fp.reads, &fp.writes)
	}
	return fp.seal()
}

// TestHandleFootprintsMatchPartitionRule: footprints intersect sorted
// graph handles, with a table's wildcard standing for the table. On
// seeded footprints over two tables — keyed partitions on two columns,
// whole tables, cookie nodes, exchanges — every pair's verdict must be
// the typed-partition rule's: ttdb.PartitionSet overlap of the parsed
// node names, plus intersection of the other nodes and of the exchanges.
// A live write's claims (liveClaims), which include partitions no action
// ever named, must agree with PartitionSet.OverlapsAny the same way.
func TestHandleFootprintsMatchPartitionRule(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randPart := func() ttdb.Partition {
		table := fmt.Sprintf("t%d", rng.Intn(2))
		switch rng.Intn(6) {
		case 0:
			return ttdb.WholeTable(table)
		case 1:
			return ttdb.Partition{Table: table, Column: "title", Key: fmt.Sprint(rng.Intn(3))}
		default:
			return ttdb.Partition{Table: table, Column: "owner", Key: fmt.Sprint(rng.Intn(4))}
		}
	}
	// oracle is one side of a footprint under the typed rule.
	type oracle struct {
		parts *ttdb.PartitionSet
		nodes map[string]bool
		exch  map[history.Exchange]bool
	}
	newOracle := func() *oracle {
		return &oracle{ttdb.NewPartitionSet(), map[string]bool{}, map[history.Exchange]bool{}}
	}
	meets := func(a, b *oracle) bool {
		if a.parts.Overlaps(b.parts) {
			return true
		}
		for n := range a.nodes {
			if b.nodes[n] {
				return true
			}
		}
		for e := range a.exch {
			if b.exch[e] {
				return true
			}
		}
		return false
	}
	type sample struct {
		fp            *footprint
		reads, writes *oracle
	}
	for round := 0; round < 40; round++ {
		g := history.New()
		// edges draws a few edges of one direction, noting each in the oracle.
		edges := func(o *oracle, e history.Exchange) []history.Dep {
			var deps []history.Dep
			for i := rng.Intn(4); i > 0; i-- {
				var name string
				switch rng.Intn(5) {
				case 0:
					name = history.CookieName(fmt.Sprintf("c%d", rng.Intn(3)))
					o.nodes[name] = true
				case 1:
					deps = append(deps, history.Dep{Node: history.ExchangeNode})
					o.exch[e] = true
					continue
				default:
					p := randPart()
					name = partitionName(p)
					back, ok := ttdb.ParsePartition(strings.TrimPrefix(name, "part:"))
					if !ok {
						t.Fatalf("%s does not parse", name)
					}
					o.parts.Add(back)
				}
				deps = append(deps, history.Dep{Node: g.Intern(name)})
			}
			return deps
		}
		var samples []sample
		for i := 0; i < 30; i++ {
			smp := sample{reads: newOracle(), writes: newOracle()}
			var ids []history.ActionID
			for j := 1 + rng.Intn(2); j > 0; j-- { // a run's edges and its query's
				e := history.Exchange{Client: "c", Visit: int64(rng.Intn(4)), Request: 1}
				ids = append(ids, g.Append(&history.Action{
					Kind: history.KindQuery, Exchange: e,
					Inputs: edges(smp.reads, e), Outputs: edges(smp.writes, e),
				}))
			}
			smp.fp = footprintOf(g, ids...)
			samples = append(samples, smp)
		}
		verdicts := map[bool]int{}
		for i, a := range samples {
			for j, b := range samples {
				want := meets(a.writes, b.reads) || meets(a.writes, b.writes) || meets(b.writes, a.reads)
				if got := a.fp.conflicts(b.fp); got != want {
					t.Fatalf("round %d, footprints %d and %d: conflicts = %v, the partition rule says %v", round, i, j, got, want)
				}
				verdicts[want]++
			}
		}
		if verdicts[true] == 0 || verdicts[false] == 0 {
			t.Fatalf("round %d: only one verdict: %v", round, verdicts)
		}
		for i, a := range samples {
			live := []ttdb.Partition{randPart(), randPart()}
			if rng.Intn(4) == 0 { // a partition no action named
				live = append(live, ttdb.Partition{Table: live[0].Table, Column: "owner", Key: "never"})
			}
			want := a.reads.parts.OverlapsAny(live) || a.writes.parts.OverlapsAny(live)
			claims := liveClaims(g, live)
			if got := overlaps(claims, &a.fp.reads) || overlaps(claims, &a.fp.writes); got != want {
				t.Fatalf("round %d, footprint %d, live write %v: overlap = %v, OverlapsAny says %v", round, i, live, got, want)
			}
		}
	}
}
