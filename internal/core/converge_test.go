package core

import (
	"fmt"
	"html"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warp/internal/app"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// The repair fixpoint (session.go "converge") re-checks only unsettled
// readers: live actions, and queries whose execution began before some
// change to a partition they read at an earlier time. These tests hold
// both halves: a repair nothing races drains once, and a live request the
// main drain cannot see is still folded in.

// TestQuietRepairDrainsOnce: a retroactive patch with no live traffic
// converges in its main drain. The catch-up and commit-window passes find
// every reader settled and drain nothing, so the trace holds a single
// replay span.
func TestQuietRepairDrainsOnce(t *testing.T) {
	defer tracing()()
	w := newNotesApp(t)
	for u := 0; u < 3; u++ {
		for n := 0; n < 2; n++ {
			if resp := w.HandleRequest(httpd.NewRequest("GET",
				fmt.Sprintf("/?owner=u%d&body=<b>%d</b>", u, n))); resp.Status != 200 {
				t.Fatalf("seed request failed: %d", resp.Status)
			}
		}
	}
	rep, err := w.RetroPatch("notes.php", app.Version{Entry: sanitizedNotes, Note: "sanitize"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppRunsReexecuted != 6 {
		t.Fatalf("re-executed %d runs, want 6", rep.AppRunsReexecuted)
	}
	requireOneDrain(t, w)
}

// tracing turns observability on, so a repair records its phase trace,
// and returns the function that restores the previous setting.
func tracing() func() {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	return func() { obs.SetEnabled(prev) }
}

// requireOneDrain fails the test unless w's last repair converged in its
// main drain: the fixpoint passes after it found every reader settled.
func requireOneDrain(t *testing.T, w *Warp) {
	t.Helper()
	if got := w.Metrics().Repair.Phase("replay").Count; got != 1 {
		t.Errorf("%d replay drains, want 1", got)
	}
}

// newConvergeApp builds a deployment with two tables partitioned by owner
// — notes, and copies — and mounts one file per route. Seeds go through
// HandleRequest, so no visit is logged and no browser replay runs.
func newConvergeApp(t *testing.T, w *Warp, routes map[string]app.Script) {
	t.Helper()
	for _, table := range []string{"notes", "copies"} {
		if err := w.DB.Annotate(table, ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.DB.Exec("CREATE TABLE " + table + " (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
			t.Fatal(err)
		}
	}
	for path, h := range routes {
		file := strings.TrimPrefix(path, "/") + ".php"
		if err := w.Runtime.Register(file, app.Version{Entry: h}); err != nil {
			t.Fatal(err)
		}
		w.Runtime.Mount(path, file)
	}
}

// serve issues one request and fails the test on an error status.
func serve(t *testing.T, w *Warp, url string) {
	t.Helper()
	if resp := w.HandleRequest(httpd.NewRequest("GET", url)); resp.Status != 200 {
		t.Fatalf("%s: status %d: %s", url, resp.Status, resp.Body)
	}
}

// tableRows lists a table's live rows in id order.
func tableRows(t *testing.T, w *Warp, table string) []string {
	t.Helper()
	res, _, err := w.DB.Exec("SELECT id, owner, body FROM " + table + " ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, fmt.Sprintf("%d|%s|%s", r[0].AsInt(), r[1].AsText(), r[2].AsText()))
	}
	return out
}

// notesOf joins the bodies of one owner's notes.
func notesOf(c *app.Ctx, owner string) string {
	var bodies []string
	for _, r := range c.MustQuery("SELECT body FROM notes WHERE owner = ?", sqldb.Text(owner)).Rows {
		bodies = append(bodies, r[0].AsText())
	}
	return strings.Join(bodies, ",")
}

// noteHandler inserts one note, escaping its body when patched; then
// calls hook with the owner.
func noteHandler(patched bool, hook func(owner string)) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		body := c.Req.Param("body")
		if patched {
			body = html.EscapeString(body)
		}
		owner := c.Req.Param("owner")
		c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text(owner), sqldb.Text(body))
		if hook != nil {
			hook(owner)
		}
		return httpd.HTML("<html><body>" + notesOf(c, owner) + "</body></html>")
	}
}

// gate is a one-way signal a handler opens the first time it gets there;
// the fixpoint re-executes the same code, so later opens are no-ops. A
// nil gate is always open.
type gate struct {
	once sync.Once
	ch   chan struct{}
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

func (g *gate) open() {
	if g != nil {
		g.once.Do(func() { close(g.ch) })
	}
}

// wait blocks until the gate opens, failing the test (from any
// goroutine) after a timeout.
func (g *gate) wait(t *testing.T, what string) {
	if g == nil {
		return
	}
	select {
	case <-g.ch:
	case <-time.After(10 * time.Second):
		t.Errorf("timed out waiting for %s", what)
	}
}

// liveFunc is what runs beside a paused repair (liveRun): resume lets
// the repair go on, and returned reports whether it has returned.
type liveFunc func(w *Warp, resume func(), returned func() bool)

// liveRun repairs a deployment whose one note from owner a (id 2) the
// patch rewrites. The repair pauses inside that note's re-execution —
// after it has dirtied a's partition, or, with beforeWrite, before it
// writes it — while live runs on its own goroutine. Online, live
// requests run there and then; on the stop-the-world baseline, which
// resumes at once, they wait for the commit. It returns the notes and
// copies tables once the repair and live have both finished.
func liveRun(t *testing.T, exclusive, beforeWrite bool, live liveFunc) (notes, copies []string) {
	cfg := Config{Seed: 5}
	w := New(cfg)
	if exclusive {
		w = NewStopTheWorldBaseline(cfg)
	}
	copyHandler := func(c *app.Ctx) *httpd.Response {
		body := notesOf(c, c.Req.Param("from"))
		c.MustQuery("INSERT INTO copies (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text(c.Req.Param("to")), sqldb.Text(body))
		return httpd.HTML("<html><body>copied</body></html>")
	}
	newConvergeApp(t, w, map[string]app.Script{"/note": noteHandler(false, nil), "/copy": copyHandler})
	serve(t, w, "/note?id=1&owner=c&body=<i>c1</i>")
	serve(t, w, "/note?id=2&owner=a&body=<b>a</b>")
	serve(t, w, "/note?id=3&owner=c&body=<i>c2</i>")

	paused, resume := newGate(), newGate()
	patched := func(c *app.Ctx) *httpd.Response {
		pause := func(string) {
			if c.Req.Param("id") == "2" {
				paused.open()
				resume.wait(t, "the live requests")
			}
		}
		if !beforeWrite {
			return noteHandler(true, pause)(c)
		}
		pause("")
		return noteHandler(true, nil)(c)
	}
	var returned atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := w.RetroPatch("note.php", app.Version{Entry: patched, Note: "escape"})
		returned.Store(true)
		done <- err
	}()
	paused.wait(t, "the re-execution of a's note")
	if exclusive {
		resume.open()
	}
	liveDone := make(chan struct{})
	go func() {
		defer close(liveDone)
		defer resume.open()
		live(w, resume.open, returned.Load)
	}()
	err := <-done
	<-liveDone
	if err != nil {
		t.Fatal(err)
	}
	return tableRows(t, w, "notes"), tableRows(t, w, "copies")
}

// liveURL serves one live request, then lets the repair go on: online,
// the request lands mid-drain.
func liveURL(t *testing.T, url string) liveFunc {
	return func(w *Warp, _ func(), _ func() bool) {
		if resp := w.HandleRequest(httpd.NewRequest("GET", url)); resp.Status != 200 {
			t.Errorf("live request %s: status %d", url, resp.Status)
		}
	}
}

// TestLiveReadOfDirtiedPartitionConverges: a live request lands mid-drain,
// reads a partition the repair already dirtied and writes another one.
// No later change to the read partition re-offers it during the main
// drain; only the fixpoint's re-propagation finds it (it is live, so never
// settled) and re-executes it, and the result must equal the
// stop-the-world baseline's, where the request runs after the commit.
func TestLiveReadOfDirtiedPartitionConverges(t *testing.T) {
	const copyAB = "/copy?id=1&from=a&to=b"
	_, exclusive := liveRun(t, true, false, liveURL(t, copyAB))
	if want := []string{"1|b|&lt;b&gt;a&lt;/b&gt;"}; strings.Join(exclusive, "\n") != strings.Join(want, "\n") {
		t.Fatalf("baseline copies = %q, want %q", exclusive, want)
	}
	if _, online := liveRun(t, false, false, liveURL(t, copyAB)); strings.Join(online, "\n") != strings.Join(exclusive, "\n") {
		t.Fatalf("online copies = %q, baseline %q", online, exclusive)
	}
}

// TestLiveWriteRunsAtOnce: a live write into owner a's partition executes
// while the repair is paused, both before the repair has dirtied that
// partition (with the item in flight about to write it) and after. What
// it changed is folded in by the fixpoint, so the result must equal the
// stop-the-world baseline's, where the write runs after the commit.
func TestLiveWriteRunsAtOnce(t *testing.T) {
	const noteA = "/note?id=9&owner=a&body=live"
	want := []string{"1|c|&lt;i&gt;c1&lt;/i&gt;", "2|a|&lt;b&gt;a&lt;/b&gt;", "3|c|&lt;i&gt;c2&lt;/i&gt;", "9|a|live"}
	for _, beforeWrite := range []bool{true, false} {
		exclusive, _ := liveRun(t, true, beforeWrite, liveURL(t, noteA))
		if strings.Join(exclusive, "\n") != strings.Join(want, "\n") {
			t.Fatalf("beforeWrite=%v: baseline notes = %q, want %q", beforeWrite, exclusive, want)
		}
		online, _ := liveRun(t, false, beforeWrite, liveURL(t, noteA))
		if strings.Join(online, "\n") != strings.Join(exclusive, "\n") {
			t.Fatalf("beforeWrite=%v: online notes = %q, baseline %q", beforeWrite, online, exclusive)
		}
	}
}

// hammer sends live requests for owner a back to back from one
// goroutine, with no pause: notes into a's partition, and every fourth
// request a copy of it. It sends at least atLeast requests, then goes on
// until the repair returns, never more than atMost. It lets the repair go
// on after the first, so the rest race the drain. sent counts the
// requests served, early those that finished before the repair returned.
func hammer(t *testing.T, atLeast, atMost int, sent, early *int) liveFunc {
	return func(w *Warp, resume func(), returned func() bool) {
		for i := 0; i < atMost && (i < atLeast || !returned()); i++ {
			url := fmt.Sprintf("/note?id=%d&owner=a&body=w%d", 100+i, i)
			if i%4 == 3 {
				url = fmt.Sprintf("/copy?id=%d&from=a&to=b", 100+i)
			}
			if resp := w.HandleRequest(httpd.NewRequest("GET", url)); resp.Status != 200 {
				t.Errorf("live request %s: status %d", url, resp.Status)
				return
			}
			*sent++
			if !returned() {
				*early++
			}
			resume()
		}
	}
}

// TestUnpacedLiveWriterConverges: a writer that never waits, on a
// partition the repair has dirtied, for the whole repair. Nothing paces
// it, so it adds work while the repair drains. The repair must still
// converge and commit while the writer writes — an online drain stops at
// the time it started instead of chasing the writer — and reach the
// tables the stop-the-world baseline reaches serving the same requests
// after its commit. The commit window, where the writer waits, must
// re-execute each live action at most once.
func TestUnpacedLiveWriterConverges(t *testing.T) {
	// A drain that chased the writer would last until the writer stopped
	// at atMost; one that stops at its start lets the repair return after
	// a few hundred requests, some thousand on a loaded machine.
	const atLeast, atMost = 200, 5000
	var sent, early int
	// While the deployment is suspended no live request can take a read
	// hold on it, so the slow-item hook counts there what the commit
	// window re-executes, and for how long.
	var windowItems, windowNs atomic.Int64
	defer SetSlowRepairLog(0, nil)
	notes, copies := liveRun(t, false, false, func(w *Warp, resume func(), returned func() bool) {
		SetSlowRepairLog(time.Nanosecond, func(_ string, d time.Duration) {
			if w.suspendMu.TryRLock() {
				w.suspendMu.RUnlock()
				return
			}
			windowItems.Add(1)
			windowNs.Add(int64(d))
		})
		hammer(t, atLeast, atMost, &sent, &early)(w, resume, returned)
	})
	SetSlowRepairLog(0, nil)
	if early == 0 {
		t.Fatal("no live request finished before the repair returned")
	}
	if sent == atMost {
		t.Fatalf("the repair outlasted all %d live requests: the drain chased the writer", atMost)
	}
	// Each request logs three actions, its run and two queries. The commit
	// window re-executes about one item per action logged before the
	// repair returned (early, and the one in flight then) or in the
	// history's three notes; a query it re-checks twice is the most it
	// repeats. Twice as many would mean its work no longer follows the
	// actions it has to fold in.
	if most := int64(2 * 3 * (early + 1 + 3)); windowItems.Load() > most {
		t.Errorf("the commit window re-executed %d items, more than %d for %d live requests", windowItems.Load(), most, early)
	}
	var baseSent int
	wantNotes, wantCopies := liveRun(t, true, false, hammer(t, sent, sent, &baseSent, new(int)))
	if baseSent != sent {
		t.Fatalf("baseline served %d requests, online %d", baseSent, sent)
	}
	if strings.Join(notes, "\n") != strings.Join(wantNotes, "\n") {
		t.Errorf("online notes differ from the baseline's after %d live requests:\n%q\nwant\n%q", sent, notes, wantNotes)
	}
	if strings.Join(copies, "\n") != strings.Join(wantCopies, "\n") {
		t.Errorf("online copies differ from the baseline's after %d live requests:\n%q\nwant\n%q", sent, copies, wantCopies)
	}
	t.Logf("%d live requests, %d before the repair returned; the commit window re-executed %d items in %v",
		sent, early, windowItems.Load(), time.Duration(windowNs.Load()))
}

// TestDroppedWriteBeforeOwnReadConverges: the patch drops a run's note
// into x, which came before the run's own read of x, and the run copies
// what it read into copies. The re-executed run reads x before its
// dropped write is rolled back, so its copy is stale until the fixpoint
// re-checks that read; copies must end without the dropped note.
func TestDroppedWriteBeforeOwnReadConverges(t *testing.T) {
	w := New(Config{Seed: 5})
	newConvergeApp(t, w, map[string]app.Script{"/app": droppedNoteScript(false)})
	serve(t, w, "/app?id=1")
	if _, err := w.RetroPatch("app.php", app.Version{Entry: droppedNoteScript(true), Note: "drop the note"}); err != nil {
		t.Fatal(err)
	}
	if rows := tableRows(t, w, "notes"); len(rows) != 0 {
		t.Fatalf("notes = %q, want the dropped note gone", rows)
	}
	if rows, want := tableRows(t, w, "copies"), []string{"1|y|"}; strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("copies = %q, want %q", rows, want)
	}
}

// droppedNoteScript inserts a note into x, unless patched, then copies
// x's notes into copies: the patch drops a write before the run's own
// read of it, which the repair fixpoint re-checks.
func droppedNoteScript(patched bool) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		if !patched {
			c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text("x"), sqldb.Text("evil"))
		}
		c.MustQuery("INSERT INTO copies (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text("y"), sqldb.Text(notesOf(c, "x")))
		return httpd.HTML("<html><body>copied</body></html>")
	}
}

// seenScript marks the owner's notes seen: a later write into the
// partition droppedNoteScript writes, which a repair re-checks in place.
func seenScript(c *app.Ctx) *httpd.Response {
	c.MustQuery("UPDATE notes SET body = ? WHERE owner = ?", sqldb.Text("seen"), sqldb.Text(c.Req.Param("owner")))
	return httpd.HTML("<html><body>seen</body></html>")
}

// historyState lists w's history graph: every action with its edge
// counts and, for runs and queries, whether a repair superseded it; a
// query also shows its record's generation and written rows, which a
// repair rewrites in place.
func historyState(w *Warp) string {
	var b strings.Builder
	for _, a := range w.Graph.All() {
		fmt.Fprintf(&b, "%d kind=%d t=%d in=%d out=%d", a.ID, a.Kind, a.Time, len(a.Inputs), len(a.Outputs))
		switch p := a.Payload.(type) {
		case *RunPayload:
			fmt.Fprintf(&b, " superseded=%v", p.Superseded.Load())
		case *QueryPayload:
			fmt.Fprintf(&b, " superseded=%v gen=%d rows=%v", p.Superseded.Load(), p.Rec.Gen, p.Rec.WriteRowIDs)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// lowerStepBound sets the drain's step bound to slack steps and returns
// the function that restores it.
func lowerStepBound(slack int) func() {
	per, was := stepsPerAction, stepSlack
	stepsPerAction, stepSlack = 0, slack
	return func() { stepsPerAction, stepSlack = per, was }
}

// TestRepairThatCannotConvergeAborts: a repair that runs out of drain
// steps aborts instead of committing. On the stop-the-world baseline the
// bound is raised one step at a time, so it runs out in the main drain
// and, last, in the commit window's converge pass; every such repair must
// return the "did not converge" error and leave both tables and the
// history graph as they were, and the first bound that suffices must
// repair. After each abort a second repair in the same process, at the
// normal bound, must repair too. A later run's update of the dropped
// note makes the repair rewrite a query record in place. A
// durable deployment whose repair aborted must reopen with no pending
// intent, and repair at the normal bound.
func TestRepairThatCannotConvergeAborts(t *testing.T) {
	defer tracing()()
	patch := app.Version{Entry: droppedNoteScript(true), Note: "drop the note"}
	repaired := []string{"1|y|"}
	checkRepaired := func(w *Warp, what string) {
		t.Helper()
		if rows := tableRows(t, w, "notes"); len(rows) != 0 {
			t.Fatalf("%s: notes = %q, want the dropped note gone", what, rows)
		}
		if rows := tableRows(t, w, "copies"); strings.Join(rows, "\n") != strings.Join(repaired, "\n") {
			t.Fatalf("%s: copies = %q, want %q", what, rows, repaired)
		}
	}

	var w *Warp
	var notes, copies []string
	var lastDrains uint64
	for slack := 1; ; slack++ {
		if slack > 100 {
			t.Fatal("no step bound up to 100 lets the repair converge")
		}
		w = NewStopTheWorldBaseline(Config{Seed: 5})
		newConvergeApp(t, w, map[string]app.Script{"/app": droppedNoteScript(false), "/seen": seenScript})
		serve(t, w, "/app?id=1")
		serve(t, w, "/seen?owner=x")
		notes, copies = tableRows(t, w, "notes"), tableRows(t, w, "copies")
		history := historyState(w)
		restore := lowerStepBound(slack)
		_, err := w.RetroPatch("app.php", patch)
		restore()
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "did not converge") {
			t.Fatalf("bound %d: %v, want the repair not to converge", slack, err)
		}
		if got := tableRows(t, w, "notes"); strings.Join(got, "\n") != strings.Join(notes, "\n") {
			t.Fatalf("bound %d: notes = %q after the abort, want %q", slack, got, notes)
		}
		if got := tableRows(t, w, "copies"); strings.Join(got, "\n") != strings.Join(copies, "\n") {
			t.Fatalf("bound %d: copies = %q after the abort, want %q", slack, got, copies)
		}
		if got := historyState(w); got != history {
			t.Fatalf("bound %d: history after the abort:\n%s\nwant\n%s", slack, got, history)
		}
		lastDrains = w.Metrics().Repair.Phase("replay").Count
		if _, err := w.RetroPatch("app.php", patch); err != nil {
			t.Fatalf("bound %d: repair at the normal bound after the abort: %v", slack, err)
		}
		checkRepaired(w, fmt.Sprintf("bound %d, repaired again after the abort", slack))
	}
	if lastDrains < 2 {
		t.Errorf("the last repair to abort ran %d drains; want it to run out in the commit window", lastDrains)
	}
	checkRepaired(w, "first bound that suffices")

	dir := t.TempDir()
	cfg := Config{Seed: 5, Durability: testDurability()}
	d, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	newConvergeApp(t, d, map[string]app.Script{"/app": droppedNoteScript(false), "/seen": seenScript})
	serve(t, d, "/app?id=1")
	serve(t, d, "/seen?owner=x")
	restore := lowerStepBound(1)
	_, err = d.RetroPatch("app.php", patch)
	restore()
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("durable repair at a bound of 1: %v, want the repair not to converge", err)
	}
	d.Crash()
	if d, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if it := d.PendingRepair(); it != nil {
		t.Fatalf("reopened with pending intent %+v after an aborted repair", it)
	}
	if got := tableRows(t, d, "notes"); strings.Join(got, "\n") != strings.Join(notes, "\n") {
		t.Fatalf("reopened notes = %q, want %q", got, notes)
	}
	if got := tableRows(t, d, "copies"); strings.Join(got, "\n") != strings.Join(copies, "\n") {
		t.Fatalf("reopened copies = %q, want %q", got, copies)
	}
	if err := d.Runtime.Register("app.php", app.Version{Entry: droppedNoteScript(false)}); err != nil {
		t.Fatal(err)
	}
	d.Runtime.Mount("/app", "app.php")
	if err := d.Runtime.Register("seen.php", app.Version{Entry: seenScript}); err != nil {
		t.Fatal(err)
	}
	d.Runtime.Mount("/seen", "seen.php")
	if _, err := d.RetroPatch("app.php", patch); err != nil {
		t.Fatalf("repair at the normal bound after the abort: %v", err)
	}
	checkRepaired(d, "reopened")
}

// TestRunRacingDirtConverges: the patch makes the run copying owner y's
// notes also read owner x's, a partition outside that run's recorded
// footprint, while an earlier run's note into x is re-applied. The repair
// loop finishes the earlier note before the copying run starts, so the
// run's new read of x must see the rewritten note in the main drain,
// leaving the fixpoint nothing to fold in.
func TestRunRacingDirtConverges(t *testing.T) {
	defer tracing()()
	w := New(Config{Seed: 5})
	script := func(patched bool) app.Script {
		note := noteHandler(patched, nil)
		return func(c *app.Ctx) *httpd.Response {
			if c.Req.Param("op") == "note" {
				return note(c)
			}
			body := notesOf(c, "y")
			if patched {
				body += "+" + notesOf(c, "x")
			}
			c.MustQuery("INSERT INTO copies (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text("y"), sqldb.Text(body))
			return httpd.HTML("<html><body>copied</body></html>")
		}
	}
	newConvergeApp(t, w, map[string]app.Script{"/app": script(false)})
	serve(t, w, "/app?op=note&id=1&owner=y&body=y1")
	serve(t, w, "/app?op=note&id=2&owner=x&body=<b>x</b>")
	serve(t, w, "/app?op=copy&id=1")
	if _, err := w.RetroPatch("app.php", app.Version{Entry: script(true), Note: "escape"}); err != nil {
		t.Fatal(err)
	}
	if rows := tableRows(t, w, "copies"); !strings.Contains(strings.Join(rows, "\n"), "1|y|y1+&lt;b&gt;x&lt;/b&gt;") {
		t.Fatalf("copies = %q, want the rewritten note of x", rows)
	}
	requireOneDrain(t, w)
}
