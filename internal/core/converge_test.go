package core

import (
	"fmt"
	"html"
	"strings"
	"sync"
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

// liveRun repairs a deployment whose one note from owner a (id 2) the
// patch rewrites. The repair pauses inside that note's re-execution —
// after it has dirtied a's partition, or, with beforeWrite, before it
// writes it, so the partition is not yet claimed — while a live request
// for liveURL is served. Online, the live request runs there and then;
// on the stop-the-world baseline it waits for the commit. It returns the
// notes and copies tables and how many live writes the admission gate
// held while the repair paused.
func liveRun(t *testing.T, exclusive, beforeWrite bool, liveURL string) (notes, copies []string, queued uint64) {
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
				resume.wait(t, "the live request")
			}
		}
		if !beforeWrite {
			return noteHandler(true, pause)(c)
		}
		pause("")
		return noteHandler(true, nil)(c)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.RetroPatch("note.php", app.Version{Entry: patched, Note: "escape"})
		done <- err
	}()
	paused.wait(t, "the re-execution of a's note")
	queued = liveWritesQueued.Value()
	live := make(chan struct{})
	go func() {
		defer close(live)
		if resp := w.HandleRequest(httpd.NewRequest("GET", liveURL)); resp.Status != 200 {
			t.Errorf("live request: status %d", resp.Status)
		}
	}()
	if !exclusive {
		<-live // lands mid-drain
	}
	queued = liveWritesQueued.Value() - queued
	resume.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-live
	return tableRows(t, w, "notes"), tableRows(t, w, "copies"), queued
}

// TestLiveReadOfDirtiedPartitionConverges: a live request lands mid-drain,
// reads a partition the repair already dirtied and writes another one.
// No later change to the read partition re-offers it during the main
// drain; only the fixpoint's re-propagation finds it (it is live, so never
// settled) and re-executes it, and the result must equal the
// stop-the-world baseline's, where the request runs after the commit.
func TestLiveReadOfDirtiedPartitionConverges(t *testing.T) {
	const copyAB = "/copy?id=1&from=a&to=b"
	_, exclusive, _ := liveRun(t, true, false, copyAB)
	if want := []string{"1|b|&lt;b&gt;a&lt;/b&gt;"}; strings.Join(exclusive, "\n") != strings.Join(want, "\n") {
		t.Fatalf("baseline copies = %q, want %q", exclusive, want)
	}
	if _, online, _ := liveRun(t, false, false, copyAB); strings.Join(online, "\n") != strings.Join(exclusive, "\n") {
		t.Fatalf("online copies = %q, baseline %q", online, exclusive)
	}
}

// TestLiveWriteOnUnclaimedPartitionRunsAtOnce: a live write into a
// partition the repair has not claimed executes without waiting, even
// while the item in flight is about to write that partition. What it
// changed is folded in by the fixpoint, so the result must equal the
// stop-the-world baseline's, where the write runs after the commit.
func TestLiveWriteOnUnclaimedPartitionRunsAtOnce(t *testing.T) {
	const noteA = "/note?id=9&owner=a&body=live"
	exclusive, _, _ := liveRun(t, true, true, noteA)
	want := []string{"1|c|&lt;i&gt;c1&lt;/i&gt;", "2|a|&lt;b&gt;a&lt;/b&gt;", "3|c|&lt;i&gt;c2&lt;/i&gt;", "9|a|live"}
	if strings.Join(exclusive, "\n") != strings.Join(want, "\n") {
		t.Fatalf("baseline notes = %q, want %q", exclusive, want)
	}
	online, _, queued := liveRun(t, false, true, noteA)
	if queued != 0 {
		t.Errorf("the admission gate held %d live writes on an unclaimed partition", queued)
	}
	if strings.Join(online, "\n") != strings.Join(exclusive, "\n") {
		t.Fatalf("online notes = %q, baseline %q", online, exclusive)
	}
}

// TestDroppedWriteBeforeOwnReadConverges: the patch drops a run's note
// into x, which came before the run's own read of x, and the run copies
// what it read into copies. The re-executed run reads x before its
// dropped write is rolled back, so its copy is stale until the fixpoint
// re-checks that read; copies must end without the dropped note.
func TestDroppedWriteBeforeOwnReadConverges(t *testing.T) {
	w := New(Config{Seed: 5})
	script := func(patched bool) app.Script {
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
	newConvergeApp(t, w, map[string]app.Script{"/app": script(false)})
	serve(t, w, "/app?id=1")
	if _, err := w.RetroPatch("app.php", app.Version{Entry: script(true), Note: "drop the note"}); err != nil {
		t.Fatal(err)
	}
	if rows := tableRows(t, w, "notes"); len(rows) != 0 {
		t.Fatalf("notes = %q, want the dropped note gone", rows)
	}
	if rows, want := tableRows(t, w, "copies"), []string{"1|y|"}; strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("copies = %q, want %q", rows, want)
	}
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
