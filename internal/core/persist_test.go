package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// The crash-recovery suite. The test application is a deterministic,
// nondeterminism-free guestbook (no tokens, no clock reads), so a
// recovered-and-repaired deployment must match a never-crashed control
// bit for bit — including version timestamps — which dumpWarp asserts.

func guestbookHandler(sanitize bool) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		if msg := c.Req.Param("msg"); msg != "" {
			if sanitize {
				msg = strings.NewReplacer("<", "&lt;", ">", "&gt;").Replace(msg)
			}
			id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM entries").FirstValue()
			c.MustQuery("INSERT INTO entries (id, author, msg) VALUES (?, ?, ?)",
				id, sqldb.Text(c.Req.Param("author")), sqldb.Text(msg))
		}
		res := c.MustQuery("SELECT author, msg FROM entries ORDER BY id")
		var b strings.Builder
		b.WriteString("<html><body><ul>")
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "<li>%s: %s</li>", row[0].AsText(), row[1].AsText())
		}
		b.WriteString("</ul></body></html>")
		return &httpd.Response{Status: 200, Body: b.String(),
			Headers:    map[string]string{"Content-Type": "text/html"},
			SetCookies: map[string]string{}}
	}
}

// installGuestbook registers the application against a deployment. On a
// recovered deployment the schema already exists, so DDL is skipped and
// the logical clock stays aligned with a never-restarted run.
func installGuestbook(t *testing.T, w *Warp, sanitize bool) {
	t.Helper()
	if err := w.DB.Annotate("entries", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"author"}}); err != nil {
		t.Fatal(err)
	}
	hasTable := false
	for _, name := range w.DB.Tables() {
		if name == "entries" {
			hasTable = true
		}
	}
	if !hasTable {
		if _, _, err := w.DB.Exec("CREATE TABLE entries (id INTEGER PRIMARY KEY, author TEXT, msg TEXT)"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Runtime.Register("guestbook.php", app.Version{Entry: guestbookHandler(false), Note: "vulnerable"}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "guestbook.php")
	_ = sanitize
}

// workloadSteps drives a deterministic multi-browser workload; step i
// depends only on the deployment's seed and the steps before it.
func workloadSteps(browsers []*browser.Browser) []func() {
	var steps []func()
	open := func(b *browser.Browser, url string) func() {
		return func() { b.Open(url) }
	}
	steps = append(steps,
		open(browsers[0], "/?author=alice&msg=hello+world"),
		open(browsers[1], "/?author=mallory&msg=%3Cscript%3Ewarpjs%3A%20get%20%2Fsteal%3C%2Fscript%3E"),
		open(browsers[2], "/?author=bob&msg=second+post"),
		open(browsers[0], "/"),
		open(browsers[2], "/?author=bob&msg=third+post"),
		open(browsers[1], "/"),
		open(browsers[0], "/?author=alice&msg=closing+note"),
		open(browsers[2], "/"),
	)
	return steps
}

// testDurability is the crash suite's store configuration: fsynced
// appends so every step is durable.
func testDurability() store.Options {
	return store.Options{SyncEveryAppend: true}
}

func buildWarp(t *testing.T, dir string, seed int64) *Warp {
	t.Helper()
	return buildWarpDur(t, dir, seed, testDurability())
}

func buildWarpDur(t *testing.T, dir string, seed int64, dur store.Options) *Warp {
	t.Helper()
	cfg := Config{Seed: seed, Durability: dur}
	var w *Warp
	var err error
	if dir == "" {
		w = New(cfg)
	} else {
		w, err = Open(dir, cfg)
		if err != nil {
			t.Fatalf("Open(%s): %v", dir, err)
		}
	}
	installGuestbook(t, w, false)
	return w
}

// dumpWarp renders the complete observable state of a deployment
// deterministically: every history action with payload summary, every
// physical row version of every table, the clock, and the visit logs.
func dumpWarp(t *testing.T, w *Warp) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "clock=%d gen=%d\n", w.Clock.Now(), w.DB.CurrentGen())

	for _, a := range w.Graph.All() {
		fmt.Fprintf(&b, "action %d kind=%s t=%d in=%v out=%v", a.ID, a.Kind, a.Time, depNames(w, a, a.Inputs), depNames(w, a, a.Outputs))
		switch p := a.Payload.(type) {
		case *RunPayload:
			fmt.Fprintf(&b, " run id=%d file=%s req=%x resp=%x queries=%d qacts=%v files=%v sup=%v rep=%v",
				p.Rec.RunID, p.Rec.File, p.Rec.Req.Fingerprint(), p.Rec.Resp.Fingerprint(),
				len(p.Rec.Queries), p.QueryActions, loadedVersions(p),
				p.Superseded.Load(), p.Repaired)
			for _, q := range p.Rec.Queries {
				fmt.Fprintf(&b, "\n  q t=%d out=%x sql=%s wrote=%v", q.Time, outcomeHash(q), q.SQL, q.WriteRowIDs)
			}
		case *QueryPayload:
			aliased := false
			if p.run != nil {
				for _, rq := range p.run.Rec.Queries {
					if rq == p.Rec {
						aliased = true
					}
				}
			}
			fmt.Fprintf(&b, " query run=%d t=%d out=%x sql=%s sup=%v rep=%v aliased=%v",
				p.RunAction, p.Rec.Time, outcomeHash(p.Rec), p.Rec.SQL, p.Superseded.Load(), p.Repaired, aliased)
		case string:
			fmt.Fprintf(&b, " patch %q", p)
		}
		b.WriteString("\n")
	}

	raw := w.DB.Raw()
	for _, table := range raw.Tables() {
		res, err := raw.Exec("SELECT * FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table %s cols=%v\n", table, res.Columns)
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "  %v\n", row)
		}
	}

	w.mu.Lock()
	clients := make([]string, 0, len(w.visitLogs))
	for c := range w.visitLogs {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		for _, v := range w.visitLogs[c] {
			fmt.Fprintf(&b, "visit %s/%d url=%s events=%d reqs=%d t=%d\n",
				v.ClientID, v.VisitID, v.URL, len(v.Events), len(v.Requests), v.Time)
		}
	}
	w.mu.Unlock()

	for _, c := range w.Conflicts() {
		fmt.Fprintf(&b, "conflict %s/%d kind=%v %s\n", c.Client, c.VisitID, c.Kind, c.Detail)
	}
	return b.String()
}

// outcomeHash renders a query's outcome for dumpWarp: an FNV hash of the
// error text, or else of the result's fingerprint. Directories committed
// under testdata were dumped with it, so it must not change.
func outcomeHash(r *ttdb.Record) uint64 {
	h := fnv.New64a()
	if r.ErrText != "" {
		h.Write([]byte("err:" + r.ErrText))
		return h.Sum64()
	}
	if r.Result != nil {
		h.Write(binary.LittleEndian.AppendUint64(nil, r.Result.Fingerprint()))
	}
	return h.Sum64()
}

// loadedVersions renders the code versions a run used: its payload's
// FileVersions (a snapshot of every file when recorded live, of the loaded
// files when recovered) consulted for the files the run loaded.
func loadedVersions(p *RunPayload) []string {
	out := make([]string, 0, len(p.Rec.FilesLoaded))
	for _, f := range p.Rec.FilesLoaded {
		out = append(out, fmt.Sprintf("%s=%d", f, p.FileVersions[f]))
	}
	sort.Strings(out)
	return out
}

// depNames renders dependency edges by node name: handles are
// per-process, names are what persists.
func depNames(w *Warp, a *history.Action, deps []history.Dep) []string {
	out := make([]string, 0, len(deps))
	for _, d := range deps {
		name := a.Exchange.Name()
		if d.Node != history.ExchangeNode {
			name = w.Graph.NodeName(d.Node)
		}
		out = append(out, fmt.Sprintf("%s@%d", name, d.Time))
	}
	return out
}

func assertSameState(t *testing.T, label string, got, want *Warp) {
	t.Helper()
	g, w := dumpWarp(t, got), dumpWarp(t, want)
	if g != w {
		t.Fatalf("%s: state diverged\n--- got ---\n%s--- want ---\n%s", label, g, w)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRestart is the smallest end-to-end property: close, reopen,
// everything (graph, database, visit logs) is still there, and a repair
// works against the recovered state.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	w := buildWarp(t, dir, 1)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	for _, step := range workloadSteps(browsers) {
		step()
	}
	wantRuns := len(w.Graph.ByKind(history.KindAppRun))
	wantDump := dumpWarp(t, w)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := buildWarp(t, dir, 1)
	defer w2.Close()
	if !w2.Recovered() {
		t.Fatal("reopen did not recover state")
	}
	if !w2.Recovery().FromSnapshot {
		t.Fatal("clean close should recover from the snapshot")
	}
	if got := len(w2.Graph.ByKind(history.KindAppRun)); got != wantRuns {
		t.Fatalf("recovered %d runs, want %d", got, wantRuns)
	}
	if got := dumpWarp(t, w2); got != wantDump {
		t.Fatalf("recovered state differs\n--- got ---\n%s--- want ---\n%s", got, wantDump)
	}

	rep, err := w2.RetroPatch("guestbook.php", app.Version{Entry: guestbookHandler(true), Note: "sanitize"})
	if err != nil {
		t.Fatalf("RetroPatch after recovery: %v", err)
	}
	if rep.AppRunsReexecuted == 0 {
		t.Fatal("repair on recovered state re-executed nothing")
	}
	res, _, err := w2.DB.Exec("SELECT msg FROM entries")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if strings.Contains(row[0].AsText(), "<script>") {
			t.Fatal("attack survived repair on recovered state")
		}
	}
}

// TestCrashMidWorkload kills the deployment after every workload step
// and asserts the acceptance property: the reopened instance is
// byte-identical to a never-restarted oracle that executed the same
// prefix, and a subsequent repair yields the identical final database.
func TestCrashMidWorkload(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	w := buildWarp(t, live, 1)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	steps := workloadSteps(browsers)
	for i, step := range steps {
		step()
		if err := w.FlushLogs(); err != nil {
			t.Fatal(err)
		}
		copyDir(t, live, filepath.Join(base, fmt.Sprintf("at-%d", i+1)))
	}
	w.Crash()

	for k := 1; k <= len(steps); k++ {
		// Oracle: a never-restarted run of the same prefix.
		oracle := buildWarp(t, "", 1)
		ob := []*browser.Browser{oracle.NewBrowser(), oracle.NewBrowser(), oracle.NewBrowser()}
		for _, step := range workloadSteps(ob)[:k] {
			step()
		}

		recovered := buildWarp(t, filepath.Join(base, fmt.Sprintf("at-%d", k)), 1)
		assertSameState(t, fmt.Sprintf("after crash at step %d", k), recovered, oracle)

		// The recovered timeline must repair exactly like the oracle's.
		patch := app.Version{Entry: guestbookHandler(true), Note: "sanitize"}
		if _, err := recovered.RetroPatch("guestbook.php", patch); err != nil {
			t.Fatalf("repair after crash at step %d: %v", k, err)
		}
		if _, err := oracle.RetroPatch("guestbook.php", patch); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, fmt.Sprintf("repair after crash at step %d", k), recovered, oracle)
		recovered.Crash()
	}
}

// TestCrashMidRepair kills the deployment at arbitrary points inside a
// retroactive-patch repair, reopens, resumes the pending repair, and
// asserts the final state is identical to a never-crashed control —
// including the repaired database contents and the rewritten history.
func TestCrashMidRepair(t *testing.T) {
	patch := app.Version{Entry: guestbookHandler(true), Note: "sanitize"}
	runControl := func() *Warp {
		control := buildWarp(t, "", 1)
		cb := []*browser.Browser{control.NewBrowser(), control.NewBrowser(), control.NewBrowser()}
		for _, step := range workloadSteps(cb) {
			step()
		}
		if _, err := control.RetroPatch("guestbook.php", patch); err != nil {
			t.Fatal(err)
		}
		return control
	}
	control := runControl()

	for _, crashAt := range []int64{1, 2, 4, 7, 11, 16} {
		t.Run(fmt.Sprintf("trace-step-%d", crashAt), func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{Seed: 1, Durability: testDurability()}
			var traced atomic.Int64
			var w *Warp
			cfg.Trace = func(string, ...any) {
				if traced.Add(1) == crashAt {
					w.Crash() // the process "dies" mid-repair
				}
			}
			var err error
			w, err = Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			installGuestbook(t, w, false)
			browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
			for _, step := range workloadSteps(browsers) {
				step()
			}
			if _, err := w.RetroPatch("guestbook.php", patch); err != nil {
				t.Fatalf("RetroPatch: %v", err)
			}
			if traced.Load() < crashAt {
				t.Fatalf("repair emitted only %d trace steps; crash point %d never hit", traced.Load(), crashAt)
			}

			recovered := buildWarp(t, dir, 1)
			it := recovered.PendingRepair()
			if it == nil {
				t.Fatal("no pending repair intent recovered")
			}
			if it.Kind != IntentRetroPatch || it.File != "guestbook.php" {
				t.Fatalf("unexpected intent %+v", it)
			}
			if _, err := recovered.ResumeRepair(&patch); err != nil {
				t.Fatalf("ResumeRepair: %v", err)
			}
			assertSameState(t, "resumed repair", recovered, control)
			if recovered.PendingRepair() != nil {
				t.Fatal("intent survived a committed resume")
			}
			if err := recovered.Close(); err != nil {
				t.Fatal(err)
			}

			// The committed resume must also be durable: reopen once more.
			again := buildWarp(t, dir, 1)
			if again.PendingRepair() != nil {
				t.Fatal("intent resurfaced after commit checkpoint")
			}
			assertSameState(t, "reopen after resumed repair", again, control)
			again.Crash()
		})
	}
}

// TestCrashMidUndoVisit covers intent resume for the undo family, which
// is self-contained (no code to re-supply).
func TestCrashMidUndoVisit(t *testing.T) {
	runWorkload := func(dir string, trace func(string, ...any)) (*Warp, []*browser.Browser) {
		cfg := Config{Seed: 1, Durability: testDurability()}
		cfg.Trace = trace
		var w *Warp
		var err error
		if dir == "" {
			w = New(cfg)
		} else {
			w, err = Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
		}
		installGuestbook(t, w, false)
		browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
		for _, step := range workloadSteps(browsers) {
			step()
		}
		return w, browsers
	}

	control, cb := runWorkload("", nil)
	if _, err := control.UndoVisit(cb[1].ClientID, 1, true); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var traced atomic.Int64
	var w *Warp
	w, browsers := runWorkload(dir, func(string, ...any) {
		if traced.Add(1) == 2 {
			w.Crash()
		}
	})
	if _, err := w.UndoVisit(browsers[1].ClientID, 1, true); err != nil {
		t.Fatal(err)
	}

	recovered := buildWarp(t, dir, 1)
	it := recovered.PendingRepair()
	if it == nil || it.Kind != IntentUndoVisit {
		t.Fatalf("pending intent = %+v", it)
	}
	if _, err := recovered.ResumeRepair(nil); err != nil {
		t.Fatalf("ResumeRepair: %v", err)
	}
	assertSameState(t, "resumed undo", recovered, control)
	recovered.Crash()
}

// TestCheckpointConcurrentWithUploads pins the WriteSnapshot locking
// design: checkpoints must not hold the store lock across the snapshot
// build, because uploaders hold the deployment lock while appending.
// (Regression test for an AB-BA deadlock between Checkpoint and
// UploadVisitLog.)
func TestCheckpointConcurrentWithUploads(t *testing.T) {
	dir := t.TempDir()
	w := buildWarp(t, dir, 1)
	b := w.NewBrowser()
	b.Open("/?author=alice&msg=seed")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			w.UploadVisitLog(&browser.VisitLog{ClientID: "uploader", VisitID: int64(i + 1000), URL: "/x"})
		}
	}()
	for i := 0; i < 25; i++ {
		if err := w.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("uploads and checkpoints deadlocked")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := buildWarp(t, dir, 1)
	defer w2.Crash()
	if !w2.Recovered() {
		t.Fatal("nothing recovered after concurrent checkpoints")
	}
}

// TestWALCorruptionAtDeploymentLevel bit-flips and truncates the WAL of
// a crashed deployment and asserts Open either refuses or recovers a
// self-consistent state (replay succeeds, aliasing invariants hold) —
// never a half-loaded one.
func TestWALCorruptionAtDeploymentLevel(t *testing.T) {
	base := t.TempDir()
	orig := filepath.Join(base, "orig")
	w := buildWarp(t, orig, 1)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	for _, step := range workloadSteps(browsers) {
		step()
	}
	if err := w.FlushLogs(); err != nil {
		t.Fatal(err)
	}
	w.Crash() // leave WAL only, no snapshot

	var walFiles []string
	entries, err := os.ReadDir(orig)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			if info, err := e.Info(); err == nil && info.Size() > 0 {
				walFiles = append(walFiles, e.Name())
			}
		}
	}
	if len(walFiles) == 0 {
		t.Fatal("no WAL segments found")
	}

	recoveredSome := false
	for trial := 0; trial < 40; trial++ {
		dir := filepath.Join(base, fmt.Sprintf("trial-%d", trial))
		copyDir(t, orig, dir)
		path := filepath.Join(dir, walFiles[trial%len(walFiles)])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 0 {
			data = data[:(trial*131)%len(data)]
		} else {
			i := (trial * 977) % len(data)
			data[i] ^= 1 << (trial % 8)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		cfg := Config{Seed: 1}
		rec, err := Open(dir, cfg)
		if err != nil {
			continue // refusing corrupt state is an allowed outcome
		}
		recoveredSome = true
		// Whatever prefix loaded must be internally consistent: every
		// query action aliases its run's record, and the database serves
		// the recovered timeline.
		for _, a := range rec.Graph.All() {
			if qp, ok := a.Payload.(*QueryPayload); ok && qp.run != nil {
				found := false
				for _, rq := range qp.run.Rec.Queries {
					if rq == qp.Rec {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: query action %d lost its run aliasing", trial, a.ID)
				}
			}
		}
		if _, _, err := rec.DB.Exec("SELECT COUNT(*) FROM entries"); err != nil {
			// The table may legitimately not exist if the prefix ended
			// before the DDL; anything else is a broken recovery.
			if !strings.Contains(err.Error(), "no such table") {
				t.Fatalf("trial %d: recovered database broken: %v", trial, err)
			}
		}
		rec.Crash()
	}
	if !recoveredSome {
		t.Fatal("every corruption trial refused to open; expected some prefix recoveries")
	}
}
