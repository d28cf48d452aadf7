package core

import (
	"strings"
	"testing"

	"warp/internal/app"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// A re-executed run serves a re-issued read or write from its record when
// nothing it read, or for a write wrote, was dirtied at or before its time
// (replay.go serveRecorded, session.go recordClean). These tests hold the
// ways that could go wrong: a query whose partition was dirtied must
// execute, and a change that lands after the check must still be folded
// in by the fixpoint.

// copyScript is one file with three routes: op=note inserts a note (its
// body escaped when escape is set, owner z's moved to owner x when moved
// is set), op=set sets the body of every note of an owner, and op=copy
// copies owner x's notes into copies. The hooks, when set, run around the
// note's insert, and after the set's update or the copy's read.
type copyScript struct {
	escape, moved         bool
	beforeNote, afterNote func(owner string)
	afterServed           func()
}

func (s copyScript) handler() app.Script {
	return func(c *app.Ctx) *httpd.Response {
		switch c.Req.Param("op") {
		case "set":
			c.MustQuery("UPDATE notes SET body = ? WHERE owner = ?",
				sqldb.Text(c.Req.Param("body")), sqldb.Text(c.Req.Param("owner")))
			if s.afterServed != nil {
				s.afterServed()
			}
			return httpd.HTML("<html><body>set</body></html>")
		case "note":
			owner, body := c.Req.Param("owner"), c.Req.Param("body")
			if s.escape {
				body = strings.NewReplacer("<", "&lt;", ">", "&gt;").Replace(body)
			}
			if s.moved && owner == "z" {
				owner = "x"
			}
			if s.beforeNote != nil {
				s.beforeNote(owner)
			}
			c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text(owner), sqldb.Text(body))
			if s.afterNote != nil {
				s.afterNote(owner)
			}
			return httpd.HTML("<html><body>noted</body></html>")
		}
		body := notesOf(c, "x")
		if s.afterServed != nil {
			s.afterServed()
		}
		c.MustQuery("INSERT INTO copies (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text("y"), sqldb.Text(body))
		return httpd.HTML("<html><body>copied</body></html>")
	}
}

// TestDirtyRecordedReadReexecutes: the patch rewrites owner x's note, and
// the later copying run, re-executed by the same patch, re-issues its read
// of x with its recorded parameters. x was dirtied before the read's
// time, so the read must execute and see the rewritten note, not be served
// the note it recorded.
func TestDirtyRecordedReadReexecutes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		w := New(Config{Seed: 5, RepairWorkers: workers})
		newConvergeApp(t, w, map[string]app.Script{"/app": copyScript{}.handler()})
		serve(t, w, "/app?op=note&id=1&owner=x&body=<b>x</b>")
		serve(t, w, "/app?op=copy&id=1")
		rep, err := w.RetroPatch("app.php", app.Version{Entry: copyScript{escape: true}.handler(), Note: "escape"})
		if err != nil {
			t.Fatal(err)
		}
		if rep.AppRunsReexecuted != 2 {
			t.Fatalf("workers=%d: %d runs re-executed, want 2", workers, rep.AppRunsReexecuted)
		}
		if got, want := strings.Join(tableRows(t, w, "copies"), "\n"), "1|y|&lt;b&gt;x&lt;/b&gt;"; got != want {
			t.Fatalf("workers=%d: copies = %q, want %q", workers, got, want)
		}
	}
}

// tailNote is a last request of no interest to the repair. A query
// logged at the session's start time is never served (serveRecorded), so
// without it the history's last query would execute anyway.
const tailNote = "/app?op=note&id=9&owner=q&body=tail"

// servedRaceRun repairs a deployment where the patch moves owner z's note
// to owner x, outside the note run's recorded footprint, so a scheduler
// with two workers runs it beside the later request, which copies or sets
// x's notes. With race set, gates order the two: the later run's query of
// x is served from its record (nothing has dirtied x yet), then the note
// lands in x and files its dirt, then the later run finishes, and the
// fixpoint must re-check the served query. It returns the copies and
// notes tables.
func servedRaceRun(t *testing.T, workers int, later string, race bool) []string {
	w := New(Config{Seed: 5, RepairWorkers: workers})
	newConvergeApp(t, w, map[string]app.Script{"/app": copyScript{}.handler()})
	serve(t, w, "/app?op=note&id=1&owner=z&body=x1")
	serve(t, w, later)
	serve(t, w, tailNote)
	patched := copyScript{moved: true}
	if race {
		served, wrote := newGate(), newGate()
		patched.beforeNote = func(owner string) {
			if owner == "x" {
				served.wait(t, "the later run's query of x")
			}
		}
		// The insert filed its dirt before the handler goes on.
		patched.afterNote = func(owner string) {
			if owner == "x" {
				wrote.open()
			}
		}
		patched.afterServed = func() {
			served.open()
			wrote.wait(t, "the note's move into x")
		}
	}
	rep, err := w.RetroPatch("app.php", app.Version{Entry: patched.handler(), Note: "move"})
	if err != nil {
		t.Fatal(err)
	}
	if race && rep.QueriesReexecuted == 0 {
		t.Fatal("raced repair: the fixpoint re-checked no query, so the served one was never re-executed")
	}
	return append(tableRows(t, w, "copies"), tableRows(t, w, "notes")...)
}

// TestServedReadRacingWriteConverges: a read served from its record
// checked its partitions before a racing write to one of them filed its
// dirt. The read took its dirt number before the check, so the fixpoint
// finds it unsettled, re-executes it, and re-runs its run. The result must
// equal the one-worker repair's, where the write comes first and the read
// executes.
func TestServedReadRacingWriteConverges(t *testing.T) {
	const copyX = "/app?op=copy&id=1"
	serial := servedRaceRun(t, 1, copyX, false)
	if want := "1|y|x1\n1|x|x1\n9|q|tail"; strings.Join(serial, "\n") != want {
		t.Fatalf("one-worker repair: %q, want %q", serial, want)
	}
	if raced := servedRaceRun(t, 2, copyX, true); strings.Join(raced, "\n") != strings.Join(serial, "\n") {
		t.Fatalf("two workers, raced:\n%q\none worker:\n%q", raced, serial)
	}
}

// TestDirtyRecordedWriteReexecutes: the patch moves owner z's note into
// owner x, and the later run setting x's notes, re-executed by the same
// patch, re-issues its UPDATE with its recorded parameters. It matched no
// row when it ran, so it wrote nothing, but it read x, and x was dirtied
// before its time: it must execute and set the moved note's body, not be
// served the empty write it recorded.
func TestDirtyRecordedWriteReexecutes(t *testing.T) {
	for _, workers := range []int{1, 2} {
		w := New(Config{Seed: 5, RepairWorkers: workers})
		newConvergeApp(t, w, map[string]app.Script{"/app": copyScript{}.handler()})
		serve(t, w, "/app?op=note&id=1&owner=z&body=old")
		serve(t, w, "/app?op=set&owner=x&body=new")
		serve(t, w, tailNote)
		if _, err := w.RetroPatch("app.php", app.Version{Entry: copyScript{moved: true}.handler(), Note: "move"}); err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Join(tableRows(t, w, "notes"), "\n"), "1|x|new\n9|q|tail"; got != want {
			t.Fatalf("workers=%d: notes = %q, want %q", workers, got, want)
		}
	}
}

// TestServedWriteRacingDirtConverges: a write served from its record
// checked its partitions before a racing write to one of them filed its
// dirt. The served write took its dirt number before the check, so the
// fixpoint finds it unsettled and re-executes it. The result must equal
// the one-worker repair's, where the move comes first and the write
// executes.
func TestServedWriteRacingDirtConverges(t *testing.T) {
	const setX = "/app?op=set&owner=x&body=new"
	serial := servedRaceRun(t, 1, setX, false)
	if want := "1|x|new\n9|q|tail"; strings.Join(serial, "\n") != want {
		t.Fatalf("one-worker repair: %q, want %q", serial, want)
	}
	if raced := servedRaceRun(t, 2, setX, true); strings.Join(raced, "\n") != strings.Join(serial, "\n") {
		t.Fatalf("two workers, raced:\n%q\none worker:\n%q", raced, serial)
	}
}

// handleScript is one file over handles, unique per owner: op=add
// inserts a handle (owner z's moved to owner x when moved is set),
// op=rename gives the handle with a body another owner, tolerating a
// uniqueness failure. The hooks, when set, run around the add's insert
// and after the rename's update.
type handleScript struct {
	moved               bool
	beforeAdd, afterAdd func(owner string)
	afterRename         func(owner string)
}

func (s handleScript) handler() app.Script {
	return func(c *app.Ctx) *httpd.Response {
		owner, body := c.Req.Param("owner"), c.Req.Param("body")
		if c.Req.Param("op") == "rename" {
			_, err := c.Query("UPDATE handles SET owner = ? WHERE body = ?", sqldb.Text(owner), sqldb.Text(body))
			if s.afterRename != nil {
				s.afterRename(owner)
			}
			if err != nil {
				return httpd.HTML("<html><body>taken</body></html>")
			}
			return httpd.HTML("<html><body>renamed</body></html>")
		}
		if s.moved && owner == "z" {
			owner = "x"
		}
		if s.beforeAdd != nil {
			s.beforeAdd(owner)
		}
		c.MustQuery("INSERT INTO handles (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text(owner), sqldb.Text(body))
		if s.afterAdd != nil {
			s.afterAdd(owner)
		}
		return httpd.HTML("<html><body>added</body></html>")
	}
}

// renameRun repairs a deployment where handle b2 (owner w) is renamed to
// x while x is free, then, when movedOn is set, on to v; the patch moves
// an earlier handle from z into x. With race set (two workers, movedOn),
// gates order the repair: the rename to x is served from its record
// (nothing has dirtied x yet), then the moved handle lands in x, then the
// rename on to v executes and rolls b2 back to before its time, which
// would revive b2's stale version in x beside the moved handle. It
// returns the handles table and the errors of the repaired renames.
func renameRun(t *testing.T, workers int, movedOn, race bool) ([]string, []string) {
	w := New(Config{Seed: 5, RepairWorkers: workers})
	if err := w.DB.Annotate("handles", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner", "body"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE handles (id INTEGER PRIMARY KEY, owner TEXT, body TEXT, UNIQUE (owner))"); err != nil {
		t.Fatal(err)
	}
	if err := w.Runtime.Register("app.php", app.Version{Entry: handleScript{}.handler()}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/app", "app.php")
	serve(t, w, "/app?op=add&id=2&owner=w&body=b2")
	serve(t, w, "/app?op=add&id=1&owner=z&body=b1")
	serve(t, w, "/app?op=rename&owner=x&body=b2")
	if movedOn {
		serve(t, w, "/app?op=rename&owner=v&body=b2")
	}
	serve(t, w, "/app?op=add&id=9&owner=q&body=b9") // see tailNote
	patched := handleScript{moved: true}
	if race {
		renamed, moved := newGate(), newGate()
		patched.beforeAdd = func(owner string) {
			if owner == "x" {
				renamed.wait(t, "the rename of b2 to x")
			}
		}
		patched.afterAdd = func(owner string) {
			if owner == "x" {
				moved.open()
			}
		}
		patched.afterRename = func(owner string) {
			if owner == "x" {
				renamed.open()
				moved.wait(t, "the handle's move into x")
			}
		}
	}
	rep, err := w.RetroPatch("app.php", app.Version{Entry: patched.handler(), Note: "move"})
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, a := range w.Graph.ByKind(history.KindQuery) {
		qp := a.Payload.(*QueryPayload)
		if rec := qp.Rec; !qp.Superseded.Load() && rec.Kind == ttdb.KindUpdate && rec.Gen == rep.Generation && rec.ErrText != "" {
			failed = append(failed, rec.ErrText)
		}
	}
	return tableRows(t, w, "handles"), failed
}

// TestWriteIntoDirtiedPartitionReexecutes (§6): the rename of b2 to x
// read only body b2, which nothing dirtied, but the row it moves lands in
// x, which the repair dirtied before its time. It must execute, fail on
// uniqueness, and leave b2 with owner w, not be served the success it
// recorded. "moved on" renames b2 on to v afterwards, so no live version
// of b2 holds x when the patch moves the earlier handle in. In "stays" b2
// holds x at the end of the history: the move at the earlier time clashes
// with that later version, which does not exist yet at that time, so ttdb
// rolls it back and the rename re-executes on its dirt. "raced" is
// renameRun's gated order: the stale version in x must be rolled back
// past, not revived at the moved handle's expense.
func TestWriteIntoDirtiedPartitionReexecutes(t *testing.T) {
	for _, c := range []struct {
		name          string
		workers       []int
		movedOn, race bool
		want          string
	}{
		{"moved on", []int{1, 2}, true, false, "1|x|b1\n2|v|b2\n9|q|b9"},
		{"stays", []int{1, 2}, false, false, "1|x|b1\n2|w|b2\n9|q|b9"},
		{"raced", []int{2}, true, true, "1|x|b1\n2|v|b2\n9|q|b9"},
	} {
		for _, workers := range c.workers {
			rows, failed := renameRun(t, workers, c.movedOn, c.race)
			if got := strings.Join(rows, "\n"); got != c.want {
				t.Fatalf("%s, workers=%d: handles = %q, want %q", c.name, workers, got, c.want)
			}
			if len(failed) != 1 {
				t.Fatalf("%s, workers=%d: repaired renames failed with %q, want one uniqueness failure", c.name, workers, failed)
			}
		}
	}
}
