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
// ways that could go wrong: a query or write whose partition was dirtied
// must execute, not be served what it recorded.

// copyScript is one file with three routes: op=note inserts a note (its
// body escaped when escape is set, owner z's moved to owner x when moved
// is set), op=set sets the body of every note of an owner, and op=copy
// copies owner x's notes into copies.
type copyScript struct {
	escape, moved bool
}

func (s copyScript) handler() app.Script {
	return func(c *app.Ctx) *httpd.Response {
		switch c.Req.Param("op") {
		case "set":
			c.MustQuery("UPDATE notes SET body = ? WHERE owner = ?",
				sqldb.Text(c.Req.Param("body")), sqldb.Text(c.Req.Param("owner")))
			return httpd.HTML("<html><body>set</body></html>")
		case "note":
			owner, body := c.Req.Param("owner"), c.Req.Param("body")
			if s.escape {
				body = strings.NewReplacer("<", "&lt;", ">", "&gt;").Replace(body)
			}
			if s.moved && owner == "z" {
				owner = "x"
			}
			c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text(owner), sqldb.Text(body))
			return httpd.HTML("<html><body>noted</body></html>")
		}
		body := notesOf(c, "x")
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
	w := New(Config{Seed: 5})
	newConvergeApp(t, w, map[string]app.Script{"/app": copyScript{}.handler()})
	serve(t, w, "/app?op=note&id=1&owner=x&body=<b>x</b>")
	serve(t, w, "/app?op=copy&id=1")
	rep, err := w.RetroPatch("app.php", app.Version{Entry: copyScript{escape: true}.handler(), Note: "escape"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppRunsReexecuted != 2 {
		t.Fatalf("%d runs re-executed, want 2", rep.AppRunsReexecuted)
	}
	if got, want := strings.Join(tableRows(t, w, "copies"), "\n"), "1|y|&lt;b&gt;x&lt;/b&gt;"; got != want {
		t.Fatalf("copies = %q, want %q", got, want)
	}
}

// tailNote is a last request of no interest to the repair. A query
// logged at the session's start time is never served (serveRecorded), so
// without it the history's last query would execute anyway.
const tailNote = "/app?op=note&id=9&owner=q&body=tail"

// movedRun repairs a deployment where the patch moves owner z's note to
// owner x, outside the note run's recorded footprint, before the later
// request, which copies or sets x's notes. The repair loop finishes the
// move before the later run starts, so the later run's query of x finds x
// dirtied and executes in the main drain, and the fixpoint has nothing
// left to fold in. It returns the copies and notes tables.
func movedRun(t *testing.T, later string) []string {
	defer tracing()()
	w := New(Config{Seed: 5})
	newConvergeApp(t, w, map[string]app.Script{"/app": copyScript{}.handler()})
	serve(t, w, "/app?op=note&id=1&owner=z&body=x1")
	serve(t, w, later)
	serve(t, w, tailNote)
	if _, err := w.RetroPatch("app.php", app.Version{Entry: copyScript{moved: true}.handler(), Note: "move"}); err != nil {
		t.Fatal(err)
	}
	requireOneDrain(t, w)
	return append(tableRows(t, w, "copies"), tableRows(t, w, "notes")...)
}

// TestServedReadRacingWriteConverges: a write the patch moves into x lands
// before a later read of x, which its run recorded as reading nothing
// dirtied. The read must execute and copy the moved note in the main
// drain.
func TestServedReadRacingWriteConverges(t *testing.T) {
	if got, want := strings.Join(movedRun(t, "/app?op=copy&id=1"), "\n"), "1|y|x1\n1|x|x1\n9|q|tail"; got != want {
		t.Fatalf("tables = %q, want %q", got, want)
	}
}

// TestDirtyRecordedWriteReexecutes: the patch moves owner z's note into
// owner x, and the later run setting x's notes, re-executed by the same
// patch, re-issues its UPDATE with its recorded parameters. It matched no
// row when it ran, so it wrote nothing, but it read x, and x was dirtied
// before its time: it must execute and set the moved note's body, not be
// served the empty write it recorded.
func TestDirtyRecordedWriteReexecutes(t *testing.T) {
	w := New(Config{Seed: 5})
	newConvergeApp(t, w, map[string]app.Script{"/app": copyScript{}.handler()})
	serve(t, w, "/app?op=note&id=1&owner=z&body=old")
	serve(t, w, "/app?op=set&owner=x&body=new")
	serve(t, w, tailNote)
	if _, err := w.RetroPatch("app.php", app.Version{Entry: copyScript{moved: true}.handler(), Note: "move"}); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(tableRows(t, w, "notes"), "\n"), "1|x|new\n9|q|tail"; got != want {
		t.Fatalf("notes = %q, want %q", got, want)
	}
}

// TestServedWriteRacingDirtConverges: the same move lands before a later
// UPDATE of x's notes, which its run recorded as matching no row. The
// write must execute and set the moved note's body in the main drain.
func TestServedWriteRacingDirtConverges(t *testing.T) {
	if got, want := strings.Join(movedRun(t, "/app?op=set&owner=x&body=new"), "\n"), "1|x|new\n9|q|tail"; got != want {
		t.Fatalf("tables = %q, want %q", got, want)
	}
}

// handleScript is one file over handles, unique per owner: op=add
// inserts a handle (owner z's moved to owner x when moved is set),
// op=rename gives the handle with a body another owner, tolerating a
// uniqueness failure.
type handleScript struct {
	moved bool
}

func (s handleScript) handler() app.Script {
	return func(c *app.Ctx) *httpd.Response {
		owner, body := c.Req.Param("owner"), c.Req.Param("body")
		if c.Req.Param("op") == "rename" {
			_, err := c.Query("UPDATE handles SET owner = ? WHERE body = ?", sqldb.Text(owner), sqldb.Text(body))
			if err != nil {
				return httpd.HTML("<html><body>taken</body></html>")
			}
			return httpd.HTML("<html><body>renamed</body></html>")
		}
		if s.moved && owner == "z" {
			owner = "x"
		}
		c.MustQuery("INSERT INTO handles (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text(owner), sqldb.Text(body))
		return httpd.HTML("<html><body>added</body></html>")
	}
}

// renameRun repairs a deployment where handle b2 (owner w) is renamed to
// x while x is free, then, when movedOn is set, on to v; the patch moves
// an earlier handle from z into x. It returns the handles table and the
// errors of the repaired renames.
func renameRun(t *testing.T, movedOn bool) ([]string, []string) {
	w := New(Config{Seed: 5})
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
	rep, err := w.RetroPatch("app.php", app.Version{Entry: handleScript{moved: true}.handler(), Note: "move"})
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
// rolls it back and the rename re-executes on its dirt.
func TestWriteIntoDirtiedPartitionReexecutes(t *testing.T) {
	for _, c := range []struct {
		name    string
		movedOn bool
		want    string
	}{
		{"moved on", true, "1|x|b1\n2|v|b2\n9|q|b9"},
		{"stays", false, "1|x|b1\n2|w|b2\n9|q|b9"},
	} {
		rows, failed := renameRun(t, c.movedOn)
		if got := strings.Join(rows, "\n"); got != c.want {
			t.Fatalf("%s: handles = %q, want %q", c.name, got, c.want)
		}
		if len(failed) != 1 {
			t.Fatalf("%s: repaired renames failed with %q, want one uniqueness failure", c.name, failed)
		}
	}
}
