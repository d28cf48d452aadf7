package core

import (
	"strings"
	"testing"

	"warp/internal/app"
	"warp/internal/httpd"
	"warp/internal/sqldb"
)

// A re-executed run serves a re-issued read from its record when nothing
// it read was dirtied at or before its time (replay.go recordedRead). These
// tests hold the two ways that could go wrong: a read whose partition was
// dirtied must execute, and a change that lands after the check must still
// be folded in by the fixpoint.

// copyScript is one file with two routes: op=note inserts a note (its
// body escaped when escape is set, owner z's moved to owner x when moved
// is set), op=copy copies owner x's notes into copies. The hooks, when
// set, run around the note's insert and after the copy's read.
type copyScript struct {
	escape, moved         bool
	beforeNote, afterNote func(owner string)
	afterRead             func()
}

func (s copyScript) handler() app.Script {
	return func(c *app.Ctx) *httpd.Response {
		if c.Req.Param("op") == "note" {
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
		if s.afterRead != nil {
			s.afterRead()
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

// servedRaceRun repairs a deployment where the patch moves owner z's note
// to owner x, outside the note run's recorded footprint, so a scheduler
// with two workers runs it beside the later run copying x. With race set,
// gates order the two: the copying run's read of x is served from its
// record (nothing has dirtied x yet), then the note lands in x and files
// its dirt, then the copying run finishes. It returns the copies and notes
// tables.
func servedRaceRun(t *testing.T, workers int, race bool) []string {
	w := New(Config{Seed: 5, RepairWorkers: workers})
	newConvergeApp(t, w, map[string]app.Script{"/app": copyScript{}.handler()})
	serve(t, w, "/app?op=note&id=1&owner=z&body=x1")
	serve(t, w, "/app?op=copy&id=1")
	patched := copyScript{moved: true}
	if race {
		read, wrote := newGate(), newGate()
		patched.beforeNote = func(owner string) {
			if owner == "x" {
				read.wait(t, "the copying run's read of x")
			}
		}
		// The insert filed its dirt before the handler goes on.
		patched.afterNote = func(owner string) {
			if owner == "x" {
				wrote.open()
			}
		}
		patched.afterRead = func() {
			read.open()
			wrote.wait(t, "the note's move into x")
		}
	}
	if _, err := w.RetroPatch("app.php", app.Version{Entry: patched.handler(), Note: "move"}); err != nil {
		t.Fatal(err)
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
	serial := servedRaceRun(t, 1, false)
	if want := "1|y|x1\n1|x|x1"; strings.Join(serial, "\n") != want {
		t.Fatalf("one-worker repair: %q, want %q", serial, want)
	}
	if raced := servedRaceRun(t, 2, true); strings.Join(raced, "\n") != strings.Join(serial, "\n") {
		t.Fatalf("two workers, raced:\n%q\none worker:\n%q", raced, serial)
	}
}
