package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"warp/internal/app"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// buildDisjointWorkload creates a notes deployment where each of users
// owners wrote notes notes into their own partition, then retro-patches
// with a sanitizing handler so every run re-executes. Returns the report
// and the final table contents.
func buildDisjointWorkload(t *testing.T, users, notes int) (*Report, []string) {
	t.Helper()
	w := newNotesApp(t)
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

// TestSerialIdenticalToLegacyEngine pins the repair loop's report against
// the values the paper's loop gives for the same workload, and requires
// the sanitizer to have rewritten every note.
func TestSerialIdenticalToLegacyEngine(t *testing.T) {
	rep, rows := buildDisjointWorkload(t, 3, 2)
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
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if strings.Contains(r, "<b>") {
			t.Fatalf("unsanitized row survived repair: %q", r)
		}
	}
}

// TestUndoPartition rolls back one owner's partition to before an attack
// and checks the rest of the table is untouched.
func TestUndoPartition(t *testing.T) {
	w := newNotesApp(t)
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
		t.Fatal(err)
	}
	if rep.RunsCancelled == 0 {
		t.Fatal("no runs cancelled")
	}
	res, _, _ := w.DB.Exec("SELECT owner, body FROM notes ORDER BY id")
	var bodies []string
	for _, r := range res.Rows {
		bodies = append(bodies, r[1].AsText())
	}
	if slices.Contains(bodies, "INJECTED") {
		t.Fatalf("injected row survived partition undo: %v", bodies)
	}
	if !slices.Contains(bodies, "bob-note") {
		t.Fatalf("bob's partition damaged: %v", bodies)
	}
}

// TestUndoPartitionPastGCHorizon: once GC has collected the versions that
// were live at t, undoing a partition back to t can restore nothing. The
// repair fails and aborts; it used to commit having undone no write.
func TestUndoPartitionPastGCHorizon(t *testing.T) {
	w := newNotesApp(t)
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

// TestParallelUndoVisit exercises visit undo and run cancellation:
// undoing a visit cancels the run behind it and removes the note it
// wrote.
func TestParallelUndoVisit(t *testing.T) {
	w := newNotesApp(t)
	b := w.NewBrowser()
	b.Open("/?owner=alice&body=keep")
	b.Open("/?owner=alice&body=EVIL")
	rep, err := w.UndoVisit(b.ClientID, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RunsCancelled == 0 {
		t.Fatal("nothing cancelled")
	}
	res, _, _ := w.DB.Exec("SELECT body FROM notes ORDER BY id")
	for _, r := range res.Rows {
		if r[0].AsText() == "EVIL" {
			t.Fatal("undone note survived")
		}
	}
}
