package ttdb

import (
	"reflect"
	"testing"

	"warp/internal/vclock"
)

// diffPair builds two deployments of one schema: pages keyed by an
// application row ID, sessions keyed by a drawn token, and a log with a
// synthesized row ID.
func diffPair(t *testing.T) (*DB, *DB) {
	t.Helper()
	pair := [2]*DB{}
	for i := range pair {
		db := newDB(t)
		if err := db.Annotate("sessions", TableSpec{RowIDColumn: "sid", PartitionColumns: []string{"sid"}}); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE sessions (sid TEXT PRIMARY KEY, user_id INTEGER NOT NULL)")
		mustExec(t, db, "CREATE TABLE log (note TEXT)")
		seedPages(t, db)
		mustExec(t, db, "INSERT INTO log (note) VALUES ('a'), ('b')")
		pair[i] = db
	}
	return pair[0], pair[1]
}

// TestLiveRowsReadsOnlyLiveVersions: superseded and deleted versions are
// history, not state; a row's fingerprint covers its other columns.
func TestLiveRowsReadsOnlyLiveVersions(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	before, err := db.LiveRows("pages")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "UPDATE pages SET content = 'changed' WHERE page_id = 1")
	mustExec(t, db, "UPDATE pages SET content = 'welcome' WHERE page_id = 1")
	mustExec(t, db, "DELETE FROM pages WHERE page_id = 3")
	after, err := db.LiveRows("pages")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 || after["i1"] != before["i1"] || after["i2"] != before["i2"] {
		t.Fatalf("live rows %v after rewriting page 1 and deleting page 3, from %v", after, before)
	}
	if before["i1"] == before["i2"] {
		t.Fatal("rows with different content share a fingerprint")
	}
	if _, err := Open(&vclock.Clock{}).LiveRows("pages"); err == nil {
		t.Fatal("LiveRows of a missing table must fail")
	}
}

// TestUnderRepairCountsRowsOffTheTwin: keyed tables count each row
// whose content differs or that one side lacks; a drawn-token table
// ignores which tokens were drawn but still counts a row too many — a
// user's second live session.
func TestUnderRepairCountsRowsOffTheTwin(t *testing.T) {
	got, want := diffPair(t)
	mustExec(t, got, "INSERT INTO sessions (sid, user_id) VALUES ('s-1', 10), ('s-2', 11)")
	mustExec(t, want, "INSERT INTO sessions (sid, user_id) VALUES ('s-9', 10), ('s-8', 11)")
	count := func() int {
		t.Helper()
		n, err := UnderRepair(got, want, "sessions")
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := count(); n != 0 {
		t.Fatalf("equal deployments with differently drawn sids: under-repair %d", n)
	}
	if diff, err := DiffRows(got, want, "sessions"); err != nil || len(diff) != 4 {
		t.Fatalf("keyed by sid, every session differs: %v (err %v)", diff, err)
	}

	mustExec(t, got, "INSERT INTO sessions (sid, user_id) VALUES ('s-3', 10)")
	if n := count(); n != 1 {
		t.Fatalf("a second session for user 10: under-repair %d, want 1", n)
	}
	mustExec(t, got, "UPDATE pages SET content = 'PWNED' WHERE page_id = 2")
	mustExec(t, want, "DELETE FROM pages WHERE page_id = 3")
	mustExec(t, got, "INSERT INTO log (note) VALUES ('c')")
	if n := count(); n != 4 {
		t.Fatalf("plus a changed page, a page only one side holds and a log row: under-repair %d, want 4", n)
	}
	if diff, err := DiffRows(got, want, "pages"); err != nil || !reflect.DeepEqual(diff, []string{"i2", "i3"}) {
		t.Fatalf("pages diff = %v (err %v), want [i2 i3]", diff, err)
	}
}
