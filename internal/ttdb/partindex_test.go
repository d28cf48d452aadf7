package ttdb

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/sqldb"
	"warp/internal/vclock"
)

func piExec(t *testing.T, db *DB, sql string, params ...sqldb.Value) *Record {
	t.Helper()
	_, rec, err := db.Exec(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rec
}

func openPartDB(t *testing.T) *DB {
	t.Helper()
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	piExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)")
	return db
}

func TestParsePartition(t *testing.T) {
	cases := []struct {
		in   string
		want Partition
		ok   bool
	}{
		{"notes/*", WholeTable("notes"), true},
		{"notes/owner=s:alice", Partition{Table: "notes", Column: "owner", Key: "s:alice"}, true},
		{"notes/owner=s:a=b/c", Partition{Table: "notes", Column: "owner", Key: "s:a=b/c"}, true},
		{"nosep", Partition{}, false},
		{"/owner=s:x", Partition{}, false},
		{"notes/owner", Partition{}, false},
	}
	for _, c := range cases {
		got, ok := ParsePartition(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParsePartition(%q) = %+v, %v; want %+v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	// Round trip through String.
	for _, p := range []Partition{WholeTable("t"), {Table: "t", Column: "c", Key: "s:k"}} {
		got, ok := ParsePartition(p.String())
		if !ok || got != p {
			t.Errorf("round trip %v -> %q -> %v, %v", p, p.String(), got, ok)
		}
	}
}

func TestPartitionRowsSince(t *testing.T) {
	db := openPartDB(t)
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'a1')")
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (2, 'bob', 'b1')")
	rec := piExec(t, db, "UPDATE notes SET body = 'a2' WHERE owner = 'alice'")

	alice := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	bob := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("bob").Key()}

	rows, err := db.PartitionRowsSince(alice, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].AsInt() != 1 {
		t.Fatalf("alice rows = %v, want [1]", rows)
	}
	rows, _ = db.PartitionRowsSince(bob, 0)
	if len(rows) != 1 || rows[0].AsInt() != 2 {
		t.Fatalf("bob rows = %v, want [2]", rows)
	}
	// Time filtering: nothing in alice's partition after the update.
	rows, _ = db.PartitionRowsSince(alice, rec.Time+1)
	if len(rows) != 0 {
		t.Fatalf("rows after last event = %v, want none", rows)
	}
	// Whole-table query unions both partitions.
	rows, _ = db.PartitionRowsSince(WholeTable("notes"), 0)
	if len(rows) != 2 {
		t.Fatalf("whole-table rows = %v, want 2", rows)
	}
	if _, err := db.PartitionRowsSince(WholeTable("missing"), 0); err == nil {
		t.Fatal("unknown table must error")
	}
}

func TestRollbackPartition(t *testing.T) {
	db := openPartDB(t)
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'clean')")
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (2, 'bob', 'bob-clean')")
	preAttack := db.Clock().Now()
	// The "attack": corrupt alice's note and add a second one.
	piExec(t, db, "UPDATE notes SET body = 'PWNED' WHERE id = 1")
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (3, 'alice', 'spam')")

	if _, err := db.RollbackPartition(WholeTable("notes"), preAttack+1); err == nil {
		t.Fatal("RollbackPartition outside repair must fail")
	}

	gen, err := db.BeginRepair()
	if err != nil {
		t.Fatal(err)
	}
	alice := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	changed, err := db.RollbackPartition(alice, preAttack+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) == 0 {
		t.Fatal("rollback should report changed partitions")
	}
	// In the repair generation alice's note is clean again and the spam
	// row is gone; bob is untouched.
	res, _, err := db.ReExec("SELECT id, body FROM notes WHERE owner = 'alice'", nil, db.Clock().Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "clean" {
		t.Fatalf("repair-gen alice rows = %v, want one clean row", res.Rows)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	if db.CurrentGen() != gen {
		t.Fatalf("gen = %d, want %d", db.CurrentGen(), gen)
	}
	res, _, err = db.Exec("SELECT body FROM notes WHERE owner = 'bob'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "bob-clean" {
		t.Fatalf("bob rows after repair = %v (%v)", res, err)
	}
}

func TestPartitionIndexPrunedByGC(t *testing.T) {
	db := openPartDB(t)
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'a1')")
	horizon := db.Clock().Now() + 1
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (2, 'alice', 'a2')")
	if err := db.GC(horizon); err != nil {
		t.Fatal(err)
	}
	alice := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	rows, err := db.PartitionRowsSince(alice, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].AsInt() != 2 {
		t.Fatalf("post-GC rows = %v, want [2]", rows)
	}
}

// TestRollbackPastGCHorizonRefused: GC collects the versions that were
// live at the horizon, so a rollback to or before it cannot restore
// anything. It is refused as a whole — not row by row, which reported
// success for a partition whose every event GC had collected.
func TestRollbackPastGCHorizonRefused(t *testing.T) {
	db := openPartDB(t)
	piExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'clean')")
	preAttack := db.Clock().Now()
	piExec(t, db, "UPDATE notes SET body = 'PWNED' WHERE id = 1")
	if err := db.GC(db.Clock().Now() + 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	alice := Partition{Table: "notes", Column: "owner", Key: sqldb.Text("alice").Key()}
	if changed, err := db.RollbackPartition(alice, preAttack+1); err == nil || !strings.Contains(err.Error(), "GC horizon") {
		t.Errorf("RollbackPartition past the horizon: changed=%v err=%v, want a GC-horizon error", changed, err)
	}
	// No row named: still nothing a rollback to that time could mean.
	if changed, err := db.RollbackRows("notes", nil, preAttack+1); err == nil || !strings.Contains(err.Error(), "GC horizon") {
		t.Errorf("RollbackRows past the horizon: changed=%v err=%v, want a GC-horizon error", changed, err)
	}
	if _, err := db.RollbackPartition(alice, db.Clock().Now()+2); err != nil {
		t.Errorf("RollbackPartition after the horizon: %v", err)
	}
}

// TestPartitionRowsSinceForms: the three ways the question is put to the
// engine — a bounded probe of the partition column's version-ordered
// index, and the time bound alone for the whole table and for a key no
// probe can name — each against the same predicate through a full scan.
func TestPartitionRowsSinceForms(t *testing.T) {
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner", "shelf"}}); err != nil {
		t.Fatal(err)
	}
	piExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, shelf INTEGER, body TEXT)")
	piExec(t, db, "CREATE TABLE tags (name TEXT)") // no partition columns
	piExec(t, db, "INSERT INTO notes (id, owner, shelf, body) VALUES (1, 'alice', 1, 'a'), (2, NULL, 1, 'n'), (3, 'bob', 2, 'b'), (4, NULL, NULL, 'nn')")
	piExec(t, db, "INSERT INTO tags (name) VALUES ('x'), ('y')")
	mid := db.Clock().Now() + 1
	piExec(t, db, "UPDATE notes SET owner = 'alice' WHERE id = 2") // leaves the NULL partition
	piExec(t, db, "DELETE FROM notes WHERE id = 4")
	piExec(t, db, "UPDATE notes SET shelf = 3 WHERE id = 3")
	piExec(t, db, "DELETE FROM tags WHERE name = 'y'")

	m, err := db.meta("notes")
	if err != nil {
		t.Fatal(err)
	}
	// A rewrite that loses the bound fails here, not in a benchmark.
	for stmt, want := range map[*sqldb.CachedStmt]string{
		m.partCol("owner").changed: "scan=index-eq(owner, bounded warp_end_time >= ?2)",
		m.partCol("shelf").changed: "scan=index-eq(shelf, bounded warp_end_time >= ?2)",
		m.changedAll:               "scan=full",
	} {
		if plan, err := db.Raw().ExplainCached(stmt); err != nil || !strings.HasSuffix(plan, want) {
			t.Errorf("%s plans %q, %v; want %s", stmt.Canonical(), plan, err, want)
		}
	}

	null := sqldb.Null().Key()
	for _, c := range []struct {
		p     Partition
		where string // p as a predicate no index serves
	}{
		{Partition{"notes", "owner", sqldb.Text("alice").Key()}, "owner || '' = 'alice'"},
		{Partition{"notes", "owner", null}, "owner IS NULL"},
		{Partition{"notes", "shelf", sqldb.Int(1).Key()}, "shelf + 0 = 1"},
		{Partition{"notes", "shelf", sqldb.Int(3).Key()}, "shelf + 0 = 3"},
		{Partition{"notes", "shelf", null}, "shelf IS NULL"},
		{Partition{"notes", "shelf", "not a key"}, "0 = 1"},
		{WholeTable("notes"), "0 = 0"},
		{WholeTable("tags"), "0 = 0"},
	} {
		for _, since := range []int64{0, mid, db.Clock().Now() + 1} {
			got, err := db.PartitionRowsSince(c.p, since)
			if err != nil {
				t.Fatal(err)
			}
			idCol := "id"
			if c.p.Table == "tags" {
				idCol = ColRowID
			}
			res := fullScan(t, db, fmt.Sprintf("SELECT %s FROM %s WHERE %s AND warp_end_time >= ? AND (warp_start_time >= ? OR warp_end_time < %d)",
				idCol, c.p.Table, c.where, Infinity), sqldb.Int(since), sqldb.Int(since))
			want := make(map[string]bool)
			for _, row := range res.Rows {
				want[row[0].Key()] = true
			}
			if len(got) != len(want) {
				t.Errorf("%v since %d = %v, the full scan finds %v", c.p, since, got, res.Rows)
			}
			for _, id := range got {
				if !want[id.Key()] {
					t.Errorf("%v since %d = %v, the full scan finds %v", c.p, since, got, res.Rows)
				}
			}
		}
	}
	if rows, _ := db.PartitionRowsSince(Partition{"notes", "owner", null}, 0); len(rows) != 2 {
		t.Errorf("NULL-owner rows = %v, want the two inserted with no owner", rows)
	}

	// A column that does not partition the table has no partitions to ask
	// about; the retired index answered such a question with nothing.
	for _, p := range []Partition{
		{"notes", "body", sqldb.Text("a").Key()},
		{"notes", "id", sqldb.Int(1).Key()},
		{"tags", "name", sqldb.Text("x").Key()},
	} {
		if rows, err := db.PartitionRowsSince(p, 0); err == nil {
			t.Errorf("PartitionRowsSince(%v) = %v, want an error: not a partition column", p, rows)
		}
		if _, err := db.BeginRepair(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RollbackPartition(p, mid); err == nil {
			t.Errorf("RollbackPartition(%v) must refuse a column that is not a partition column", p)
		}
		if err := db.AbortRepair(); err != nil {
			t.Fatal(err)
		}
	}
}
