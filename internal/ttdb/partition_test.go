package ttdb

import (
	"fmt"
	"sync"
	"testing"

	"warp/internal/sqldb"
	"warp/internal/vclock"
)

// TestPartitionSetOverlapsEdgeCases pins the overlap semantics the
// scheduler's frontier and the admission gate both build on:
// empty sets, the whole-table wildcard, and adjacent (distinct) keys of
// one column.
func TestPartitionSetOverlapsEdgeCases(t *testing.T) {
	key := func(tab, col, k string) Partition { return Partition{Table: tab, Column: col, Key: k} }

	empty := NewPartitionSet()
	other := NewPartitionSet()
	other.Add(key("t", "user", "a"))
	if empty.Overlaps(other) || other.Overlaps(empty) {
		t.Fatal("empty set must overlap nothing")
	}
	if empty.Overlaps(empty) {
		t.Fatal("empty vs empty must not overlap")
	}
	if empty.Overlaps(nil) {
		t.Fatal("nil set must not overlap")
	}
	if empty.OverlapsAny([]Partition{WholeTable("t")}) {
		t.Fatal("empty set must not overlap a whole-table probe")
	}

	// The whole-table wildcard overlaps every partition of its table, in
	// both directions, and nothing of other tables.
	whole := NewPartitionSet()
	whole.Add(WholeTable("t"))
	keyed := NewPartitionSet()
	keyed.Add(key("t", "user", "a"))
	if !whole.Overlaps(keyed) || !keyed.Overlaps(whole) {
		t.Fatal("whole-table must overlap a keyed partition of its table")
	}
	if !whole.Overlaps(whole) {
		t.Fatal("whole-table must overlap itself")
	}
	otherTable := NewPartitionSet()
	otherTable.Add(key("u", "user", "a"))
	if whole.Overlaps(otherTable) {
		t.Fatal("whole-table must not overlap another table")
	}
	if !whole.OverlapsAny([]Partition{key("t", "user", "z")}) {
		t.Fatal("OverlapsAny must see the whole-table entry")
	}
	if !keyed.OverlapsAny([]Partition{WholeTable("t")}) {
		t.Fatal("a whole-table probe must hit keyed entries")
	}

	// Adjacent (distinct) keys of one column never overlap; identical
	// keys do; different columns only meet through the wildcard.
	a := NewPartitionSet()
	a.Add(key("t", "user", "a"))
	b := NewPartitionSet()
	b.Add(key("t", "user", "b"))
	if a.Overlaps(b) {
		t.Fatal("adjacent keys must not overlap")
	}
	b.Add(key("t", "user", "a"))
	if !a.Overlaps(b) {
		t.Fatal("identical keys must overlap")
	}
	cols := NewPartitionSet()
	cols.Add(key("t", "group", "a"))
	if a.Overlaps(cols) {
		t.Fatal("different partition columns must not overlap directly")
	}

	// Slice/Len bookkeeping across mixed entries.
	mixed := NewPartitionSet()
	mixed.Add(WholeTable("t"))
	mixed.Add(key("t", "user", "a"))
	mixed.Add(key("t", "user", "a")) // duplicate
	if mixed.Len() != 2 {
		t.Fatalf("Len = %d, want 2", mixed.Len())
	}
	if got := len(mixed.Slice()); got != 2 {
		t.Fatalf("Slice len = %d, want 2", got)
	}
}

// TestConcurrentSameTableRepair is the -race stress of the table lock:
// many goroutines re-execute writes and roll back rows of *one* table
// concurrently, each within its own partition, alongside normal-execution
// reads. The final state must equal what the same operations produce
// serially.
func TestConcurrentSameTableRepair(t *testing.T) {
	const owners = 16
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}

	insertRecs := make([]*Record, owners)
	updateRecs := make([]*Record, owners)
	var attackTime [owners]int64
	for o := 0; o < owners; o++ {
		owner := fmt.Sprintf("u%d", o)
		_, rec, err := db.Exec("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(int64(o+1)), sqldb.Text(owner), sqldb.Text("clean"))
		if err != nil {
			t.Fatal(err)
		}
		insertRecs[o] = rec
		attackTime[o] = db.Clock().Now() + 1
		_, rec, err = db.Exec("UPDATE notes SET body = ? WHERE owner = ?",
			sqldb.Text("ATTACKED"), sqldb.Text(owner))
		if err != nil {
			t.Fatal(err)
		}
		updateRecs[o] = rec
	}

	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, owners*2)
	for o := 0; o < owners; o++ {
		o := o
		owner := fmt.Sprintf("u%d", o)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if o%2 == 0 {
				// Two-phase re-execution of the recorded UPDATE with a
				// repaired body, at its original time.
				_, _, err := db.ReExec("UPDATE notes SET body = ? WHERE owner = ?",
					[]sqldb.Value{sqldb.Text("fixed-" + owner), sqldb.Text(owner)},
					updateRecs[o].Time, updateRecs[o])
				if err != nil {
					errs <- fmt.Errorf("reexec %s: %w", owner, err)
				}
				return
			}
			// Roll the owner's update back to before the attack: the
			// clean body is revived in the repair generation.
			if _, err := db.RollbackRows("notes", updateRecs[o].WriteRowIDs, attackTime[o]); err != nil {
				errs <- fmt.Errorf("rollback %s: %w", owner, err)
			}
		}()
		// Normal execution keeps reading the current generation during
		// repair.
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := db.Exec("SELECT body FROM notes WHERE owner = ?", sqldb.Text(owner))
			if err != nil {
				errs <- fmt.Errorf("read %s: %w", owner, err)
				return
			}
			if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "ATTACKED" {
				errs <- fmt.Errorf("read %s during repair saw %v, want the current generation's ATTACKED row", owner, res.Rows)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}

	res, _, err := db.Exec("SELECT owner, body FROM notes ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != owners {
		t.Fatalf("rows = %d, want %d", len(res.Rows), owners)
	}
	for i, row := range res.Rows {
		owner, body := row[0].AsText(), row[1].AsText()
		want := "fixed-" + owner
		if i%2 == 1 {
			want = "clean"
		}
		if body != want {
			t.Fatalf("owner %s body = %q, want %q", owner, body, want)
		}
	}
	_ = insertRecs
}

// TestRollbackRevivesAcrossPartitionMove: a rollback of a row whose
// partition column was rewritten across partitions touches versions in
// two partitions, and must revive the version from before the move.
func TestRollbackRevivesAcrossPartitionMove(t *testing.T) {
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	_, ins, err := db.Exec("INSERT INTO notes (id, owner, body) VALUES (1, 'alice', 'v1')")
	if err != nil {
		t.Fatal(err)
	}
	mid := db.Clock().Now() + 1
	// Rewriting the partition column leaves the row with versions in two
	// partitions.
	if _, _, err := db.Exec("UPDATE notes SET owner = 'bob', body = 'v2' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	// The rollback must revive the alice version in the repair
	// generation.
	if _, err := db.RollbackRows("notes", ins.WriteRowIDs, mid); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Exec("SELECT owner, body FROM notes")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "alice" || res.Rows[0][1].AsText() != "v1" {
		t.Fatalf("rolled-back row = %v, want [alice v1]", res.Rows)
	}
}
