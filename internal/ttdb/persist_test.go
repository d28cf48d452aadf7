package ttdb

import (
	"fmt"
	"strings"
	"testing"

	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/vclock"
)

// collectObserver records emitted events for replay.
type collectObserver struct {
	records []*Record
	specs   []struct {
		table string
		spec  TableSpec
	}
}

func (c *collectObserver) RecordApplied(rec *Record) { c.records = append(c.records, rec) }
func (c *collectObserver) TableAnnotated(table string, spec TableSpec) {
	c.specs = append(c.specs, struct {
		table string
		spec  TableSpec
	}{table, spec})
}
func (c *collectObserver) Collected(int64) {}

// dump renders every physical row of every table, deterministically.
func dump(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d\n", db.CurrentGen())
	for _, table := range db.Tables() {
		m, err := db.meta(table)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		res, err := db.raw.ExecCached(sqldb.NewCachedStmt(m.physicalSelect(nil)), nil)
		nextRowID := m.nextRowID
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table %s nextRowID=%d cols=%v\n", table, nextRowID, res.Columns)
		rows := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			rows = append(rows, fmt.Sprint(row))
		}
		for _, r := range rows {
			fmt.Fprintln(&b, r)
		}
	}
	return b.String()
}

func seedDB(t *testing.T, obs Observer) *DB {
	t.Helper()
	db := Open(&vclock.Clock{})
	if obs != nil {
		db.SetObserver(obs)
	}
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Annotate("tags", TableSpec{}); err != nil { // synthetic row IDs
		t.Fatal(err)
	}
	mustExec := func(sql string, params ...sqldb.Value) {
		t.Helper()
		if _, _, err := db.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)")
	mustExec("CREATE TABLE tags (name TEXT, note_id INTEGER)")
	for i := 1; i <= 5; i++ {
		mustExec("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("u%d", i%2)), sqldb.Text(fmt.Sprintf("note %d", i)))
		mustExec("INSERT INTO tags (name, note_id) VALUES (?, ?)",
			sqldb.Text(fmt.Sprintf("tag%d", i)), sqldb.Int(int64(i)))
	}
	mustExec("UPDATE notes SET body = 'edited' WHERE id = 2")
	mustExec("DELETE FROM tags WHERE note_id = 3")
	return db
}

func TestSnapshotRoundtrip(t *testing.T) {
	db := seedDB(t, nil)
	enc := store.NewEncoder()
	if err := db.EncodeState(enc); err != nil {
		t.Fatal(err)
	}

	clock := &vclock.Clock{}
	clock.AdvanceTo(db.Clock().Now())
	db2 := Open(clock)
	if err := db2.RestoreState(store.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := dump(t, db2), dump(t, db); got != want {
		t.Fatalf("restored state differs:\n--- restored ---\n%s--- original ---\n%s", got, want)
	}

	// The restored database keeps working: inserts do not reuse row IDs
	// and the partition index answers rollback queries.
	if _, _, err := db2.Exec("INSERT INTO tags (name, note_id) VALUES ('fresh', 9)"); err != nil {
		t.Fatal(err)
	}
	res, _, err := db2.Exec("SELECT COUNT(*) FROM tags")
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsInt() != 5 {
		t.Fatalf("tags count = %d, want 5", res.FirstValue().AsInt())
	}
	rows, err := db2.PartitionRowsSince(Partition{Table: "notes", Column: "owner", Key: sqldb.Text("u0").Key()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("restored partition index is empty")
	}
}

func TestRecordReplayRebuildsState(t *testing.T) {
	obs := &collectObserver{}
	db := seedDB(t, obs)

	clock := &vclock.Clock{}
	db2 := Open(clock)
	for _, s := range obs.specs {
		if err := db2.Annotate(s.table, s.spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range obs.records {
		if err := db2.Replay(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dump(t, db2), dump(t, db); got != want {
		t.Fatalf("replayed state differs:\n--- replayed ---\n%s--- original ---\n%s", got, want)
	}
	if clock.Now() < db.Clock().Now()-vclock.Stride {
		t.Fatalf("replay left the clock behind: %d vs %d", clock.Now(), db.Clock().Now())
	}
}

func TestRecordCodecRoundtrip(t *testing.T) {
	obs := &collectObserver{}
	seedDB(t, obs)
	render := func(r *Record) string {
		result := "<nil>"
		if r.Result != nil {
			result = fmt.Sprintf("%+v", *r.Result)
		}
		return fmt.Sprintf("%q %v %d %d %s %s %v %v %v %s %s",
			r.SQL, r.Params, r.Time, r.Gen, r.Table, r.Kind,
			r.ReadPartitions, r.WritePartitions, r.WriteRowIDs, result, r.ErrText)
	}
	for _, rec := range obs.records {
		enc := store.NewEncoder()
		EncodeRecord(enc, rec)
		got := DecodeRecord(store.NewDecoder(enc.Bytes()))
		if render(got) != render(rec) {
			t.Fatalf("record roundtrip mismatch:\n got %s\nwant %s", render(got), render(rec))
		}
		if got.Outcome() != rec.Outcome() {
			t.Fatal("outcome fingerprint changed across codec")
		}
	}
}

func TestAnnotateIdempotentAfterCreate(t *testing.T) {
	db := Open(&vclock.Clock{})
	spec := TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}
	if err := db.Annotate("notes", spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT)"); err != nil {
		t.Fatal(err)
	}
	// Setup code re-running against a recovered deployment re-annotates
	// identically: a no-op, not an error.
	if err := db.Annotate("notes", spec); err != nil {
		t.Fatalf("identical re-annotation: %v", err)
	}
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "owner"}); err == nil {
		t.Fatal("conflicting re-annotation must fail")
	}
}
