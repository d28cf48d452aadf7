package ttdb

import (
	"testing"

	"warp/internal/sqldb"
	"warp/internal/vclock"
)

// ReExec is ReExecPrepared on SQL text, the form the tests write.
func (db *DB) ReExec(src string, params []sqldb.Value, t int64, orig *Record) (*sqldb.Result, *Record, error) {
	cs, err := db.Prepare(src)
	if err != nil {
		return nil, nil, err
	}
	return db.ReExecPrepared(cs, params, t, orig)
}

func newDB(t *testing.T) *DB {
	t.Helper()
	db := Open(&vclock.Clock{})
	if err := db.Annotate("pages", TableSpec{RowIDColumn: "page_id", PartitionColumns: []string{"title", "editor"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE pages (
		page_id INTEGER PRIMARY KEY,
		title TEXT NOT NULL,
		editor INTEGER,
		content TEXT DEFAULT ''
	)`)
	return db
}

func mustExec(t *testing.T, db *DB, src string, params ...sqldb.Value) (*sqldb.Result, *Record) {
	t.Helper()
	res, rec, err := db.Exec(src, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res, rec
}

func seedPages(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `INSERT INTO pages (page_id, title, editor, content) VALUES
		(1, 'Main', 10, 'welcome'),
		(2, 'Sandbox', 11, 'play'),
		(3, 'Help', 10, 'docs')`)
}

func TestBasicCRUDInvisibleBookkeeping(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)

	res, rec := mustExec(t, db, "SELECT * FROM pages WHERE title = 'Main'")
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if len(res.Columns) != 4 {
		t.Fatalf("star must expand to user columns only, got %v", res.Columns)
	}
	if rec.Kind != KindRead {
		t.Fatalf("kind = %v", rec.Kind)
	}

	res, _ = mustExec(t, db, "UPDATE pages SET content = 'hi' WHERE page_id = 1")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res, _ = mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if res.FirstValue().AsText() != "hi" {
		t.Fatalf("content = %v", res.FirstValue())
	}

	res, _ = mustExec(t, db, "DELETE FROM pages WHERE page_id = 2")
	if res.Affected != 1 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	res, _ = mustExec(t, db, "SELECT COUNT(*) FROM pages")
	if res.FirstValue().AsInt() != 2 {
		t.Fatalf("count = %v", res.FirstValue())
	}
}

func TestVersionsAccumulate(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	for i := 0; i < 5; i++ {
		mustExec(t, db, "UPDATE pages SET content = content || 'x' WHERE page_id = 1")
	}
	// 3 initial rows + 5 historical versions of page 1.
	if n := db.Raw().RowCount("pages"); n != 8 {
		t.Fatalf("physical rows = %d, want 8", n)
	}
	// Application sees 3.
	res, _ := mustExec(t, db, "SELECT COUNT(*) FROM pages")
	if res.FirstValue().AsInt() != 3 {
		t.Fatalf("app-visible count = %v", res.FirstValue())
	}
}

func TestRecordDependencies(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)

	// Read with partition-column equality: precise partition.
	_, rec := mustExec(t, db, "SELECT * FROM pages WHERE title = 'Main'")
	if len(rec.ReadPartitions) != 1 || rec.ReadPartitions[0].IsWholeTable() {
		t.Fatalf("read partitions = %v", rec.ReadPartitions)
	}
	if rec.ReadPartitions[0].Column != "title" {
		t.Fatalf("partition column = %v", rec.ReadPartitions[0])
	}

	// Read without usable predicate: whole table.
	_, rec = mustExec(t, db, "SELECT * FROM pages WHERE content = 'welcome'")
	if len(rec.ReadPartitions) != 1 || !rec.ReadPartitions[0].IsWholeTable() {
		t.Fatalf("conservative fallback missing: %v", rec.ReadPartitions)
	}

	// IN list over a partition column: one partition per member.
	_, rec = mustExec(t, db, "SELECT * FROM pages WHERE title IN ('Main', 'Help')")
	if len(rec.ReadPartitions) != 2 {
		t.Fatalf("IN partitions = %v", rec.ReadPartitions)
	}

	// Write records row IDs and both partition columns of touched rows.
	_, rec = mustExec(t, db, "UPDATE pages SET editor = 99 WHERE title = 'Main'")
	if len(rec.WriteRowIDs) != 1 || rec.WriteRowIDs[0].AsInt() != 1 {
		t.Fatalf("write row ids = %v", rec.WriteRowIDs)
	}
	// Old editor 10 and new editor 99 partitions must both appear.
	keys := map[string]bool{}
	for _, p := range rec.WritePartitions {
		keys[p.String()] = true
	}
	if !keys["pages/editor=i10"] || !keys["pages/editor=i99"] || !keys["pages/title=tMain"] {
		t.Fatalf("write partitions missing old/new values: %v", rec.WritePartitions)
	}

	// The pre-write and post-write values merge into one set: an UPDATE
	// that leaves its partition columns alone logs each partition once.
	_, rec = mustExec(t, db, "UPDATE pages SET content = 'same partitions' WHERE editor = 10")
	keys = map[string]bool{}
	for _, p := range rec.WritePartitions {
		if keys[p.String()] {
			t.Fatalf("write partitions list %v twice: %v", p, rec.WritePartitions)
		}
		keys[p.String()] = true
	}
	if len(keys) != 2 || !keys["pages/editor=i10"] || !keys["pages/title=tHelp"] {
		t.Fatalf("write partitions = %v, want editor=i10 and title=tHelp once each", rec.WritePartitions)
	}
}

func TestTimeTravelReads(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, recBefore := mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	tBefore := recBefore.Time
	mustExec(t, db, "UPDATE pages SET content = 'changed' WHERE page_id = 1")

	// Re-executing the read at its original time during repair must see the
	// old value (continuous versioning, §4.2).
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.ReExec("SELECT content FROM pages WHERE page_id = 1", nil, tBefore, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsText() != "welcome" {
		t.Fatalf("time-travel read = %q, want welcome", res.FirstValue().AsText())
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackRestoresPreWriteState(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, recW := mustExec(t, db, "UPDATE pages SET content = 'attacked' WHERE page_id = 1")
	mustExec(t, db, "UPDATE pages SET content = 'attacked2' WHERE page_id = 1")

	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	dirt, err := db.RollbackRow("pages", sqldb.Int(1), recW.Time)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirt) == 0 {
		t.Fatal("rollback reported no dirtied partitions")
	}
	// In the repair generation the row is back to its pre-attack value.
	next := db.CurrentGen() + 1
	res, _, err := db.ReExec("SELECT content FROM pages WHERE page_id = 1", nil, db.Clock().Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsText() != "welcome" {
		t.Fatalf("repair-gen content = %q, want welcome (gen %d)", res.FirstValue().AsText(), next)
	}
	// Normal execution still sees the attacked value (§4.3).
	res, _ = mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if res.FirstValue().AsText() != "attacked2" {
		t.Fatalf("current-gen content = %q, want attacked2", res.FirstValue().AsText())
	}
	// After finishing repair, the repaired state wins.
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if res.FirstValue().AsText() != "welcome" {
		t.Fatalf("post-repair content = %q, want welcome", res.FirstValue().AsText())
	}
}

func TestRollbackOfInsertRemovesRow(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, recIns := mustExec(t, db, "INSERT INTO pages (page_id, title, editor, content) VALUES (4, 'Evil', 66, 'attack')")

	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RollbackRow("pages", sqldb.Int(4), recIns.Time); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.ReExec("SELECT COUNT(*) FROM pages", nil, db.Clock().Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsInt() != 3 {
		t.Fatalf("repair gen count = %v, want 3", res.FirstValue())
	}
	// Current generation unaffected until the flip.
	res, _ = mustExec(t, db, "SELECT COUNT(*) FROM pages")
	if res.FirstValue().AsInt() != 4 {
		t.Fatalf("current gen count = %v, want 4", res.FirstValue())
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, "SELECT COUNT(*) FROM pages")
	if res.FirstValue().AsInt() != 3 {
		t.Fatalf("post-repair count = %v, want 3", res.FirstValue())
	}
}

func TestRollbackOfDeleteRevivesRow(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, recDel := mustExec(t, db, "DELETE FROM pages WHERE page_id = 2")

	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RollbackRow("pages", sqldb.Int(2), recDel.Time); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.ReExec("SELECT title FROM pages WHERE page_id = 2", nil, db.Clock().Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.FirstValue().AsText() != "Sandbox" {
		t.Fatalf("revived row = %v", res.Rows)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, "SELECT COUNT(*) FROM pages")
	if res.FirstValue().AsInt() != 3 {
		t.Fatalf("post-repair count = %v", res.FirstValue())
	}
}

func TestTwoPhaseReExecUpdate(t *testing.T) {
	// The paper's §4.2 example: a multi-row write whose WHERE clause
	// matches different rows after repair.
	db := newDB(t)
	seedPages(t, db)
	// Advance logical time so a repair action can be inserted between the
	// seed inserts and the write under test.
	mustExec(t, db, "SELECT COUNT(*) FROM pages")
	mustExec(t, db, "SELECT COUNT(*) FROM pages")
	// Original: appends to pages edited by editor 10 (pages 1 and 3).
	_, recW, err := db.Exec("UPDATE pages SET content = content || '+tag' WHERE editor = 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(recW.WriteRowIDs) != 2 {
		t.Fatalf("write set = %v", recW.WriteRowIDs)
	}

	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	// Suppose repair changed page 3's editor to 11 before this write: roll
	// back page 3 to before the write and change its editor at that time.
	if _, err := db.RollbackRow("pages", sqldb.Int(3), recW.Time); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReExec("UPDATE pages SET editor = 11 WHERE page_id = 3", nil, recW.Time-1, nil); err != nil {
		t.Fatal(err)
	}
	// Re-execute the original write at its original time: it should now
	// match only page 1, and page 1 must first be rolled back so the append
	// is not applied twice.
	res, rec2, err := db.ReExec(recW.SQL, recW.Params, recW.Time, recW)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("re-exec affected = %d, want 1", res.Affected)
	}
	if len(rec2.WriteRowIDs) != 1 || rec2.WriteRowIDs[0].AsInt() != 1 {
		t.Fatalf("re-exec write set = %v", rec2.WriteRowIDs)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if res.FirstValue().AsText() != "welcome+tag" {
		t.Fatalf("page 1 = %q, want welcome+tag (applied exactly once)", res.FirstValue().AsText())
	}
	res, _ = mustExec(t, db, "SELECT content FROM pages WHERE page_id = 3")
	if res.FirstValue().AsText() != "docs" {
		t.Fatalf("page 3 = %q, want docs (no longer matched)", res.FirstValue().AsText())
	}
}

func TestConcurrentNormalOperationDuringRepair(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	// Normal operation proceeds during repair on an untouched partition.
	mustExec(t, db, "UPDATE pages SET content = 'during' WHERE page_id = 2")
	res, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id = 2")
	if res.FirstValue().AsText() != "during" {
		t.Fatalf("normal op during repair: %v", res.FirstValue())
	}
	// The untouched partition's change is visible in the repair generation
	// verbatim (§4.3: "copied verbatim into the next generation").
	res, _, err := db.ReExec("SELECT content FROM pages WHERE page_id = 2", nil, db.Clock().Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsText() != "during" {
		t.Fatalf("verbatim sharing: %v", res.FirstValue())
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, "SELECT content FROM pages WHERE page_id = 2")
	if res.FirstValue().AsText() != "during" {
		t.Fatalf("post-flip: %v", res.FirstValue())
	}
}

func TestAbortRepairRestoresEverything(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, recW := mustExec(t, db, "UPDATE pages SET content = 'v2' WHERE page_id = 1")

	statBefore := db.Stats()
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RollbackRow("pages", sqldb.Int(1), recW.Time); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReExec("UPDATE pages SET content = 'repaired' WHERE page_id = 1", nil, recW.Time, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AbortRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if res.FirstValue().AsText() != "v2" {
		t.Fatalf("abort did not restore: %v", res.FirstValue())
	}
	// Physical storage returns to the pre-repair shape.
	if got := db.Stats(); got.PhysicalRows != statBefore.PhysicalRows {
		t.Fatalf("physical rows %d after abort, want %d", got.PhysicalRows, statBefore.PhysicalRows)
	}
}

func TestUniquenessAcrossVersions(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	// Deleting and re-creating a row with the same primary key must work:
	// versions coexist because constraints include end_time/end_gen (§6).
	mustExec(t, db, "DELETE FROM pages WHERE page_id = 1")
	mustExec(t, db, "INSERT INTO pages (page_id, title, editor, content) VALUES (1, 'Main', 12, 'recreated')")
	// But a live duplicate is still rejected.
	_, _, err := db.Exec("INSERT INTO pages (page_id, title, editor, content) VALUES (1, 'Dup', 12, '')")
	if err == nil || !sqldb.IsUniqueViolation(err) {
		t.Fatalf("want live unique violation, got %v", err)
	}
}

func TestFailedInsertIsRecorded(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, rec, err := db.Exec("INSERT INTO pages (page_id, title) VALUES (1, 'Dup')")
	if err == nil {
		t.Fatal("expected violation")
	}
	if rec == nil || rec.ErrText == "" {
		t.Fatal("failed insert must still produce a record with the error outcome")
	}
	if rec.Outcome() == (&Record{}).Outcome() {
		t.Fatal("error outcome must differ from empty outcome")
	}
}

func TestSyntheticRowIDs(t *testing.T) {
	db := Open(&vclock.Clock{})
	// No annotation: row IDs are synthesized invisibly.
	if _, _, err := db.Exec("CREATE TABLE notes (body TEXT)"); err != nil {
		t.Fatal(err)
	}
	_, rec, err := db.Exec("INSERT INTO notes (body) VALUES ('a'), ('b')")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.WriteRowIDs) != 2 {
		t.Fatalf("synthetic ids = %v", rec.WriteRowIDs)
	}
	if rec.WriteRowIDs[0].AsInt() == rec.WriteRowIDs[1].AsInt() {
		t.Fatal("synthetic ids must be distinct")
	}
	res, _, err := db.Exec("SELECT * FROM notes")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "body" {
		t.Fatalf("synthetic columns leaked: %v", res.Columns)
	}
	// Tables without partition annotations use whole-table dependencies.
	_, rec, _ = db.Exec("SELECT * FROM notes WHERE body = 'a'")
	if len(rec.ReadPartitions) != 1 || !rec.ReadPartitions[0].IsWholeTable() {
		t.Fatalf("unannotated reads must be whole-table: %v", rec.ReadPartitions)
	}
}

func TestReservedColumnsRejected(t *testing.T) {
	db := newDB(t)
	if _, _, err := db.Exec("UPDATE pages SET warp_end_time = 0 WHERE page_id = 1"); err == nil {
		t.Fatal("reserved column write must fail")
	}
	if _, _, err := db.Exec("UPDATE pages SET page_id = 9 WHERE page_id = 1"); err == nil {
		t.Fatal("row ID column update must fail")
	}
	if err := db.Annotate("t2", TableSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("CREATE TABLE t2 (warp_row_id INTEGER)"); err == nil {
		t.Fatal("reserved column declaration must fail")
	}
}

func TestGC(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	for i := 0; i < 10; i++ {
		mustExec(t, db, "UPDATE pages SET content = content || '.' WHERE page_id = 1")
	}
	before := db.Stats().PhysicalRows
	horizon := db.Clock().Now() - 2
	if err := db.GC(horizon); err != nil {
		t.Fatal(err)
	}
	after := db.Stats().PhysicalRows
	if after >= before {
		t.Fatalf("GC did not shrink storage: %d -> %d", before, after)
	}
	// Live data is untouched.
	res, _ := mustExec(t, db, "SELECT COUNT(*) FROM pages")
	if res.FirstValue().AsInt() != 3 {
		t.Fatalf("GC damaged live rows: %v", res.FirstValue())
	}
	// Rollback beyond the horizon is refused.
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RollbackRow("pages", sqldb.Int(1), horizon-1); err == nil {
		t.Fatal("rollback beyond GC horizon must fail")
	}
	if err := db.AbortRepair(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairStateErrors(t *testing.T) {
	db := newDB(t)
	if _, err := db.RollbackRow("pages", sqldb.Int(1), 1); err == nil {
		t.Fatal("rollback outside repair must fail")
	}
	if _, _, err := db.ReExec("SELECT 1", nil, 1, nil); err == nil {
		t.Fatal("ReExec outside repair must fail")
	}
	if err := db.FinishRepair(); err == nil {
		t.Fatal("FinishRepair without BeginRepair must fail")
	}
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BeginRepair(); err == nil {
		t.Fatal("nested BeginRepair must fail")
	}
	if err := db.GC(1); err == nil {
		t.Fatal("GC during repair must fail")
	}
	if err := db.AbortRepair(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSetOverlap(t *testing.T) {
	s := NewPartitionSet()
	s.Add(Partition{Table: "pages", Column: "title", Key: "tMain"})
	if !s.OverlapsAny([]Partition{{Table: "pages", Column: "title", Key: "tMain"}}) {
		t.Fatal("same key must overlap")
	}
	if s.OverlapsAny([]Partition{{Table: "pages", Column: "title", Key: "tOther"}}) {
		t.Fatal("different key must not overlap")
	}
	if !s.OverlapsAny([]Partition{WholeTable("pages")}) {
		t.Fatal("whole table must overlap any key")
	}
	if s.OverlapsAny([]Partition{WholeTable("users")}) {
		t.Fatal("different table must not overlap")
	}
	s.Add(WholeTable("users"))
	if !s.OverlapsAny([]Partition{{Table: "users", Column: "name", Key: "talice"}}) {
		t.Fatal("whole-table entry must cover keys")
	}
}
