package sqldb

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// mustExec executes src and fails the test on error.
func mustExec(t *testing.T, db *DB, src string, params ...Value) *Result {
	t.Helper()
	res, err := db.Exec(src, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return res
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE pages (
		page_id INTEGER PRIMARY KEY,
		title TEXT NOT NULL,
		editor INTEGER,
		content TEXT DEFAULT ''
	)`)
	mustExec(t, db, `INSERT INTO pages (page_id, title, editor, content) VALUES
		(1, 'Main', 10, 'welcome'),
		(2, 'Sandbox', 11, 'play here'),
		(3, 'Help', 10, 'how to')`)
	return db
}

func TestSelectBasics(t *testing.T) {
	db := newTestDB(t)

	res := mustExec(t, db, "SELECT title FROM pages WHERE page_id = 2")
	if res.NumRows() != 1 || res.Rows[0][0].AsText() != "Sandbox" {
		t.Fatalf("got %+v", res.Rows)
	}

	res = mustExec(t, db, "SELECT * FROM pages ORDER BY title")
	if res.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.NumRows())
	}
	if res.Rows[0][1].AsText() != "Help" || res.Rows[2][1].AsText() != "Sandbox" {
		t.Fatalf("order wrong: %v", res.Rows)
	}
	if len(res.Columns) != 4 {
		t.Fatalf("star should expand to 4 columns, got %v", res.Columns)
	}

	res = mustExec(t, db, "SELECT page_id FROM pages WHERE editor = 10 ORDER BY page_id DESC")
	if res.NumRows() != 2 || res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("got %+v", res.Rows)
	}

	res = mustExec(t, db, "SELECT page_id FROM pages ORDER BY page_id LIMIT 1 OFFSET 1")
	if res.NumRows() != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("limit/offset wrong: %+v", res.Rows)
	}
}

func TestSelectExpressionsAndParams(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT title || '!' FROM pages WHERE page_id = ?", Int(1))
	if res.Rows[0][0].AsText() != "Main!" {
		t.Fatalf("concat: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT 2 + 3 * 4")
	if res.Rows[0][0].AsInt() != 14 {
		t.Fatalf("precedence: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT page_id FROM pages WHERE title LIKE 'S%'")
	if res.NumRows() != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("like: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT page_id FROM pages WHERE page_id IN (1, 3) ORDER BY page_id")
	if res.NumRows() != 2 || res.Rows[1][0].AsInt() != 3 {
		t.Fatalf("in: %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT COUNT(*) FROM pages")
	if res.FirstValue().AsInt() != 3 {
		t.Fatalf("count: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT MAX(page_id), MIN(page_id), SUM(page_id) FROM pages")
	r := res.Rows[0]
	if r[0].AsInt() != 3 || r[1].AsInt() != 1 || r[2].AsInt() != 6 {
		t.Fatalf("agg: %v", r)
	}
	res = mustExec(t, db, "SELECT COUNT(*) FROM pages WHERE editor = 99")
	if res.FirstValue().AsInt() != 0 {
		t.Fatalf("empty count: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT MAX(page_id) FROM pages WHERE editor = 99")
	if !res.FirstValue().IsNull() {
		t.Fatalf("empty max should be NULL: %v", res.Rows)
	}
}

func TestInsertDefaultsAndReturning(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "INSERT INTO pages (page_id, title) VALUES (4, 'New') RETURNING page_id, content")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	if res.Rows[0][0].AsInt() != 4 || res.Rows[0][1].AsText() != "" {
		t.Fatalf("returning: %v", res.Rows)
	}
	// editor column had no default: must be NULL.
	res = mustExec(t, db, "SELECT editor FROM pages WHERE page_id = 4")
	if !res.FirstValue().IsNull() {
		t.Fatalf("editor should be NULL, got %v", res.FirstValue())
	}
}

func TestUpdate(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "UPDATE pages SET content = content || '+', editor = 42 WHERE editor = 10 RETURNING page_id")
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	got := mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if got.FirstValue().AsText() != "welcome+" {
		t.Fatalf("update content: %v", got.FirstValue())
	}
	// Update with no matches.
	res = mustExec(t, db, "UPDATE pages SET editor = 1 WHERE page_id = 999")
	if res.Affected != 0 {
		t.Fatalf("affected = %d, want 0", res.Affected)
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "DELETE FROM pages WHERE page_id = 2 RETURNING title")
	if res.Affected != 1 || res.Rows[0][0].AsText() != "Sandbox" {
		t.Fatalf("delete: %+v", res)
	}
	if db.RowCount("pages") != 2 {
		t.Fatalf("row count = %d, want 2", db.RowCount("pages"))
	}
	// Deleted row is gone from scans.
	got := mustExec(t, db, "SELECT COUNT(*) FROM pages WHERE title = 'Sandbox'")
	if got.FirstValue().AsInt() != 0 {
		t.Fatal("deleted row still visible")
	}
	// Its primary key can be reused.
	mustExec(t, db, "INSERT INTO pages (page_id, title) VALUES (2, 'Sandbox2')")
}

func TestUniqueConstraints(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Exec("INSERT INTO pages (page_id, title) VALUES (1, 'Dup')")
	if err == nil || !IsUniqueViolation(err) {
		t.Fatalf("expected unique violation, got %v", err)
	}
	// Update into collision.
	_, err = db.Exec("UPDATE pages SET page_id = 1 WHERE page_id = 2")
	if err == nil || !IsUniqueViolation(err) {
		t.Fatalf("expected unique violation on update, got %v", err)
	}
	// Failed update must not corrupt state: page 2 still reachable.
	res := mustExec(t, db, "SELECT title FROM pages WHERE page_id = 2")
	if res.NumRows() != 1 {
		t.Fatal("failed update corrupted index state")
	}
	// Update of the row onto itself is fine.
	mustExec(t, db, "UPDATE pages SET page_id = 1, title = 'Main2' WHERE page_id = 1")
}

func TestCompositeUnique(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE acl (page INTEGER, user_id INTEGER, UNIQUE (page, user_id))")
	mustExec(t, db, "INSERT INTO acl (page, user_id) VALUES (1, 1), (1, 2), (2, 1)")
	if _, err := db.Exec("INSERT INTO acl (page, user_id) VALUES (1, 2)"); !IsUniqueViolation(err) {
		t.Fatalf("want violation, got %v", err)
	}
	// NULL never collides.
	mustExec(t, db, "INSERT INTO acl (page, user_id) VALUES (1, NULL), (1, NULL)")

	// A multi-row statement checks each constraint's keys against its
	// own earlier rows: equal keys under two different constraints do
	// not collide, equal keys under one do.
	mustExec(t, db, "CREATE TABLE pair (a INTEGER, b INTEGER, UNIQUE (a), UNIQUE (b))")
	mustExec(t, db, "INSERT INTO pair (a, b) VALUES (1, 2), (2, 1)")
	if _, err := db.Exec("INSERT INTO pair (a, b) VALUES (3, 4), (5, 4)"); !IsUniqueViolation(err) {
		t.Fatalf("want violation within the statement, got %v", err)
	}
}

func TestNotNull(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("INSERT INTO pages (page_id) VALUES (9)"); err == nil {
		t.Fatal("NOT NULL title should reject missing value")
	}
	if _, err := db.Exec("UPDATE pages SET title = NULL WHERE page_id = 1"); err == nil {
		t.Fatal("NOT NULL title should reject NULL update")
	}
}

func TestIndexUseMatchesScan(t *testing.T) {
	db := newTestDB(t)
	noIndex := mustExec(t, db, "SELECT page_id FROM pages WHERE title = 'Help'")
	mustExec(t, db, "CREATE INDEX idx_title ON pages (title)")
	withIndex := mustExec(t, db, "SELECT page_id FROM pages WHERE title = 'Help'")
	if noIndex.Fingerprint() != withIndex.Fingerprint() {
		t.Fatalf("index changed results: %v vs %v", noIndex.Rows, withIndex.Rows)
	}
	// Index stays correct across updates and deletes.
	mustExec(t, db, "UPDATE pages SET title = 'HelpX' WHERE page_id = 3")
	res := mustExec(t, db, "SELECT page_id FROM pages WHERE title = 'HelpX'")
	if res.NumRows() != 1 {
		t.Fatalf("index missed updated row: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT page_id FROM pages WHERE title = 'Help'")
	if res.NumRows() != 0 {
		t.Fatalf("index kept stale row: %v", res.Rows)
	}
	mustExec(t, db, "DELETE FROM pages WHERE title = 'HelpX'")
	res = mustExec(t, db, "SELECT page_id FROM pages WHERE title = 'HelpX'")
	if res.NumRows() != 0 {
		t.Fatalf("index kept deleted row: %v", res.Rows)
	}
}

func TestIndexWithParam(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_title ON pages (title)")
	res := mustExec(t, db, "SELECT page_id FROM pages WHERE title = ?", Text("Main"))
	if res.NumRows() != 1 || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("param-index lookup: %v", res.Rows)
	}
}

func TestAlterTableAdd(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "ALTER TABLE pages ADD COLUMN views INTEGER DEFAULT 0")
	res := mustExec(t, db, "SELECT views FROM pages WHERE page_id = 1")
	if res.FirstValue().AsInt() != 0 {
		t.Fatalf("default for existing rows: %v", res.FirstValue())
	}
	mustExec(t, db, "UPDATE pages SET views = 5 WHERE page_id = 1")
	res = mustExec(t, db, "SELECT views FROM pages WHERE page_id = 1")
	if res.FirstValue().AsInt() != 5 {
		t.Fatalf("update new column: %v", res.FirstValue())
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT DISTINCT editor FROM pages WHERE editor IS NOT NULL ORDER BY editor")
	if res.NumRows() != 2 {
		t.Fatalf("distinct rows = %d, want 2: %v", res.NumRows(), res.Rows)
	}
}

// TestDistinctKeepsRowsWhoseKeysConcatenateAlike: two distinct rows whose
// values' keys, joined with a zero byte, spell the same bytes stay two
// rows.
func TestDistinctKeepsRowsWhoseKeysConcatenateAlike(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (a TEXT, b TEXT)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (?, ?)", Text("x\x00ty"), Text("z"))
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (?, ?)", Text("x"), Text("y\x00tz"))
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (?, ?)", Text("x"), Text("y\x00tz"))
	res := mustExec(t, db, "SELECT DISTINCT a, b FROM t")
	want := [][]Value{{Text("x\x00ty"), Text("z")}, {Text("x"), Text("y\x00tz")}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("distinct rows = %v, want %v", res.Rows, want)
	}
}

func TestNullSemantics(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO pages (page_id, title) VALUES (7, 'NullEd')")
	// editor IS NULL matches; editor = NULL does not.
	res := mustExec(t, db, "SELECT page_id FROM pages WHERE editor IS NULL")
	if res.NumRows() != 1 || res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("is null: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT page_id FROM pages WHERE editor = NULL")
	if res.NumRows() != 0 {
		t.Fatalf("= NULL must match nothing: %v", res.Rows)
	}
	// NOT over NULL comparison stays non-matching.
	res = mustExec(t, db, "SELECT page_id FROM pages WHERE NOT (editor = NULL)")
	if res.NumRows() != 0 {
		t.Fatalf("NOT NULL-comparison must match nothing: %v", res.Rows)
	}
}

// TestChangeSeq: a table's change sequence moves with every statement
// that changed it — a write that affected a row, KEEP's versioned update
// among them, or DDL on the table — and with nothing else: reads, writes
// that matched nothing, failed statements and no-op DDL leave it, and
// other tables' statements never move it.
func TestChangeSeq(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE other (id INTEGER PRIMARY KEY)")
	for _, c := range []struct {
		src   string
		moves bool
	}{
		{"INSERT INTO pages (page_id, title) VALUES (4, 'New')", true},
		{"UPDATE pages SET content = 'x' WHERE page_id = 1", true},
		{"UPDATE pages SET content = 'y' WHERE page_id = 1 KEEP (page_id = 100)", true},
		{"DELETE FROM pages WHERE page_id = 2", true},
		{"ALTER TABLE pages ADD COLUMN views INTEGER DEFAULT 0", true},
		{"CREATE INDEX idx_editor ON pages (editor)", true},
		{"SELECT * FROM pages", false},
		{"SELECT COUNT(*) FROM pages WHERE editor = 10", false},
		{"UPDATE pages SET content = 'z' WHERE page_id = 99", false},
		{"DELETE FROM pages WHERE page_id = 99", false},
		{"INSERT INTO pages (page_id, title) VALUES (1, 'Dup')", false},
		{"UPDATE pages SET page_id = 3 WHERE page_id = 1", false},
		{"CREATE INDEX idx_editor2 ON pages (editor)", false},
		{"CREATE TABLE IF NOT EXISTS pages (page_id INTEGER)", false},
		{"INSERT INTO other (id) VALUES (1)", false},
	} {
		before := db.ChangeSeq("pages")
		_, _ = db.Exec(c.src)
		if moved := db.ChangeSeq("pages") != before; moved != c.moves {
			t.Errorf("%s: change sequence moved = %v, want %v", c.src, moved, c.moves)
		}
	}
	if got := db.ChangeSeq("nope"); got != 0 {
		t.Errorf("ChangeSeq of a missing table = %d, want 0", got)
	}
	// A re-created table never repeats the sequence of the one it
	// replaced.
	last := db.ChangeSeq("pages")
	mustExec(t, db, "DROP TABLE pages")
	mustExec(t, db, "CREATE TABLE pages (page_id INTEGER PRIMARY KEY)")
	if got := db.ChangeSeq("pages"); got <= last {
		t.Errorf("re-created table's change sequence %d, want above %d", got, last)
	}
}

func TestResultFingerprint(t *testing.T) {
	db := newTestDB(t)
	a := mustExec(t, db, "SELECT * FROM pages ORDER BY page_id")
	b := mustExec(t, db, "SELECT * FROM pages ORDER BY page_id")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical queries must fingerprint equal")
	}
	mustExec(t, db, "UPDATE pages SET content = 'x' WHERE page_id = 1")
	c := mustExec(t, db, "SELECT * FROM pages ORDER BY page_id")
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("changed data must change fingerprint")
	}
}

func TestErrorsAreDiagnostic(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Exec("SELECT nope FROM pages")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want column name in error, got %v", err)
	}
	_, err = db.Exec("SELECT * FROM nosuch")
	if err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("want table name in error, got %v", err)
	}
	_, err = db.Exec("SELECT * FROM pages WHERE page_id = ?")
	if err == nil {
		t.Fatal("missing parameter should error")
	}
	_, err = db.Exec("SELECT 1 / 0")
	if err == nil {
		t.Fatal("division by zero should error")
	}
}

// TestParamCountContract: the engine's one entry refuses a parameter
// vector that does not match the statement's placeholders — too few or
// too many, on every verb, through the text and the prepared entry alike
// — with *ParamCountError, before planning or touching a row.
func TestParamCountContract(t *testing.T) {
	db := newTestDB(t)
	cases := []struct {
		name, src string
		params    []Value
	}{
		{"select too few", "SELECT title FROM pages WHERE page_id = ?", nil},
		{"select too many", "SELECT title FROM pages WHERE page_id = ?", []Value{Int(1), Int(2)}},
		{"insert too few", "INSERT INTO pages (page_id, title) VALUES (?, ?)", []Value{Int(7)}},
		{"insert too many", "INSERT INTO pages (page_id, title) VALUES (?, 'T')", []Value{Int(7), Int(8)}},
		{"update too few", "UPDATE pages SET content = ? WHERE page_id = ?", []Value{Text("x")}},
		{"update too many", "UPDATE pages SET content = ? WHERE page_id = ?", []Value{Text("x"), Int(1), Int(2)}},
		{"delete too few", "DELETE FROM pages WHERE page_id = ?", nil},
		{"delete too many", "DELETE FROM pages", []Value{Int(1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs, err := db.stmts.Get(c.src)
			if err != nil {
				t.Fatal(err)
			}
			hits, misses := planHits.Value(), planMisses.Value()
			for entry, run := range map[string]func() (*Result, error){
				"Exec":       func() (*Result, error) { return db.Exec(c.src, c.params...) },
				"ExecCached": func() (*Result, error) { return db.ExecCached(cs, c.params) },
			} {
				_, err := run()
				var pe *ParamCountError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: err = %v, want *ParamCountError", entry, err)
				}
				if pe.Want != cs.NumParams() || pe.Got != len(c.params) {
					t.Fatalf("%s: error reports want %d got %d", entry, pe.Want, pe.Got)
				}
			}
			if planHits.Value() != hits || planMisses.Value() != misses {
				t.Fatal("mismatch reached the planner")
			}
		})
	}
	if n := db.RowCount("pages"); n != 3 {
		t.Fatalf("refused statements changed the table: %d rows", n)
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "DROP TABLE pages")
	if db.HasTable("pages") {
		t.Fatal("table still present")
	}
	if _, err := db.Exec("DROP TABLE pages"); err == nil {
		t.Fatal("double drop should fail")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS pages")
}

func TestBooleanColumn(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE f (id INTEGER PRIMARY KEY, ok BOOLEAN DEFAULT FALSE)")
	mustExec(t, db, "INSERT INTO f (id, ok) VALUES (1, TRUE), (2, FALSE), (3, 1)")
	res := mustExec(t, db, "SELECT id FROM f WHERE ok = TRUE ORDER BY id")
	if res.NumRows() != 2 || res.Rows[1][0].AsInt() != 3 {
		t.Fatalf("bool filter (int coercion): %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT id FROM f WHERE ok ORDER BY id")
	if res.NumRows() != 2 {
		t.Fatalf("bare bool column as predicate: %v", res.Rows)
	}
}

// indexLookup runs an equality query twice — once in the form the
// planner can serve from the hash index, once wrapped so only a full
// scan answers it — and fails unless both agree. Divergence means the
// index's buckets and the table's rows drifted apart.
func indexLookup(t *testing.T, db *DB, table, col string, v Value, wantIDs ...int64) {
	t.Helper()
	idx := mustExec(t, db, "SELECT page_id FROM "+table+" WHERE "+col+" = ? ORDER BY page_id", v)
	scan := mustExec(t, db, "SELECT page_id FROM "+table+" WHERE NOT ("+col+" != ?) ORDER BY page_id", v)
	got := func(r *Result) []int64 {
		var out []int64
		for _, row := range r.Rows {
			out = append(out, row[0].AsInt())
		}
		return out
	}
	gi, gs := got(idx), got(scan)
	if len(gi) != len(gs) {
		t.Fatalf("index returned %v, scan returned %v", gi, gs)
	}
	for i := range gi {
		if gi[i] != gs[i] {
			t.Fatalf("index returned %v, scan returned %v", gi, gs)
		}
	}
	if len(gi) != len(wantIDs) {
		t.Fatalf("lookup %s=%v: got %v, want %v", col, v, gi, wantIDs)
	}
	for i := range gi {
		if gi[i] != wantIDs[i] {
			t.Fatalf("lookup %s=%v: got %v, want %v", col, v, gi, wantIDs)
		}
	}
}

// TestIndexMaintainedUnderUpdate: rewriting an indexed column must move
// the row between hash buckets — the old key stops matching, the new
// one starts, and index results always agree with a scan.
func TestIndexMaintainedUnderUpdate(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_editor ON pages (editor)")
	indexLookup(t, db, "pages", "editor", Int(10), 1, 3)
	indexLookup(t, db, "pages", "editor", Int(11), 2)

	// Move page 1 from editor 10 to editor 11.
	mustExec(t, db, "UPDATE pages SET editor = 11 WHERE page_id = 1")
	indexLookup(t, db, "pages", "editor", Int(10), 3)
	indexLookup(t, db, "pages", "editor", Int(11), 1, 2)

	// Update that keeps the key: still exactly one bucket entry.
	mustExec(t, db, "UPDATE pages SET editor = 11, content = 'x' WHERE page_id = 1")
	indexLookup(t, db, "pages", "editor", Int(11), 1, 2)

	// Multi-row update moving every row to one bucket.
	mustExec(t, db, "UPDATE pages SET editor = 7")
	indexLookup(t, db, "pages", "editor", Int(7), 1, 2, 3)
	indexLookup(t, db, "pages", "editor", Int(10))
	indexLookup(t, db, "pages", "editor", Int(11))

	// A failed (atomic) update must leave the index untouched: page_id
	// is unique, so this violates and rolls back after touching rows.
	if _, err := db.Exec("UPDATE pages SET page_id = 9, editor = 8 WHERE editor = 7"); !IsUniqueViolation(err) {
		t.Fatalf("expected unique violation, got %v", err)
	}
	indexLookup(t, db, "pages", "editor", Int(7), 1, 2, 3)
	indexLookup(t, db, "pages", "editor", Int(8))
}

// TestIndexMaintainedUnderDeleteReinsert: deletes tombstone slots and
// re-inserts take fresh ones; bucket entries must follow.
func TestIndexMaintainedUnderDeleteReinsert(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX idx_editor ON pages (editor)")
	mustExec(t, db, "DELETE FROM pages WHERE page_id = 1")
	indexLookup(t, db, "pages", "editor", Int(10), 3)
	mustExec(t, db, "INSERT INTO pages (page_id, title, editor) VALUES (4, 'New', 10)")
	indexLookup(t, db, "pages", "editor", Int(10), 3, 4)
	// Delete + re-insert the same logical row: new slot, same key.
	mustExec(t, db, "DELETE FROM pages WHERE page_id = 4")
	mustExec(t, db, "INSERT INTO pages (page_id, title, editor) VALUES (4, 'New2', 10)")
	indexLookup(t, db, "pages", "editor", Int(10), 3, 4)
}

func TestValueOfKeyInvertsKey(t *testing.T) {
	for _, v := range []Value{Null(), Bool(true), Bool(false), Int(0), Int(-7), Int(1 << 62), Text(""), Text("t"), Text("i5"), Text("a b")} {
		if got, ok := ValueOfKey(v.Key()); !ok || got != v {
			t.Errorf("ValueOfKey(%q) = %v, %v; want %v", v.Key(), got, ok, v)
		}
	}
	for _, key := range []string{"", "?", "b", "i", "i07", "i+7", "ix", "nn", "x1"} {
		if v, ok := ValueOfKey(key); ok {
			t.Errorf("ValueOfKey(%q) = %v, which no value's Key returns", key, v)
		}
	}
}
