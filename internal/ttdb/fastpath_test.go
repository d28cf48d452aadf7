package ttdb

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"warp/internal/sqldb"
	"warp/internal/vclock"
)

// agreeIndexScan compares an indexed equality lookup with a scan-only
// rewrite of the same predicate on the raw engine: the page_id index
// must agree with the table after every maintenance event.
func agreeIndexScan(t *testing.T, db *DB, v int64, want ...string) {
	t.Helper()
	idx, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id = ?", sqldb.Int(v))
	scan, _ := mustExec(t, db, "SELECT content FROM pages WHERE NOT (page_id != ?)", sqldb.Int(v))
	render := func(r *sqldb.Result) []string {
		var out []string
		for _, row := range r.Rows {
			out = append(out, row[0].AsText())
		}
		return out
	}
	gi, gs := render(idx), render(scan)
	if fmt.Sprint(gi) != fmt.Sprint(gs) {
		t.Fatalf("index sees %v, scan sees %v", gi, gs)
	}
	if fmt.Sprint(gi) != fmt.Sprint(want) {
		t.Fatalf("page %d: got %v, want %v", v, gi, want)
	}
}

// agreeOrderedScan compares a range + ORDER BY query served by the
// ordered index with a rewrite the planner cannot index (a NOT-wrapped
// bound and an ORDER BY expression force the scan-and-sort path): both
// must see the same rows in the same order after every maintenance
// event, including repair's slot reuse.
func agreeOrderedScan(t *testing.T, db *DB, lo int64, want ...string) {
	t.Helper()
	idx, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id >= ? ORDER BY page_id", sqldb.Int(lo))
	scan, _ := mustExec(t, db, "SELECT content FROM pages WHERE NOT (page_id < ?) ORDER BY page_id + 0", sqldb.Int(lo))
	render := func(r *sqldb.Result) []string {
		var out []string
		for _, row := range r.Rows {
			out = append(out, row[0].AsText())
		}
		return out
	}
	gi, gs := render(idx), render(scan)
	if fmt.Sprint(gi) != fmt.Sprint(gs) {
		t.Fatalf("ordered index sees %v, scan-and-sort sees %v", gi, gs)
	}
	if fmt.Sprint(gi) != fmt.Sprint(want) {
		t.Fatalf("range from %d: got %v, want %v", lo, gi, want)
	}
}

// TestIndexAgreesAfterRollbackReinsert: repair rollback demotes and
// deletes physical versions and revival re-inserts copies into fresh
// engine slots; the row-ID hash index must track every step, including
// the generation-switch purge that removes mid-table slots.
func TestIndexAgreesAfterRollbackReinsert(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	_, recV1 := mustExec(t, db, "UPDATE pages SET content = 'v1' WHERE page_id = 1")
	mustExec(t, db, "UPDATE pages SET content = 'v2' WHERE page_id = 1")
	mustExec(t, db, "DELETE FROM pages WHERE page_id = 2")

	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	// Roll page 1 back to just after v1: versions from v2 on vanish from
	// the next generation and the v1 version revives as a kept copy (a
	// fresh slot).
	if _, err := db.RollbackRow("pages", sqldb.Int(1), recV1.Time+1); err != nil {
		t.Fatal(err)
	}
	// Re-execute an insert during repair so the purge later removes its
	// rolled-back sibling versions from the middle of the table.
	if _, _, err := db.ReExec("INSERT INTO pages (page_id, title, editor, content) VALUES (4, 'New', 12, 'fresh')", nil, db.Clock().Now(), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}

	agreeIndexScan(t, db, 1, "v1")
	agreeIndexScan(t, db, 2)
	agreeIndexScan(t, db, 3, "docs")
	agreeIndexScan(t, db, 4, "fresh")
	agreeOrderedScan(t, db, 1, "v1", "docs", "fresh")

	// Post-repair writes keep the index in step with reused row IDs.
	mustExec(t, db, "INSERT INTO pages (page_id, title, editor, content) VALUES (2, 'Sandbox', 11, 'again')")
	agreeIndexScan(t, db, 2, "again")
	agreeOrderedScan(t, db, 2, "again", "docs", "fresh")
	mustExec(t, db, "UPDATE pages SET content = 'v3' WHERE page_id = 1")
	agreeIndexScan(t, db, 1, "v3")
	agreeOrderedScan(t, db, 1, "v3", "again", "docs", "fresh")
}

// TestCachedExecAcrossGenerationSwitch: the statement cache must stay
// semantically invisible across BeginRepair / FinishRepair / AbortRepair
// — the same cached handles keep answering with the right generation's
// rows, and the canonical SQL recorded is byte-identical to the
// uncached rendering.
func TestCachedExecAcrossGenerationSwitch(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	sel := "SELECT content FROM pages WHERE page_id = 1"

	res, rec := mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "welcome" {
		t.Fatalf("content = %q", got)
	}
	stmt, err := sqldb.Parse(sel)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SQL != stmt.String() {
		t.Fatalf("cached canonical %q != direct rendering %q", rec.SQL, stmt.String())
	}

	// Repair rewrites page 1 in the next generation; the cached handle
	// must keep reading the *current* generation until the switch.
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReExec("UPDATE pages SET content = 'repaired' WHERE page_id = 1", nil, db.Clock().Now(), nil); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "welcome" {
		t.Fatalf("pre-switch cached read sees %q, want welcome", got)
	}
	if err := db.FinishRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "repaired" {
		t.Fatalf("post-switch cached read sees %q, want repaired", got)
	}

	// And across an aborted repair the cached handle must not leak the
	// discarded generation.
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ReExec("UPDATE pages SET content = 'discarded' WHERE page_id = 1", nil, db.Clock().Now(), nil); err != nil {
		t.Fatal(err)
	}
	if err := db.AbortRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, db, sel)
	if got := res.FirstValue().AsText(); got != "repaired" {
		t.Fatalf("post-abort cached read sees %q, want repaired", got)
	}
}

// TestCachedWriteAugmentation: UPDATE and DELETE build one parameterized
// augmentation per DDL epoch — repeated writes through the statement
// cache keep hitting the same raw-engine handles, DDL rebuilds them (the
// kept before-image's column set depends on the table's columns), and the
// writes leave full version history behind.
func TestCachedWriteAugmentation(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)

	upd := "UPDATE pages SET content = ? WHERE page_id = ?"
	mustExec(t, db, upd, sqldb.Text("a"), sqldb.Int(1))
	cs, err := db.Prepare(upd)
	if err != nil {
		t.Fatal(err)
	}
	augOf := func(cs *sqldb.CachedStmt) *stmtAug {
		st, ok := cs.Aux().(*stmtState)
		if !ok || st.aug.Load() == nil {
			t.Fatalf("handle %q carries no augmentation (aux = %T)", cs.Canonical(), cs.Aux())
		}
		return st.aug.Load()
	}
	a1 := augOf(cs)
	mustExec(t, db, upd, sqldb.Text("b"), sqldb.Int(1))
	if a2 := augOf(cs); a2 != a1 {
		t.Fatal("update augmentation rebuilt without a DDL epoch change")
	}
	res, _ := mustExec(t, db, "SELECT content FROM pages WHERE page_id = 1")
	if got := res.FirstValue().AsText(); got != "b" {
		t.Fatalf("content = %q, want b", got)
	}
	// Both cached updates must have kept their before-images: the
	// original version plus one closed historical version per update.
	raw, err := db.Raw().Exec("SELECT content FROM pages WHERE page_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumRows() != 3 {
		t.Fatalf("physical versions = %d, want 3", raw.NumRows())
	}

	// DDL moves the epoch: the cached handles must rebuild so the new
	// column participates in the kept before-image.
	mustExec(t, db, "ALTER TABLE pages ADD COLUMN views INTEGER")
	mustExec(t, db, upd, sqldb.Text("c"), sqldb.Int(1))
	if a3 := augOf(cs); a3 == a1 {
		t.Fatal("update augmentation survived a DDL epoch change")
	}

	del := "DELETE FROM pages WHERE page_id = ?"
	mustExec(t, db, del, sqldb.Int(2))
	dcs, err := db.Prepare(del)
	if err != nil {
		t.Fatal(err)
	}
	d1 := augOf(dcs)
	mustExec(t, db, del, sqldb.Int(3))
	if d2 := augOf(dcs); d2 != d1 {
		t.Fatal("delete augmentation rebuilt without a DDL epoch change")
	}
	res, _ = mustExec(t, db, "SELECT page_id FROM pages ORDER BY page_id")
	if res.NumRows() != 1 || res.FirstValue().AsInt() != 1 {
		t.Fatalf("post-delete visible rows = %v", res.Rows)
	}
	// Deletes close intervals, they do not remove versions.
	raw, err = db.Raw().Exec("SELECT page_id FROM pages WHERE page_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if raw.NumRows() != 1 {
		t.Fatalf("deleted row's physical versions = %d, want 1", raw.NumRows())
	}
}

// TestExplainThroughAugmentation: the rewriting layer's Explain shows
// the plans the augmented statements execute with — application
// predicates keep riding the row-ID/partition indexes (equality, range,
// and index-served ORDER BY) after the liveWhere conjuncts attach, and
// every equality probe is bounded by the visibility predicate's end_time
// conjunct (the first parameter after the application's).
func TestExplainThroughAugmentation(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	cases := []struct{ src, want string }{
		{"SELECT content FROM pages WHERE page_id = ?",
			"select(pages) scan=index-eq(page_id, bounded warp_end_time > ?2); footprint: whole table"},
		{"SELECT content FROM pages WHERE page_id >= ? ORDER BY page_id",
			"select(pages) scan=index-range(page_id lo..+inf) order=index(page_id); footprint: whole table"},
		{"SELECT content FROM pages ORDER BY title DESC",
			"select(pages) scan=full order=index-desc(title); footprint: whole table"},
		{"UPDATE pages SET content = 'x' WHERE page_id = 1",
			"update(pages) scan=index-eq(page_id, bounded warp_end_time > ?1) keep(warp_end_time); footprint: whole table"},
		{"DELETE FROM pages WHERE page_id = 1",
			"update(pages) scan=index-eq(page_id, bounded warp_end_time > ?1); footprint: whole table"},
		// The footprint line names the operands that bound the read
		// partitions, over every partition column.
		{"SELECT content FROM pages WHERE title = ?",
			"select(pages) scan=index-eq(title, bounded warp_end_time > ?2); footprint: pages/title=?1"},
		{"UPDATE pages SET content = ? WHERE editor = 10 AND title IN ('Main', ?)",
			"update(pages) scan=index-eq(editor, bounded warp_end_time > ?3) keep(warp_end_time); " +
				"footprint: pages/editor=10, pages/title='Main', pages/title=?2"},
		{"DELETE FROM pages WHERE editor = ?",
			"update(pages) scan=index-eq(editor, bounded warp_end_time > ?2); footprint: pages/editor=?1"},
	}
	for _, c := range cases {
		got, err := db.Explain(c.src)
		if err != nil {
			t.Fatalf("Explain(%q): %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Explain(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestCachedExecRaceWithDDLAndGC mixes cached reads and writes with
// concurrent DDL (CREATE INDEX / ALTER TABLE) and GC on the time-travel
// layer; under -race this guards the augmentation cache's epoch
// protocol end to end.
func TestCachedExecRaceWithDDLAndGC(t *testing.T) {
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)")
	for i := 0; i < 8; i++ {
		mustExec(t, db, "INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("u%d", i%4)), sqldb.Text("b"))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := sqldb.Text(fmt.Sprintf("u%d", g))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := db.Exec("SELECT body FROM notes WHERE owner = ?", owner); err != nil {
					t.Errorf("cached select: %v", err)
					return
				}
				if _, _, err := db.Exec("UPDATE notes SET body = ? WHERE owner = ?",
					sqldb.Text(fmt.Sprintf("b%d", i)), owner); err != nil {
					t.Errorf("cached update: %v", err)
					return
				}
			}
		}(g)
	}
	// Footprint derivation needs no lock (the admission gate resolves it
	// unlocked): a wide IN list resolves a many-keyed scope from the
	// statement's footprint, and Explain builds augmentations from
	// outside the execution path.
	// Neither may read the table's column list while ALTER TABLE grows
	// it, let alone cache handles built from a half-applied ALTER.
	wide := "SELECT body FROM notes WHERE owner IN (?" + strings.Repeat(", ?", 19) + ")"
	wideParams := make([]sqldb.Value, 20)
	for i := range wideParams {
		wideParams[i] = sqldb.Text(fmt.Sprintf("u%d", i))
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := db.Exec(wide, wideParams...); err != nil {
					t.Errorf("wide IN select: %v", err)
					return
				}
				if _, err := db.Explain("UPDATE notes SET body = ? WHERE owner = ?"); err != nil {
					t.Errorf("explain: %v", err)
					return
				}
			}
		}()
	}
	// A column-less INSERT binds its partition columns by table position.
	// Every distinct text is a new handle, so each iteration derives a
	// footprint while ALTER TABLE appends columns; once the table has
	// grown, the three-value row is refused, which is the only error
	// allowed here.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _, err := db.Exec(fmt.Sprintf("INSERT INTO notes VALUES (%d, 'u%d', 'b')", 1000+i, i%4))
			if err != nil && !strings.Contains(err.Error(), "3 values for") {
				t.Errorf("column-less insert: %v", err)
				return
			}
		}
	}()
	const rounds = 25
	for i := 0; i < rounds; i++ {
		mustExec(t, db, "CREATE INDEX IF NOT EXISTS idx_notes_body ON notes (body)")
		mustExec(t, db, fmt.Sprintf("ALTER TABLE notes ADD COLUMN extra%d INTEGER", i))
		if err := db.GC(db.Clock().Now() - 100); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// After quiesce the per-table handles match the final schema: an
	// UPDATE keeps its history version and SELECT * sees every column.
	before := len(physicalRows(t, db, "notes"))
	mustExec(t, db, "UPDATE notes SET body = ? WHERE id = ?", sqldb.Text("final"), sqldb.Int(0))
	if got := len(physicalRows(t, db, "notes")); got != before+1 {
		t.Fatalf("UPDATE after DDL storm left %d physical rows, want %d (history version lost)", got, before+1)
	}
	res, _, err := db.Exec("SELECT * FROM notes WHERE id = ?", sqldb.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3+rounds {
		t.Fatalf("SELECT * sees %d columns, want %d", len(res.Columns), 3+rounds)
	}
}

// TestSharedReadHolderBlocksDDL: a read whose footprint names one
// partition, not the table, still executes — and builds its
// column-dependent handles — under the table's shared lock, so DDL's
// exclusive lock must wait for it like for any other holder.
func TestSharedReadHolderBlocksDDL(t *testing.T) {
	db := newDB(t)
	cs, err := db.Prepare("SELECT * FROM pages WHERE editor = 10")
	if err != nil {
		t.Fatal(err)
	}
	m, reads, unlock, err := db.lockFor(cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := partStrings(reads); !reflect.DeepEqual(got, []string{"pages/editor=i10"}) {
		t.Fatalf("footprint = %v, want [pages/editor=i10]", got)
	}
	got := make(chan error)
	go func() {
		_, _, err := db.Exec("ALTER TABLE pages ADD COLUMN views INTEGER")
		got <- err
	}()
	select {
	case <-got:
		t.Fatal("DDL ran while a shared holder held the table")
	case <-time.After(20 * time.Millisecond):
	}
	if n := len(m.userCols); n != 4 {
		t.Fatalf("the shared holder sees %d columns, want 4", n)
	}
	unlock()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// physicalRows returns every stored version of a table, bookkeeping
// columns included.
func physicalRows(t *testing.T, db *DB, table string) [][]sqldb.Value {
	t.Helper()
	res, err := db.Raw().Exec("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// countObserver counts RecordApplied events.
type countObserver struct{ applied int }

func (c *countObserver) RecordApplied(*Record)            { c.applied++ }
func (c *countObserver) TableAnnotated(string, TableSpec) {}
func (c *countObserver) Collected(int64)                  {}

// TestParamCountContract: a parameter vector that does not match the
// statement's placeholders is refused with the one typed error at the
// entry — before lock acquisition, clock tick, any change to the table's
// stamp, record creation, or observer emission — for every verb, in both directions,
// under normal execution and re-execution alike. There is no second
// executor for such calls to fall into.
func TestParamCountContract(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	obs := &countObserver{}
	db.SetObserver(obs)
	one, two, three := []sqldb.Value{sqldb.Int(1)}, []sqldb.Value{sqldb.Int(1), sqldb.Int(2)},
		[]sqldb.Value{sqldb.Text("x"), sqldb.Int(1), sqldb.Int(2)}
	cases := []struct {
		name, src string
		params    []sqldb.Value
	}{
		{"select too few", "SELECT content FROM pages WHERE page_id = ?", nil},
		{"select too many", "SELECT content FROM pages WHERE page_id = ?", two},
		{"select no placeholders", "SELECT content FROM pages", one},
		{"insert too few", "INSERT INTO pages (page_id, title) VALUES (?, ?)", one},
		{"insert too many", "INSERT INTO pages (page_id, title) VALUES (?, 'T')", two},
		{"update too few", "UPDATE pages SET content = ? WHERE page_id = ?", one},
		{"update too many", "UPDATE pages SET content = ? WHERE page_id = ?", three},
		{"delete too few", "DELETE FROM pages WHERE page_id = ?", nil},
		{"delete too many", "DELETE FROM pages WHERE page_id = ?", two},
	}
	check := func(t *testing.T, run func() (*Record, error)) {
		t.Helper()
		m, err := db.meta("pages")
		if err != nil {
			t.Fatal(err)
		}
		stamp := db.stamp(m)
		now, applied, stats := db.Clock().Now(), obs.applied, execStats()
		rec, err := run()
		var pe *sqldb.ParamCountError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *sqldb.ParamCountError", err)
		}
		if rec != nil {
			t.Fatalf("mismatch produced a record: %+v", rec)
		}
		if got := db.Clock().Now(); got != now {
			t.Fatalf("clock moved %d -> %d", now, got)
		}
		if got := db.stamp(m); got != stamp {
			t.Fatalf("stamp moved %+v -> %+v", stamp, got)
		}
		if obs.applied != applied {
			t.Fatal("mismatch emitted RecordApplied")
		}
		if got := execStats(); got.PlanHits != stats.PlanHits || got.PlanMisses != stats.PlanMisses {
			t.Fatalf("mismatch reached the engine: %+v -> %+v", stats, got)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check(t, func() (*Record, error) {
				_, rec, err := db.Exec(c.src, c.params...)
				return rec, err
			})
		})
	}
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run("reexec "+c.name, func(t *testing.T) {
			check(t, func() (*Record, error) {
				_, rec, err := db.ReExec(c.src, c.params, db.Clock().Now()+100, nil)
				return rec, err
			})
		})
	}
	if err := db.AbortRepair(); err != nil {
		t.Fatal(err)
	}
	res, _ := mustExec(t, db, "SELECT page_id FROM pages ORDER BY page_id")
	if res.NumRows() != 3 {
		t.Fatalf("refused statements changed the table: %v", res.Rows)
	}

	// Replay of a well-formed record is unaffected; one short of
	// parameters gets the same typed error.
	_, rec := mustExec(t, db, "INSERT INTO pages (page_id, title) VALUES (?, ?)", sqldb.Int(9), sqldb.Text("Nine"))
	replica := newDB(t)
	seedPages(t, replica)
	if err := replica.Replay(rec); err != nil {
		t.Fatal(err)
	}
	res, _ = mustExec(t, replica, "SELECT title FROM pages WHERE page_id = 9")
	if got := res.FirstValue().AsText(); got != "Nine" {
		t.Fatalf("replayed title = %q, want Nine", got)
	}
	bad := *rec
	bad.Params = bad.Params[:1]
	var pe *sqldb.ParamCountError
	if err := replica.Replay(&bad); !errors.As(err, &pe) {
		t.Fatalf("Replay of a short record: err = %v, want *sqldb.ParamCountError", err)
	}

	// A log from before the count became strict may hold a record with
	// surplus parameters (that call executed, ignoring them): recovery
	// must still open, so Replay drops the surplus and reproduces the
	// original execution.
	legacy := *rec
	legacy.Params = append(append([]sqldb.Value{}, rec.Params...), sqldb.Text("ignored"))
	old := newDB(t)
	seedPages(t, old)
	if err := old.Replay(&legacy); err != nil {
		t.Fatalf("Replay of a surplus-parameter record: %v", err)
	}
	if got, want := dump(t, old), dump(t, replica); got != want {
		t.Fatalf("surplus-parameter replay differs from the well-formed one:\n%s--- want ---\n%s", got, want)
	}
}

// TestPlanCountersSeeEveryExecution: with one road into the engine,
// PlanHits/PlanMisses account for every statement the rewriting layer
// runs. Once one INSERT/UPDATE/DELETE form and one rollback are warm,
// repeating them — or rolling back more rows — compiles nothing new
// (no plan misses), and each execution registers as plan hits.
func TestPlanCountersSeeEveryExecution(t *testing.T) {
	db := Open(&vclock.Clock{})
	if err := db.Annotate("notes", TableSpec{PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)")
	const rows = 48
	ins := "INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)"
	upd := "UPDATE notes SET body = ? WHERE id = ?"
	del := "DELETE FROM notes WHERE id = ?"
	insert := func(id int) *Record {
		_, rec := mustExec(t, db, ins, sqldb.Int(int64(id)), sqldb.Text(fmt.Sprintf("u%d", id%4)), sqldb.Text("b"))
		return rec
	}
	// delta runs fn and returns the plan counters it moved.
	delta := func(fn func()) sqldb.ExecStats {
		before := execStats()
		fn()
		return execStats().Sub(before)
	}

	// Warm one form of each verb.
	first := insert(0)
	mustExec(t, db, upd, sqldb.Text("w"), sqldb.Int(0))
	insert(1)
	mustExec(t, db, del, sqldb.Int(1))

	var rowIDs []sqldb.Value
	d := delta(func() {
		for id := 2; id < rows; id++ {
			rowIDs = append(rowIDs, insert(id).WriteRowIDs...)
		}
	})
	if d.PlanMisses != 0 || d.PlanHits < rows-2 {
		t.Fatalf("%d warm inserts: %d plan misses (want 0), %d hits (want >= %d)", rows-2, d.PlanMisses, d.PlanHits, rows-2)
	}
	d = delta(func() {
		for id := 2; id < rows; id++ {
			mustExec(t, db, upd, sqldb.Text("v"), sqldb.Int(int64(id)))
		}
	})
	// A versioned UPDATE is one engine statement: the in-place update
	// keeps its before-image itself.
	if d.PlanMisses != 0 || d.PlanHits != rows-2 {
		t.Fatalf("%d warm updates: %d plan misses (want 0), %d hits (want %d)", rows-2, d.PlanMisses, d.PlanHits, rows-2)
	}
	d = delta(func() {
		for id := rows - 8; id < rows; id++ {
			mustExec(t, db, del, sqldb.Int(int64(id)))
		}
	})
	if d.PlanMisses != 0 || d.PlanHits < 8 {
		t.Fatalf("8 warm deletes: %d plan misses (want 0), %d hits (want >= 8)", d.PlanMisses, d.PlanHits)
	}

	// Rollback: warm on two rows, then roll back many more to the same
	// time. Every row is demoted, revived by copy, and probed — all
	// through the table's prepared handles.
	if _, err := db.BeginRepair(); err != nil {
		t.Fatal(err)
	}
	rollback := func(ids []sqldb.Value) {
		t.Helper()
		if _, err := db.RollbackRows("notes", ids, first.Time+1); err != nil {
			t.Fatal(err)
		}
	}
	rollback(rowIDs[:2])
	small := delta(func() { rollback(rowIDs[2:4]) })
	large := delta(func() { rollback(rowIDs[4:36]) })
	if small.PlanMisses != 0 || large.PlanMisses != 0 {
		t.Fatalf("warm rollbacks compiled plans: %d misses over 2 rows, %d over 32", small.PlanMisses, large.PlanMisses)
	}
	if large.PlanHits < 16*small.PlanHits || small.PlanHits == 0 {
		t.Fatalf("rollback executions uncounted: %d hits over 2 rows, %d over 32", small.PlanHits, large.PlanHits)
	}
	if err := db.AbortRepair(); err != nil {
		t.Fatal(err)
	}
}
