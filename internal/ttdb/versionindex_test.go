package ttdb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/vclock"
)

// Version-ordered indexes (warpIndex): every index of an augmented table
// carries end_time as its suffix column, so the one augmented statement
// form probes only the versions its time bound admits. The tests here
// hold that against an oracle — the same predicate through a forced full
// scan of the raw table, which is what the chain-walking probe it
// replaced was equivalent to — and as an exact count.

// forced renders `col = ?` so that the raw engine cannot ride an index.
func forced(col string) string {
	if col == "k" {
		return "k || '' = ?"
	}
	return col + " + 0 = ?"
}

// visibleAt is liveWhereParams as text, for the raw oracle queries.
const visibleAt = " AND warp_start_time <= ? AND warp_end_time > ? AND warp_start_gen <= ? AND warp_end_gen >= ?"

func renderRows(rows [][]sqldb.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// versionHistory is one random history over `notes` and the checks that
// run after each of its steps.
type versionHistory struct {
	t        *testing.T
	rng      *rand.Rand
	db       *DB
	m        *tableMeta
	cols     string  // the physical columns, for oracle selects
	times    []int64 // every statement time so far
	gcBefore int64
	inRepair bool
	nextID   int64
	did      map[string]int // how often each kind of step or check ran
	events   []versionEvent // what the retired per-partition index held
}

// versionEvent is one entry of the per-partition event index ttdb kept
// before partition rollback read the row versions: the row had a version
// created, closed or rolled back in partition k at time t.
type versionEvent struct {
	k, id string
	t     int64
}

// physical returns every stored version of notes, rendered, by row.
func (h *versionHistory) physical() map[string][]string {
	h.t.Helper()
	out := make(map[string][]string)
	for _, row := range h.scan("SELECT " + h.cols + " FROM notes").Rows {
		pr := physicalRow{cols: h.db.stmtsFor(h.m).colOf, row: row}
		id := pr.colVal("id").Key()
		out[id] = append(out[id], pr.colVal("k").Key()+" "+fmt.Sprint(row))
	}
	return out
}

// logged runs one mutating step and appends to the event log what the
// retired index recorded for it, at the time the step returns: a normal
// write logged each row it wrote under the partitions of the versions it
// created and closed; a repair step logged each row it rolled back —
// named, even when that changed nothing — under every partition any of
// the row's versions was in.
func (h *versionHistory) logged(repair bool, step func() (t int64, named []sqldb.Value)) {
	h.t.Helper()
	before := h.physical()
	t, named := step()
	after := h.physical()
	touched := make(map[string]bool) // named rows, and rows whose versions changed
	for _, id := range named {
		touched[id.Key()] = true
	}
	for _, side := range []map[string][]string{before, after} {
		for id := range side {
			if !slices.Equal(before[id], after[id]) {
				touched[id] = true
			}
		}
	}
	for id := range touched {
		for _, v := range append(slices.Clone(before[id]), after[id]...) {
			if repair || slices.Contains(before[id], v) != slices.Contains(after[id], v) {
				h.events = append(h.events, versionEvent{k: v[:strings.IndexByte(v, ' ')], id: id, t: t})
			}
		}
	}
}

// checkRowsSince holds PartitionRowsSince, for every partition of the
// history and the whole table, to the forced-scan form of its predicate
// row for row, and to the event log: a row the probe lists, the retired
// index listed too, so no repair rolls back a row it would not have before.
// (The converse fails on purpose: the log also listed rows whose events a
// repair has since deleted, which rolling back again did nothing to.)
func (h *versionHistory) checkRowsSince() {
	h.t.Helper()
	sinces := []int64{h.gcBefore, h.pastTime(), h.pastTime(), h.db.Clock().Now() + 1}
	for _, k := range append([]string{""}, historyKeys...) {
		p, where := WholeTable("notes"), "0 = 0"
		if k != "" {
			p, where = Partition{Table: "notes", Column: "k", Key: sqldb.Text(k).Key()}, "k || '' = '"+k+"'"
		}
		for _, since := range sinces {
			got, err := h.db.PartitionRowsSince(p, since)
			if err != nil {
				h.t.Fatal(err)
			}
			tm := sqldb.Int(since)
			var want [][]sqldb.Value
			seen := make(map[string]bool)
			for _, row := range h.scan(fmt.Sprintf("SELECT id FROM notes WHERE %s AND warp_end_time >= ? AND (warp_start_time >= ? OR warp_end_time < %d)",
				where, Infinity), tm, tm).Rows {
				if !seen[row[0].Key()] {
					seen[row[0].Key()] = true
					want = append(want, row)
				}
			}
			slices.SortFunc(want, func(a, b []sqldb.Value) int { return strings.Compare(a[0].Key(), b[0].Key()) })
			var rows [][]sqldb.Value
			for _, id := range got {
				rows = append(rows, []sqldb.Value{id})
			}
			h.same(fmt.Sprintf("rows of %v changed since %d", p, since), rows, &sqldb.Result{Rows: want})
			for _, id := range got {
				if !slices.ContainsFunc(h.events, func(e versionEvent) bool {
					return e.id == id.Key() && e.t >= since && (k == "" || e.k == p.Key)
				}) {
					h.t.Fatalf("%v since %d lists row %v, which the event log does not", p, since, id)
				}
			}
			h.did["rows-since"] += len(got)
		}
	}
}

var historyKeys = []string{"a", "b", "c", "d", "e"}

func (h *versionHistory) key() sqldb.Value {
	return sqldb.Text(historyKeys[h.rng.Intn(len(historyKeys))])
}
func (h *versionHistory) id() sqldb.Value { return sqldb.Int(1 + h.rng.Int63n(h.nextID)) }

// pastTime picks a statement time after the GC horizon (0 when none).
func (h *versionHistory) pastTime() int64 {
	var ok []int64
	for _, tm := range h.times {
		if tm > h.gcBefore {
			ok = append(ok, tm)
		}
	}
	if len(ok) == 0 {
		return 0
	}
	return ok[h.rng.Intn(len(ok))] + int64(h.rng.Intn(2))
}

// fullScan runs an oracle query on the raw engine, insisting on a full scan.
func fullScan(t *testing.T, db *DB, src string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	if plan, err := db.Raw().Explain(src); err != nil || !strings.Contains(plan, "scan=full") {
		t.Fatalf("oracle query %q plans %q, %v; want a full scan", src, plan, err)
	}
	res, err := db.Raw().Exec(src, params...)
	if err != nil {
		t.Fatalf("oracle %s %v: %v", src, params, err)
	}
	return res
}

func (h *versionHistory) scan(src string, params ...sqldb.Value) *sqldb.Result {
	h.t.Helper()
	return fullScan(h.t, h.db, src, params...)
}

func (h *versionHistory) same(what string, got [][]sqldb.Value, want *sqldb.Result) {
	h.t.Helper()
	if g, w := renderRows(got), renderRows(want.Rows); g != w {
		h.t.Fatalf("%s diverges from the full scan:\nprobe:\n%sscan:\n%s", what, g, w)
	}
}

// exec runs one write through normal execution, logging its version
// events; a uniqueness violation is a recorded outcome, not a failure.
func (h *versionHistory) exec(src string, params ...sqldb.Value) (rec *Record, err error) {
	h.t.Helper()
	h.logged(false, func() (int64, []sqldb.Value) {
		if _, rec, err = h.db.Exec(src, params...); err != nil && !sqldb.IsUniqueViolation(err) {
			h.t.Fatalf("%s %v: %v", src, params, err)
		}
		return rec.Time, nil
	})
	h.times = append(h.times, rec.Time)
	return rec, err
}

// write runs an UPDATE or DELETE whose WHERE is `col = ?` through normal
// execution and checks it wrote exactly the rows a full scan finds
// visible just before it.
func (h *versionHistory) write(src, col string, params ...sqldb.Value) {
	h.t.Helper()
	now, gen := sqldb.Int(h.db.Clock().Now()), sqldb.Int(h.db.CurrentGen())
	want := h.scan("SELECT id FROM notes WHERE "+forced(col)+visibleAt, params[len(params)-1], now, now, gen, gen)
	rec, err := h.exec(src, params...)
	if err != nil {
		return
	}
	var got [][]sqldb.Value
	for _, id := range rec.WriteRowIDs {
		got = append(got, []sqldb.Value{id})
	}
	h.same(fmt.Sprintf("write set of %s %v", src, params), got, want)
}

// checkProbes compares every kind of probe the layer issues with its
// forced-scan form: live reads by partition column and by an application
// index, as-of reads in an open repair generation, and the internal
// `versions` and `uniques` handles.
func (h *versionHistory) checkProbes() {
	h.t.Helper()
	db, ts := h.db, h.db.stmtsFor(h.m)
	for _, c := range []struct {
		col string
		v   sqldb.Value
	}{{"k", h.key()}, {"val", sqldb.Int(int64(h.rng.Intn(6)))}, {"id", h.id()}} {
		src := "SELECT id, k, val FROM notes WHERE " + c.col + " = ?"
		res, rec, err := db.Exec(src, c.v)
		if err != nil {
			h.t.Fatal(err)
		}
		tm, gen := sqldb.Int(rec.Time), sqldb.Int(rec.Gen)
		h.same(fmt.Sprintf("%s [%v] at %d", src, c.v, rec.Time), res.Rows,
			h.scan("SELECT id, k, val FROM notes WHERE "+forced(c.col)+visibleAt, c.v, tm, tm, gen, gen))
		if past := h.pastTime(); h.inRepair && past > 0 {
			res, rec, err := db.ReExec(src, []sqldb.Value{c.v}, past, nil)
			if err != nil {
				h.t.Fatal(err)
			}
			h.did["as-of read"]++
			tm, gen := sqldb.Int(past), sqldb.Int(rec.Gen)
			h.same(fmt.Sprintf("%s [%v] as of %d in generation %d", src, c.v, past, rec.Gen), res.Rows,
				h.scan("SELECT id, k, val FROM notes WHERE "+forced(c.col)+visibleAt, c.v, tm, tm, gen, gen))
		}
	}
	for _, gen := range []int64{db.CurrentGen(), db.CurrentGen() + 1} {
		id, g := h.id(), sqldb.Int(gen)
		versions, err := db.selectPhysical(h.m, ts.versions, []sqldb.Value{id, g})
		if err != nil {
			h.t.Fatal(err)
		}
		var got [][]sqldb.Value
		for _, pr := range versions {
			got = append(got, pr.row)
		}
		h.same(fmt.Sprintf("versions of %v in generation %d", id, gen), got,
			h.scan("SELECT "+h.cols+" FROM notes WHERE id + 0 = ? AND warp_start_gen <= ? AND warp_end_gen >= ?", id, g, g))
		for _, u := range ts.uniques {
			v := h.key()
			if u.cols[0] == "id" {
				v = h.id()
			}
			live, err := db.selectPhysical(h.m, u.stmt, []sqldb.Value{v, g})
			if err != nil {
				h.t.Fatal(err)
			}
			got = got[:0]
			for _, pr := range live {
				got = append(got, pr.row)
			}
			h.same(fmt.Sprintf("uniques probe %v = %v in generation %d", u.cols, v, gen), got,
				h.scan(fmt.Sprintf("SELECT %s FROM notes WHERE %s AND warp_end_time = %d AND warp_start_gen <= ? AND warp_end_gen >= ?",
					h.cols, forced(u.cols[0]), Infinity), v, g, g))
		}
	}
}

// TestVersionOrderedProbesMatchFullScan drives random version histories —
// inserts, updates by partition column, row ID and an application index,
// deletes and re-inserts of the same key, GC, and repair generations with
// rollbacks and re-executed writes at past times, aborted or committed —
// and after every step holds every probe to its forced-scan form, and
// partition rollback's probe to the event log it replaced as well.
func TestVersionOrderedProbesMatchFullScan(t *testing.T) {
	did := make(map[string]int)
	for seed := int64(1); seed <= 8; seed++ {
		db := Open(&vclock.Clock{})
		if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"k"}}); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE notes (id INTEGER PRIMARY KEY, k TEXT NOT NULL, val INTEGER, UNIQUE (k))")
		mustExec(t, db, "CREATE INDEX notes_val ON notes (val)")
		m, err := db.meta("notes")
		if err != nil {
			t.Fatal(err)
		}
		h := &versionHistory{t: t, rng: rand.New(rand.NewSource(seed)), db: db, m: m,
			cols: strings.Join(m.physicalColumns(), ", "), nextID: 1, did: did}
		if got := db.Raw().IndexedColumns("notes"); !slices.Equal(got, []string{"id", "k", "val"}) {
			t.Fatalf("indexed columns = %v", got)
		}
		for _, col := range []string{"id", "k", "val"} {
			plan, err := db.Explain("SELECT id FROM notes WHERE " + col + " = ?")
			if want := "index-eq(" + col + ", bounded warp_end_time > ?2)"; err != nil || !strings.Contains(plan, want) {
				t.Fatalf("probe of %s plans %q, %v; want %s", col, plan, err, want)
			}
		}
		for step := 0; step < 160; step++ {
			op := h.rng.Intn(14)
			if h.inRepair && op < 11 {
				// Live writers keep out of what an open repair touches (core's
				// admission gate); here they simply pause, reads go on.
				op = 11 + h.rng.Intn(3)
			}
			switch {
			case op < 4: // insert; a taken key is a recorded uniqueness failure
				h.exec("INSERT INTO notes (id, k, val) VALUES (?, ?, ?)",
					sqldb.Int(h.nextID), h.key(), sqldb.Int(int64(h.rng.Intn(6))))
				h.nextID++
			case op < 6:
				h.write("UPDATE notes SET val = ? WHERE k = ?", "k", sqldb.Int(int64(h.rng.Intn(6))), h.key())
			case op < 7:
				h.write("UPDATE notes SET val = val + 1 WHERE id = ?", "id", h.id())
			case op < 8:
				h.write("UPDATE notes SET val = val + 1 WHERE val = ?", "val", sqldb.Int(int64(h.rng.Intn(6))))
			case op < 9: // moves the row to another partition; may collide
				h.write("UPDATE notes SET k = ? WHERE id = ?", "id", h.key(), h.id())
			case op < 10:
				h.write("DELETE FROM notes WHERE k = ?", "k", h.key())
			case op < 11:
				if past := h.pastTime(); past > 0 && h.rng.Intn(3) == 0 {
					if err := db.GC(past); err != nil {
						t.Fatal(err)
					}
					did["gc"]++
					h.gcBefore = max(h.gcBefore, past)
				}
			case !h.inRepair:
				if _, err := db.BeginRepair(); err != nil {
					t.Fatal(err)
				}
				h.inRepair = true
			case op < 12:
				if past := h.pastTime(); past > 0 {
					h.logged(true, func() (int64, []sqldb.Value) {
						id := h.id()
						if _, err := db.RollbackRow("notes", id, past); err != nil {
							t.Fatal(err)
						}
						return past, []sqldb.Value{id}
					})
					did["rollback"]++
				}
			case op < 13:
				if past := h.pastTime(); past > 0 {
					h.logged(true, func() (int64, []sqldb.Value) {
						_, _, err := db.ReExec("UPDATE notes SET val = ? WHERE k = ?",
							[]sqldb.Value{sqldb.Int(int64(h.rng.Intn(6))), h.key()}, past, nil)
						if err != nil && !sqldb.IsUniqueViolation(err) {
							t.Fatal(err)
						}
						return past, nil
					})
					did["re-executed write"]++
				}
			default:
				end, what := db.FinishRepair, "commit"
				if h.rng.Intn(2) == 0 {
					end, what = db.AbortRepair, "abort"
				}
				did[what]++
				if err := end(); err != nil {
					t.Fatal(err)
				}
				h.inRepair = false
			}
			h.checkProbes()
			h.checkRowsSince()
		}
	}
	for _, what := range []string{"as-of read", "gc", "rollback", "re-executed write", "commit", "abort", "rows-since"} {
		if did[what] < 5 {
			t.Errorf("the histories ran %q %d times; the generator is broken", what, did[what])
		}
	}
	t.Logf("steps and checks: %v", did)
}

// execStats reads the engine's execution counters from the registry.
func execStats() sqldb.ExecStats { return sqldb.ExecStatsOf(obs.Default.Snapshot()) }

// postingsVisited runs fn and returns how many index postings the raw
// engine handed to a predicate meanwhile (docs/observability.md).
func postingsVisited(fn func()) uint64 {
	c := obs.NewCounter("warp_sqldb_index_postings_visited_total")
	before := c.Value()
	fn()
	return c.Value() - before
}

// TestLiveProbeIgnoresHistory: what a live point read or write costs does
// not depend on how many versions the row has accumulated since the last
// GC — as an exact count of postings visited, after 1 and after 1 000
// prior updates. (With single-column indexes over all versions the second
// figure was the chain: 1 001 against 1.)
func TestLiveProbeIgnoresHistory(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	update := func() {
		mustExec(t, db, "UPDATE pages SET content = content || 'x' WHERE title = ?", sqldb.Text("Main"))
	}
	probes := map[string]func(){
		"select by partition column": func() { mustExec(t, db, "SELECT content FROM pages WHERE title = ?", sqldb.Text("Main")) },
		"select by row ID":           func() { mustExec(t, db, "SELECT content FROM pages WHERE page_id = ?", sqldb.Int(1)) },
		"update":                     update,
	}
	update()
	short := make(map[string]uint64)
	for name, fn := range probes {
		short[name] = postingsVisited(fn)
	}
	for i := 0; i < 1000; i++ {
		update()
	}
	for name, fn := range probes {
		if long := postingsVisited(fn); long != short[name] || long == 0 {
			t.Errorf("%s visits %d postings after 1 000 updates of the row, %d after one", name, long, short[name])
		}
	}
	if short["update"] != 1 { // one statement, one live version
		t.Errorf("a point update visits %d postings, want 1", short["update"])
	}
}
