package sqldb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// DB is an in-memory SQL database. A DB is safe for concurrent use; all
// statement execution is serialized, which matches the single-writer model
// the WARP paper assumes for its query log.
//
// The zero value is not usable; call Open.
type DB struct {
	mu     sync.Mutex
	tables map[string]*Table
	// epoch counts DDL and constraint changes; compiled statement plans
	// record the epoch they were built at and recompile when it moves
	// (plan.go). Guarded by mu.
	epoch uint64
	// stmts caches parsed statements and their plans for the text-based
	// Exec entry point.
	stmts *StmtCache
}

// Open returns a new, empty database.
func Open() *DB {
	return &DB{tables: make(map[string]*Table), stmts: NewStmtCache(0)}
}

// bumpEpoch invalidates every compiled plan. Caller holds mu.
func (db *DB) bumpEpoch() { db.epoch++ }

// Epoch returns the DDL epoch, for tests asserting plan invalidation.
func (db *DB) Epoch() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.epoch
}

// Table holds the schema and rows of one table. Rows occupy stable slots
// in paged storage (pages.go): a row's slot never changes, and deleted
// rows leave tombstones, which keeps index bookkeeping simple and scan
// order deterministic.
type Table struct {
	Name     string
	Columns  []ColumnDef
	Uniques  []UniqueConstraint
	colIdx   map[string]int
	store    pageStore
	liveRows int
	indexes  map[string]*colIndex
	uniques  []*uniqueSet
}

type row struct {
	vals    []Value
	deleted bool
}

// colIndex is a dual-structure index on a single column: hash buckets
// answer equality probes in O(1), and the ordered skip list (ordindex.go)
// keeps the same postings in key order for range and ORDER BY scans.
// Both halves keep row slots sorted ascending so scans through an index
// preserve insertion order among equal keys.
//
// An index declared with a suffix column (CREATE INDEX i ON t (c, e))
// orders each bucket by that column instead — descending, NULLs last,
// slot ascending among equals — so the postings a sibling `e > x`,
// `e >= x` or `e = x` conjunct admits are one run at or near the front
// (admitted). The order is kept by reading resident postings' suffix
// values from the row store, so add and remove run while the store holds
// the values a posting is filed under. The skip list stays slot-ordered.
type colIndex struct {
	pos     int        // column's ordinal; ALTER TABLE ADD only appends
	sufPos  int        // suffix column's ordinal, or -1
	store   *pageStore // the table's rows, for resident suffix values
	buckets map[string][]int
	ord     *ordIndex
}

func (t *Table) newColIndex(pos, sufPos int) *colIndex {
	return &colIndex{pos: pos, sufPos: sufPos, store: &t.store,
		buckets: make(map[string][]int), ord: newOrdIndex()}
}

// suffixBefore reports whether suffix value a files strictly before b:
// larger first, NULL after every value. Stored values of one column share
// a kind (checkRow), so compareValues is total over the non-NULL ones.
func suffixBefore(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return !a.IsNull() && b.IsNull()
	}
	c, _ := compareValues(a, b)
	return c > 0
}

// search returns where the posting (vals, slot) sits, or belongs, in b.
func (ix *colIndex) search(b []int, vals []Value, slot int) int {
	if ix.sufPos < 0 {
		return sort.SearchInts(b, slot) // slots are almost always appended in increasing order
	}
	suf := vals[ix.sufPos]
	return sort.Search(len(b), func(i int) bool {
		o := ix.store.rowAt(b[i]).vals[ix.sufPos]
		if suffixBefore(o, suf) {
			return false
		}
		return suffixBefore(suf, o) || b[i] >= slot
	})
}

func (ix *colIndex) add(vals []Value, slot int) {
	v := vals[ix.pos]
	key := v.Key()
	b := ix.buckets[key]
	i := ix.search(b, vals, slot)
	if i < len(b) && b[i] == slot {
		return
	}
	ix.buckets[key] = slices.Insert(b, i, slot)
	ix.ord.add(v, slot)
}

func (ix *colIndex) remove(vals []Value, slot int) {
	v := vals[ix.pos]
	key := v.Key()
	b := ix.buckets[key]
	i := ix.search(b, vals, slot)
	if i < len(b) && b[i] == slot {
		if len(b) == 1 {
			delete(ix.buckets, key)
		} else {
			ix.buckets[key] = slices.Delete(b, i, i+1)
		}
		ix.ord.remove(v, slot)
	}
}

// uniqueSet enforces one unique constraint via a key → slot map.
type uniqueSet struct {
	def  UniqueConstraint
	cols []int // column positions
	m    map[string]int
}

func (u *uniqueSet) keyFor(vals []Value) (string, bool) {
	var b strings.Builder
	for _, ci := range u.cols {
		v := vals[ci]
		if v.IsNull() {
			// SQL semantics: NULL never collides in a unique constraint.
			return "", false
		}
		b.WriteString(v.Key())
		b.WriteByte(0)
	}
	return b.String(), true
}

func (t *Table) columnPos(name string) (int, bool) {
	i, ok := t.colIdx[name]
	return i, ok
}

// ColumnNames returns the table's column names in declaration order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		names[i] = c.Name
	}
	return names
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.colIdx[name]
	return ok
}

func (t *Table) rebuildColIdx() {
	t.colIdx = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.colIdx[c.Name] = i
	}
}

func (t *Table) buildUniqueSets() error {
	t.uniques = nil
	for _, def := range t.Uniques {
		us := &uniqueSet{def: def, m: make(map[string]int)}
		for _, col := range def.Columns {
			ci, ok := t.columnPos(col)
			if !ok {
				return fmt.Errorf("sql: table %s: unique constraint references unknown column %s", t.Name, col)
			}
			us.cols = append(us.cols, ci)
		}
		t.uniques = append(t.uniques, us)
	}
	return t.store.forEachLive(func(slot int, r *row) error {
		for _, us := range t.uniques {
			if key, ok := us.keyFor(r.vals); ok {
				if prev, dup := us.m[key]; dup {
					return fmt.Errorf("sql: table %s: rows %d and %d violate %s", t.Name, prev, slot, us.def.String())
				}
				us.m[key] = slot
			}
		}
		return nil
	})
}

// Tables returns the names of all tables, sorted.
func (db *DB) Tables() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Schema returns the column definitions and unique constraints of a table.
// It returns copies; mutating them does not affect the database.
func (db *DB) Schema(table string) (cols []ColumnDef, uniques []UniqueConstraint, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return nil, nil, fmt.Errorf("sql: no such table %s", table)
	}
	cols = append(cols, t.Columns...)
	uniques = append(uniques, t.Uniques...)
	return cols, uniques, nil
}

// IndexedColumns returns the names of the columns with an index on the
// table (the probed column of each, not its suffix), sorted. Snapshot
// encoding uses it to recreate indexes on recovery.
func (db *DB) IndexedColumns(table string) []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return nil
	}
	cols := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// HasTable reports whether the named table exists.
func (db *DB) HasTable(table string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.tables[table]
	return ok
}

// RowCount returns the number of live rows in the table, or 0 if the table
// does not exist.
func (db *DB) RowCount(table string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[table]; ok {
		return t.liveRows
	}
	return 0
}

// ApproxTableBytes estimates the storage footprint of a table in bytes,
// counting live and historical (tombstoned) rows. WARP's storage accounting
// (paper Table 6) uses this to report database log growth per page visit.
func (db *DB) ApproxTableBytes(table string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return 0
	}
	n := 0
	t.store.forEachLive(func(_ int, r *row) error {
		for _, v := range r.vals {
			n += 9 + len(v.Str) // kind byte + 8-byte scalar + text payload
		}
		return nil
	})
	return n
}

// ApproxBytes estimates the storage footprint of all tables.
func (db *DB) ApproxBytes() int {
	n := 0
	for _, t := range db.Tables() {
		n += db.ApproxTableBytes(t)
	}
	return n
}

// SetUniques replaces the unique constraints of a table and revalidates
// existing rows. The time-travel layer uses this to extend application
// uniqueness constraints with version columns (paper §6).
func (db *DB) SetUniques(table string, uniques []UniqueConstraint) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("sql: no such table %s", table)
	}
	db.bumpEpoch()
	old := t.Uniques
	t.Uniques = uniques
	if err := t.buildUniqueSets(); err != nil {
		t.Uniques = old
		if rerr := t.buildUniqueSets(); rerr != nil {
			return fmt.Errorf("sql: constraint rollback failed: %v (after %v)", rerr, err)
		}
		return err
	}
	return nil
}
