// Package ttdb implements WARP's time-travel database (paper §4).
//
// The time-travel database is a SQL-rewriting layer over the embedded
// engine in internal/sqldb, exactly as the paper's prototype was a
// query-rewriting layer over PostgreSQL (§6). It provides:
//
//   - continuous versioning of every row: each table is augmented with
//     start_time and end_time columns, and updates and deletes create new
//     versions instead of destroying old ones (§4.2);
//   - repair generations: start_gen and end_gen columns let an online
//     repair build the "next" generation of the database while normal
//     operation continues against the "current" one (§4.3);
//   - row IDs: a stable per-row name, either an application column declared
//     by annotation or a synthesized warp_row_id column (§4.1);
//   - partitions: tables are logically split by the values of declared
//     partition columns, and every query's read and write partition sets are
//     extracted so the repair controller can skip unaffected queries (§4.1);
//   - two-phase re-execution of multi-row writes and fine-grained rollback
//     of individual rows to a past time (§4.2).
//
// All timestamps are logical (internal/vclock); Infinity marks live
// versions.
//
// # Concurrency
//
// The database is safe for concurrent use by normal execution and by a
// repair running beside it. Locking is layered:
//
//   - db.mu guards generation/repair/GC state and table annotations;
//   - db.tablesMu guards the table registry;
//   - each tableMeta has one reader/writer lock (locks.go), held for the
//     full multi-statement span of an operation: shared by reads,
//     exclusive by writes, two-phase re-executions and rollbacks;
//   - tableMeta.mu is a leaf latch for the table's row-ID allocator,
//     held only for momentary touches under the table lock.
//
// DDL, generation switches (FinishRepair/AbortRepair), and GC take every
// table's lock exclusive. The acquisition order is db.mu → table locks,
// and code holding a table lock never acquires db.mu. tablesMu is a
// leaf: it is taken only for momentary registry reads/writes and is
// never held across a table-lock (or db.mu) acquisition — which is why
// createTable and DropTable may briefly write-lock it even while lockAll
// holds every table.
package ttdb

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"warp/internal/sqldb"
	"warp/internal/vclock"
)

// Reserved column names added to every table. Applications must not declare
// columns with these names.
const (
	ColRowID     = "warp_row_id"
	ColStartTime = "warp_start_time"
	ColEndTime   = "warp_end_time"
	ColStartGen  = "warp_start_gen"
	ColEndGen    = "warp_end_gen"
)

// Infinity is the "still valid" timestamp/generation marker.
const Infinity = vclock.Infinity

// TableSpec carries the per-table annotations the paper requires from the
// programmer or administrator (§4.1, §8.1): which application column is a
// stable row ID (empty to let WARP synthesize one) and which columns
// partition the table for dependency analysis (empty for none, meaning
// whole-table dependencies).
type TableSpec struct {
	RowIDColumn      string
	PartitionColumns []string
}

// tableMeta is the runtime bookkeeping for one augmented table. locks
// is the table's lock (locks.go); mu is a leaf latch guarding the row-ID
// allocator.
type tableMeta struct {
	mu        sync.Mutex
	locks     tableLock
	name      string
	spec      TableSpec
	rowIDCol  string // spec.RowIDColumn or ColRowID
	synthetic bool   // rowIDCol == ColRowID
	userCols  []string
	nextRowID int64

	// restore buffers rows sections until the last one arrives, so rows
	// re-insert in their original physical scan order (persist.go).
	restore *tableRestore

	// stmts are the table's prepared internal statements for the current
	// DDL epoch (fastpath.go). They are built from userCols, which ALTER
	// TABLE grows under lockAll, so stmtsFor — like augFor — may only be
	// called while holding this table's lock.
	stmts atomic.Pointer[tableStmts]

	// parts are the declared partition columns in declaration order, and
	// changedAll (since) selects the versions created or closed since a
	// time (partindex.go). Both are read without the table lock
	// (footprint.go, PartitionRowsSince), so unlike stmts they are built
	// once, at create or restore, from facts no DDL changes.
	parts      []partCol
	changedAll *sqldb.CachedStmt
}

// partCol is one declared partition column: its declared kind, its
// position among the application columns (ALTER TABLE ADD only appends,
// so it never moves), and changed (key, since): changedAll within one of
// its partitions.
type partCol struct {
	name    string
	kind    sqldb.Kind
	pos     int
	changed *sqldb.CachedStmt
}

// partCol returns the named partition column, or nil.
func (m *tableMeta) partCol(name string) *partCol {
	for i := range m.parts {
		if m.parts[i].name == name {
			return &m.parts[i]
		}
	}
	return nil
}

// prepareScopeFacts builds parts and the unlocked probes from the table's
// column definitions; userCols and rowIDCol must be final.
func (m *tableMeta) prepareScopeFacts(defs []sqldb.ColumnDef) {
	for _, name := range m.spec.PartitionColumns {
		pc := partCol{name: name, pos: slices.Index(m.userCols, name)}
		for _, d := range defs {
			if d.Name == name {
				pc.kind = d.Type
			}
		}
		m.parts = append(m.parts, pc)
	}
	m.changedAll = m.changedSince(nil, 0)
	for i := range m.parts { // the probes select every partition column
		m.parts[i].changed = m.changedSince(cmp(m.parts[i].name, sqldb.OpEq, 0), 1)
	}
}

// tableRestore accumulates a table's rows sections during snapshot
// restore: shards is how many the header counts, restored how many have
// arrived.
type tableRestore struct {
	cols     []string
	rows     []posRow
	shards   int
	restored int
}

// posRow is one physical row tagged with its original scan position.
type posRow struct {
	pos  uint64
	vals []sqldb.Value
}

// Observer receives database change events, in per-table commit order.
// It is the seam a persistence layer attaches to (internal/store encodes
// these as WAL records) without reaching into the database's internals;
// the database is fully usable with no observer set.
//
// RecordApplied runs while the mutated table's exclusive lock (and, for
// DDL, every table's) is still held, so the event order an observer sees
// per table is exactly the execution order.
// Implementations must not call back into the DB.
type Observer interface {
	// RecordApplied fires after a normal-execution mutation (INSERT,
	// UPDATE, DELETE, or DDL) commits. Reads are not reported, and
	// repair-generation re-execution is not reported either: a repair is
	// made durable as a whole when it commits (see internal/core).
	RecordApplied(rec *Record)
	// TableAnnotated fires when a table gains row-ID / partition
	// annotations.
	TableAnnotated(table string, spec TableSpec)
	// Collected fires after GC discarded row versions older than
	// beforeTime.
	Collected(beforeTime int64)
}

// DB is a time-travel database.
type DB struct {
	// mu guards specs, inRepair, and gcBefore, and serializes global
	// operations (DDL, generation switches, GC) at their entry.
	mu    sync.Mutex
	raw   *sqldb.DB
	clock *vclock.Clock

	// stmts is the deployment-wide prepared-statement cache: normal
	// execution (Exec), WAL replay (Replay), and repair re-execution
	// (ReExec, core's run replay) all parse through it, so each distinct
	// query form is parsed once and its canonical SQL — what Record.SQL
	// carries — is built once.
	stmts *sqldb.StmtCache

	specs map[string]TableSpec

	// tablesMu guards the tables registry map itself; the per-table locks
	// guard the tables' contents.
	tablesMu sync.RWMutex
	tables   map[string]*tableMeta

	// currentGen is atomic so exec paths can read it while holding only a
	// table lock; it changes only under lockAll (FinishRepair).
	currentGen atomic.Int64
	inRepair   bool

	gcBefore int64 // versions strictly older than this have been collected

	// obs, when set, receives change events. Installed once before use
	// (SetObserver); read under the locks its callbacks fire under.
	obs Observer

	// writeGate, when set, is consulted before any normal-execution
	// write statement runs; a non-nil return refuses the statement
	// without executing it. Reads are never gated. Installed by the
	// persistence layer when the deployment degrades to read-only mode.
	writeGate atomic.Pointer[func() error]
}

// Open creates a time-travel database over a fresh storage engine, sharing
// the given logical clock with the rest of the system.
func Open(clock *vclock.Clock) *DB {
	db := &DB{
		raw:    sqldb.Open(),
		clock:  clock,
		stmts:  sqldb.NewStmtCache(0),
		specs:  make(map[string]TableSpec),
		tables: make(map[string]*tableMeta),
	}
	db.currentGen.Store(1)
	return db
}

// Raw returns the underlying storage engine. It is exposed for tests and
// storage accounting only; going around the rewriting layer on live tables
// breaks versioning invariants.
func (db *DB) Raw() *sqldb.DB { return db.raw }

// Prepare parses src through the deployment-wide statement cache,
// returning the shared handle, so layers above (the repair controller's
// run replay) reuse parsed handles instead of re-parsing SQL text. The
// handle's statement must not be mutated.
func (db *DB) Prepare(src string) (*sqldb.CachedStmt, error) {
	return db.stmts.Get(src)
}

// Clock returns the logical clock shared with the rest of the system.
func (db *DB) Clock() *vclock.Clock { return db.clock }

// CurrentGen returns the current repair generation.
func (db *DB) CurrentGen() int64 { return db.currentGen.Load() }

// InRepair reports whether a repair generation is open.
func (db *DB) InRepair() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.inRepair
}

// SetObserver installs the database's change observer (nil to remove).
// Install before concurrent use; the observer is not re-notified of
// state that already exists.
func (db *DB) SetObserver(o Observer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.obs = o
}

// SetWriteGate installs (or, with nil, removes) the write gate: a
// check every normal-execution write statement must pass before it
// runs. A non-nil return refuses the statement with that error. Reads
// and repair-generation re-execution are not gated — the gate protects
// durability of new writes, and repair entry is refused upstream.
func (db *DB) SetWriteGate(gate func() error) {
	if gate == nil {
		db.writeGate.Store(nil)
		return
	}
	db.writeGate.Store(&gate)
}

// Annotate declares the row ID column and partition columns for a table,
// before the table is created. Annotating after creation is an error,
// except that re-declaring the identical spec is a no-op — so
// application setup code can run unchanged against a recovered
// deployment whose tables already exist.
func (db *DB) Annotate(table string, spec TableSpec) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tablesMu.RLock()
	m, exists := db.tables[table]
	db.tablesMu.RUnlock()
	if exists {
		if specEqual(m.spec, spec) {
			return nil
		}
		return fmt.Errorf("ttdb: table %s already created; annotate before CREATE TABLE", table)
	}
	if prev, ok := db.specs[table]; ok && specEqual(prev, spec) {
		return nil
	}
	db.specs[table] = spec
	if db.obs != nil {
		db.obs.TableAnnotated(table, spec)
	}
	return nil
}

// specEqual compares two table annotations.
func specEqual(a, b TableSpec) bool {
	if a.RowIDColumn != b.RowIDColumn || len(a.PartitionColumns) != len(b.PartitionColumns) {
		return false
	}
	for i, c := range a.PartitionColumns {
		if b.PartitionColumns[i] != c {
			return false
		}
	}
	return true
}

// Tables returns the names of all registered tables, sorted.
func (db *DB) Tables() []string { return db.raw.Tables() }

// meta returns table bookkeeping, or an error for unknown tables.
func (db *DB) meta(table string) (*tableMeta, error) {
	db.tablesMu.RLock()
	m, ok := db.tables[table]
	db.tablesMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ttdb: no such table %s", table)
	}
	return m, nil
}

// lockAll acquires db.mu plus every table's lock exclusive in name order,
// for operations that must exclude all concurrent table activity (DDL,
// generation switches, GC). Release with unlockAll.
func (db *DB) lockAll() []*tableMeta {
	db.mu.Lock()
	// Holding db.mu excludes all DDL (the only mutator of db.tables), so
	// one registry snapshot is stable for the rest of the call.
	db.tablesMu.RLock()
	metas := make([]*tableMeta, 0, len(db.tables))
	for _, m := range db.tables {
		metas = append(metas, m)
	}
	db.tablesMu.RUnlock()
	sort.Slice(metas, func(i, j int) bool { return metas[i].name < metas[j].name })
	for _, m := range metas {
		m.locks.lock(true)
	}
	return metas
}

// unlockAll releases the locks acquired by lockAll.
func (db *DB) unlockAll(metas []*tableMeta) {
	for i := len(metas) - 1; i >= 0; i-- {
		metas[i].locks.unlock(true)
	}
	db.mu.Unlock()
}

// createTable intercepts CREATE TABLE: it augments the schema with WARP's
// bookkeeping columns, extends uniqueness constraints with end_time and
// end_gen so multiple versions of a row can coexist (§6), and creates
// hash indexes on the row ID column and every partition column. Called
// with lockAll held.
func (db *DB) createTable(ct *sqldb.CreateTable) error {
	db.tablesMu.RLock()
	_, exists := db.tables[ct.Table]
	db.tablesMu.RUnlock()
	if exists {
		if ct.IfNotExists {
			return nil
		}
		return fmt.Errorf("ttdb: table %s already exists", ct.Table)
	}
	spec := db.specs[ct.Table]
	m := &tableMeta{
		name:      ct.Table,
		spec:      spec,
		rowIDCol:  spec.RowIDColumn,
		nextRowID: 1,
	}
	aug := ct.Clone().(*sqldb.CreateTable)
	cols := make(map[string]bool)
	for _, c := range aug.Columns {
		cols[c.Name] = true
		m.userCols = append(m.userCols, c.Name)
	}
	for _, reserved := range []string{ColRowID, ColStartTime, ColEndTime, ColStartGen, ColEndGen} {
		if cols[reserved] {
			return fmt.Errorf("ttdb: table %s declares reserved column %s", ct.Table, reserved)
		}
	}
	if m.rowIDCol == "" {
		m.rowIDCol = ColRowID
		m.synthetic = true
		aug.Columns = append(aug.Columns, sqldb.ColumnDef{Name: ColRowID, Type: sqldb.KindInt})
	} else if !cols[m.rowIDCol] {
		return fmt.Errorf("ttdb: table %s: row ID column %s does not exist", ct.Table, m.rowIDCol)
	}
	for _, pc := range spec.PartitionColumns {
		if !cols[pc] {
			return fmt.Errorf("ttdb: table %s: partition column %s does not exist", ct.Table, pc)
		}
	}
	m.prepareScopeFacts(ct.Columns)
	aug.Columns = append(aug.Columns,
		sqldb.ColumnDef{Name: ColStartTime, Type: sqldb.KindInt, NotNull: true},
		sqldb.ColumnDef{Name: ColEndTime, Type: sqldb.KindInt, NotNull: true},
		sqldb.ColumnDef{Name: ColStartGen, Type: sqldb.KindInt, NotNull: true},
		sqldb.ColumnDef{Name: ColEndGen, Type: sqldb.KindInt, NotNull: true},
	)
	// Multiple versions of one application row must coexist: extend every
	// uniqueness constraint with the version end markers (§6).
	for i := range aug.Uniques {
		aug.Uniques[i].Columns = append(aug.Uniques[i].Columns, ColEndTime, ColEndGen)
		aug.Uniques[i].Primary = false
	}
	if err := db.rawDDL(aug); err != nil {
		return err
	}
	// Indexes keep rollback and row-targeted rewrites fast.
	indexCols := map[string]bool{m.rowIDCol: true}
	for _, pc := range m.parts {
		indexCols[pc.name] = true
	}
	for col := range indexCols {
		if err := db.rawDDL(warpIndex(ct.Table, col)); err != nil {
			return err
		}
	}
	db.tablesMu.Lock()
	db.tables[ct.Table] = m
	db.tablesMu.Unlock()
	return nil
}

// rawDDL runs a schema statement this layer constructed (the augmented
// CREATE TABLE, WARP's own indexes) on the raw engine.
func (db *DB) rawDDL(stmt sqldb.Statement) error {
	_, err := db.raw.ExecCached(sqldb.NewCachedStmt(stmt), nil)
	return err
}

// warpIndex is the index WARP keeps on a row-ID or partition column, and
// what snapshot restore rebuilds for every indexed column (persist.go):
// each key's versions latest-ending first, so a probe bounded by the
// visibility predicate's `end_time > t` stops at the versions open at t.
func warpIndex(table, col string) *sqldb.CreateIndex {
	return &sqldb.CreateIndex{Name: "warp_idx_" + table + "_" + col, Table: table, Column: col, Suffix: ColEndTime}
}

// metaColumns lists WARP's bookkeeping columns in a stable order.
func (m *tableMeta) metaColumns() []string {
	cols := []string{ColStartTime, ColEndTime, ColStartGen, ColEndGen}
	if m.synthetic {
		cols = append([]string{ColRowID}, cols...)
	}
	return cols
}

// StorageStats summarizes physical storage, for the paper's Table 6
// accounting.
type StorageStats struct {
	Tables       int
	PhysicalRows int
	ApproxBytes  int
}

// Stats returns current storage statistics.
func (db *DB) Stats() StorageStats {
	db.tablesMu.RLock()
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	db.tablesMu.RUnlock()
	st := StorageStats{}
	for _, name := range names {
		st.Tables++
		st.PhysicalRows += db.raw.RowCount(name)
		st.ApproxBytes += db.raw.ApproxTableBytes(name)
	}
	return st
}
