package ttdb

import (
	"errors"
	"fmt"
	"slices"

	"warp/internal/sqldb"
)

// repairState snapshots the generation state a repair-side operation runs
// under: the repair ("next") generation and the GC horizon. Snapshotting
// it once at operation entry lets the table-locked internals run without
// re-acquiring db.mu (the lock ordering forbids that).
type repairState struct {
	next     int64
	gcBefore int64
}

// repairSnapshot returns the current repair state, or an error when no
// repair is open.
func (db *DB) repairSnapshot() (repairState, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.inRepair {
		return repairState{}, fmt.Errorf("ttdb: no repair in progress")
	}
	return repairState{next: db.currentGen.Load() + 1, gcBefore: db.gcBefore}, nil
}

// checkHorizon refuses a rollback to a time GC has collected: the
// versions that were live then are gone.
func (st repairState) checkHorizon(t int64) error {
	if t <= st.gcBefore {
		return fmt.Errorf("ttdb: rollback to %d is beyond the GC horizon %d", t, st.gcBefore)
	}
	return nil
}

// BeginRepair opens the next repair generation (§4.3): a logical fork of
// the current database contents. Repair-time operations (ReExec, Rollback)
// apply to the next generation while normal execution continues against the
// current one. It returns the generation number repair runs in.
func (db *DB) BeginRepair() (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.inRepair {
		return 0, fmt.Errorf("ttdb: repair already in progress")
	}
	db.inRepair = true
	return db.currentGen.Load() + 1, nil
}

// FinishRepair atomically makes the repaired generation current. The caller
// (WARP's core) is responsible for briefly suspending the web server and
// draining final requests first (§4.3), and for ensuring the repair's
// re-executions have completed. Rows visible only to older generations are purged.
// The purge changes only tables this repair already changed, so it
// moves no checkpoint stamp a repair operation did not (persist.go).
func (db *DB) FinishRepair() error {
	metas := db.lockAll()
	defer db.unlockAll(metas)
	if !db.inRepair {
		return fmt.Errorf("ttdb: no repair in progress")
	}
	cur := db.currentGen.Add(1)
	db.inRepair = false
	// Purge rows invisible from the new current generation onward (no
	// time horizon: every end_time is positive).
	for _, m := range metas {
		if _, err := db.raw.ExecCached(db.stmtsFor(m).purge, []sqldb.Value{sqldb.Int(0), sqldb.Int(cur)}); err != nil {
			return err
		}
	}
	return nil
}

// AbortRepair discards the next generation, restoring the database to the
// state normal execution sees. WARP uses this when a user-initiated undo
// would cause conflicts for other users (§5.5).
func (db *DB) AbortRepair() error {
	metas := db.lockAll()
	defer db.unlockAll(metas)
	if !db.inRepair {
		return fmt.Errorf("ttdb: no repair in progress")
	}
	cur := sqldb.Int(db.currentGen.Load())
	next := sqldb.Int(cur.Int + 1)
	for _, m := range metas {
		ts := db.stmtsFor(m)
		// Rows created by repair vanish...
		if _, err := db.raw.ExecCached(ts.dropFrom, []sqldb.Value{next}); err != nil {
			return err
		}
		// ...and rows demoted during repair become shared again.
		if _, err := db.raw.ExecCached(ts.reshare, []sqldb.Value{cur}); err != nil {
			return err
		}
	}
	db.inRepair = false
	return nil
}

// physicalRow captures one stored version with its bookkeeping columns.
// The column index is the table's shared one (tableStmts.colOf), so
// decoding versions allocates no maps.
type physicalRow struct {
	cols  map[string]int // column name -> position in row (shared)
	row   []sqldb.Value
	rowID sqldb.Value
	start int64
	end   int64
	sGen  int64
	eGen  int64
}

// colVal returns the named column's value (missing columns read NULL).
func (pr *physicalRow) colVal(c string) sqldb.Value {
	if i, ok := pr.cols[c]; ok {
		return pr.row[i]
	}
	return sqldb.Null()
}

// target names exactly this physical version to a target handle
// (tableStmts): lead, then row ID and the four version columns.
func (pr *physicalRow) target(lead ...sqldb.Value) []sqldb.Value {
	return append(lead, pr.rowID, sqldb.Int(pr.start), sqldb.Int(pr.end), sqldb.Int(pr.sGen), sqldb.Int(pr.eGen))
}

// selectPhysical runs one of the table's physical-row handles (tableStmts
// or a capture select) and decodes the versions it returns, in scan
// order.
func (db *DB) selectPhysical(m *tableMeta, stmt *sqldb.CachedStmt, params []sqldb.Value) ([]physicalRow, error) {
	res, err := db.raw.ExecCached(stmt, params)
	if err != nil {
		return nil, err
	}
	colOf := db.stmtsFor(m).colOf
	out := make([]physicalRow, 0, len(res.Rows))
	for _, row := range res.Rows {
		pr := physicalRow{cols: colOf, row: row}
		pr.rowID = pr.colVal(m.rowIDCol)
		pr.start = pr.colVal(ColStartTime).AsInt()
		pr.end = pr.colVal(ColEndTime).AsInt()
		pr.sGen = pr.colVal(ColStartGen).AsInt()
		pr.eGen = pr.colVal(ColEndGen).AsInt()
		out = append(out, pr)
	}
	return out, nil
}

// demote confines a shared physical row to generations up to current, so
// the next generation no longer sees it (§4.4 preservation).
func (db *DB) demote(m *tableMeta, pr physicalRow) error {
	return db.writeOne(m, db.stmtsFor(m).setEndGen, pr.target(sqldb.Int(db.currentGen.Load())), "demote")
}

// deletePhysical removes one physical row version outright.
func (db *DB) deletePhysical(m *tableMeta, pr physicalRow) error {
	return db.writeOne(m, db.stmtsFor(m).deleteAt, pr.target(), "delete")
}

// writeOne runs a target handle, which must hit exactly one version.
func (db *DB) writeOne(m *tableMeta, stmt *sqldb.CachedStmt, params []sqldb.Value, what string) error {
	res, err := db.raw.ExecCached(stmt, params)
	if err != nil {
		return err
	}
	if res.Affected != 1 {
		return fmt.Errorf("ttdb: %s targeted %d rows in %s, want 1", what, res.Affected, m.name)
	}
	return nil
}

// RollbackRow rolls back a single row (named by row ID) to time t in the
// repair generation (§4.1): versions from t onward disappear from the next
// generation, and the version covering t becomes live again. Versions
// shared with the current generation are preserved for it by demotion.
// It returns the partitions whose contents changed.
func (db *DB) RollbackRow(table string, rowID sqldb.Value, t int64) ([]Partition, error) {
	return db.RollbackRows(table, []sqldb.Value{rowID}, t)
}

// rollbackRowLocked is the per-row rollback, run under the table's
// exclusive lock. Re-running a completed rollback is a no-op.
//
// It visits only the versions visible in the next generation that end at
// or after t: those starting at or after t, which it deletes or demotes,
// and the one covering t, which it may revive. A version that ended
// before t is neither changed nor visible from t on, so the work and the
// partitions returned (those of the changed versions) follow what the
// rollback changes, not how long the row's history is.
func (db *DB) rollbackRowLocked(m *tableMeta, rowID sqldb.Value, t int64, st repairState) ([]Partition, error) {
	if err := st.checkHorizon(t); err != nil {
		return nil, err
	}
	next := st.next

	ts := db.stmtsFor(m)
	versions, err := db.selectPhysical(m, ts.versions, []sqldb.Value{rowID, sqldb.Int(next), sqldb.Int(t)})
	if err != nil {
		return nil, err
	}

	// A row's versions in one generation do not overlap in time, so at
	// most one of those ending at or after t starts before it: the
	// version covering t.
	var gone []physicalRow
	var latest *physicalRow
	for i, pr := range versions {
		switch {
		case pr.start >= t:
			gone = append(gone, pr)
		case latest == nil || pr.start > latest.start:
			latest = &versions[i]
		}
	}
	// Revive the version covering t, if it was closed.
	revive := latest != nil && latest.end != Infinity

	set := NewPartitionSet()
	for _, pr := range gone {
		set.AddAll(m.rowPartitions(pr.colVal))
	}
	if revive {
		set.AddAll(m.rowPartitions(latest.colVal))
	}
	for _, pr := range gone {
		// This version vanishes from the next generation.
		if pr.sGen >= next {
			if err := db.deletePhysical(m, pr); err != nil {
				return set.Slice(), err
			}
		} else {
			if err := db.demote(m, pr); err != nil {
				return set.Slice(), err
			}
		}
	}
	if revive {
		// The revival can collide with a row inserted later under the same
		// uniqueness key: the §6 case where an INSERT's success changes
		// during repair. Clearing the main row's versions above cannot add
		// or remove colliders: the probe excludes the main row.
		colliders, err := db.revivalColliders(m, *latest, st)
		if err != nil {
			return set.Slice(), err
		}
		if slices.ContainsFunc(colliders, func(c collider) bool { return c.since < latest.start }) {
			// A row held the key before this version began, so the
			// version is stale: a write the repair has yet to re-check
			// made it. Roll back past it instead of reviving it.
			ps, err := db.rollbackRowLocked(m, rowID, latest.start, st)
			set.AddAll(ps)
			return set.Slice(), err
		}
		if err := db.resolveRevivalCollisions(m, colliders, st, set); err != nil {
			return set.Slice(), err
		}
		if latest.sGen >= next {
			if _, err := db.raw.ExecCached(ts.setEndTime, latest.target(sqldb.Int(Infinity))); err != nil {
				return set.Slice(), err
			}
		} else {
			// Shared with the current generation: confine it there and keep
			// an open copy for the next, in one statement.
			if err := db.writeOne(m, ts.revive, latest.target(sqldb.Int(next)), "revive"); err != nil {
				return set.Slice(), err
			}
		}
	}
	return set.Slice(), nil
}

// collider is one row whose live next-generation version shares a
// uniqueness key with a row about to be revived.
type collider struct {
	rowID    sqldb.Value
	since    int64 // start of its live version, the one holding the key
	versions []physicalRow
}

// revivalColliders probes (read-only) for live next-generation rows that
// share a uniqueness key with pr, returning each with all of its
// next-generation-visible versions.
func (db *DB) revivalColliders(m *tableMeta, pr physicalRow, st repairState) ([]collider, error) {
	ts := db.stmtsFor(m)
	next := sqldb.Int(st.next)
	var out []collider
	seen := make(map[string]bool)
probes:
	for _, u := range ts.uniques {
		params := make([]sqldb.Value, 0, len(u.cols)+1)
		for _, col := range u.cols {
			v := pr.colVal(col)
			if v.IsNull() {
				continue probes // NULL never collides in a unique constraint
			}
			params = append(params, v)
		}
		live, err := db.selectPhysical(m, u.stmt, append(params, next))
		if err != nil {
			return nil, err
		}
		for _, other := range live {
			if other.rowID.Equal(pr.rowID) || seen[other.rowID.Key()] {
				continue
			}
			seen[other.rowID.Key()] = true
			versions, err := db.selectPhysical(m, ts.versions, []sqldb.Value{other.rowID, next, sqldb.Int(0)})
			if err != nil {
				return nil, err
			}
			out = append(out, collider{rowID: other.rowID, since: other.start, versions: versions})
		}
	}
	return out, nil
}

// resolveRevivalCollisions rolls back the probed live next-generation
// rows that share a uniqueness key with the row about to be revived
// (§6). Each collider is rolled back to before its first appearance, so
// in the repaired timeline its insert fails; its own rollback keeps no
// versions, so it never revives or recurses. The colliders' partitions
// are added to dirt so the inserts that created them re-execute and
// observe their changed (now failing) outcome.
func (db *DB) resolveRevivalCollisions(m *tableMeta, colliders []collider, st repairState, dirt *PartitionSet) error {
	for _, other := range colliders {
		first := int64(0)
		for i, pr := range other.versions {
			if i == 0 || pr.start < first {
				first = pr.start
			}
		}
		ps, err := db.rollbackRowLocked(m, other.rowID, first, st)
		dirt.AddAll(ps)
		if err != nil {
			return err
		}
	}
	return nil
}

// rollBackLaterColliders handles a re-executed write at t that failed on
// a uniqueness constraint (§6). When every live repair-generation row
// holding the violated key took it after t, the key is free at t in the
// repaired timeline: each such row is rolled back to t, its partitions
// join dirt so the writes that gave it the key re-execute and meet the
// write's outcome, and it reports true so the write runs again. A row
// that held the key at t, or a clash between the statement's own rows,
// lets the failure stand.
func (db *DB) rollBackLaterColliders(m *tableMeta, err error, t int64, st repairState, dirt *PartitionSet) (bool, error) {
	var uv *sqldb.UniqueViolationError
	if !errors.As(err, &uv) {
		return false, nil
	}
	// The probe runs over the constraint's application columns.
	var cols []string
	var params []sqldb.Value
	for i, col := range uv.Constraint.Columns {
		if col != ColEndTime && col != ColEndGen && i < len(uv.Key) {
			cols = append(cols, col)
			params = append(params, uv.Key[i])
		}
	}
	uniques := db.stmtsFor(m).uniques
	u := slices.IndexFunc(uniques, func(p uniqueProbe) bool { return slices.Equal(p.cols, cols) })
	if u < 0 {
		return false, nil
	}
	live, err := db.selectPhysical(m, uniques[u].stmt, append(params, sqldb.Int(st.next)))
	if err != nil {
		return false, err
	}
	if len(live) == 0 || slices.ContainsFunc(live, func(pr physicalRow) bool { return pr.start <= t }) {
		return false, nil
	}
	for _, pr := range live {
		ps, err := db.rollbackRowLocked(m, pr.rowID, t, st)
		dirt.AddAll(ps)
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// RollbackRows rolls back several rows of one table to time t and returns
// the partitions whose contents changed, also when it fails partway.
func (db *DB) RollbackRows(table string, rowIDs []sqldb.Value, t int64) ([]Partition, error) {
	st, err := db.repairSnapshot()
	if err != nil {
		return nil, err
	}
	if err := st.checkHorizon(t); err != nil {
		return nil, err
	}
	m, unlock, err := db.lockTable(table, true)
	if err != nil {
		return nil, err
	}
	defer unlock()
	return db.rollbackRowsLocked(m, rowIDs, t, st)
}

// rollbackRowsLocked rolls back each row under the table's exclusive
// lock and returns the partitions whose contents changed, also when it
// fails partway.
func (db *DB) rollbackRowsLocked(m *tableMeta, rowIDs []sqldb.Value, t int64, st repairState) ([]Partition, error) {
	set := NewPartitionSet()
	for _, id := range rowIDs {
		ps, err := db.rollbackRowLocked(m, id, t, st)
		set.AddAll(ps)
		if err != nil {
			return set.Slice(), err
		}
	}
	return set.Slice(), nil
}

// ChangedError is a repair write that failed after its rollback phase had
// changed rows: Changed names the partitions whose contents changed.
type ChangedError struct {
	Changed []Partition
	Err     error
}

func (e *ChangedError) Error() string { return e.Err.Error() }
func (e *ChangedError) Unwrap() error { return e.Err }

// ReExecPrepared re-executes a prepared query at its original time t in
// the repair generation (§4.4). For writes it performs the paper's
// two-phase re-execution (§4.2): it computes the new matching row set,
// rolls back both the original and the new rows to just before t, and
// then executes the write in the next generation. orig is the record
// from the original execution, or nil for a query with no original
// counterpart (for example, a patched application run issuing a
// brand-new query).
//
// A write holds its table's lock exclusive for the full two-phase span,
// so a re-execution is atomic with respect to every other operation on
// the table.
//
// The returned Record describes the re-executed query; its WritePartitions
// include everything touched by rollback, which the repair controller uses
// for dependency propagation. A write that fails with no Record after its
// rollback changed rows returns a *ChangedError naming them.
func (db *DB) ReExecPrepared(cs *sqldb.CachedStmt, params []sqldb.Value, t int64, orig *Record) (*sqldb.Result, *Record, error) {
	if err := cs.CheckParams(params); err != nil {
		return nil, nil, err
	}
	st, err := db.repairSnapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("ttdb: ReExec outside repair")
	}
	db.clock.AdvanceTo(t)

	table, isWrite, _ := dmlTable(cs.Stmt)
	if !isWrite {
		// Reads re-execute at their original time; DDL during repair
		// replays as-is in the shared schema space.
		m, reads, unlock, err := db.lockFor(cs, params)
		if err != nil {
			return nil, nil, err
		}
		defer unlock()
		return db.execAt(cs, params, t, st.next, orig, m, reads)
	}
	m, unlock, err := db.lockTable(table, true)
	if err != nil {
		return nil, nil, err
	}
	defer unlock()
	return db.reExecWrite(cs, params, t, st, orig, m, stateFor(m, cs).fp.resolve(params))
}

// reExecWrite implements two-phase re-execution of one write, under the
// table's exclusive lock. An INSERT has no WHERE to re-match, so its
// phases A and C are empty: it rolls back the rows it originally created
// and runs again.
func (db *DB) reExecWrite(cs *sqldb.CachedStmt, params []sqldb.Value, t int64, st repairState, orig *Record, m *tableMeta, reads []Partition) (*sqldb.Result, *Record, error) {
	next := st.next
	_, isInsert := cs.Stmt.(*sqldb.Insert)

	// Phase A: find the rows the new WHERE clause matches at time t in the
	// repair generation.
	var matchedNow []physicalRow
	var a *stmtAug
	var ext []sqldb.Value
	if !isInsert {
		a, ext = db.augFor(m, cs), extParams(params, t, next, 0)
		var err error
		if matchedNow, err = db.selectPhysical(m, a.read, ext); err != nil {
			return nil, nil, err
		}
	}

	// Phase B: roll back original ∪ new row IDs to just before t.
	dirt := NewPartitionSet()
	seen := make(map[string]bool)
	rollback := func(id sqldb.Value) error {
		if seen[id.Key()] {
			return nil
		}
		seen[id.Key()] = true
		ps, err := db.rollbackRowLocked(m, id, t, st)
		dirt.AddAll(ps)
		return err
	}
	failed := func(err error) (*sqldb.Result, *Record, error) {
		if dirt.Len() == 0 {
			return nil, nil, err
		}
		return nil, nil, &ChangedError{Changed: dirt.Slice(), Err: err}
	}
	if orig != nil {
		for _, id := range orig.WriteRowIDs {
			if err := rollback(id); err != nil {
				return failed(err)
			}
		}
	}
	for _, pr := range matchedNow {
		if err := rollback(pr.rowID); err != nil {
			return failed(err)
		}
	}

	// Phase C: execute the write at t in the repair generation. Before it
	// touches rows still shared with the current generation, one statement
	// demotes each such row and keeps a next-generation copy in its place
	// (§4.4).
	if !isInsert {
		if _, err := db.raw.ExecCached(a.fork, ext); err != nil {
			return failed(err)
		}
	}
	res, rec, err := db.execAt(cs, params, t, next, orig, m, reads)
	for err != nil {
		rolled, cerr := db.rollBackLaterColliders(m, err, t, st, dirt)
		if cerr != nil {
			return failed(cerr)
		}
		if !rolled {
			break
		}
		res, rec, err = db.execAt(cs, params, t, next, orig, m, reads)
	}
	if err != nil && rec == nil {
		return failed(err)
	}
	if rec != nil {
		set := NewPartitionSet()
		set.AddAll(rec.WritePartitions)
		set.AddAll(dirt.Slice())
		rec.WritePartitions = set.Slice()
	}
	return res, rec, err
}

// GC discards row versions that ended before the horizon, in sync with the
// action history graph's garbage collection (§4.2). Rollback to a time at
// or before the horizon becomes impossible afterwards. GC is refused while
// a repair is in progress.
func (db *DB) GC(beforeTime int64) error {
	metas := db.lockAll()
	defer db.unlockAll(metas)
	if db.inRepair {
		return fmt.Errorf("ttdb: GC during repair")
	}
	horizon := []sqldb.Value{sqldb.Int(beforeTime), sqldb.Int(db.currentGen.Load())}
	for _, m := range metas {
		if _, err := db.raw.ExecCached(db.stmtsFor(m).purge, horizon); err != nil {
			return err
		}
	}
	if beforeTime > db.gcBefore {
		db.gcBefore = beforeTime
	}
	if db.obs != nil {
		db.obs.Collected(beforeTime)
	}
	return nil
}
