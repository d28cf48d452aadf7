package ttdb

import (
	"fmt"
	"slices"
	"sort"

	"warp/internal/sqldb"
)

// Partition-level rollback (§4.1 applied to repair performance) asks the
// row versions themselves which rows changed: a row has a version event
// in partition (col, key) at or after time t exactly when one of its
// versions with col = key was created at or after t (start_time >= t) or
// closed at or after t (t <= end_time < ∞). Every partition column's index
// is ordered by end_time (warpIndex), so the probe visits the key's
// versions ending at or after t and nothing older.

// changedSince selects the row ID and partition columns of the versions
// created or closed at or after the time in parameter n, among those
// matching lead (nil: the whole table).
func (m *tableMeta) changedSince(lead sqldb.Expr, n int) *sqldb.CachedStmt {
	items := []sqldb.SelectItem{{Expr: sqldb.Col(m.rowIDCol)}}
	for _, pc := range m.parts {
		items = append(items, sqldb.SelectItem{Expr: sqldb.Col(pc.name)})
	}
	return sqldb.NewCachedStmt(&sqldb.Select{Items: items, Table: m.name, Where: sqldb.And(lead,
		cmp(ColEndTime, sqldb.OpGe, n),
		&sqldb.BinaryExpr{Op: sqldb.OpOr, Left: cmp(ColStartTime, sqldb.OpGe, n),
			Right: &sqldb.BinaryExpr{Op: sqldb.OpLt, Left: sqldb.Col(ColEndTime), Right: sqldb.Lit(sqldb.Int(Infinity))}})})
}

// PartitionRowsSince returns the distinct row IDs of rows with a version
// event in partition p at or after time since, in a stable order. Events
// older than the GC horizon may have been collected. A keyed partition
// probes its column's version-ordered index; the whole table, and a key no
// index probe can name (NULL, or no value's key at all), scan with the
// time bound alone. The probe
// reads the engine without a scope, like scopeForRows' pre-scan.
func (db *DB) PartitionRowsSince(p Partition, since int64) ([]sqldb.Value, error) {
	m, err := db.meta(p.Table)
	if err != nil {
		return nil, err
	}
	stmt, params := m.changedAll, []sqldb.Value{sqldb.Int(since)}
	if !p.IsWholeTable() {
		pc := m.partCol(p.Column)
		if pc == nil {
			return nil, fmt.Errorf("ttdb: %s is not a partition column of table %s", p.Column, p.Table)
		}
		if v, ok := sqldb.ValueOfKey(p.Key); ok && !v.IsNull() {
			stmt, params = pc.changed, []sqldb.Value{v, sqldb.Int(since)}
		}
	}
	res, err := db.raw.ExecCached(stmt, params)
	if err != nil {
		return nil, err
	}
	// Partition identity is the key string: stricter than the engine's
	// `=`, and the only test the scan forms apply.
	at := slices.Index(res.Columns, p.Column) // -1 for the whole table
	seen := make(map[string]bool)
	var out []sqldb.Value
	for _, row := range res.Rows {
		if id := row[0].Key(); !seen[id] && (at < 0 || row[at].Key() == p.Key) {
			seen[id] = true
			out = append(out, row[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// partitionScope derives the lock scope for operating on one partition:
// the partition's own key when it is on the lock column, the whole table
// otherwise (other columns cut across the lock column's slices).
func (m *tableMeta) partitionScope(p Partition) lockScope {
	if !p.IsWholeTable() && p.Column == m.lockCol {
		return keyScope([]string{p.Key})
	}
	return wholeScope()
}

// RollbackPartition rolls back every row with a version event in partition
// p at or after time t to time t, in the repair generation. It is the
// partition-granularity analog of RollbackRows and returns the partitions
// whose contents changed. A row this repair already restored may still be
// listed (its demoted versions stay until the generation switch); rolling
// it back again is a no-op.
func (db *DB) RollbackPartition(p Partition, t int64) ([]Partition, error) {
	st, err := db.repairSnapshot()
	if err != nil {
		return nil, err
	}
	if err := st.checkHorizon(t); err != nil {
		return nil, err
	}
	m, err := db.meta(p.Table)
	if err != nil {
		return nil, err
	}
	sc := m.partitionScope(p)
	// Accumulated across an escalation retry, same as RollbackRows: dirt
	// from rollbacks completed under the narrow scope must survive.
	set := NewPartitionSet()
	for {
		m.locks.lock(sc)
		err := func() error {
			ids, err := db.PartitionRowsSince(p, t)
			if err != nil {
				return err
			}
			for _, id := range ids {
				ps, err := db.rollbackRowLocked(m, id, t, st, sc)
				if err != nil {
					return err
				}
				set.AddAll(ps)
			}
			return nil
		}()
		m.locks.unlock(sc)
		if err == errScopeConflict && !sc.whole {
			// A row in p also has versions outside p's lock-column slice
			// (its partition column was rewritten): retry whole-table.
			scopeEscalations.Inc()
			sc = wholeScope()
			continue
		}
		if err != nil {
			return nil, err
		}
		return set.Slice(), nil
	}
}
