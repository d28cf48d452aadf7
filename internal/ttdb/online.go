package ttdb

// Online-repair support (docs/repair.md "Online repair"): the database
// half of the core's partition-scoped coexistence. During repair, live
// writes keep executing in the current generation; the core's admission
// gate needs each statement's partition footprint to decide whether a
// write collides with the repair frontier, and the replay loop needs a
// way to three-way merge a mergeable live UPDATE with the repaired value
// of the same row instead of letting last-writer-wins discard one side.

import (
	"warp/internal/sqldb"
)

// StmtPartitions derives the partition footprint of one SQL statement
// without executing it: the partitions an admission gate compares
// against in-flight repair work. It reports the partitions the statement
// reads — those its executed Record.ReadPartitions will hold, or the
// whole table when they cannot be bounded — whether the statement is a
// write, and a parse error if any. DDL returns nil partitions with
// isWrite=true: its footprint is every table.
func (db *DB) StmtPartitions(src string, params []sqldb.Value) (parts []Partition, isWrite bool, err error) {
	cs, err := db.stmts.Get(src)
	if err != nil {
		return nil, false, err
	}
	table, isWrite, ok := dmlTable(cs.Stmt)
	if !ok {
		// DDL: footprint is every table; callers treat nil as "wide".
		return nil, true, nil
	}
	if table == "" {
		return nil, false, nil
	}
	m, err := db.meta(table)
	if err != nil {
		return nil, isWrite, err
	}
	return stateFor(m, cs).fp.resolve(params), isWrite, nil
}

// UpdateMergeInfo locates the mergeable text of a single-row UPDATE: the
// one SET column and the parameter index carrying its new value.
type UpdateMergeInfo struct {
	Table    string
	Column   string
	ParamIdx int
}

// MergeableUpdate reports whether a recorded write has the shape online
// repair can three-way merge: a successful single-row UPDATE of exactly
// one SET column whose new value arrived as a text parameter. The
// caller additionally requires a captured pre-image (the merge base)
// the first time it merges; the shape check alone also matches the
// re-recorded form of an already-merged write, which is how a memoized
// merge finds its parameter slot on later re-executions. Everything
// else falls back to the replay loop's last-writer-wins re-execution.
func (db *DB) MergeableUpdate(rec *Record) (UpdateMergeInfo, bool) {
	if rec.Kind != KindUpdate || rec.ErrText != "" || len(rec.WriteRowIDs) != 1 {
		return UpdateMergeInfo{}, false
	}
	cs, err := db.stmts.Get(rec.SQL)
	if err != nil {
		return UpdateMergeInfo{}, false
	}
	upd, ok := cs.Stmt.(*sqldb.Update)
	if !ok || len(upd.Set) != 1 {
		return UpdateMergeInfo{}, false
	}
	p, ok := upd.Set[0].Expr.(*sqldb.Param)
	if !ok || p.Index >= len(rec.Params) || rec.Params[p.Index].Kind != sqldb.KindText {
		return UpdateMergeInfo{}, false
	}
	return UpdateMergeInfo{Table: rec.Table, Column: upd.Set[0].Column, ParamIdx: p.Index}, true
}

// RepairValueBefore reads the repaired value of the row a mergeable
// UPDATE wrote, as of just before the update's logical time, in the
// repair generation — the "their side" of the three-way merge (the
// pre-image is the base, the live parameter is "ours"). Returns ok=false
// outside repair, when the row has no version live at that point in the
// repair generation, or when the value is not text.
func (db *DB) RepairValueBefore(info UpdateMergeInfo, rowID sqldb.Value, t int64) (string, bool) {
	st, err := db.repairSnapshot()
	if err != nil {
		return "", false
	}
	m, unlock, err := db.lockTable(info.Table, true)
	if err != nil {
		return "", false
	}
	defer unlock()
	// The version live at t-1 ends after t-1, that is at or after t.
	versions, err := db.selectPhysical(m, db.stmtsFor(m).versions, []sqldb.Value{rowID, sqldb.Int(st.next), sqldb.Int(t)})
	if err != nil {
		return "", false
	}
	for _, pr := range versions {
		if pr.start <= t-1 && t-1 < pr.end {
			v := pr.colVal(info.Column)
			return v.Str, v.Kind == sqldb.KindText
		}
	}
	return "", false
}
