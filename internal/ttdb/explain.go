package ttdb

import (
	"warp/internal/sqldb"
)

// Plan introspection through the rewriting layer. ttdb.Explain describes
// the raw-engine access plan a statement actually executes with under
// normal operation — after the liveWhere augmentation — so an operator
// can see whether an application predicate still rides an index once
// the four version-interval conjuncts are attached.

// Explain describes the augmented access plan of one application
// statement — the one prepared handle it executes as, in every case. An
// UPDATE renders as its versioned update, the kept before-image shown as
// keep(warp_end_time); a DELETE as the interval-closing UPDATE it
// executes as. The description of a statement on a table ends with
// "; footprint: " and the statement's partition template
// (footprint.String): which operands bound its read partitions, or
// "whole table".
func (db *DB) Explain(src string) (string, error) {
	cs, err := db.stmts.Get(src)
	if err != nil {
		return "", err
	}
	table, _, _ := dmlTable(cs.Stmt)
	if table == "" {
		return db.raw.ExplainCached(cs)
	}
	// augFor needs a settled column list, so Explain excludes DDL like any
	// read does.
	m, unlock, err := db.lockTable(table, false)
	if err != nil {
		return "", err
	}
	defer unlock()
	a := db.augFor(m, cs)
	h := a.write
	if _, ok := cs.Stmt.(*sqldb.Select); ok {
		h = a.read
	}
	plan, err := db.raw.ExplainCached(h)
	if err != nil {
		return "", err
	}
	return plan + "; footprint: " + stateFor(m, cs).fp.String(), nil
}
