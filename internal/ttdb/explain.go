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
// statement — the prepared handles the statement executes as, in every
// case. An UPDATE renders both executed phases (the capture select and
// the in-place update) separated by "; "; a DELETE renders as the
// interval-closing UPDATE it executes as. The description of a statement
// on a table ends with "; footprint: " and the statement's partition
// template (footprint.String): which operands bound its lock scope and
// its read partitions, or "whole table".
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
	// execution does; it is a diagnostic, so it simply takes the whole
	// table.
	m, unlock, err := db.lockScope(table, wholeScope())
	if err != nil {
		return "", err
	}
	defer unlock()
	a := db.augFor(m, cs)
	handles := []*sqldb.CachedStmt{a.write}
	switch cs.Stmt.(type) {
	case *sqldb.Select:
		handles = []*sqldb.CachedStmt{a.read}
	case *sqldb.Update:
		handles = []*sqldb.CachedStmt{a.read, a.write}
	}
	var out string
	for _, h := range handles {
		plan, err := db.raw.ExplainCached(h)
		if err != nil {
			return "", err
		}
		out += plan + "; "
	}
	return out + "footprint: " + stateFor(m, cs).fp.String(), nil
}
