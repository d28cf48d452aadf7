package ttdb

// Partition extraction (§4.1; the rules are stated in docs/repair.md).
// This file is the only code in the package that reads a statement's
// expressions to bound the partitions it touches, and it reads them once
// per statement handle: deriveFootprint builds a template — which literal
// or parameter operands bind which partition column — and resolve binds
// one execution's parameters to it, yielding the partitions the
// statement reads. Record.ReadPartitions, two-phase re-execution and the
// online-repair admission gate (StmtPartitions) all consume that one
// value, so dirt, records and admission name one kind of partition; none
// of it locks anything (locks.go takes the whole table).
//
// The admission gate derives the template without holding the table's
// lock, so it may depend only on the statement and on facts of the table
// no DDL changes (tableMeta.parts, name). A dropped and re-created table
// is a new *tableMeta and gets a new template.

import (
	"strconv"
	"strings"
	"sync/atomic"

	"warp/internal/sqldb"
)

// stmtState is what this layer caches on a statement handle (its Aux
// slot) for the table the statement targets.
type stmtState struct {
	fp  *footprint              // fixed; the state is valid for table fp.m only
	aug atomic.Pointer[stmtAug] // rebuilt per DDL epoch under fp.m's lock (augFor)
}

// stateFor returns cs's cached state against table m, deriving the
// footprint on first use against this *tableMeta. It needs no lock:
// racing first uses derive equivalent states and the last stays cached.
func stateFor(m *tableMeta, cs *sqldb.CachedStmt) *stmtState {
	if st, ok := cs.Aux().(*stmtState); ok && st.fp.m == m {
		return st
	}
	st := &stmtState{fp: deriveFootprint(m, cs.Stmt)}
	cs.SetAux(st)
	return st
}

// footprint is a statement's partition template against one table.
type footprint struct {
	m *tableMeta
	// ops bind partition columns to constants, in WHERE-conjunct order
	// (row-major for an INSERT).
	ops []fpOperand
	// readWhole: the reads include the whole table whatever the parameters
	// (no usable conjunct; an INSERT row leaving a partition column unbound).
	readWhole bool
}

// fpOperand binds col to a literal, or to the parameter at index param
// (-1 for a literal).
type fpOperand struct {
	col   *partCol
	lit   sqldb.Value
	param int
}

func deriveFootprint(m *tableMeta, stmt sqldb.Statement) *footprint {
	f := &footprint{m: m}
	switch s := stmt.(type) {
	case *sqldb.Select:
		f.bindWhere(s.Where)
	case *sqldb.Delete:
		f.bindWhere(s.Where)
	case *sqldb.Update:
		// Rows a SET of a partition column moves into another partition
		// go unnamed: the executed write records where they landed, and
		// the repair fixpoint folds them in.
		f.bindWhere(s.Where)
	case *sqldb.Insert:
		f.bindInsert(s)
	}
	return f
}

// bindWhere binds the top-level conjuncts `col = const` and
// `col IN (consts)` over partition columns.
func (f *footprint) bindWhere(where sqldb.Expr) {
	for _, e := range sqldb.Conjuncts(where) {
		switch e := e.(type) {
		case *sqldb.BinaryExpr:
			if col, c, ok := sqldb.ConstCmp(e); ok && e.Op == sqldb.OpEq {
				f.bind(col, c)
			}
		case *sqldb.InExpr:
			if col, ok := e.Expr.(*sqldb.ColumnRef); ok && !e.Not {
				f.bind(col.Name, e.List...)
			}
		}
	}
	f.readWhole = len(f.ops) == 0
}

// bindInsert binds each row's partition columns by position: in the
// statement's column list, or — column-less — in the table's own order.
func (f *footprint) bindInsert(s *sqldb.Insert) {
	f.readWhole = len(f.m.parts) == 0
	for _, row := range s.Rows {
		for _, pc := range f.m.parts {
			pos := pc.pos
			if len(s.Columns) > 0 {
				pos = -1
				for i, c := range s.Columns {
					if c == pc.name {
						pos = i // a repeated column: the engine keeps the last
					}
				}
			}
			if pos < 0 || pos >= len(row) || !f.bind(pc.name, row[pos]) {
				f.readWhole = true
			}
		}
	}
}

// bind records `col = any of consts` when col is a partition column and
// every const is a literal or a parameter; otherwise it binds nothing.
func (f *footprint) bind(col string, consts ...sqldb.Expr) bool {
	pc := f.m.partCol(col)
	if pc == nil {
		return false
	}
	n := len(f.ops)
	for _, c := range consts {
		switch c := c.(type) {
		case *sqldb.Literal:
			f.ops = append(f.ops, fpOperand{col: pc, lit: c.Value, param: -1})
		case *sqldb.Param:
			f.ops = append(f.ops, fpOperand{col: pc, param: c.Index})
		default:
			f.ops = f.ops[:n]
			return false
		}
	}
	return true
}

// resolve binds one execution's parameters to the template: the
// partitions the statement may read, in template order; for an INSERT,
// the partitions its rows land in. A partition is named by the key of
// the stored value an operand can equal, so each operand is first
// converted to the column's declared kind by the engine's probe rule:
// `editor = '10'` on an INTEGER column names editor=i10, as the writes
// to those rows do. An operand with no single stored counterpart sends
// the whole access to the whole table.
func (f *footprint) resolve(params []sqldb.Value) []Partition {
	m := f.m
	whole := func() []Partition { return []Partition{WholeTable(m.name)} }
	if len(f.ops) == 0 {
		return whole()
	}
	reads := make([]Partition, 0, len(f.ops)+1)
	for _, op := range f.ops {
		v := op.lit
		if op.param >= len(params) {
			return whole()
		} else if op.param >= 0 {
			v = params[op.param]
		}
		v, ok := sqldb.CoerceToColumn(v, op.col.kind)
		if !ok {
			return whole()
		}
		reads = append(reads, Partition{Table: m.name, Column: op.col.name, Key: v.Key()})
	}
	if f.readWhole {
		reads = append(reads, WholeTable(m.name))
	}
	return reads
}

// String renders the template for Explain, parameters as ?N (1-based):
// "votes/node_id=?1", "pages/editor=12, pages/*", or just "whole table".
func (f *footprint) String() string {
	if len(f.ops) == 0 {
		return "whole table"
	}
	parts := make([]string, 0, len(f.ops)+1)
	for _, op := range f.ops {
		o := op.col.name + "=" + op.lit.String()
		if op.param >= 0 {
			o = op.col.name + "=?" + strconv.Itoa(op.param+1)
		}
		parts = append(parts, f.m.name+"/"+o)
	}
	if f.readWhole {
		parts = append(parts, WholeTable(f.m.name).String())
	}
	return strings.Join(parts, ", ")
}
