package sqldb

import (
	"fmt"
	"strings"
)

// EXPLAIN-style plan introspection. The engine has no EXPLAIN statement;
// instead Explain renders the access-path decisions of a statement's
// compiled plan — which scan strategy serves the WHERE clause and
// whether ORDER BY is served by an index walk or a sort step — in a
// stable one-line form that tests and operators can assert on, e.g.
//
//	select(posts) scan=index-range(owner) order=index(owner)
//	select(posts) scan=full order=sort
//	select(votes) scan=index-eq(node_id) aggregate(COUNT(*), SUM(val))
//	update(posts) scan=index-eq(id)
//	select(posts) scan=index-eq(owner, bounded closed_at > ?2)
//
// (the last: a probe cut short by a conjunct on the index's suffix column,
// its operand a literal or the N-th parameter).
//
// The description reflects the same plan execution would use: it is
// compiled through planFor against the current DDL epoch.

// Explain describes the access plan of one SQL statement.
func (db *DB) Explain(src string) (string, error) {
	cs, err := db.stmts.Get(src)
	if err != nil {
		return "", err
	}
	return db.ExplainCached(cs)
}

// ExplainCached describes the access plan of a cached statement handle,
// compiling (or reusing) it exactly as ExecCached would.
func (db *DB) ExplainCached(cs *CachedStmt) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch s := cs.Stmt.(type) {
	case *Select:
		if s.Table == "" {
			return "select() scan=none", nil
		}
		p := db.planFor(cs)
		if p.sel == nil {
			return "", fmt.Errorf("sql: no such table %s", s.Table)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "select(%s) scan=%s", s.Table, describeScan(p.sel.scan))
		if a := p.sel.aggs; a != nil {
			forms := make([]string, len(a.slots))
			for i, s := range a.slots {
				forms[i] = s.form
			}
			fmt.Fprintf(&b, " aggregate(%s)", strings.Join(forms, ", "))
		} else if len(p.sel.orderBy) > 0 {
			if p.sel.orderIdx != nil {
				dir := ""
				if p.sel.orderIdx.desc {
					dir = "-desc"
				}
				fmt.Fprintf(&b, " order=index%s(%s)", dir, p.sel.orderIdx.column)
			} else {
				b.WriteString(" order=sort")
			}
		}
		return b.String(), nil
	case *Update:
		p := db.planFor(cs)
		if p.upd == nil {
			return "", fmt.Errorf("sql: no such table %s", s.Table)
		}
		return fmt.Sprintf("update(%s) scan=%s", s.Table, describeScan(p.upd.scan)), nil
	case *Delete:
		p := db.planFor(cs)
		if p.del == nil {
			return "", fmt.Errorf("sql: no such table %s", s.Table)
		}
		return fmt.Sprintf("delete(%s) scan=%s", s.Table, describeScan(p.del.scan)), nil
	case *Insert:
		return fmt.Sprintf("insert(%s)", s.Table), nil
	default:
		return fmt.Sprintf("%T", cs.Stmt), nil
	}
}

func describeScan(p *scanPlan) string {
	if p == nil {
		return "full"
	}
	switch p.kind {
	case scanEq:
		return fmt.Sprintf("index-eq(%s%s)", p.column, describeSuffix(p.suffix))
	case scanIn:
		return fmt.Sprintf("index-in(%s%s)", p.column, describeSuffix(p.suffix))
	case scanRange:
		lo, hi := "-inf", "+inf"
		if p.lo != nil {
			lo = "lo"
		}
		if p.hi != nil {
			hi = "hi"
		}
		return fmt.Sprintf("index-range(%s %s..%s)", p.column, lo, hi)
	}
	return "full"
}

func describeSuffix(sb *suffixBound) string {
	if sb == nil {
		return ""
	}
	operand := fmt.Sprintf("?%d", sb.val.paramIdx+1)
	if sb.val.hasConst {
		operand = sb.val.constVal.String()
	}
	return fmt.Sprintf(", bounded %s %s %s", sb.column, sb.op, operand)
}
