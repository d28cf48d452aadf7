package ttdb

import (
	"slices"

	"warp/internal/sqldb"
)

// LiveRows returns the live rows of a table in the current generation,
// keyed by row ID (its sqldb.Value.Key), each fingerprinted by its other
// application columns. It is the one reader of application state that
// compares deployments: DiffRows and UnderRepair are built on it.
func (db *DB) LiveRows(table string) (map[string]uint64, error) {
	m, unlock, err := db.lockTable(table, false) // userCols is stable under it
	if err != nil {
		return nil, err
	}
	defer unlock()
	items := []sqldb.SelectItem{{Expr: sqldb.Col(m.rowIDCol)}}
	var cols []string
	for _, c := range m.userCols {
		if c != m.rowIDCol {
			cols = append(cols, c)
			items = append(items, sqldb.SelectItem{Expr: sqldb.Col(c)})
		}
	}
	live := sqldb.And(sqldb.Eq(ColEndTime, sqldb.Int(Infinity)), visibleInGen(0))
	res, err := db.raw.ExecCached(sqldb.NewCachedStmt(&sqldb.Select{Items: items, Table: m.name, Where: live}),
		[]sqldb.Value{sqldb.Int(db.CurrentGen())})
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].Key()] = (&sqldb.Result{Columns: cols, Rows: [][]sqldb.Value{row[1:]}}).Fingerprint()
	}
	return out, nil
}

// DiffRows compares one table between two deployments of the same
// workload and returns, sorted, the row IDs whose live content differs
// or that only one side holds.
func DiffRows(got, want *DB, table string) ([]string, error) {
	a, b, err := livePair(got, want, table)
	if err != nil {
		return nil, err
	}
	var out []string
	for k, fp := range a {
		if bfp, ok := b[k]; !ok || bfp != fp {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out, nil
}

// UnderRepair counts the live rows of every table of want that differ
// between a repaired deployment and want, its attack-free twin: the
// repair's under-repair, 0 when it reached the state that would have
// existed had the attack never run. Tables named in drawn have row IDs
// the application draws from the deployment's random stream, which an
// extra draw anywhere shifts; they compare as multisets of their other
// columns, each unmatched row counting once.
func UnderRepair(repaired, want *DB, drawn ...string) (int, error) {
	n := 0
	for _, table := range want.Tables() {
		if !slices.Contains(drawn, table) {
			diff, err := DiffRows(repaired, want, table)
			if err != nil {
				return 0, err
			}
			n += len(diff)
			continue
		}
		a, b, err := livePair(repaired, want, table)
		if err != nil {
			return 0, err
		}
		count := make(map[uint64]int, len(a))
		for _, fp := range a {
			count[fp]++
		}
		for _, fp := range b {
			count[fp]--
		}
		for _, c := range count {
			n += max(c, -c)
		}
	}
	return n, nil
}

// livePair reads one table's live rows from two deployments.
func livePair(a, b *DB, table string) (map[string]uint64, map[string]uint64, error) {
	ra, err := a.LiveRows(table)
	if err != nil {
		return nil, nil, err
	}
	rb, err := b.LiveRows(table)
	return ra, rb, err
}
