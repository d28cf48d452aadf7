package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Ordered-index correctness: every indexed query must produce exactly
// the rows, values, and row order of the same query against an
// index-free table, where every scan is a full scan and every ORDER BY
// is the executor's stable sort. The oracle database is therefore a
// plain copy of the same data with no CREATE INDEX.

// twinDBs returns an indexed database and its index-free oracle, both
// loaded with n rows of mixed data: clustered ints, scattered texts, and
// NULLs in both indexed columns.
func twinDBs(t *testing.T, rng *rand.Rand, n int) (idx, oracle *DB) {
	t.Helper()
	idx, oracle = Open(), Open()
	ddl := "CREATE TABLE items (id INTEGER, grade INTEGER, tag TEXT, note TEXT)"
	for _, db := range []*DB{idx, oracle} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range []string{"id", "grade", "tag"} {
		if _, err := idx.Exec(fmt.Sprintf("CREATE INDEX ix_%s ON items (%s)", col, col)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var grade, tag Value
		if rng.Intn(8) == 0 {
			grade = Null()
		} else {
			grade = Int(int64(rng.Intn(20)))
		}
		if rng.Intn(8) == 0 {
			tag = Null()
		} else {
			tag = Text(fmt.Sprintf("t%02d", rng.Intn(30)))
		}
		args := []Value{Int(int64(i)), grade, tag, Text(fmt.Sprintf("note-%d", i))}
		for _, db := range []*DB{idx, oracle} {
			if _, err := db.Exec("INSERT INTO items (id, grade, tag, note) VALUES (?, ?, ?, ?)", args...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Delete a scattered subset so both sides carry tombstones.
	for i := 0; i < n/5; i++ {
		id := Int(int64(rng.Intn(n)))
		for _, db := range []*DB{idx, oracle} {
			if _, err := db.Exec("DELETE FROM items WHERE id = ?", id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return idx, oracle
}

// renderResult flattens a result for comparison, order included.
func renderResult(r *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Columns, ","))
	for _, row := range r.Rows {
		b.WriteByte('\n')
		for _, v := range row {
			b.WriteString(v.Key())
			b.WriteByte('|')
		}
	}
	return b.String()
}

// randomRangeQuery generates a query whose WHERE and ORDER BY exercise
// the ordered-scan planner: ranges, BETWEEN, bounded IN, and ORDER BY on
// indexed and unindexed columns, ascending and descending.
func randomRangeQuery(rng *rand.Rand) (string, []Value) {
	cols := []string{"id", "grade", "tag", "note"}
	icol := func() string { return cols[rng.Intn(2)] }
	var where string
	var params []Value
	switch rng.Intn(8) {
	case 0:
		where = fmt.Sprintf(" WHERE %s >= %d", icol(), rng.Intn(20))
	case 1:
		where = fmt.Sprintf(" WHERE %s < %d", icol(), rng.Intn(20))
	case 2:
		where = fmt.Sprintf(" WHERE %s BETWEEN %d AND %d", icol(), rng.Intn(10), 5+rng.Intn(15))
	case 3:
		where = fmt.Sprintf(" WHERE %s > ? AND %s <= ?", icol(), icol())
		params = append(params, Int(int64(rng.Intn(10))), Int(int64(5+rng.Intn(15))))
	case 4:
		where = fmt.Sprintf(" WHERE %s IN (%d, %d, ?)", icol(), rng.Intn(20), rng.Intn(20))
		params = append(params, Int(int64(rng.Intn(20))))
	case 5:
		where = fmt.Sprintf(" WHERE tag >= 't%02d' AND tag < 't%02d'", rng.Intn(15), 10+rng.Intn(20))
	case 6:
		where = fmt.Sprintf(" WHERE grade >= %d AND tag > ?", rng.Intn(20))
		params = append(params, Text(fmt.Sprintf("t%02d", rng.Intn(30))))
	case 7:
		// No WHERE: pure ORDER BY enumeration.
	}
	var order string
	if rng.Intn(4) != 0 {
		order = " ORDER BY " + cols[rng.Intn(len(cols))]
		if rng.Intn(2) == 0 {
			order += " DESC"
		}
	}
	var limit string
	if rng.Intn(4) == 0 {
		limit = fmt.Sprintf(" LIMIT %d OFFSET %d", rng.Intn(10), rng.Intn(5))
	}
	return "SELECT id, grade, tag, note FROM items" + where + order + limit, params
}

// TestOrderedScanMatchesOracle: index-served range / BETWEEN / IN /
// ORDER BY queries return exactly what a full scan plus stable sort
// returns — same rows, same values, same order.
func TestOrderedScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx, oracle := twinDBs(t, rng, 400)
	scansBefore := indexScans.Value()
	sawIndexScan := false
	for i := 0; i < 500; i++ {
		q, params := randomRangeQuery(rng)
		got, err := idx.Exec(q, params...)
		if err != nil {
			t.Fatalf("indexed: %q: %v", q, err)
		}
		want, err := oracle.Exec(q, params...)
		if err != nil {
			t.Fatalf("oracle: %q: %v", q, err)
		}
		if renderResult(got) != renderResult(want) {
			t.Fatalf("divergence on %q %v:\nindexed:\n%s\noracle:\n%s",
				q, params, renderResult(got), renderResult(want))
		}
		if desc, err := idx.Explain(q); err == nil && strings.Contains(desc, "index-") {
			sawIndexScan = true
		}
	}
	if !sawIndexScan {
		t.Fatal("no generated query planned an index scan; generator is broken")
	}
	if indexScans.Value() == scansBefore {
		t.Fatal("no index scans recorded")
	}
}

// TestOrderedScanMatchesOracleAfterChurn: the same agreement must hold
// after heavy update/delete/re-insert churn, which exercises skip-list
// removal, posting-list maintenance, and tombstone pages.
func TestOrderedScanMatchesOracleAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	idx, oracle := twinDBs(t, rng, 300)
	for i := 0; i < 400; i++ {
		var stmt string
		var params []Value
		switch rng.Intn(3) {
		case 0:
			stmt = "UPDATE items SET grade = ?, tag = ? WHERE id = ?"
			params = []Value{Int(int64(rng.Intn(20))), Text(fmt.Sprintf("t%02d", rng.Intn(30))), Int(int64(rng.Intn(300)))}
		case 1:
			stmt = "DELETE FROM items WHERE id = ?"
			params = []Value{Int(int64(rng.Intn(300)))}
		case 2:
			stmt = "INSERT INTO items (id, grade, tag, note) VALUES (?, ?, ?, 'x')"
			params = []Value{Int(int64(300 + i)), Int(int64(rng.Intn(20))), Text(fmt.Sprintf("t%02d", rng.Intn(30)))}
		}
		for _, db := range []*DB{idx, oracle} {
			if _, err := db.Exec(stmt, params...); err != nil {
				t.Fatalf("%q: %v", stmt, err)
			}
		}
	}
	for i := 0; i < 300; i++ {
		q, params := randomRangeQuery(rng)
		got, err := idx.Exec(q, params...)
		if err != nil {
			t.Fatalf("indexed: %q: %v", q, err)
		}
		want, err := oracle.Exec(q, params...)
		if err != nil {
			t.Fatalf("oracle: %q: %v", q, err)
		}
		if renderResult(got) != renderResult(want) {
			t.Fatalf("divergence after churn on %q %v:\nindexed:\n%s\noracle:\n%s",
				q, params, renderResult(got), renderResult(want))
		}
	}
}

// TestExplainOrderByIndexedNoSort is the EXPLAIN-style acceptance
// assertion: ORDER BY on an indexed column executes with no sort step,
// with and without a compatible range predicate, while incompatible
// shapes keep the sort.
func TestExplainOrderByIndexedNoSort(t *testing.T) {
	db := Open()
	mustExec := func(q string) {
		t.Helper()
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	mustExec("CREATE TABLE posts (id INTEGER, owner TEXT, body TEXT)")
	mustExec("CREATE INDEX ix_id ON posts (id)")
	mustExec("CREATE INDEX ix_owner ON posts (owner)")

	cases := []struct {
		q    string
		want string
	}{
		{"SELECT id FROM posts ORDER BY id", "select(posts) scan=full order=index(id)"},
		{"SELECT id FROM posts ORDER BY id DESC", "select(posts) scan=full order=index-desc(id)"},
		{"SELECT id FROM posts WHERE id >= 10 AND id < 20 ORDER BY id", "select(posts) scan=index-range(id lo..hi) order=index(id)"},
		{"SELECT id FROM posts WHERE id BETWEEN 10 AND 20 ORDER BY id", "select(posts) scan=index-range(id lo..hi) order=index(id)"},
		{"SELECT id FROM posts WHERE owner = 'a' ORDER BY owner", "select(posts) scan=index-eq(owner) order=index(owner)"},
		{"SELECT id FROM posts WHERE id IN (1, 2, 3) ORDER BY id", "select(posts) scan=index-in(id) order=index(id)"},
		// Sort survives where the index cannot serve the order.
		{"SELECT id FROM posts WHERE owner = 'a' ORDER BY id", "select(posts) scan=index-eq(owner) order=sort"},
		{"SELECT id FROM posts ORDER BY body", "select(posts) scan=full order=sort"},
		{"SELECT id FROM posts ORDER BY id, owner", "select(posts) scan=full order=sort"},
	}
	for _, c := range cases {
		got, err := db.Explain(c.q)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("Explain(%q) = %q, want %q", c.q, got, c.want)
		}
	}
}

// TestRangePlanResults spot-checks the exact semantics of the ordered
// paths on a tiny fixed table, including NULL placement and ties.
func TestRangePlanResults(t *testing.T) {
	db := Open()
	mustExec := func(q string, params ...Value) *Result {
		t.Helper()
		r, err := db.Exec(q, params...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mustExec("CREATE TABLE s (k INTEGER, v TEXT)")
	mustExec("CREATE INDEX ix_k ON s (k)")
	for i, k := range []any{3, 1, nil, 2, 1, nil, 5} {
		kv := Null()
		if k != nil {
			kv = Int(int64(k.(int)))
		}
		mustExec("INSERT INTO s (k, v) VALUES (?, ?)", kv, Text(fmt.Sprintf("r%d", i)))
	}
	check := func(q string, want string, params ...Value) {
		t.Helper()
		r := mustExec(q, params...)
		var got []string
		for _, row := range r.Rows {
			got = append(got, row[0].AsText())
		}
		if s := strings.Join(got, " "); s != want {
			t.Errorf("%q: got %q, want %q", q, s, want)
		}
	}
	// Ascending: NULLs first, ties in insertion order.
	check("SELECT v FROM s ORDER BY k", "r2 r5 r1 r4 r3 r0 r6")
	// Descending: NULLs last, ties still in insertion order.
	check("SELECT v FROM s ORDER BY k DESC", "r6 r0 r3 r1 r4 r2 r5")
	// Ranges never include NULL keys.
	check("SELECT v FROM s WHERE k >= 1 ORDER BY k", "r1 r4 r3 r0 r6")
	check("SELECT v FROM s WHERE k > 1 AND k <= 3 ORDER BY k DESC", "r0 r3")
	check("SELECT v FROM s WHERE k BETWEEN 2 AND 3", "r0 r3")
	check("SELECT v FROM s WHERE k IN (5, 1) ORDER BY k DESC", "r6 r1 r4")
	// Unresolvable parameter bound falls back to a scan but stays correct.
	check("SELECT v FROM s WHERE k >= ? ORDER BY k", "r3 r0 r6", Int(2))
	// NULL bound matches nothing.
	check("SELECT v FROM s WHERE k < ?", "", Null())
}
