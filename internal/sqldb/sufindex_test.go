package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The oracle for suffix-ordered indexes (CREATE INDEX i ON t (k, e)): a
// bounded equality or IN probe must return exactly the rows — in exactly
// the order — of the same statement against an index-free copy of the
// table, where every scan is a full scan; and after every write each
// bucket must hold its key's postings in suffix order.

// sufVariant is one declared kind of the suffix column, with the values
// the stream stores in it and the bounds probes compare it against —
// NULL, other-kind and (for TEXT) uncoercible bounds included.
type sufVariant struct {
	decl   string
	vals   func(*rand.Rand) Value
	bounds func(*rand.Rand) Value
}

var sufVariants = []sufVariant{
	{"INTEGER",
		func(rng *rand.Rand) Value {
			switch rng.Intn(10) {
			case 0:
				return Null()
			case 1, 2, 3:
				return Int(1 << 40) // the "still open" end of a version chain
			}
			return Int(int64(rng.Intn(8)))
		},
		func(rng *rand.Rand) Value {
			switch rng.Intn(12) {
			case 0:
				return Null()
			case 1:
				return Text("abc") // ranks above every number
			case 2:
				return Text(fmt.Sprint(rng.Intn(8))) // numeric text compares numerically
			case 3:
				return Bool(rng.Intn(2) == 0)
			case 4:
				return Int(1 << 40)
			}
			return Int(int64(rng.Intn(9)) - 1)
		}},
	{"TEXT",
		func(rng *rand.Rand) Value {
			if rng.Intn(10) == 0 {
				return Null()
			}
			return Text([]string{"a", "b", "c", "10", "9", "zz"}[rng.Intn(6)])
		},
		func(rng *rand.Rand) Value {
			switch rng.Intn(8) {
			case 0:
				return Null()
			case 1:
				return Int(int64(rng.Intn(12))) // not TEXT: the bound cannot be used
			}
			return Text([]string{"", "a", "b", "bb", "10", "9", "zz", "zzz"}[rng.Intn(8)])
		}},
}

var sufKeys = []Value{Text("p"), Text("q"), Text("r"), Text("s"), Null()}

func sufKey(rng *rand.Rand) Value { return sufKeys[rng.Intn(len(sufKeys))] }

// sufTwin returns a database with the suffix-ordered index on v (k, e)
// and its index-free oracle.
func sufTwin(t *testing.T, v sufVariant) (idx, oracle *DB) {
	t.Helper()
	idx, oracle = Open(), Open()
	for _, db := range []*DB{idx, oracle} {
		mustExec(t, db, fmt.Sprintf("CREATE TABLE v (id INTEGER, k TEXT, e %s, g INTEGER, UNIQUE (k, e, g))", v.decl))
	}
	mustExec(t, idx, "CREATE INDEX v_k ON v (k, e)")
	return idx, oracle
}

// checkSuffixOrder asserts the structural invariant of a suffix-ordered
// index: every live row is posted once, under its key, and each bucket is
// in (suffix descending, NULL last, slot ascending) order.
func checkSuffixOrder(t *testing.T, db *DB, table, col string) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	tb := db.tables[table]
	ix := tb.indexes[col]
	if ix.sufPos < 0 {
		t.Fatalf("index on %s.%s has no suffix column", table, col)
	}
	posted := 0
	for key, b := range ix.buckets {
		posted += len(b)
		for i, slot := range b {
			r := tb.store.rowAt(slot)
			if r.deleted || r.vals[ix.pos].Key() != key {
				t.Fatalf("bucket %q holds slot %d (deleted=%v, key %q)", key, slot, r.deleted, r.vals[ix.pos].Key())
			}
			if i == 0 {
				continue
			}
			prev, cur := tb.store.rowAt(b[i-1]).vals[ix.sufPos], r.vals[ix.sufPos]
			if suffixBefore(cur, prev) || (!suffixBefore(prev, cur) && b[i-1] >= slot) {
				t.Fatalf("bucket %q out of order at %d: (%v, slot %d) before (%v, slot %d)", key, i, prev, b[i-1], cur, slot)
			}
		}
	}
	if posted != tb.liveRows {
		t.Fatalf("index posts %d slots, table has %d live rows", posted, tb.liveRows)
	}
}

// sufProbes returns every probe shape for one key set and bound: the key
// alone and with each admitted operator, literal and parameter bounds,
// conjuncts that do not bind, IN lists, with and without ORDER BY.
func sufProbes(rng *rand.Rand, v sufVariant) (queries []string, params [][]Value) {
	k, k2, bound := sufKey(rng), sufKey(rng), v.bounds(rng)
	add := func(q string, p ...Value) {
		queries = append(queries, "SELECT id, k, e, g FROM v WHERE "+q)
		params = append(params, p)
	}
	add("k = ?", k)
	for _, op := range []string{">", ">=", "="} {
		add("k = ? AND e "+op+" ?", k, bound)
		add("k = ? AND e "+op+" "+bound.String(), k)
		add("g >= 0 AND e "+op+" ? AND k = ?", bound, k)
		add("k IN (?, ?, 'p') AND e "+op+" ?", k, k2, bound)
		add("k IN (?, ?) AND e "+op+" ? ORDER BY k", k, k2, bound)
		add("k IN (?, ?) AND e "+op+" ? ORDER BY k DESC", k, k2, bound)
		add("k = ? AND e "+op+" ? ORDER BY g DESC", k, bound)
	}
	add("k = ? AND ? < e", k, bound) // operand first, or an upper bound: not bindable, still correct
	add("k = ? AND ? = e", k, bound)
	add("k = ? AND e < ?", k, bound)
	add("k = ? AND e > ? AND e >= ?", k, bound, bound) // the first bindable conjunct wins
	add("k = ? AND e > ? AND g = ? ORDER BY k", k, bound, Int(int64(rng.Intn(3))))
	add("k IN (?, ?)", k, k2)
	add("k IN (?, ?) ORDER BY e", k, k2)
	return queries, params
}

// TestSuffixIndexMatchesOracle drives seeded insert / update / delete
// streams — updates that move a row's key, its suffix or neither, and
// multi-row updates that hit a uniqueness violation part-way and are
// undone — over both databases, checking the ordering invariant and every
// probe shape after each step.
func TestSuffixIndexMatchesOracle(t *testing.T) {
	for vi, v := range sufVariants {
		rng := rand.New(rand.NewSource(int64(41 + vi)))
		for iter := 0; iter < 12; iter++ {
			idx, oracle := sufTwin(t, v)
			nextID, undone, bounded := int64(0), 0, 0
			for step := 0; step < 120; step++ {
				var stmt string
				var params []Value
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					stmt = "INSERT INTO v (id, k, e, g) VALUES (?, ?, ?, ?)"
					params = []Value{Int(nextID), sufKey(rng), v.vals(rng), Int(int64(rng.Intn(3)))}
					nextID++
				case 4: // close versions: moves postings within their bucket
					stmt = "UPDATE v SET e = ? WHERE k = ? AND e > ? AND g = ?"
					params = []Value{v.vals(rng), sufKey(rng), v.bounds(rng), Int(int64(rng.Intn(3)))}
				case 5: // in-place update: same key, same suffix
					stmt = "UPDATE v SET g = g + 3 WHERE k = ? AND e >= ?"
					params = []Value{sufKey(rng), v.bounds(rng)}
				case 6: // moves rows to another bucket
					stmt = "UPDATE v SET k = ? WHERE k = ? AND e = ?"
					params = []Value{sufKey(rng), sufKey(rng), v.vals(rng)}
				case 7: // several rows to one (k, e, g): collides, undoes the first
					stmt = "UPDATE v SET e = ?, g = 0 WHERE k = ?"
					params = []Value{v.vals(rng), sufKey(rng)}
				case 8:
					stmt = "DELETE FROM v WHERE k = ? AND e = ?"
					params = []Value{sufKey(rng), v.vals(rng)}
				case 9:
					stmt = "DELETE FROM v WHERE k IN (?, ?) AND e > ? AND g > 3"
					params = []Value{sufKey(rng), sufKey(rng), v.bounds(rng)}
				}
				got, gotErr := idx.Exec(stmt, params...)
				want, wantErr := oracle.Exec(stmt, params...)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %v: indexed error %v, oracle %v", stmt, params, gotErr, wantErr)
				}
				if gotErr != nil {
					if !IsUniqueViolation(gotErr) {
						t.Fatalf("%s %v: %v", stmt, params, gotErr)
					}
					undone++
				} else if got.Affected != want.Affected {
					t.Fatalf("%s %v: indexed affected %d, oracle %d", stmt, params, got.Affected, want.Affected)
				}
				checkSuffixOrder(t, idx, "v", "k")

				queries, qparams := sufProbes(rng, v)
				for i, q := range queries {
					got := mustExec(t, idx, q, qparams[i]...)
					want := mustExec(t, oracle, q, qparams[i]...)
					if renderResult(got) != renderResult(want) {
						t.Fatalf("step %d: %s %v diverges:\nindexed:\n%s\noracle:\n%s",
							step, q, qparams[i], renderResult(got), renderResult(want))
					}
					if desc, err := idx.Explain(q); err != nil {
						t.Fatal(err)
					} else if strings.Contains(desc, "bounded e ") {
						bounded++
					}
				}
			}
			if undone == 0 || bounded == 0 {
				t.Fatalf("stream never undid an update (%d) or planned a bounded probe (%d)", undone, bounded)
			}
		}
	}
}

// TestSuffixIndexBuiltOverExistingRows: CREATE INDEX over a populated
// table files every row in suffix order, and re-creating an index on the
// same column stays a no-op.
func TestSuffixIndexBuiltOverExistingRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := sufVariants[0]
	db := Open()
	mustExec(t, db, "CREATE TABLE v (id INTEGER, k TEXT, e INTEGER, g INTEGER)")
	for i := 0; i < 300; i++ {
		mustExec(t, db, "INSERT INTO v (id, k, e, g) VALUES (?, ?, ?, 0)", Int(int64(i)), sufKey(rng), v.vals(rng))
	}
	mustExec(t, db, "DELETE FROM v WHERE id % 7 = 0")
	mustExec(t, db, "CREATE INDEX v_k ON v (k, e)")
	checkSuffixOrder(t, db, "v", "k")
	mustExec(t, db, "CREATE INDEX IF NOT EXISTS v_k2 ON v (k)")
	checkSuffixOrder(t, db, "v", "k")
	if _, err := db.Exec("CREATE INDEX v_g ON v (g, g)"); err == nil {
		t.Fatal("an index suffixed by its own column was accepted")
	}
	if _, err := db.Exec("CREATE INDEX v_g ON v (g, nope)"); err == nil {
		t.Fatal("an index suffixed by an unknown column was accepted")
	}
}

// TestSuffixIndexExplainAndRoundTrip pins the rendering of a bounded
// probe and the statement's print/parse fixed point.
func TestSuffixIndexExplainAndRoundTrip(t *testing.T) {
	db, _ := sufTwin(t, sufVariants[0])
	for _, c := range []struct{ src, want string }{
		{"SELECT id FROM v WHERE k = ? AND g = 1 AND e > ?", "select(v) scan=index-eq(k, bounded e > ?2)"},
		{"SELECT id FROM v WHERE e >= 7 AND k = 'p'", "select(v) scan=index-eq(k, bounded e >= 7)"},
		{"SELECT id FROM v WHERE 7 <= e AND k = 'p'", "select(v) scan=index-eq(k)"}, // only `column op operand` binds
		{"UPDATE v SET g = 1 WHERE k IN (?, ?) AND e = ?", "update(v) scan=index-in(k, bounded e = ?3)"},
		{"DELETE FROM v WHERE k = ? AND e < ?", "delete(v) scan=index-eq(k)"},
		{"SELECT id FROM v WHERE k = ? AND e > g", "select(v) scan=index-eq(k)"},
	} {
		if got, err := db.Explain(c.src); err != nil || got != c.want {
			t.Errorf("Explain(%q) = %q, %v; want %q", c.src, got, err, c.want)
		}
	}
	const src = "CREATE INDEX IF NOT EXISTS v_k ON v (k, e)"
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if ci := stmt.(*CreateIndex); ci.Column != "k" || ci.Suffix != "e" || stmt.String() != src {
		t.Fatalf("parsed %+v, prints %q", ci, stmt.String())
	}
}
