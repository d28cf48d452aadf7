package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The oracle for versioned updates (UPDATE ... KEEP): one statement must
// leave exactly the state, results and errors of the three statements it
// replaces — a capture SELECT of the matched rows, the plain UPDATE, and
// one INSERT per captured row with KEEP's overrides — run against a copy
// of the same table; and a failing statement must leave the table,
// including its slot counter and every posting, as it was.

var keepSchema = []string{
	"CREATE TABLE h (id INTEGER NOT NULL, k TEXT, e INTEGER NOT NULL, g INTEGER, body TEXT, UNIQUE (id, e), UNIQUE (body, g, e))",
	"CREATE INDEX h_k ON h (k, e)", // suffix-ordered
	"CREATE INDEX h_g ON h (g)",    // plain
}

const keepCols = "id, k, e, g, body"

// keepValue draws a value for one of h's columns (or an assignment to it),
// wrong-kind and NULL values included so that type and NOT NULL checks
// fire.
func keepValue(rng *rand.Rand, col string) Value {
	switch rng.Intn(32) {
	case 0:
		return Null()
	case 1:
		return Text("zz") // not an integer
	}
	switch col {
	case "k":
		return Text([]string{"p", "q", "r"}[rng.Intn(3)])
	case "e":
		if rng.Intn(8) == 0 {
			return Int(1 << 40)
		}
		return Int(int64(rng.Intn(8)))
	case "body":
		return Text([]string{"a", "b", "c", "d"}[rng.Intn(4)])
	}
	return Int(int64(rng.Intn(4)))
}

// keepCase is one random versioned update, in both spellings.
type keepCase struct {
	set, where string
	keep       []string // columns KEEP overrides
	setParams  []Value
	whereArgs  []Value
	keepVals   []Value
}

func randomKeepCase(rng *rand.Rand) keepCase {
	var c keepCase
	sets := [][]string{{"body"}, {"k"}, {"e"}, {"body", "g"}, {"g"}}
	for i, col := range sets[rng.Intn(len(sets))] {
		if i > 0 {
			c.set += ", "
		}
		if col == "g" && rng.Intn(2) == 0 {
			c.set += "g = g + 1"
			continue
		}
		c.set += col + " = ?"
		c.setParams = append(c.setParams, keepValue(rng, col))
	}
	switch rng.Intn(5) {
	case 0:
		c.where, c.whereArgs = "k = ?", []Value{keepValue(rng, "k")}
	case 1:
		c.where, c.whereArgs = "k = ? AND e > ?", []Value{keepValue(rng, "k"), Int(int64(rng.Intn(5)))}
	case 2:
		c.where, c.whereArgs = "g = ?", []Value{keepValue(rng, "g")}
	case 3:
		c.where, c.whereArgs = "id IN (?, ?)", []Value{Int(int64(rng.Intn(10))), Int(int64(rng.Intn(10)))}
	default:
		c.where, c.whereArgs = "e >= ?", []Value{Int(int64(rng.Intn(5)))} // full scan, many rows
	}
	if rng.Intn(2) == 0 {
		c.where += " AND e > 7" // live rows only: one version per id
	}
	c.keep = []string{"e"}
	if rng.Intn(3) == 0 {
		c.keep = append(c.keep, []string{"g", "k", "body"}[rng.Intn(3)])
	}
	for _, col := range c.keep {
		c.keepVals = append(c.keepVals, keepValue(rng, col))
	}
	return c
}

// runKeep executes c as one versioned update.
func (c keepCase) runKeep(db *DB) (*Result, error) {
	assigns := make([]string, len(c.keep))
	for i, col := range c.keep {
		assigns[i] = col + " = ?"
	}
	src := fmt.Sprintf("UPDATE h SET %s WHERE %s KEEP (%s) RETURNING id, k, OLD.k, OLD.body",
		c.set, c.where, strings.Join(assigns, ", "))
	params := append(append(append([]Value(nil), c.setParams...), c.whereArgs...), c.keepVals...)
	return db.Exec(src, params...)
}

// runThree executes c the old way: capture, update, one insert per
// captured row. Its result carries the same columns as runKeep's;
// inserting reports whether the failure, if any, came after the update
// had applied.
func (c keepCase) runThree(db *DB) (res *Result, err error, inserting bool) {
	old, err := db.Exec("SELECT "+keepCols+" FROM h WHERE "+c.where, c.whereArgs...)
	if err != nil {
		return nil, err, false
	}
	res, err = db.Exec("UPDATE h SET "+c.set+" WHERE "+c.where+" RETURNING id, k",
		append(append([]Value(nil), c.setParams...), c.whereArgs...)...)
	if err != nil {
		return nil, err, false
	}
	pos := map[string]int{"id": 0, "k": 1, "e": 2, "g": 3, "body": 4}
	for i, row := range old.Rows {
		vals := append([]Value(nil), row...)
		for j, col := range c.keep {
			vals[pos[col]] = c.keepVals[j]
		}
		if _, err := db.Exec("INSERT INTO h ("+keepCols+") VALUES (?, ?, ?, ?, ?)", vals...); err != nil {
			return nil, err, true
		}
		res.Rows[i] = append(res.Rows[i], row[1], row[4])
	}
	res.Columns = append(res.Columns, "OLD.k", "OLD.body")
	return res, nil, false
}

// cloneBySlots rebuilds src's table h in a fresh database, slot for slot:
// a tombstone is re-created as an inserted and deleted placeholder.
func cloneBySlots(t *testing.T, src *DB) *DB {
	t.Helper()
	dst := Open()
	for _, q := range keepSchema {
		mustExec(t, dst, q)
	}
	src.mu.Lock()
	tb := src.tables["h"]
	rows := make([]*row, tb.store.n)
	for slot := range rows {
		r := *tb.store.rowAt(slot)
		rows[slot] = &r
	}
	src.mu.Unlock()
	for slot, r := range rows {
		if r.deleted {
			mustExec(t, dst, "INSERT INTO h (id, e) VALUES (?, 0)", Int(int64(-1-slot)))
			mustExec(t, dst, "DELETE FROM h WHERE id = ?", Int(int64(-1-slot)))
			continue
		}
		mustExec(t, dst, "INSERT INTO h ("+keepCols+") VALUES (?, ?, ?, ?, ?)", r.vals...)
	}
	return dst
}

// dumpTable renders h's physical state: the slot counter, every slot's
// row or tombstone, each index's buckets and ordered walk, and each
// unique set.
func dumpTable(db *DB) string {
	db.mu.Lock()
	defer db.mu.Unlock()
	tb := db.tables["h"]
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d live=%d\n", tb.store.n, tb.liveRows)
	for slot := 0; slot < tb.store.n; slot++ {
		if r := tb.store.rowAt(slot); r.deleted {
			fmt.Fprintf(&b, "%d: -\n", slot)
		} else {
			fmt.Fprintf(&b, "%d: %v\n", slot, r.vals)
		}
	}
	for _, col := range []string{"g", "k"} {
		ix := tb.indexes[col]
		keys := make([]string, 0, len(ix.buckets))
		for k := range ix.buckets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s[%s] %v\n", col, k, ix.buckets[k])
		}
		fmt.Fprintf(&b, "%s nulls %v walk", col, ix.ord.nullSlots)
		ix.ord.ascendRange(nil, nil, func(slots []int) bool {
			fmt.Fprintf(&b, " %v", slots)
			return true
		})
		b.WriteByte('\n')
	}
	for i, us := range tb.uniques {
		keys := make([]string, 0, len(us.m))
		for k, slot := range us.m {
			keys = append(keys, fmt.Sprintf("%q=%d", k, slot))
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "unique %d: %v\n", i, keys)
	}
	return b.String()
}

// checkPostingsMatchScan asserts that h's indexes and unique sets post
// exactly the live rows a full scan finds: a plain bucket in slot order,
// a suffix bucket in suffix order, each unique key once.
func checkPostingsMatchScan(t *testing.T, db *DB) {
	t.Helper()
	checkSuffixOrder(t, db, "h", "k")
	db.mu.Lock()
	defer db.mu.Unlock()
	tb := db.tables["h"]
	want := map[string][]int{}
	wantKeys := make([]int, len(tb.uniques))
	tb.store.forEachLive(func(slot int, r *row) error {
		key := r.vals[tb.indexes["g"].pos].Key()
		want[key] = append(want[key], slot)
		for i, us := range tb.uniques {
			if key, ok := us.keyFor(r.vals); ok {
				if us.m[key] != slot {
					t.Fatalf("unique %d posts key %q at slot %d, row is at %d", i, key, us.m[key], slot)
				}
				wantKeys[i]++
			}
		}
		return nil
	})
	if fmt.Sprint(want) != fmt.Sprint(tb.indexes["g"].buckets) {
		t.Fatalf("plain index posts %v, full scan finds %v", tb.indexes["g"].buckets, want)
	}
	for i, us := range tb.uniques {
		if len(us.m) != wantKeys[i] {
			t.Fatalf("unique %d holds %d keys, live rows hold %d", i, len(us.m), wantKeys[i])
		}
	}
}

// TestUpdateKeepMatchesThreeStatements drives seeded streams of inserts,
// deletes and multi-row versioned updates — SETs that move a row's key,
// its suffix or a unique key, KEEP overrides that collide with history or
// with each other, wrong-kind and NULL values — comparing every versioned
// update with the three-statement sequence on a slot-for-slot copy.
func TestUpdateKeepMatchesThreeStatements(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	did := map[string]int{}
	for iter := 0; iter < 16; iter++ {
		db := Open()
		for _, q := range keepSchema {
			mustExec(t, db, q)
		}
		for step := 0; step < 100; step++ {
			switch op := rng.Intn(6); {
			case step < 12 || op == 0:
				_, err := db.Exec("INSERT INTO h ("+keepCols+") VALUES (?, ?, ?, ?, ?)", Int(int64(rng.Intn(10))),
					keepValue(rng, "k"), Int(1<<40), Int(int64(rng.Intn(4))), keepValue(rng, "body"))
				if err != nil && !IsUniqueViolation(err) {
					t.Fatal(err)
				}
				continue
			case op == 1:
				mustExec(t, db, "DELETE FROM h WHERE id = ? AND e < 3", Int(int64(rng.Intn(10))))
				continue
			}
			c := randomKeepCase(rng)
			oracle := cloneBySlots(t, db)
			before := dumpTable(db)
			if before != dumpTable(oracle) {
				t.Fatalf("the copy differs from its source:\n%s\nvs\n%s", dumpTable(oracle), before)
			}
			got, gotErr := c.runKeep(db)
			want, wantErr, inserting := c.runThree(oracle)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("UPDATE SET %s WHERE %s KEEP %v (%v %v %v): error %v, three statements %v",
					c.set, c.where, c.keep, c.setParams, c.whereArgs, c.keepVals, gotErr, wantErr)
			}
			if gotErr != nil {
				did["failed"]++
				if inserting {
					did["failed-keeping"]++ // the sequence had already updated rows
				}
				if after := dumpTable(db); after != before {
					t.Fatalf("failed update %q changed the table:\nbefore\n%s\nafter\n%s", gotErr, before, after)
				}
				continue
			}
			did[fmt.Sprintf("rows=%d", min(got.Affected, 2))]++
			if renderResult(got) != renderResult(want) || got.Affected != want.Affected {
				t.Fatalf("result %s, three statements %s", renderResult(got), renderResult(want))
			}
			if a, b := dumpTable(db), dumpTable(oracle); a != b {
				t.Fatalf("UPDATE SET %s WHERE %s KEEP %v left\n%s\nthree statements left\n%s", c.set, c.where, c.keep, a, b)
			}
			checkPostingsMatchScan(t, db)
		}
	}
	for _, what := range []string{"failed", "failed-keeping", "rows=0", "rows=1", "rows=2"} {
		if did[what] < 10 {
			t.Fatalf("the stream produced %d %q updates; the generator is broken (%v)", did[what], what, did)
		}
	}
	t.Logf("outcomes: %v", did)
}

// TestUpdateKeepRoundTrip pins the clause's print/parse fixed point, its
// parameter numbering and its plan rendering.
func TestUpdateKeepRoundTrip(t *testing.T) {
	const src = "UPDATE h SET body = ? WHERE (k = ?) KEEP (e = ?, g = 0) RETURNING id, OLD.body"
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.String() != src || stmt.Clone().String() != src {
		t.Fatalf("prints %q", stmt.String())
	}
	if n := NewCachedStmt(stmt).NumParams(); n != 3 {
		t.Fatalf("%d parameters, want 3", n)
	}
	db := Open()
	for _, q := range keepSchema {
		mustExec(t, db, q)
	}
	if got, err := db.Explain(src); err != nil || got != "update(h) scan=index-eq(k) keep(e, g)" {
		t.Fatalf("Explain = %q, %v", got, err)
	}
	if _, err := db.Exec("UPDATE h SET body = 'x' KEEP (nope = 1)"); err == nil {
		t.Fatal("KEEP of an unknown column was accepted")
	}
}
