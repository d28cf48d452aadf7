package sqldb

import (
	"fmt"
	"sync"
	"testing"
)

func TestStmtCacheHitReturnsSameHandle(t *testing.T) {
	c := NewStmtCache(8)
	hits, misses := stmtCacheHits.Value(), stmtCacheMisses.Value()
	a, err := c.Get("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get("SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss on identical source")
	}
	if h, m := stmtCacheHits.Value()-hits, stmtCacheMisses.Value()-misses; h != 1 || m != 1 {
		t.Fatalf("counted %d hits / %d misses, want 1/1", h, m)
	}
	if a.Canonical() != a.Stmt.String() {
		t.Fatalf("canonical %q != Stmt.String() %q", a.Canonical(), a.Stmt.String())
	}
	if a.Source() != "SELECT 1" {
		t.Fatalf("source = %q", a.Source())
	}
}

func TestStmtCacheParseErrorNotCached(t *testing.T) {
	c := NewStmtCache(8)
	if _, err := c.Get("SELEC nope"); err == nil {
		t.Fatal("expected parse error")
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after parse error", c.Len())
	}
}

func TestStmtCacheLRUEviction(t *testing.T) {
	c := NewStmtCache(3)
	for i := 0; i < 3; i++ {
		if _, err := c.Get(fmt.Sprintf("SELECT %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 so 1 becomes the LRU, then insert a fourth entry.
	if _, err := c.Get("SELECT 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("SELECT 3"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	hitsBefore := stmtCacheHits.Value()
	if _, err := c.Get("SELECT 1"); err != nil { // evicted: re-parse
		t.Fatal(err)
	}
	if stmtCacheHits.Value() != hitsBefore {
		t.Fatal("evicted entry served from cache")
	}
	hitsBefore = stmtCacheHits.Value()
	for _, keep := range []string{"SELECT 0", "SELECT 3"} {
		if _, err := c.Get(keep); err != nil {
			t.Fatal(err)
		}
	}
	if stmtCacheHits.Value() != hitsBefore+2 {
		t.Fatal("recently used entries were evicted")
	}
}

// TestPlanInvalidationOnDDL: a cached statement's compiled plan must be
// recompiled after every kind of DDL, so it cannot read stale column
// ordinals, a dropped table's rows, or miss a new index.
func TestPlanInvalidationOnDDL(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)")
	mustExec(t, db, "INSERT INTO t (id, grp, val) VALUES (1, 10, 100), (2, 20, 200)")

	sel := "SELECT val FROM t WHERE id = ?"
	res, err := db.Exec(sel, Int(1))
	if err != nil || res.FirstValue().AsInt() != 100 {
		t.Fatalf("warm-up select: %v %v", res, err)
	}

	// CREATE INDEX: the cached plan's scan decision must flip to the
	// index and still see the same rows.
	epoch := db.Epoch()
	mustExec(t, db, "CREATE INDEX idx_id ON t (id)")
	if db.Epoch() == epoch {
		t.Fatal("CREATE INDEX did not bump the DDL epoch")
	}
	res, err = db.Exec(sel, Int(2))
	if err != nil || res.FirstValue().AsInt() != 200 {
		t.Fatalf("select after CREATE INDEX: %v %v", res, err)
	}

	// ALTER TABLE ADD COLUMN: ordinals shift for SELECT *; the cached
	// star plan must include the new column.
	starRes, err := db.Exec("SELECT * FROM t WHERE id = 1")
	if err != nil || len(starRes.Columns) != 3 {
		t.Fatalf("star select: %v %v", starRes, err)
	}
	epoch = db.Epoch()
	mustExec(t, db, "ALTER TABLE t ADD COLUMN note TEXT DEFAULT 'x'")
	if db.Epoch() == epoch {
		t.Fatal("ALTER TABLE did not bump the DDL epoch")
	}
	starRes, err = db.Exec("SELECT * FROM t WHERE id = 1")
	if err != nil || len(starRes.Columns) != 4 {
		t.Fatalf("star select after ALTER: cols=%v err=%v", starRes.Columns, err)
	}
	res, err = db.Exec("SELECT note FROM t WHERE id = 1")
	if err != nil || res.FirstValue().AsText() != "x" {
		t.Fatalf("new-column select: %v %v", res, err)
	}

	// DROP TABLE + re-create with a different shape: the cached plans of
	// both the select and the insert must recompile against the new
	// schema, not resurrect the dropped table's state.
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Exec(sel, Int(1)); err == nil {
		t.Fatal("select on dropped table succeeded")
	}
	mustExec(t, db, "CREATE TABLE t (val INTEGER, id INTEGER)") // swapped ordinals
	mustExec(t, db, "INSERT INTO t (id, val) VALUES (7, 700)")
	res, err = db.Exec(sel, Int(7))
	if err != nil || res.FirstValue().AsInt() != 700 {
		t.Fatalf("select after re-create: %v %v (stale ordinals?)", res, err)
	}
}

// TestCachedExecRaceWithDDL runs cached reads and writes concurrently
// with DDL churn; under -race this guards the plan-cache swap and the
// epoch protocol.
func TestCachedExecRaceWithDDL(t *testing.T) {
	db := Open()
	mustExec(t, db, "CREATE TABLE r (id INTEGER, grp INTEGER)")
	mustExec(t, db, "INSERT INTO r (id, grp) VALUES (1, 1), (2, 2), (3, 1)")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Exec("SELECT id FROM r WHERE grp = ?", Int(int64(g%2+1))); err != nil {
					t.Errorf("cached select: %v", err)
					return
				}
				if _, err := db.Exec("UPDATE r SET grp = grp WHERE id = ?", Int(int64(i%3+1))); err != nil {
					t.Errorf("cached update: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		mustExec(t, db, fmt.Sprintf("CREATE INDEX IF NOT EXISTS idx_r_grp%d ON r (grp)", i%2))
		mustExec(t, db, fmt.Sprintf("ALTER TABLE r ADD COLUMN extra%d INTEGER", i))
	}
	close(stop)
	wg.Wait()
}
