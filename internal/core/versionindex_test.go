package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// postingsVisited runs fn and returns how many index postings the raw
// engine handed to a predicate meanwhile (docs/observability.md).
func postingsVisited(fn func()) uint64 {
	c := obs.NewCounter("warp_sqldb_index_postings_visited_total")
	before := c.Value()
	fn()
	return c.Value() - before
}

// chainWorkload gives a deployment a `notes` table with an application
// index and a row whose version chain is a few hundred long, cutting a
// checkpoint half-way so a crash leaves both a snapshot and a WAL tail.
func chainWorkload(t *testing.T, w *Warp) {
	t.Helper()
	exec := func(src string, params ...sqldb.Value) {
		t.Helper()
		if _, _, err := w.DB.Exec(src, params...); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	if err := w.DB.Annotate("notes", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT NOT NULL, tag TEXT, body TEXT)")
	exec("CREATE INDEX notes_tag ON notes (tag)")
	for i, owner := range []string{"ann", "bo", "cy"} {
		exec("INSERT INTO notes (id, owner, tag, body) VALUES (?, ?, 'inbox', '')", sqldb.Int(int64(i+1)), sqldb.Text(owner))
	}
	for i := 0; i < 300; i++ {
		exec("UPDATE notes SET body = ? WHERE owner = 'ann'", sqldb.Text(fmt.Sprintf("draft %d", i)))
		if i%40 == 0 {
			exec("UPDATE notes SET tag = ? WHERE owner = 'bo'", sqldb.Text(fmt.Sprintf("t%d", i)))
		}
		if i == 150 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRecoveredIndexesAreVersionOrdered: a snapshot stores only the names
// of a table's indexed columns, and restore rebuilds each through the same
// constructor CREATE TABLE uses — so a crashed deployment comes back with
// version-ordered indexes, WAL replay (which re-executes logged writes at
// their recorded times through the same bounded probes) lands on the
// bit-identical state, and a live statement on the recovered deployment
// visits as few postings as on one that never crashed.
func TestRecoveredIndexesAreVersionOrdered(t *testing.T) {
	dir := t.TempDir()
	w := buildWarp(t, dir, 1)
	chainWorkload(t, w)
	if err := w.FlushLogs(); err != nil {
		t.Fatal(err)
	}
	want := dumpWarp(t, w)
	wantIdx := w.DB.Raw().IndexedColumns("notes")
	if !slices.Equal(wantIdx, []string{"id", "owner", "tag"}) {
		t.Fatalf("indexed columns = %v", wantIdx)
	}
	w.Crash()

	rec := buildWarp(t, dir, 1)
	defer rec.Close()
	if st := rec.Recovery(); !st.FromSnapshot || st.WALRecords == 0 {
		t.Fatalf("recovery %+v, want a snapshot plus a replayed WAL tail", st)
	}
	if got := dumpWarp(t, rec); got != want {
		t.Fatalf("recovered state differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if got := rec.DB.Raw().IndexedColumns("notes"); !slices.Equal(got, wantIdx) {
		t.Fatalf("recovered indexed columns = %v, want %v", got, wantIdx)
	}
	chain, err := rec.DB.Raw().Exec("SELECT id FROM notes WHERE id = 1")
	if err != nil || chain.NumRows() != 301 {
		t.Fatalf("row 1 has %d recovered versions (%v), want 301", chain.NumRows(), err)
	}

	oracle := buildWarp(t, "", 1)
	chainWorkload(t, oracle)
	for _, src := range []string{
		"SELECT body FROM notes WHERE owner = 'ann'",
		"SELECT body FROM notes WHERE id = 1",
		"SELECT id FROM notes WHERE tag = 'inbox'",
		"UPDATE notes SET body = 'final' WHERE owner = 'ann'",
	} {
		plan, err := rec.DB.Explain(src)
		if err != nil || !strings.Contains(plan, ", bounded warp_end_time > ?1)") {
			t.Fatalf("recovered deployment plans %q as %q, %v", src, plan, err)
		}
		visits := func(w *Warp) uint64 {
			return postingsVisited(func() {
				if _, _, err := w.DB.Exec(src); err != nil {
					t.Fatal(err)
				}
			})
		}
		if got, want := visits(rec), visits(oracle); got != want || got == 0 || got > 2 {
			t.Errorf("%s visits %d postings on the recovered deployment, %d on one that never crashed; want 1 or 2", src, got, want)
		}
	}
	assertSameState(t, "after the same statements", rec, oracle)
}
