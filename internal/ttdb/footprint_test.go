package ttdb

import (
	"reflect"
	"slices"
	"testing"

	"warp/internal/sqldb"
)

func partStrings(ps []Partition) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

// TestFootprint: one template per statement, one resolve per execution,
// and what names the statement's partitions — Record.ReadPartitions —
// reads that resolve.
// pages is partitioned by title (TEXT) and editor (INTEGER); "the first
// partition column" in case names is title, the first declared one.
func TestFootprint(t *testing.T) {
	whole := []string{"pages/*"}
	cases := []struct {
		name   string
		src    string
		params []sqldb.Value
		reads  []string // resolved reads, in order (a set for an INSERT)
		noExec bool     // the engine refuses the statement; resolve only
		fails  bool     // a recorded failure (uniqueness)
	}{
		{name: "eq", src: "SELECT * FROM pages WHERE title = 'Main'",
			reads: []string{"pages/title=tMain"}},
		{name: "eq reversed operands", src: "SELECT * FROM pages WHERE 'Main' = title",
			reads: []string{"pages/title=tMain"}},
		{name: "eq parameter", src: "SELECT * FROM pages WHERE title = ?", params: []sqldb.Value{sqldb.Text("Help")},
			reads: []string{"pages/title=tHelp"}},
		{name: "IN", src: "SELECT * FROM pages WHERE title IN ('Main', ?, 'Main')", params: []sqldb.Value{sqldb.Text("Help")},
			reads: []string{"pages/title=tMain", "pages/title=tHelp", "pages/title=tMain"}},
		{name: "both partition columns", src: "SELECT * FROM pages WHERE editor = 10 AND content != '' AND title = 'Main'",
			reads: []string{"pages/editor=i10", "pages/title=tMain"}},
		{name: "WHERE without the first partition column", src: "DELETE FROM pages WHERE editor = ?", params: []sqldb.Value{sqldb.Int(11)},
			reads: []string{"pages/editor=i11"}},
		{name: "non-constant IN member", src: "SELECT * FROM pages WHERE title IN ('Main', content)",
			reads: whole},
		{name: "non-constant operand", src: "SELECT * FROM pages WHERE title = content || 'x'",
			reads: whole},
		{name: "top-level OR", src: "SELECT * FROM pages WHERE title = 'Main' OR title = 'Help'",
			reads: whole},
		{name: "NOT IN", src: "SELECT * FROM pages WHERE title NOT IN ('Main')",
			reads: whole},
		{name: "no WHERE", src: "UPDATE pages SET content = 'x'",
			reads: whole},
		{name: "row-ID predicate only", src: "UPDATE pages SET content = 'x' WHERE page_id = 1",
			reads: whole},
		{name: "UPDATE within a partition", src: "UPDATE pages SET content = ? WHERE title = 'Main'", params: []sqldb.Value{sqldb.Text("x")},
			reads: []string{"pages/title=tMain"}},
		// Rows an UPDATE moves into another partition go unnamed: the
		// footprint is what the WHERE binds, and only the executed write
		// records where the rows landed.
		{name: "SET of the first partition column bound alone", src: "UPDATE pages SET title = 'Moved' WHERE title = 'Main'",
			reads: []string{"pages/title=tMain"}},
		{name: "SET of the first partition column", src: "UPDATE pages SET title = ? WHERE editor = ? AND title = 'Help'",
			params: []sqldb.Value{sqldb.Text("Moved"), sqldb.Int(10)},
			reads:  []string{"pages/editor=i10", "pages/title=tHelp"}},
		{name: "DELETE", src: "DELETE FROM pages WHERE title = ?", params: []sqldb.Value{sqldb.Text("Sandbox")},
			reads: []string{"pages/title=tSandbox"}},

		// INSERTs: Record.ReadPartitions is a set (sorted), the partitions
		// the rows land in.
		{name: "INSERT with a column list", src: "INSERT INTO pages (editor, page_id, title) VALUES (?, 9, 'New')", params: []sqldb.Value{sqldb.Int(12)},
			reads: []string{"pages/editor=i12", "pages/title=tNew"}},
		{name: "INSERT without a column list", src: "INSERT INTO pages VALUES (9, ?, 12, 'x')", params: []sqldb.Value{sqldb.Text("New")},
			reads: []string{"pages/editor=i12", "pages/title=tNew"}},
		{name: "INSERT binding both partition columns by parameter", src: "INSERT INTO pages (page_id, title, editor, content) VALUES (9, ?, ?, 'x')",
			params: []sqldb.Value{sqldb.Text("New"), sqldb.Int(13)},
			reads:  []string{"pages/editor=i13", "pages/title=tNew"}},
		{name: "multi-row INSERT", src: "INSERT INTO pages (page_id, title, editor) VALUES (8, 'B', 12), (9, 'A', 12)",
			reads: []string{"pages/editor=i12", "pages/title=tA", "pages/title=tB"}},
		{name: "INSERT missing the first partition column", src: "INSERT INTO pages (page_id, editor) VALUES (9, 12)", noExec: true,
			reads: []string{"pages/*", "pages/editor=i12"}},
		{name: "INSERT of a non-constant first partition column value", src: "INSERT INTO pages (page_id, title, editor) VALUES (9, 'a' || 'b', 12)",
			reads: []string{"pages/*", "pages/editor=i12"}},
		{name: "failed INSERT", src: "INSERT INTO pages (page_id, title, editor) VALUES (1, 'Dup', 12)", fails: true,
			reads: []string{"pages/editor=i12", "pages/title=tDup"}},

		// Operands take the column's declared kind, not their own.
		{name: "text operand on an INTEGER column", src: "SELECT * FROM pages WHERE editor = '10'",
			reads: []string{"pages/editor=i10"}},
		{name: "text parameter on an INTEGER column", src: "SELECT * FROM pages WHERE editor IN (?, 11)", params: []sqldb.Value{sqldb.Text(" 10")},
			reads: []string{"pages/editor=i10", "pages/editor=i11"}},
		{name: "non-numeric text on an INTEGER column", src: "SELECT * FROM pages WHERE editor = 'ten' AND title = 'Main'",
			reads: whole},
		{name: "number on a TEXT column", src: "SELECT * FROM pages WHERE title = 5",
			reads: whole},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := newDB(t)
			seedPages(t, db)
			m, err := db.meta("pages")
			if err != nil {
				t.Fatal(err)
			}
			cs, err := db.Prepare(c.src)
			if err != nil {
				t.Fatal(err)
			}
			_, isInsert := cs.Stmt.(*sqldb.Insert)
			// norm gives an INSERT's partitions as the set its record holds.
			norm := func(ps []Partition) []string {
				if isInsert {
					set := NewPartitionSet()
					set.AddAll(ps)
					ps = set.Slice()
				}
				return partStrings(ps)
			}

			resolved := stateFor(m, cs).fp.resolve(c.params)
			if got := norm(resolved); !reflect.DeepEqual(got, c.reads) {
				t.Errorf("resolved reads = %v, want %v", got, c.reads)
			}
			if c.noExec {
				return
			}

			change := db.raw.ChangeSeq("pages")
			_, rec, err := db.Exec(c.src, c.params...)
			if (err != nil) != c.fails || rec == nil {
				t.Fatalf("Exec: rec %v, err %v (failure expected: %v)", rec, err, c.fails)
			}
			if isInsert && !c.fails && !reflect.DeepEqual(rec.ReadPartitions, rec.WritePartitions) {
				// A successful INSERT read the partitions it wrote.
				t.Errorf("WritePartitions = %v, ReadPartitions = %v", rec.WritePartitions, rec.ReadPartitions)
			}
			if got := partStrings(rec.ReadPartitions); c.reads[0] == "pages/*" && isInsert {
				// An INSERT row the template could not bind lands in a
				// partition the footprint names only as the table.
				if !slices.Contains(resolved, WholeTable("pages")) {
					t.Errorf("resolved reads %v do not cover ReadPartitions %v", resolved, got)
				}
			} else if want := norm(resolved); !reflect.DeepEqual(got, want) {
				t.Errorf("ReadPartitions = %v, want the resolved reads %v", got, want)
			}
			// The table's engine change moves with the rows written, and
			// only with them.
			wrote := !c.fails && rec.Result != nil && rec.Result.Affected > 0
			if moved := db.raw.ChangeSeq("pages") != change; moved != wrote {
				t.Errorf("engine change moved: %v, want %v (%s)", moved, wrote, rec.Kind)
			}
		})
	}
}

// TestFootprintDerivedOncePerHandle: a warm statement walks no
// conjuncts. The template hangs off the handle's state, which only
// deriveFootprint creates, so an unchanged state pointer across 1000
// executions means one derivation. A dropped and re-created table is a
// new *tableMeta: the handle re-derives against the new annotation.
func TestFootprintDerivedOncePerHandle(t *testing.T) {
	db := newDB(t)
	seedPages(t, db)
	const sel = "SELECT content FROM pages WHERE editor = ?"
	const upd = "UPDATE pages SET content = ? WHERE title = ? AND editor = ?"
	mustExec(t, db, sel, sqldb.Int(10))
	mustExec(t, db, upd, sqldb.Text("v"), sqldb.Text("Main"), sqldb.Int(10))
	selCS, _ := db.Prepare(sel)
	updCS, _ := db.Prepare(upd)
	m, err := db.meta("pages")
	if err != nil {
		t.Fatal(err)
	}
	selState, updState := selCS.Aux().(*stmtState), updCS.Aux().(*stmtState)
	selFP, updFP := selState.fp, updState.fp
	for i := 0; i < 1000; i++ {
		_, rec := mustExec(t, db, sel, sqldb.Int(int64(10+i%2)))
		if len(rec.ReadPartitions) != 1 || rec.ReadPartitions[0].Column != "editor" {
			t.Fatalf("read partitions = %v", rec.ReadPartitions)
		}
		mustExec(t, db, upd, sqldb.Text("v"), sqldb.Text("Main"), sqldb.Int(10))
	}
	if selCS.Aux() != any(selState) || selState.fp != selFP || updCS.Aux() != any(updState) || updState.fp != updFP {
		t.Fatal("footprint re-derived for a warm handle")
	}

	// Same handle, same table name, different annotation: editor stops
	// being a partition column.
	parts := stateFor(m, selCS).fp.resolve([]sqldb.Value{sqldb.Int(10)})
	if got := partStrings(parts); !reflect.DeepEqual(got, []string{"pages/editor=i10"}) {
		t.Fatalf("resolved reads under the old annotation = %v", got)
	}
	mustExec(t, db, "DROP TABLE pages")
	if err := db.Annotate("pages", TableSpec{RowIDColumn: "page_id", PartitionColumns: []string{"title"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE pages (page_id INTEGER PRIMARY KEY, title TEXT NOT NULL, editor INTEGER, content TEXT DEFAULT '')")
	seedPages(t, db)
	if m, err = db.meta("pages"); err != nil {
		t.Fatal(err)
	}
	parts = stateFor(m, selCS).fp.resolve([]sqldb.Value{sqldb.Int(10)})
	if got := partStrings(parts); !reflect.DeepEqual(got, []string{"pages/*"}) {
		t.Fatalf("resolved reads under the new annotation = %v (template reused across tables?)", got)
	}
	if selCS.Aux() == any(selState) {
		t.Fatal("handle kept the dropped table's state")
	}
	_, rec := mustExec(t, db, upd, sqldb.Text("v"), sqldb.Text("Main"), sqldb.Int(10))
	if got := partStrings(rec.ReadPartitions); !reflect.DeepEqual(got, []string{"pages/title=tMain"}) {
		t.Fatalf("ReadPartitions under the new annotation = %v", got)
	}
}

// TestPartitionKeysTakeColumnKind: a read that names an INTEGER partition
// by text — as request parameters arrive — records the partition every
// write to those rows records.
func TestPartitionKeysTakeColumnKind(t *testing.T) {
	db := Open(newDB(t).Clock())
	if err := db.Annotate("pages", TableSpec{RowIDColumn: "page_id", PartitionColumns: []string{"editor", "title"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE pages (page_id INTEGER PRIMARY KEY, title TEXT NOT NULL, editor INTEGER, content TEXT DEFAULT '')")
	seedPages(t, db)

	_, w := mustExec(t, db, "UPDATE pages SET content = 'attacked' WHERE page_id = 1")
	for _, c := range []struct {
		src    string
		params []sqldb.Value
	}{
		{"SELECT title FROM pages WHERE editor = 10", nil},
		{"SELECT title FROM pages WHERE editor = '10'", nil},
		{"SELECT title FROM pages WHERE editor = ?", []sqldb.Value{sqldb.Int(10)}},
		{"SELECT title FROM pages WHERE editor = ?", []sqldb.Value{sqldb.Text("10")}},
	} {
		res, rec := mustExec(t, db, c.src, c.params...)
		if res.NumRows() != 2 {
			t.Fatalf("%s %v matched %d rows, want 2", c.src, c.params, res.NumRows())
		}
		if got := partStrings(rec.ReadPartitions); !reflect.DeepEqual(got, []string{"pages/editor=i10"}) {
			t.Errorf("%s %v: ReadPartitions = %v, want [pages/editor=i10]", c.src, c.params, got)
		}
		set := NewPartitionSet()
		set.AddAll(w.WritePartitions)
		if !set.OverlapsAny(rec.ReadPartitions) {
			t.Errorf("%s %v: read %v does not depend on the write %v", c.src, c.params, rec.ReadPartitions, w.WritePartitions)
		}
	}
}
