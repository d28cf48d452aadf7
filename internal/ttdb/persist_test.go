package ttdb

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/vclock"
)

// collectObserver records emitted events for replay.
type collectObserver struct {
	records []*Record
	specs   []struct {
		table string
		spec  TableSpec
	}
}

func (c *collectObserver) RecordApplied(rec *Record) { c.records = append(c.records, rec) }
func (c *collectObserver) TableAnnotated(table string, spec TableSpec) {
	c.specs = append(c.specs, struct {
		table string
		spec  TableSpec
	}{table, spec})
}
func (c *collectObserver) Collected(int64) {}

// dump renders every physical row of every table, deterministically.
func dump(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%d\n", db.CurrentGen())
	for _, table := range db.Tables() {
		m, err := db.meta(table)
		if err != nil {
			t.Fatal(err)
		}
		m.mu.Lock()
		res, err := db.raw.ExecCached(sqldb.NewCachedStmt(m.physicalSelect(nil)), nil)
		nextRowID := m.nextRowID
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "table %s nextRowID=%d cols=%v\n", table, nextRowID, res.Columns)
		rows := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			rows = append(rows, fmt.Sprint(row))
		}
		for _, r := range rows {
			fmt.Fprintln(&b, r)
		}
	}
	return b.String()
}

func seedDB(t *testing.T, obs Observer) *DB {
	t.Helper()
	db := Open(&vclock.Clock{})
	if obs != nil {
		db.SetObserver(obs)
	}
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Annotate("tags", TableSpec{}); err != nil { // synthetic row IDs
		t.Fatal(err)
	}
	mustExec := func(sql string, params ...sqldb.Value) {
		t.Helper()
		if _, _, err := db.Exec(sql, params...); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)")
	mustExec("CREATE TABLE tags (name TEXT, note_id INTEGER)")
	for i := 1; i <= 5; i++ {
		mustExec("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("u%d", i%2)), sqldb.Text(fmt.Sprintf("note %d", i)))
		mustExec("INSERT INTO tags (name, note_id) VALUES (?, ?)",
			sqldb.Text(fmt.Sprintf("tag%d", i)), sqldb.Int(int64(i)))
	}
	mustExec("UPDATE notes SET body = 'edited' WHERE id = 2")
	mustExec("DELETE FROM tags WHERE note_id = 3")
	return db
}

// snapshot is a database's checkpoint sections, in the order core's
// checkpointer writes and its recovery reads them: the metadata, every
// table's header, then every table's row shards.
type snapshot struct {
	meta    []byte
	headers [][]byte
	shards  [][]byte
}

func takeSnapshot(t *testing.T, db *DB) snapshot {
	t.Helper()
	enc := store.NewEncoder()
	db.EncodeMeta(enc)
	snap := snapshot{meta: enc.Bytes()}
	for _, table := range db.Tables() {
		enc := store.NewEncoder()
		if err := db.EncodeTableHeader(enc, table); err != nil {
			t.Fatal(err)
		}
		snap.headers = append(snap.headers, enc.Bytes())
		all := make([]int, db.ShardCount(table))
		encs := make([]*store.Encoder, len(all))
		for s := range all {
			all[s], encs[s] = s, store.NewEncoder()
		}
		if err := db.EncodeTableShards(table, all, func(s int) *store.Encoder { return encs[s] }); err != nil {
			t.Fatal(err)
		}
		for _, enc := range encs {
			snap.shards = append(snap.shards, enc.Bytes())
		}
	}
	return snap
}

// restore opens a fresh database from the snapshot, on a clock caught up
// with the original's.
func (snap snapshot) restore(t *testing.T, now int64) *DB {
	t.Helper()
	clock := &vclock.Clock{}
	clock.AdvanceTo(now)
	db := Open(clock)
	if err := db.RestoreMeta(store.NewDecoder(snap.meta)); err != nil {
		t.Fatal(err)
	}
	for _, sec := range snap.headers {
		if _, err := db.RestoreTableHeader(store.NewDecoder(sec)); err != nil {
			t.Fatal(err)
		}
	}
	for _, sec := range snap.shards {
		dec := store.NewDecoder(sec)
		if err := db.RestoreTableShard(dec); err != nil {
			t.Fatal(err)
		}
		if dec.Remaining() != 0 {
			t.Fatalf("restore left %d bytes of a shard section unread", dec.Remaining())
		}
	}
	if err := db.VerifyRestored(); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSnapshotRoundtrip(t *testing.T) {
	db := seedDB(t, nil)
	db2 := takeSnapshot(t, db).restore(t, db.Clock().Now())
	if got, want := dump(t, db2), dump(t, db); got != want {
		t.Fatalf("restored state differs:\n--- restored ---\n%s--- original ---\n%s", got, want)
	}

	// The restored database keeps working: inserts do not reuse row IDs
	// and the partitions answer rollback queries.
	if _, _, err := db2.Exec("INSERT INTO tags (name, note_id) VALUES ('fresh', 9)"); err != nil {
		t.Fatal(err)
	}
	res, _, err := db2.Exec("SELECT COUNT(*) FROM tags")
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsInt() != 5 {
		t.Fatalf("tags count = %d, want 5", res.FirstValue().AsInt())
	}
	rows, err := db2.PartitionRowsSince(Partition{Table: "notes", Column: "owner", Key: sqldb.Text("u0").Key()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("restored partitions list no changed rows")
	}
}

// TestRestoreSkipsVersion2IndexEntries: a stateVersion-2 binary ended
// every table section with its per-partition event index. This version
// writes that list empty and reads the row versions instead, so a
// section written at version 2 restores to exactly what a never-restarted
// database holds, whatever its entries said.
func TestRestoreSkipsVersion2IndexEntries(t *testing.T) {
	db := seedDB(t, nil)
	snap := takeSnapshot(t, db)
	// Re-encode every section's tail as version 2 laid it out, with
	// entries — among them a row that never existed, which an index
	// restored from them would go on to list.
	withEntries := func(sec []byte, col, key string) []byte {
		if sec[len(sec)-1] != 0 {
			t.Fatalf("section does not end with an empty entry list: % x", sec[len(sec)-4:])
		}
		enc := store.NewEncoder()
		enc.Uvarint(1) // partitions
		enc.String(col)
		enc.String(key)
		enc.Uvarint(2) // entries: row ID, event time
		EncodeValue(enc, sqldb.Int(2))
		enc.Int(db.Clock().Now())
		EncodeValue(enc, sqldb.Int(999))
		enc.Int(db.Clock().Now())
		return append(sec[:len(sec)-1:len(sec)-1], enc.Bytes()...)
	}
	for i := range snap.headers { // cross-shard partitions lived in the header
		snap.headers[i] = withEntries(snap.headers[i], "", "")
	}
	// Every other shard stays as this version wrote it: a checkpoint
	// carries clean sections forward, so one manifest can hold both kinds.
	for i := 0; i < len(snap.shards); i += 2 {
		snap.shards[i] = withEntries(snap.shards[i], "owner", sqldb.Text("u0").Key())
	}
	snap.meta[0] = 2
	db2 := snap.restore(t, db.Clock().Now())
	if got, want := dump(t, db2), dump(t, db); got != want {
		t.Fatalf("restored state differs:\n--- restored ---\n%s--- original ---\n%s", got, want)
	}
	for _, table := range db.Tables() {
		if got, want := db2.Raw().IndexedColumns(table), db.Raw().IndexedColumns(table); !slices.Equal(got, want) {
			t.Errorf("%s: restored indexes %v, want %v", table, got, want)
		}
	}
	for _, p := range []Partition{WholeTable("notes"), WholeTable("tags"),
		{Table: "notes", Column: "owner", Key: sqldb.Text("u0").Key()},
		{Table: "notes", Column: "owner", Key: sqldb.Text("u1").Key()}} {
		for _, since := range []int64{0, db.Clock().Now() - 2*vclock.Stride, db.Clock().Now() + 1} {
			got, err := db2.PartitionRowsSince(p, since)
			want, err2 := db.PartitionRowsSince(p, since)
			if err != nil || err2 != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("rows of %v since %d: restored %v (%v), never restarted %v (%v)", p, since, got, err, want, err2)
			}
		}
	}
}

// TestRestoreMetaVersions: versions 2 and 3 share a layout and both open;
// version 1 (unsharded tables) is still refused rather than misread.
func TestRestoreMetaVersions(t *testing.T) {
	enc := store.NewEncoder()
	seedDB(t, nil).EncodeMeta(enc)
	meta := enc.Bytes()
	if meta[0] != 3 {
		t.Fatalf("EncodeMeta writes state version %d, want 3", meta[0])
	}
	for v, ok := range map[byte]bool{1: false, 2: true, 3: true, 4: false} {
		meta[0] = v
		err := Open(&vclock.Clock{}).RestoreMeta(store.NewDecoder(meta))
		if (err == nil) != ok {
			t.Errorf("RestoreMeta of state version %d: %v", v, err)
		}
	}
}

func TestRecordReplayRebuildsState(t *testing.T) {
	obs := &collectObserver{}
	db := seedDB(t, obs)

	clock := &vclock.Clock{}
	db2 := Open(clock)
	for _, s := range obs.specs {
		if err := db2.Annotate(s.table, s.spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range obs.records {
		if err := db2.Replay(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dump(t, db2), dump(t, db); got != want {
		t.Fatalf("replayed state differs:\n--- replayed ---\n%s--- original ---\n%s", got, want)
	}
	if clock.Now() < db.Clock().Now()-vclock.Stride {
		t.Fatalf("replay left the clock behind: %d vs %d", clock.Now(), db.Clock().Now())
	}
}

func TestRecordCodecRoundtrip(t *testing.T) {
	obs := &collectObserver{}
	seedDB(t, obs)
	render := func(r *Record) string {
		result := "<nil>"
		if r.Result != nil {
			result = fmt.Sprintf("%+v", *r.Result)
		}
		return fmt.Sprintf("%q %v %d %d %s %s %v %v %v %s %s",
			r.SQL, r.Params, r.Time, r.Gen, r.Table, r.Kind,
			r.ReadPartitions, r.WritePartitions, r.WriteRowIDs, result, r.ErrText)
	}
	for _, rec := range obs.records {
		enc := store.NewEncoder()
		EncodeRecord(enc, rec)
		got := DecodeRecord(store.NewDecoder(enc.Bytes()))
		if render(got) != render(rec) {
			t.Fatalf("record roundtrip mismatch:\n got %s\nwant %s", render(got), render(rec))
		}
		if got.Outcome() != rec.Outcome() {
			t.Fatal("outcome fingerprint changed across codec")
		}
	}
}

func TestAnnotateIdempotentAfterCreate(t *testing.T) {
	db := Open(&vclock.Clock{})
	spec := TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}
	if err := db.Annotate("notes", spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT)"); err != nil {
		t.Fatal(err)
	}
	// Setup code re-running against a recovered deployment re-annotates
	// identically: a no-op, not an error.
	if err := db.Annotate("notes", spec); err != nil {
		t.Fatalf("identical re-annotation: %v", err)
	}
	if err := db.Annotate("notes", TableSpec{RowIDColumn: "owner"}); err == nil {
		t.Fatal("conflicting re-annotation must fail")
	}
}
