package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// The incremental-checkpoint suite: dirty-table tracking must make
// checkpoint cost proportional to the write set, and the layered
// recovery — manifest + base + deltas + WAL tail — must stay
// bit-identical to a never-crashed oracle.

// openMultiTable builds a durable deployment with n annotated tables of
// rowsEach rows, checkpointed once as the base.
func openMultiTable(t *testing.T, dir string, n, rowsEach int, dur store.Options) *Warp {
	t.Helper()
	w, err := Open(dir, Config{Seed: 7, RepairWorkers: 1, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		table := fmt.Sprintf("t%d", i)
		if err := w.DB.Annotate(table, ttdb.TableSpec{RowIDColumn: "id"}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.DB.Exec(fmt.Sprintf(
			"CREATE TABLE IF NOT EXISTS %s (id INTEGER PRIMARY KEY, body TEXT)", table)); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rowsEach; r++ {
			if _, _, err := w.DB.Exec(fmt.Sprintf("INSERT INTO %s (id, body) VALUES (?, ?)", table),
				sqldb.Int(int64(r+1)), sqldb.Text(fmt.Sprintf("row-%d", r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return w
}

// writtenTables returns the distinct tables whose header or row-shard
// sections the checkpoint rewrote.
func writtenTables(st store.CheckpointStats) []string {
	seen := make(map[string]bool)
	var out []string
	for _, name := range st.Written {
		if !strings.HasPrefix(name, secTablePrefix) {
			continue
		}
		table := strings.TrimPrefix(name, secTablePrefix)
		if i := strings.Index(table, secShardInfix); i >= 0 {
			table = table[:i]
		}
		if !seen[table] {
			seen[table] = true
			out = append(out, table)
		}
	}
	sort.Strings(out)
	return out
}

// writtenSections returns the checkpoint's rewritten section names.
func writtenSections(st store.CheckpointStats) map[string]bool {
	out := make(map[string]bool, len(st.Written))
	for _, name := range st.Written {
		out[name] = true
	}
	return out
}

// TestIncrementalCheckpointWritesOnlyDirtyTables is the acceptance
// property of the tentpole: after touching k of n tables, the next
// checkpoint's delta file contains exactly the k dirty table sections,
// every other table rides along by manifest reference, and recovery of
// the layered state is bit-identical.
func TestIncrementalCheckpointWritesOnlyDirtyTables(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{SyncEveryAppend: true, CompactEvery: 100}
	w := openMultiTable(t, dir, 6, 20, dur)

	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := w.LastCheckpoint()
	if !base.Full {
		t.Fatalf("first checkpoint must be full: %+v", base)
	}
	if got := writtenTables(base); len(got) != 6 {
		t.Fatalf("base checkpoint wrote table sections %v, want all 6", got)
	}

	// Touch 2 of the 6 tables.
	for _, table := range []string{"t1", "t4"} {
		if _, _, err := w.DB.Exec(fmt.Sprintf("UPDATE %s SET body = 'touched' WHERE id = 1", table)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := w.LastCheckpoint()
	if st.Full {
		t.Fatal("second checkpoint should be incremental")
	}
	if got := fmt.Sprint(writtenTables(st)); got != "[t1 t4]" {
		t.Fatalf("incremental checkpoint rewrote tables %s, want exactly the 2 dirty ones", got)
	}
	for _, name := range st.Kept {
		if strings.HasPrefix(name, secTablePrefix+"t1") || strings.HasPrefix(name, secTablePrefix+"t4") {
			t.Fatalf("dirty section %s was carried forward instead of rewritten", name)
		}
	}

	// A checkpoint with nothing dirty keeps every table.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := writtenTables(w.LastCheckpoint()); len(got) != 0 {
		t.Fatalf("clean checkpoint rewrote tables %v", got)
	}

	// The layered state (base file + delta + empty tails) recovers
	// bit-identically.
	want := dumpWarp(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Config{Seed: 7, RepairWorkers: 1, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Crash()
	if !w2.Recovery().FromSnapshot {
		t.Fatal("reopen did not load the checkpoint")
	}
	if got := dumpWarp(t, w2); got != want {
		t.Fatalf("layered recovery differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCheckpointCostTracksDirtySet complements the benchmark: with one
// table touched, the delta file must stay far smaller than a full
// checkpoint of the same database.
func TestCheckpointCostTracksDirtySet(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{CompactEvery: 100}
	w := openMultiTable(t, dir, 8, 200, dur)
	defer w.Crash()

	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	full := w.LastCheckpoint()

	if _, _, err := w.DB.Exec("UPDATE t0 SET body = 'hot' WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	inc := w.LastCheckpoint()
	if inc.Full {
		t.Fatal("expected an incremental checkpoint")
	}
	if inc.Bytes*4 > full.Bytes {
		t.Fatalf("incremental delta is %d bytes vs %d full — not proportional to the dirty set",
			inc.Bytes, full.Bytes)
	}
}

// TestCrashWithIncrementalCheckpointsRecoversExact is TestCrashMidWorkload
// over the full layering: checkpoints interleave with workload steps, so
// every crash point recovers through manifest + base + deltas + WAL
// tail, and must still match the never-crashed oracle bit for bit —
// including the subsequent repair.
func TestCrashWithIncrementalCheckpointsRecoversExact(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	dur := store.Options{SyncEveryAppend: true, CompactEvery: 2}
	w := buildWarpDur(t, live, 1, dur)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	steps := workloadSteps(browsers)
	for i, step := range steps {
		step()
		if i%2 == 1 {
			// Checkpoint between steps: later crash points recover
			// layered state, and CompactEvery=2 makes some of these
			// checkpoints incremental and some full compactions.
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.FlushLogs(); err != nil {
			t.Fatal(err)
		}
		copyDir(t, live, filepath.Join(base, fmt.Sprintf("at-%d", i+1)))
	}
	w.Crash()

	patch := app.Version{Entry: guestbookHandler(true), Note: "sanitize"}
	for k := 1; k <= len(steps); k++ {
		oracle := buildWarp(t, "", 1)
		ob := []*browser.Browser{oracle.NewBrowser(), oracle.NewBrowser(), oracle.NewBrowser()}
		for _, step := range workloadSteps(ob)[:k] {
			step()
		}

		recovered := buildWarpDur(t, filepath.Join(base, fmt.Sprintf("at-%d", k)), 1, dur)
		if k >= 2 && !recovered.Recovery().FromSnapshot {
			t.Fatalf("crash at step %d did not recover through a checkpoint", k)
		}
		assertSameState(t, fmt.Sprintf("layered crash at step %d", k), recovered, oracle)

		if _, err := recovered.RetroPatch("guestbook.php", patch); err != nil {
			t.Fatalf("repair after layered crash at step %d: %v", k, err)
		}
		if _, err := oracle.RetroPatch("guestbook.php", patch); err != nil {
			t.Fatal(err)
		}
		assertSameState(t, fmt.Sprintf("repair after layered crash at step %d", k), recovered, oracle)
		recovered.Crash()
	}
}

// TestCorruptTailFencedByCheckpoint: when recovery stops at a corrupt
// WAL region (here, a damaged early segment making later segments
// unreachable), Open fences the recovered prefix with an immediate
// checkpoint, so records acknowledged after recovery survive the next
// crash instead of being stranded behind the damage.
func TestCorruptTailFencedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{SyncEveryAppend: true, SegmentBytes: 512} // force several segments
	w := buildWarpDur(t, dir, 1, dur)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	for _, step := range workloadSteps(browsers) {
		step()
	}
	w.Crash()

	// Damage the first segment of the log near its end: most of it
	// replays, everything after it is unreachable.
	var segs []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-00-") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) < 3 {
		t.Fatalf("workload produced %d segments; need several", len(segs))
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := buildWarpDur(t, dir, 1, dur)
	if !w2.Recovery().TailCorrupt {
		t.Fatal("damaged segment not reported")
	}
	// The fence checkpoint must have run and pruned the damaged chain.
	if w2.LastCheckpoint().Seq == 0 {
		t.Fatal("no fence checkpoint after corrupt recovery")
	}
	// New acknowledged work on the fenced deployment... (extensionless
	// request path: a fresh browser on a recovered same-seed deployment
	// would collide with recovered client IDs — the seeded-RNG restart
	// issue tracked in ROADMAP — which is not what this test is about)
	if resp := w2.HandleRequest(httpd.NewRequest("GET", "/?author=carol&msg=post-fence")); resp.Status != 200 {
		t.Fatalf("post-fence request failed: %d", resp.Status)
	}
	if err := w2.FlushLogs(); err != nil {
		t.Fatal(err)
	}
	want := dumpWarp(t, w2)
	w2.Crash()

	// ...survives the next crash bit for bit.
	w3 := buildWarpDur(t, dir, 1, dur)
	defer w3.Crash()
	if got := dumpWarp(t, w3); got != want {
		t.Fatalf("post-fence records lost\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPendingIntentSurvivesCheckpoint: a recovered-but-unresumed repair
// intent must ride the checkpoint (which prunes its WAL record) so a
// checkpoint-then-crash sequence does not forget the half-done repair.
func TestPendingIntentSurvivesCheckpoint(t *testing.T) {
	patch := app.Version{Entry: guestbookHandler(true), Note: "sanitize"}
	control := buildWarp(t, "", 1)
	cb := []*browser.Browser{control.NewBrowser(), control.NewBrowser(), control.NewBrowser()}
	for _, step := range workloadSteps(cb) {
		step()
	}
	if _, err := control.RetroPatch("guestbook.php", patch); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{Seed: 1, RepairWorkers: 1, Durability: testDurability()}
	var traced atomic.Int64
	var w *Warp
	cfg.Trace = func(string, ...any) {
		if traced.Add(1) == 4 {
			w.Crash()
		}
	}
	var err error
	w, err = Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	installGuestbook(t, w, false)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	for _, step := range workloadSteps(browsers) {
		step()
	}
	if _, err := w.RetroPatch("guestbook.php", patch); err != nil {
		t.Fatal(err)
	}

	// Recover the pending intent, checkpoint (retiring the intent's WAL
	// record), then crash before resuming.
	mid := buildWarp(t, dir, 1)
	if mid.PendingRepair() == nil {
		t.Fatal("no pending intent recovered")
	}
	if err := mid.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mid.Crash()

	recovered := buildWarp(t, dir, 1)
	defer recovered.Crash()
	it := recovered.PendingRepair()
	if it == nil {
		t.Fatal("pending intent lost across checkpoint + crash")
	}
	if it.Kind != IntentRetroPatch || it.File != "guestbook.php" {
		t.Fatalf("unexpected intent %+v", it)
	}
	if _, err := recovered.ResumeRepair(&patch); err != nil {
		t.Fatalf("ResumeRepair: %v", err)
	}
	assertSameState(t, "resume after checkpointed intent", recovered, control)
}

// spreadWALChains rewrites dir's wal-00-* segments the way a version that
// sharded its log by table group left them: frame i (8-byte header:
// length, CRC) moves to chain i%chains, one segment per chain, each
// frame keeping the LSN it carries.
func spreadWALChains(t *testing.T, dir string, chains int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-00-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to spread in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	out := make([][]byte, chains)
	i := 0
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			n := 8 + int(binary.LittleEndian.Uint32(data))
			out[i%chains] = append(out[i%chains], data[:n]...)
			data = data[n:]
			i++
		}
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}
	suffix := strings.TrimPrefix(filepath.Base(segs[0]), "wal-00")
	for id, data := range out {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%02d%s", id, suffix)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExtraWALChainsOpenAtDeploymentLevel: a directory holding a
// checkpoint plus WAL tails on three chains — what a version that wrote
// several chains leaves behind — must open with the writer's exact
// state, serve, and after its first checkpoint hold only the one chain
// this version writes.
func TestExtraWALChainsOpenAtDeploymentLevel(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{SyncEveryAppend: true}
	w := buildWarpDur(t, dir, 1, dur)
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	steps := workloadSteps(browsers)
	for _, step := range steps[:len(steps)/2] {
		step()
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, step := range steps[len(steps)/2:] {
		step()
	}
	if err := w.FlushLogs(); err != nil {
		t.Fatal(err)
	}
	want := dumpWarp(t, w)
	w.Crash() // Close would checkpoint the tail away
	spreadWALChains(t, dir, 3)

	w2 := buildWarpDur(t, dir, 1, dur)
	if st := w2.Recovery(); !st.FromSnapshot || st.WALRecords == 0 || st.TailCorrupt {
		t.Fatalf("recovery %+v, want a checkpoint plus a clean WAL tail", st)
	}
	if got := dumpWarp(t, w2); got != want {
		t.Fatalf("three-chain directory recovered differently\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if resp := w2.HandleRequest(httpd.NewRequest("GET", "/?author=carol&msg=after-merge")); resp.Status != 200 {
		t.Fatalf("request on the recovered deployment failed: %d", resp.Status)
	}
	if err := w2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if extra, _ := filepath.Glob(filepath.Join(dir, "wal-0[1-9]-*.log")); len(extra) != 0 {
		t.Fatalf("extra chains survive the first checkpoint: %v", extra)
	}
	want = dumpWarp(t, w2)
	w2.Crash()

	w3 := buildWarpDur(t, dir, 1, dur)
	defer w3.Crash()
	if got := dumpWarp(t, w3); got != want {
		t.Fatalf("reopen after the covering checkpoint differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPartitionGranularDirtyTracking is the dirty-tracking half of the
// partition-concurrency tentpole: on a partitioned table, touching one
// partition's row must rewrite that partition's row-shard section (plus
// the small table header), not the whole table, and the layered state
// must still recover bit-identically.
func TestPartitionGranularDirtyTracking(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{SyncEveryAppend: true, CompactEvery: 100}
	w, err := Open(dir, Config{Seed: 9, RepairWorkers: 1, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DB.Annotate("posts", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE IF NOT EXISTS posts (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, _, err := w.DB.Exec("INSERT INTO posts (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(int64(i+1)), sqldb.Text(fmt.Sprintf("u%d", i%16)), sqldb.Text("hello")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shards := w.DB.ShardCount("posts")
	if shards < 2 {
		t.Fatalf("partitioned table has %d shards, want several", shards)
	}

	// Touch exactly one partition.
	if _, _, err := w.DB.Exec("UPDATE posts SET body = 'hot' WHERE owner = 'u3'"); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := w.LastCheckpoint()
	written := writtenSections(st)
	if !written[secTablePrefix+"posts"] {
		t.Fatalf("table header not rewritten; written=%v", st.Written)
	}
	var shardsWritten int
	for k := 0; k < shards; k++ {
		if written[tableShardSection("posts", k)] {
			shardsWritten++
		}
	}
	if shardsWritten != 1 {
		t.Fatalf("hot-partition update rewrote %d of %d row shards, want exactly 1 (written=%v)",
			shardsWritten, shards, st.Written)
	}

	// Bit-identical recovery through header + mixed kept/rewritten shards.
	want := dumpWarp(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Config{Seed: 9, RepairWorkers: 1, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Crash()
	if got := dumpWarp(t, w2); got != want {
		t.Fatalf("sharded recovery differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRepairCommitMarksSubTableSections: a repair that touches one hot
// partition must commit through a checkpoint that rewrites a strict
// subset of the hot table's row shards — the "repair cost scales with
// the damage" property applied to checkpoint bytes.
func TestRepairCommitMarksSubTableSections(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{SyncEveryAppend: true, CompactEvery: 100}
	w, err := Open(dir, Config{Seed: 11, RepairWorkers: 1, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Crash()
	if err := w.DB.Annotate("notes", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE IF NOT EXISTS notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	handler := func(c *app.Ctx) *httpd.Response {
		id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM notes").FirstValue()
		c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			id, sqldb.Text(c.Req.Param("owner")), sqldb.Text(c.Req.Param("body")))
		return httpd.HTML("ok")
	}
	if err := w.Runtime.Register("notes.php", app.Version{Entry: handler}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "notes.php")
	for i := 0; i < 24; i++ {
		resp := w.HandleRequest(httpd.NewRequest("GET",
			fmt.Sprintf("/?owner=u%d&body=b%d", i%8, i)))
		if resp.Status != 200 {
			t.Fatalf("seed failed: %d", resp.Status)
		}
	}
	preAttack := w.Clock.Now()
	if resp := w.HandleRequest(httpd.NewRequest("GET", "/?owner=u3&body=INJECTED")); resp.Status != 200 {
		t.Fatalf("attack seed failed: %d", resp.Status)
	}
	// Clear dirt so the repair's commit checkpoint reflects only repair.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	hot := ttdb.Partition{Table: "notes", Column: "owner", Key: sqldb.Text("u3").Key()}
	if _, err := w.UndoPartition(hot, preAttack+1); err != nil {
		t.Fatal(err)
	}
	st := w.LastCheckpoint()
	written := writtenSections(st)
	shards := w.DB.ShardCount("notes")
	var shardsWritten int
	for k := 0; k < shards; k++ {
		if written[tableShardSection("notes", k)] {
			shardsWritten++
		}
	}
	if shardsWritten == 0 || shardsWritten >= shards {
		t.Fatalf("partition repair rewrote %d of %d row shards, want a strict non-empty subset (written=%v)",
			shardsWritten, shards, st.Written)
	}
}

// TestRepairPurgeKeepsShardOrderAcrossRestart is the regression test for
// slot-based shard positions: a repair commit physically purges rows
// mid-table while rewriting only the repaired partition's shard, so the
// kept shards' row positions must remain valid. With scan-rank positions
// they go stale and the restored table's row order permutes.
func TestRepairPurgeKeepsShardOrderAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{SyncEveryAppend: true, CompactEvery: 100}
	w, err := Open(dir, Config{Seed: 13, RepairWorkers: 1, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DB.Annotate("notes", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE IF NOT EXISTS notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	// Ids come from the request (no whole-table MAX read), so each run
	// touches only its owner's partition and the undo stays contained.
	handler := func(c *app.Ctx) *httpd.Response {
		c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
			sqldb.Int(atoiTest(c.Req.Param("id"))), sqldb.Text(c.Req.Param("owner")), sqldb.Text(c.Req.Param("body")))
		return httpd.HTML("ok")
	}
	if err := w.Runtime.Register("notes.php", app.Version{Entry: handler}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "notes.php")
	nextID := 0
	seed := func(owner, body string) {
		t.Helper()
		nextID++
		if resp := w.HandleRequest(httpd.NewRequest("GET",
			fmt.Sprintf("/?owner=%s&body=%s&id=%d", owner, body, nextID))); resp.Status != 200 {
			t.Fatalf("seed failed: %d", resp.Status)
		}
	}
	for i := 0; i < 24; i++ {
		seed(fmt.Sprintf("u%d", i%8), fmt.Sprintf("pre-%d", i))
	}
	preAttack := w.Clock.Now()
	seed("u3", "INJECTED")
	// Post-attack traffic lands rows *after* the attack row both in the
	// shard the repair will rewrite (owners hash-colliding with u3) and
	// in shards the checkpoint will keep, so stale positions in kept
	// sections would permute the merge.
	shards := w.DB.ShardCount("notes")
	shardOf := func(owner string) int {
		h := fnv.New32a()
		h.Write([]byte(sqldb.Text(owner).Key()))
		return int(h.Sum32() % uint32(shards))
	}
	hotShard := shardOf("u3")
	colliding, others := 0, 0
	for i := 0; colliding < 4 || others < 8; i++ {
		owner := fmt.Sprintf("w%d", i)
		if shardOf(owner) == hotShard {
			if colliding >= 4 {
				continue
			}
			colliding++
		} else {
			if others >= 8 {
				continue
			}
			others++
		}
		seed(owner, fmt.Sprintf("post-%d", i))
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	hot := ttdb.Partition{Table: "notes", Column: "owner", Key: sqldb.Text("u3").Key()}
	if _, err := w.UndoPartition(hot, preAttack+1); err != nil {
		t.Fatal(err)
	}
	// The commit checkpoint must still be sub-table...
	st := w.LastCheckpoint()
	written := writtenSections(st)
	var shardsWritten int
	for k := 0; k < shards; k++ {
		if written[tableShardSection("notes", k)] {
			shardsWritten++
		}
	}
	if shardsWritten == 0 || shardsWritten >= shards {
		t.Fatalf("partition repair rewrote %d of %d shards, want a strict non-empty subset", shardsWritten, shards)
	}

	// ...and the restored state — mixed kept and rewritten shards across
	// the purge — must match the live instance bit for bit.
	want := dumpWarp(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Config{Seed: 13, RepairWorkers: 1, Durability: dur})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Crash()
	if got := dumpWarp(t, w2); got != want {
		t.Fatalf("post-repair restart permuted table state\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func atoiTest(s string) int64 {
	var n int64
	fmt.Sscanf(s, "%d", &n)
	return n
}
