package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"warp/internal/store/storefs"
)

func testOpts() Options {
	return Options{SyncEveryAppend: true, GroupWindow: time.Millisecond}
}

func mustOpen(t *testing.T, dir string, opts Options) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

// checkpointOne writes a one-section checkpoint, the smallest full cut.
func checkpointOne(t *testing.T, s *Store, name, payload string) {
	t.Helper()
	err := s.WriteCheckpoint(func(cw *CheckpointWriter) error {
		cw.Section(name).String(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
}

func TestCodecRoundtrip(t *testing.T) {
	enc := NewEncoder()
	enc.Int(-42)
	enc.Int(1 << 50)
	enc.Uvarint(0)
	enc.Uvarint(1234567890123)
	enc.String("hello")
	enc.String("")
	enc.Bool(true)
	enc.Bool(false)
	enc.Byte(0xfe)

	dec := NewDecoder(enc.Bytes())
	if v := dec.Int(); v != -42 {
		t.Fatalf("Int = %d", v)
	}
	if v := dec.Int(); v != 1<<50 {
		t.Fatalf("Int = %d", v)
	}
	if v := dec.Uvarint(); v != 0 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := dec.Uvarint(); v != 1234567890123 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := dec.String(); v != "hello" {
		t.Fatalf("String = %q", v)
	}
	if v := dec.String(); v != "" {
		t.Fatalf("String = %q", v)
	}
	if !dec.Bool() || dec.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := dec.Byte(); v != 0xfe {
		t.Fatalf("Byte = %x", v)
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if dec.Remaining() != 0 {
		t.Fatalf("Remaining = %d", dec.Remaining())
	}
	// Reading past the end is a sticky error, not a panic.
	dec.Int()
	if dec.Err() == nil {
		t.Fatal("want error after reading past end")
	}
}

func TestStreamEncoderSpills(t *testing.T) {
	var chunks [][]byte
	enc := newStreamEncoder(16, func(b []byte) error {
		chunks = append(chunks, append([]byte{}, b...))
		return nil
	})
	for i := 0; i < 100; i++ {
		enc.Int(int64(i * 7919))
		enc.String("some payload data")
	}
	enc.flush()
	if err := enc.spillErr(); err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 10 {
		t.Fatalf("expected many spilled chunks, got %d", len(chunks))
	}
	// Reassembled, the stream must decode exactly.
	var all []byte
	for _, c := range chunks {
		all = append(all, c...)
	}
	dec := NewDecoder(all)
	for i := 0; i < 100; i++ {
		if v := dec.Int(); v != int64(i*7919) {
			t.Fatalf("Int %d = %d", i, v)
		}
		if v := dec.String(); v != "some payload data" {
			t.Fatalf("String %d = %q", i, v)
		}
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir, testOpts())
	if rec.Manifest || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	var want []Record
	for i := 0; i < 100; i++ {
		r := Record{Type: byte(i%7 + 1), Payload: []byte(fmt.Sprintf("record-%d", i))}
		want = append(want, r)
		if err := s.Append(r.Type, r.Payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if rec2.TailCorrupt {
		t.Fatal("clean close reported corrupt tail")
	}
	assertRecords(t, rec2.Records, want, false)
}

func assertRecords(t *testing.T, got, want []Record, prefixOK bool) {
	t.Helper()
	if prefixOK {
		if len(got) > len(want) {
			t.Fatalf("recovered %d records, more than the %d written", len(got), len(want))
		}
	} else if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Type != want[i].Type || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d: got type=%d payload=%q, want type=%d payload=%q",
				i, r.Type, r.Payload, want[i].Type, want[i].Payload)
		}
	}
}

func TestCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	for i := 0; i < 10; i++ {
		if err := s.Append(1, []byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	checkpointOne(t, s, "state", "snapshot-state")
	var tail []Record
	for i := 0; i < 5; i++ {
		r := Record{Type: 2, Payload: []byte(fmt.Sprintf("post-%d", i))}
		tail = append(tail, r)
		if err := s.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if !rec.Manifest {
		t.Fatal("no checkpoint recovered")
	}
	dec, err := rec.ReadSection("state")
	if err != nil {
		t.Fatal(err)
	}
	if v := dec.String(); v != "snapshot-state" {
		t.Fatalf("section payload = %q", v)
	}
	assertRecords(t, rec.Records, tail, false)

	// The pre-checkpoint segment was pruned.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var seq int64
		var id int
		if parseSegName(e.Name(), &id, &seq) {
			data, _ := os.ReadFile(filepath.Join(dir, e.Name()))
			if bytes.Contains(data, []byte("pre-0")) {
				t.Fatalf("pre-checkpoint records survive in %s", e.Name())
			}
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 256 // force many segments
	s, _ := mustOpen(t, dir, opts)
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{Type: 1, Payload: []byte(fmt.Sprintf("rotated-record-%03d", i))}
		want = append(want, r)
		if err := s.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := 0
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var seq int64
		var id int
		if parseSegName(e.Name(), &id, &seq) {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected multiple segments, got %d", segs)
	}
	s2, rec := mustOpen(t, dir, opts)
	defer s2.Close()
	assertRecords(t, rec.Records, want, false)
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := s.Append(1, []byte(fmt.Sprintf("w%d-%d", g, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if len(rec.Records) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*per)
	}
	// Per-writer order must be preserved, and the merged stream must be
	// in strictly increasing LSN order.
	next := make(map[int]int)
	prevLSN := int64(0)
	for _, r := range rec.Records {
		if r.LSN <= prevLSN {
			t.Fatalf("record LSN %d not increasing after %d", r.LSN, prevLSN)
		}
		prevLSN = r.LSN
		var g, i int
		if _, err := fmt.Sscanf(string(r.Payload), "w%d-%d", &g, &i); err != nil {
			t.Fatalf("bad payload %q", r.Payload)
		}
		if i != next[g] {
			t.Fatalf("writer %d: record %d out of order (want %d)", g, i, next[g])
		}
		next[g]++
	}
}

// TestCrashDropsOnlyUnsyncedTail: whatever a crash loses is a suffix.
// The recovered records are a gap-free LSN prefix of what was appended,
// holding at least everything appended before the last Sync, and
// nothing appended after the crash. The second input is the one-file
// form of "a history action never outlives the table records it
// describes": small table records each followed by the large action
// describing them, the only fsyncs being the rotations SegmentBytes
// forces, a crash after every append.
func TestCrashDropsOnlyUnsyncedTail(t *testing.T) {
	// Both inputs set GroupWindow to an hour: no background sync interferes.
	run := func(t *testing.T, opts Options, recs []string, syncAfter, crashAfter int) []Record {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir, opts)
		for i, r := range recs[:crashAfter] {
			if err := s.Append(1, []byte(r)); err != nil {
				t.Fatal(err)
			}
			if i+1 == syncAfter {
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Crash()
		if err := s.Append(1, []byte("after-crash")); err != ErrCrashed {
			t.Fatalf("Append after crash: %v", err)
		}
		s2, rec := mustOpen(t, dir, opts)
		defer s2.Close()
		if len(rec.Records) < syncAfter || len(rec.Records) > crashAfter {
			t.Fatalf("recovered %d records: %d were synced, %d appended", len(rec.Records), syncAfter, crashAfter)
		}
		for i, r := range rec.Records {
			if string(r.Payload) != recs[i] || r.LSN != int64(i+1) {
				t.Fatalf("record %d = LSN %d %q, want LSN %d %q: not a gap-free prefix", i, r.LSN, r.Payload, i+1, recs[i])
			}
		}
		return rec.Records
	}

	t.Run("synced then buffered", func(t *testing.T) {
		var recs []string
		for i := 0; i < 10; i++ {
			recs = append(recs, fmt.Sprintf("synced-%d", i))
		}
		for i := 0; i < 10; i++ {
			recs = append(recs, fmt.Sprintf("buffered-%d", i))
		}
		run(t, Options{GroupWindow: time.Hour}, recs, 10, len(recs))
	})

	t.Run("action after its table records across rotations", func(t *testing.T) {
		var recs []string
		pad := strings.Repeat("x", 120)
		for i := 0; i < 30; i++ {
			recs = append(recs, fmt.Sprintf("data-%03d", i), fmt.Sprintf("meta-%03d/%s", i, pad))
		}
		opts := Options{GroupWindow: time.Hour, SegmentBytes: 512}
		durable := 0
		for k := 1; k <= len(recs); k++ {
			durable = len(run(t, opts, recs, 0, k))
		}
		if durable == 0 {
			t.Fatal("nothing became durable; rotations never fired and the input exercised nothing")
		}
	})
}

// TestCorruptionProperty is the WAL fuzz/property test of the recovery
// contract: for a WAL mutated by truncation or a random bit flip at an
// arbitrary offset, recovery either yields a byte-exact prefix of the
// original record stream or fails loudly — never a record that was not
// written.
func TestCorruptionProperty(t *testing.T) {
	base := t.TempDir()
	orig := filepath.Join(base, "orig")
	s, _ := mustOpen(t, orig, testOpts())
	rng := rand.New(rand.NewSource(7))
	var want []Record
	for i := 0; i < 60; i++ {
		payload := make([]byte, rng.Intn(200)+1)
		rng.Read(payload)
		r := Record{Type: byte(rng.Intn(8) + 1), Payload: payload}
		want = append(want, r)
		if err := s.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walFile := ""
	entries, _ := os.ReadDir(orig)
	for _, e := range entries {
		var seq int64
		var id int
		if parseSegName(e.Name(), &id, &seq) {
			info, _ := e.Info()
			if info.Size() > 0 {
				walFile = e.Name()
			}
		}
	}
	if walFile == "" {
		t.Fatal("no WAL segment written")
	}

	for trial := 0; trial < 200; trial++ {
		dir := filepath.Join(base, fmt.Sprintf("trial-%d", trial))
		copyDir(t, orig, dir)
		path := filepath.Join(dir, walFile)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bitFlip := trial%2 == 1
		if bitFlip {
			i := rng.Intn(len(data))
			data[i] ^= 1 << rng.Intn(8)
		} else {
			data = data[:rng.Intn(len(data))] // truncate
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		s2, rec, err := Open(dir, testOpts())
		if err != nil {
			continue // refusing to load is an allowed outcome
		}
		assertRecords(t, rec.Records, want, true)
		// A bit flip always damages exactly one frame, so it must be
		// detected: checksum-reported corruption, never silence. A
		// truncation at an exact frame boundary is indistinguishable
		// from a shorter clean log and may legitimately pass unflagged —
		// the recovered state is still a consistent prefix.
		if bitFlip && !rec.TailCorrupt {
			t.Fatalf("trial %d: bit flip not reported (recovered %d/%d records)",
				trial, len(rec.Records), len(want))
		}
		s2.Close()
	}
}

// TestTornTailNeutralized: a torn tail must not poison the chain. After
// recovering past a torn last segment, records fsynced by the new
// instance must survive a second recovery — the torn segment is
// truncated to its valid prefix so later segments stay reachable.
func TestTornTailNeutralized(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	s, _ := mustOpen(t, dir, opts)
	for i := 0; i < 5; i++ {
		if err := s.Append(1, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-frame.
	path := segName(dir, 0, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := mustOpen(t, dir, opts)
	if !rec.TailCorrupt || len(rec.Records) != 4 {
		t.Fatalf("first recovery: corrupt=%v records=%d, want prefix of 4", rec.TailCorrupt, len(rec.Records))
	}
	if err := s2.Append(1, []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, rec3 := mustOpen(t, dir, opts)
	defer s3.Close()
	if rec3.TailCorrupt {
		t.Fatal("second recovery still reports the neutralized torn tail")
	}
	got := make([]string, 0, len(rec3.Records))
	for _, r := range rec3.Records {
		got = append(got, string(r.Payload))
	}
	want := []string{"old-0", "old-1", "old-2", "old-3", "post-recovery"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second recovery lost acknowledged records: %v, want %v", got, want)
	}
}

// TestSnapshotCorruption: a corrupt checkpoint must never load. With no
// older checkpoint Open fails; records appended after the corrupt
// checkpoint must not replay over an older base.
func TestSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	if err := s.Append(1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	checkpointOne(t, s, "state", "state-payload")
	if err := s.Append(1, []byte("post")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the checkpoint file's payload.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var seq int64
		if parseSeqName(e.Name(), "ckpt-", ".sec", &seq) {
			path := filepath.Join(dir, e.Name())
			data, _ := os.ReadFile(path)
			data[len(data)-1] ^= 0xff
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := Open(dir, testOpts()); err == nil {
		t.Fatal("Open loaded a corrupt checkpoint")
	}
}

// TestLegacyLayoutRefused: a data directory in the first on-disk
// format must refuse to open rather than silently start empty.
func TestLegacyLayoutRefused(t *testing.T) {
	for _, name := range []string{"wal-00000001.log", "snap-00000001.snap"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("legacy"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, testOpts()); err == nil {
			t.Fatalf("Open ignored legacy file %s and started empty", name)
		}
	}
}

// TestFileNamesParsedStrictly: a directory is outside input. Only
// exactly eight (and, for the chain id, two) ASCII digits name a
// segment, manifest or checkpoint file; a name a lenient number parser
// would accept (sign, space, 0x, _) is a foreign file, and neither
// refuses the open nor moves a sequence counter.
func TestFileNamesParsedStrictly(t *testing.T) {
	var id int
	var seq int64
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"wal-00-00000003.log", true},
		{"wal-07-12345678.log", true},
		{"wal-00-+0000003.log", false},
		{"wal-00- 0000003.log", false},
		{"wal-00--0000003.log", false},
		{"wal-00-0x000003.log", false},
		{"wal-00-3_000000.log", false},
		{"wal-+0-00000003.log", false},
		{"wal--1-00000003.log", false},
		{"wal-0x-00000003.log", false},
		{"wal-00-0000003.log", false},
		{"wal-00-000000003.log", false},
		{"wal-00-00000003.log.quarantine", false},
	} {
		if got := parseSegName(c.name, &id, &seq); got != c.ok {
			t.Errorf("parseSegName(%q) = %v, want %v", c.name, got, c.ok)
		}
	}
	if !parseSegName("wal-07-12345678.log", &id, &seq) || id != 7 || seq != 12345678 {
		t.Errorf("parseSegName(wal-07-12345678.log) = chain %d seq %d", id, seq)
	}
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"manifest-00000012.mf", true},
		{"manifest-0x000001.mf", false},
		{"manifest-+0000001.mf", false},
		{"manifest- 0000001.mf", false},
		{"manifest-1_000000.mf", false},
		{"manifest-0000001.mf", false},
	} {
		if got := parseSeqName(c.name, "manifest-", ".mf", &seq); got != c.ok {
			t.Errorf("parseSeqName(%q) = %v, want %v", c.name, got, c.ok)
		}
	}

	// Real segments 1 and 2, then strays beside them.
	dir := t.TempDir()
	var want []Record
	for i := 0; i < 2; i++ {
		s, _ := mustOpen(t, dir, testOpts())
		r := Record{Type: 1, Payload: []byte(fmt.Sprintf("kept-%d", i))}
		want = append(want, r)
		if err := s.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	strays := []string{"wal-00-+0000003.log", "wal--1-00000001.log", "manifest-0x000001.mf", "ckpt-1_000000.sec"}
	for _, name := range strays {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stray"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, rec := mustOpen(t, dir, testOpts())
	defer s.Close()
	if rec.Manifest || rec.TailCorrupt {
		t.Fatalf("strays changed recovery: manifest=%v tailCorrupt=%v", rec.Manifest, rec.TailCorrupt)
	}
	assertRecords(t, rec.Records, want, false)
	if got := s.log.activeSeq(); got != 3 {
		t.Fatalf("active segment %d, want 3", got)
	}
	checkpointOne(t, s, "state", "payload")
	if got := s.LastCheckpoint().Seq; got != 1 {
		t.Fatalf("first checkpoint has seq %d: a stray name moved the counter", got)
	}
	for _, name := range strays {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("foreign file %s was not left alone: %v", name, err)
		}
	}
}

// TestWALBytesTrackedWithSignalDisabled: SnapshotBytes < 0 disables the
// NeedSnapshot signal, not the byte accounting.
func TestWALBytesTrackedWithSignalDisabled(t *testing.T) {
	opts := testOpts()
	opts.SnapshotBytes = -1
	s, _ := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	if err := s.Append(1, []byte("counted")); err != nil {
		t.Fatal(err)
	}
	if got := s.WALBytesSinceSnapshot(); got == 0 {
		t.Fatal("WALBytesSinceSnapshot stuck at 0 with the snapshot signal disabled")
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzWALSegment feeds arbitrary bytes through the segment reader: it
// must never panic and never hand back a frame whose checksum does not
// match.
func FuzzWALSegment(f *testing.F) {
	enc := NewEncoder()
	enc.String("seed")
	valid := func(records ...[]byte) []byte {
		var buf bytes.Buffer
		for _, r := range records {
			dir := f.TempDir()
			path := filepath.Join(dir, "seg")
			w, err := openSegment(storefs.OS, path, retryPolicy{attempts: 1, backoff: time.Millisecond})
			if err != nil {
				f.Fatal(err)
			}
			w.append(1, r[0], r[1:])
			if err := w.close(); err != nil {
				f.Fatal(err)
			}
			data, _ := os.ReadFile(path)
			buf.Write(data)
		}
		return buf.Bytes()
	}
	f.Add(valid([]byte{1, 2, 3}, []byte("hello")))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		_, _, _ = readSegment(storefs.OS, path, func(payload []byte) error {
			if len(payload) < 1 {
				t.Fatal("reader surfaced an empty frame")
			}
			return nil
		})
	})
}
