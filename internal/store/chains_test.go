package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"warp/internal/store/storefs"
)

// spreadChains rewrites a directory's chain-0 WAL segments the way a
// version that sharded its log by table group left them: record i moves
// to chain pick(i), one segment per chain, every frame keeping its LSN
// (which is all recovery's merge reads). The write side of several
// chains is gone; this is what keeps the read side tested.
func spreadChains(t *testing.T, dir string, pick func(i int) int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	firstSeq := int64(0)
	chains := make(map[int][]byte)
	i := 0
	for _, e := range entries { // ReadDir sorts by name: segment order
		var id int
		var seq int64
		if !parseSegName(e.Name(), &id, &seq) {
			continue
		}
		if id != 0 {
			t.Fatalf("spreadChains: %s already holds chain %d", dir, id)
		}
		if firstSeq == 0 {
			firstSeq = seq
		}
		path := filepath.Join(dir, e.Name())
		_, clean, err := readSegment(storefs.OS, path, func(payload []byte) error {
			var hdr [frameHeaderLen]byte
			putFrameHeader(hdr[:], payload)
			id := pick(i)
			i++
			chains[id] = append(append(chains[id], hdr[:]...), payload...)
			return nil
		})
		if err != nil || !clean {
			t.Fatalf("spreadChains: reading %s: clean=%v err=%v", e.Name(), clean, err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	for id, data := range chains {
		if err := os.WriteFile(segName(dir, id, firstSeq), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// walChains lists the chain ids that have segment files in dir.
func walChains(t *testing.T, dir string) map[int]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool)
	for _, e := range entries {
		var id int
		var seq int64
		if parseSegName(e.Name(), &id, &seq) {
			ids[id] = true
		}
	}
	return ids
}

// TestExtraChainTornTailDropsOnlyThatChain: records interleaved over
// two chains, then one chain's tail truncated mid-frame. Recovery must
// keep the other chain's records intact and drop only the truncated
// chain's suffix, reporting TailCorrupt.
func TestExtraChainTornTailDropsOnlyThatChain(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Append(1, []byte(fmt.Sprintf("users-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(2, []byte(fmt.Sprintf("meta-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	spreadChains(t, dir, func(i int) int { return (i + 1) % 2 }) // users -> chain 1

	// Truncate chain 1 mid-frame.
	path := segName(dir, 1, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if !rec.TailCorrupt {
		t.Fatal("truncated chain tail not reported")
	}
	var users, meta int
	for _, r := range rec.Records {
		switch r.Type {
		case 1:
			if want := fmt.Sprintf("users-%02d", users); string(r.Payload) != want {
				t.Fatalf("users record %d = %q, want %q", users, r.Payload, want)
			}
			users++
		case 2:
			if want := fmt.Sprintf("meta-%02d", meta); string(r.Payload) != want {
				t.Fatalf("meta record %d = %q, want %q", meta, r.Payload, want)
			}
			meta++
		}
	}
	if meta != n {
		t.Fatalf("chain 0 lost records: %d/%d — truncation must drop only the damaged chain's suffix", meta, n)
	}
	if users != n-1 {
		t.Fatalf("chain 1 recovered %d records from a tail torn inside its last frame, want %d", users, n-1)
	}
}

// TestManifestMissingDeltaIsError: deleting a checkpoint file the
// manifest references must fail Open loudly instead of recovering a
// partial state.
func TestManifestMissingDeltaIsError(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	checkpointOne(t, s, "base", "base-state")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	removed := false
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var seq int64
		if parseSeqName(e.Name(), "ckpt-", ".sec", &seq) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed = true
		}
	}
	if !removed {
		t.Fatal("no checkpoint file written")
	}
	if _, _, err := Open(dir, testOpts()); err == nil {
		t.Fatal("Open recovered a checkpoint whose delta file is missing")
	}
}

// TestManifestSectionMissingFromDeltaIsError: a manifest naming a
// section its delta file does not contain is corruption, not a partial
// load.
func TestManifestSectionMissingFromDeltaIsError(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	checkpointOne(t, s, "base", "base-state")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the manifest to reference a section that does not exist.
	var seq int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if parseSeqName(e.Name(), "manifest-", ".mf", &seq) {
			m, err := readManifestFile(storefs.OS, filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			m.sections = append(m.sections, manifestSection{name: "ghost", fileSeq: m.sections[0].fileSeq})
			if err := writeManifestFile(storefs.OS, dir, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := Open(dir, testOpts()); err == nil {
		t.Fatal("Open recovered a manifest naming a nonexistent section")
	}
}

// TestExtraChainsMergeThenCheckpointPrunes: a directory holding a
// checkpoint plus WAL tails on three chains (what a version that wrote
// several chains leaves behind) must recover its records merged in LSN
// order, and the next checkpoint must cover the extra chains in its
// manifest so prune leaves only the chain this version writes.
func TestExtraChainsMergeThenCheckpointPrunes(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, testOpts())
	if err := s.Append(1, []byte("covered-by-checkpoint")); err != nil {
		t.Fatal(err)
	}
	checkpointOne(t, s, "state", "base")
	var want []Record
	for i := 0; i < 60; i++ {
		r := Record{Type: byte(i%3 + 1), Payload: []byte(fmt.Sprintf("tail/%02d", i))}
		want = append(want, r)
		if err := s.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pattern := []int{1, 2, 0, 1, 0, 2}
	spreadChains(t, dir, func(i int) int { return pattern[i%len(pattern)] })
	if got := walChains(t, dir); len(got) != 3 {
		t.Fatalf("fixture holds chains %v, want 0, 1 and 2", got)
	}

	s2, rec := mustOpen(t, dir, testOpts())
	if !rec.Manifest || rec.TailCorrupt {
		t.Fatalf("recovery: manifest=%v tailCorrupt=%v", rec.Manifest, rec.TailCorrupt)
	}
	assertRecords(t, rec.Records, want, false)
	for i := 1; i < len(rec.Records); i++ {
		if rec.Records[i].LSN != rec.Records[i-1].LSN+1 {
			t.Fatalf("merged stream not in LSN order at %d: %d after %d", i, rec.Records[i].LSN, rec.Records[i-1].LSN)
		}
	}
	// New appends continue the LSN sequence past every chain's records.
	if err := s2.Append(1, []byte("after-merge")); err != nil {
		t.Fatal(err)
	}
	if got, last := s2.lsn.Load(), rec.Records[len(rec.Records)-1].LSN; got != last+1 {
		t.Fatalf("LSN after reopen = %d, want %d", got, last+1)
	}

	checkpointOne(t, s2, "state", "compacted")
	for _, id := range []int{0, 1, 2} {
		if _, ok := s2.manifest.bounds[id]; !ok {
			t.Fatalf("checkpoint manifest bounds %v do not cover chain %d", s2.manifest.bounds, id)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := walChains(t, dir); len(got) != 1 || !got[0] {
		t.Fatalf("chains %v survive the checkpoint, want only chain 0", got)
	}

	s3, rec3 := mustOpen(t, dir, testOpts())
	defer s3.Close()
	if !rec3.Manifest || rec3.TailCorrupt || len(rec3.Records) != 0 {
		t.Fatalf("post-compaction recovery: manifest=%v tailCorrupt=%v records=%d", rec3.Manifest, rec3.TailCorrupt, len(rec3.Records))
	}
	dec, err := rec3.ReadSection("state")
	if err != nil {
		t.Fatal(err)
	}
	if v := dec.String(); v != "compacted" {
		t.Fatalf("section payload = %q", v)
	}
}
