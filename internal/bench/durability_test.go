package bench

import (
	"testing"
	"time"

	"warp/internal/store"
)

// BenchmarkDurableWrite reports the durable hot path against the
// in-memory baseline on the logged write request path: WAL off, WAL
// with the default windowed group commit, and WAL with fsync-awaited
// appends. Compare the ns/op lines for the throughput ratio.
func BenchmarkDurableWrite(b *testing.B) {
	run := func(b *testing.B, dir string, opts store.Options) {
		w, err := DurableDeployment(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Crash()                                  // skip the exit checkpoint; timing only
		if _, err := ServeWrites(w, 32, 1); err != nil { // warm up
			b.Fatal(err)
		}
		b.ResetTimer()
		if _, err := ServeWrites(w, b.N, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("memory", func(b *testing.B) {
		run(b, "", store.Options{})
	})
	b.Run("wal", func(b *testing.B) {
		run(b, b.TempDir(), store.Options{})
	})
	b.Run("wal-sync", func(b *testing.B) {
		run(b, b.TempDir(), store.Options{SyncEveryAppend: true})
	})
}

// TestDurableOverheadBound is the acceptance bar: on the paper's wiki
// workload generator, the durable deployment (default group commit)
// stays within 3x of the in-memory one. The measured line always prints
// so CI logs carry the number; the bound is asserted only without the
// race detector (instrumentation distorts the ratio).
func TestDurableOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("workload measurement in -short mode")
	}
	const users, bound = 8, 3.0
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		mem, dur, err := DurableWorkloadOverhead(users, t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ratio = float64(dur) / float64(mem)
		t.Logf("durable-vs-memory (%d-user wiki workload, attempt %d): memory=%v durable=%v overhead=%.2fx",
			users, attempt+1, mem.Round(time.Millisecond), dur.Round(time.Millisecond), ratio)
		if ratio <= bound {
			break
		}
	}
	if !raceEnabled && ratio > bound {
		t.Fatalf("durable workload is %.2fx the in-memory one; group commit must keep it within %.1fx", ratio, bound)
	}
}

// TestDurableWorkloadRecovers ties the bench path back to correctness:
// the workload the overhead test persists must actually be recoverable.
func TestDurableWorkloadRecovers(t *testing.T) {
	dir := t.TempDir()
	w, err := DurableDeployment(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeWrites(w, 50, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := DurableDeployment(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	res, _, err := w2.DB.Exec("SELECT COUNT(*) FROM posts")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FirstValue().AsInt(); got != 50 {
		t.Fatalf("recovered %d posts, want 50", got)
	}
	// And the recovered deployment still accepts writes with fresh IDs.
	if _, err := ServeWrites(w2, 10, 100); err != nil {
		t.Fatal(err)
	}
	res, _, err = w2.DB.Exec("SELECT COUNT(*) FROM posts")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.FirstValue().AsInt(); got != 60 {
		t.Fatalf("after more writes: %d posts, want 60", got)
	}
}
