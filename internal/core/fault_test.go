package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/store/faultfs"
	"warp/internal/ttdb"
)

// The deployment-level fault suite (ISSUE: storage fault injection).
// The store's own sweep (internal/store/fault_test.go) proves acked
// appends survive; this suite proves the paper system's end-to-end
// contract: whatever I/O operation fails, the deployment either
// absorbs the fault and recovers bit-identical to a never-faulted
// oracle, or lands in degraded read-only mode with every committed
// pre-fault action still readable — never a third outcome.

// faultDurability mirrors testDurability with an injecting filesystem
// and fast retry backoff.
func faultDurability(ffs *faultfs.FS) store.Options {
	return store.Options{
		SyncEveryAppend: true,
		FS:              ffs,
		RetryAttempts:   3,
		RetryBackoff:    time.Microsecond,
	}
}

// sweepInstall is installGuestbook without t.Fatal: under injected
// faults the deployment may legitimately degrade mid-install, and the
// sweep must classify that outcome rather than abort.
func sweepInstall(w *Warp) error {
	if err := w.DB.Annotate("entries", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"author"}}); err != nil {
		return err
	}
	if err := w.Runtime.Register("guestbook.php", app.Version{Entry: guestbookHandler(false), Note: "vulnerable"}); err != nil {
		return err
	}
	w.Runtime.Mount("/", "guestbook.php")
	_, _, err := w.DB.Exec("CREATE TABLE entries (id INTEGER PRIMARY KEY, author TEXT, msg TEXT)")
	return err
}

func runGuestbookWorkload(w *Warp) {
	browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser(), w.NewBrowser()}
	for _, step := range workloadSteps(browsers) {
		step()
	}
}

// sweepOracle runs the never-faulted reference once: its dump is the
// bit-identical target, its rows the committed-prefix reference.
func sweepOracle(t *testing.T) (dump string, rows []string) {
	t.Helper()
	w := buildWarpDur(t, t.TempDir(), 1, testDurability())
	runGuestbookWorkload(w)
	dump = dumpWarp(t, w)
	res, _, err := w.DB.Exec("SELECT author, msg FROM entries ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		rows = append(rows, row[0].AsText()+"|"+row[1].AsText())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("oracle Close: %v", err)
	}
	return dump, rows
}

// countWorkloadOps measures roughly how many I/O operations one full
// run issues, bounding the sweep range.
func countWorkloadOps(t *testing.T) int64 {
	t.Helper()
	probe := faultfs.New(nil)
	cfg := Config{Seed: 1, Durability: faultDurability(probe)}
	w, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("probe Open: %v", err)
	}
	if err := sweepInstall(w); err != nil {
		t.Fatalf("probe install: %v", err)
	}
	runGuestbookWorkload(w)
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("probe Checkpoint: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("probe Close: %v", err)
	}
	return probe.OpCount()
}

// sweepStep picks the sweep sampling density: every op when
// WARP_FAULT_SWEEP=full (the nightly CI job), a capped sample
// otherwise (the PR-gating job).
func sweepStep(t *testing.T, total int64) int64 {
	if os.Getenv("WARP_FAULT_SWEEP") == "full" {
		return 1
	}
	step := total / 24
	if testing.Short() {
		step = total / 8
	}
	if step < 1 {
		step = 1
	}
	t.Logf("sampling every %d of %d ops (WARP_FAULT_SWEEP=full sweeps all)", step, total)
	return step
}

func waitDegraded(t *testing.T, w *Warp) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !w.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("storage faulted but the deployment neither recovered nor degraded — a third outcome")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultSweepTransient injects a single transient I/O failure at
// operation #k for swept k. A lone fault must always be absorbed —
// write retries, fsync poisoning + segment rotation, or the fault-fence
// checkpoint — and the reopened deployment must be bit-identical to the
// never-faulted oracle.
func TestFaultSweepTransient(t *testing.T) {
	total := countWorkloadOps(t)
	want, _ := sweepOracle(t)
	step := sweepStep(t, total)

	for k := int64(1); k <= total; k += step {
		k := k
		t.Run(fmt.Sprintf("op%04d", k), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil)
			ffs.FailOp(k, fmt.Errorf("%w: transient EIO", faultfs.ErrInjected))
			cfg := Config{Seed: 1, Durability: faultDurability(ffs)}
			w, err := Open(dir, cfg)
			if err != nil {
				// The fault hit recovery reads: Open refuses cleanly
				// before acking anything, which is outcome (a) with an
				// empty prefix.
				return
			}
			if err := sweepInstall(w); err != nil {
				t.Fatalf("install under transient fault: %v", err)
			}
			runGuestbookWorkload(w)

			// One checkpoint retry is legitimate (the fault may have been
			// spent inside the first attempt); a second failure is not.
			err = w.Checkpoint()
			if err != nil {
				err = w.Checkpoint()
			}
			if err != nil {
				t.Fatalf("checkpoint after transient fault: %v", err)
			}
			if w.Degraded() {
				t.Fatalf("single transient fault degraded the deployment: %v", w.DegradedCause())
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			w2 := buildWarp(t, dir, 1)
			defer w2.Close()
			if got := dumpWarp(t, w2); got != want {
				t.Fatalf("fault at op %d: recovered state differs from oracle\n--- got ---\n%s--- want ---\n%s", k, got, want)
			}
		})
	}
}

// TestFaultSweepPersistent injects a permanent failure from operation
// #k on — a dying disk — for swept k, and asserts the two-outcome
// invariant: either a checkpoint still succeeds and recovery is
// bit-identical to the oracle, or the deployment lands degraded with
// reads serving, writes/repair refused, and every committed pre-fault
// row recovered on a clean reopen.
func TestFaultSweepPersistent(t *testing.T) {
	total := countWorkloadOps(t)
	want, oracleRows := sweepOracle(t)
	step := sweepStep(t, total)

	for k := int64(1); k <= total; k += step {
		k := k
		t.Run(fmt.Sprintf("op%04d", k), func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.New(nil)
			ffs.FailFrom(k, fmt.Errorf("%w: dying disk", faultfs.ErrInjected))
			cfg := Config{Seed: 1, Durability: faultDurability(ffs)}
			w, err := Open(dir, cfg)
			if err != nil {
				return // refused at Open: nothing acked, nothing to lose
			}
			installErr := sweepInstall(w)
			if installErr != nil && !errors.Is(installErr, ErrDegraded) {
				t.Fatalf("install failed with a non-degraded error: %v", installErr)
			}
			runGuestbookWorkload(w)

			if err := w.Checkpoint(); err == nil {
				// Outcome (a): the storage absorbed everything up to a
				// full checkpoint. Close's own final checkpoint may still
				// hit the dying disk; the successful one above is the
				// recovery root either way.
				_ = w.Close()
				w2 := buildWarp(t, dir, 1)
				defer w2.Close()
				if got := dumpWarp(t, w2); got != want {
					t.Fatalf("fault from op %d: recovered state differs from oracle\n--- got ---\n%s--- want ---\n%s", k, got, want)
				}
				return
			}

			// Outcome (b): the deployment must degrade.
			waitDegraded(t, w)
			hasTable := false
			for _, name := range w.DB.Tables() {
				if name == "entries" {
					hasTable = true
				}
			}
			if hasTable {
				if _, _, err := w.DB.Exec("SELECT author, msg FROM entries ORDER BY id"); err != nil {
					t.Fatalf("degraded deployment refused a read: %v", err)
				}
				alice := ttdb.Partition{Table: "entries", Column: "author", Key: sqldb.Text("alice").Key()}
				if _, err := w.DB.PartitionRowsSince(alice, 0); err != nil {
					t.Fatalf("degraded deployment refused a time-travel read: %v", err)
				}
			}
			if _, _, err := w.DB.Exec("INSERT INTO entries (id, author, msg) VALUES (999, 'x', 'y')"); !errors.Is(err, ErrDegraded) {
				t.Fatalf("degraded write refused with %v, want ErrDegraded", err)
			}
			if installErr == nil {
				if _, err := w.RetroPatch("guestbook.php", app.Version{Entry: guestbookHandler(true), Note: "patch"}); !errors.Is(err, ErrDegraded) {
					t.Fatalf("degraded repair refused with %v, want ErrDegraded", err)
				}
			}
			_ = w.Close()

			// Every committed pre-fault row must be readable after a
			// clean reopen: recovered rows form a prefix of the oracle's.
			w2 := buildWarp(t, dir, 1)
			defer w2.Close()
			res, _, err := w2.DB.Exec("SELECT author, msg FROM entries ORDER BY id")
			if err != nil {
				t.Fatalf("reading recovered rows: %v", err)
			}
			for i, row := range res.Rows {
				got := row[0].AsText() + "|" + row[1].AsText()
				if i >= len(oracleRows) || got != oracleRows[i] {
					t.Fatalf("fault from op %d: recovered row %d = %q, not a prefix of the oracle's rows %v", k, i, got, oracleRows)
				}
			}
		})
	}
}

// TestDegradedModeServesReads is the acceptance test for degraded
// mode: after the disk dies, reads and time-travel queries keep
// serving, writes and repair are refused with ErrDegraded end to end,
// health reports the cause, and a clean reopen restores full service.
func TestDegradedModeServesReads(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	cfg := Config{Seed: 1, Durability: faultDurability(ffs)}
	w, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	installGuestbook(t, w, false)
	runGuestbookWorkload(w)

	// The disk dies: every I/O from here on fails.
	ffs.FailFrom(ffs.OpCount()+1, fmt.Errorf("%w: dying disk", faultfs.ErrInjected))
	if err := w.FlushLogs(); err == nil {
		t.Fatal("FlushLogs on a dead disk succeeded")
	}
	waitDegraded(t, w)

	// Reads serve — through the full HTTP path and directly.
	resp := w.HandleRequest(httpd.NewRequest("GET", "/"))
	if resp.Status != 200 || !strings.Contains(resp.Body, "alice") {
		t.Fatalf("degraded read request: status=%d body=%q", resp.Status, resp.Body)
	}
	res, _, err := w.DB.Exec("SELECT author, msg FROM entries ORDER BY id")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("degraded SELECT: rows=%d err=%v", len(res.Rows), err)
	}

	// Time-travel reads serve.
	alice := ttdb.Partition{Table: "entries", Column: "author", Key: sqldb.Text("alice").Key()}
	rows, err := w.DB.PartitionRowsSince(alice, 0)
	if err != nil || len(rows) == 0 {
		t.Fatalf("degraded PartitionRowsSince: rows=%d err=%v", len(rows), err)
	}

	// Writes are refused, both directly and through HTTP.
	if _, _, err := w.DB.Exec("INSERT INTO entries (id, author, msg) VALUES (999, 'x', 'y')"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded INSERT: %v, want ErrDegraded", err)
	}
	resp = w.HandleRequest(httpd.NewRequest("GET", "/?author=eve&msg=too+late"))
	if resp.Status != 500 {
		t.Fatalf("degraded write request served with status %d", resp.Status)
	}

	// Repair, checkpoint, and flush are refused.
	if _, err := w.RetroPatch("guestbook.php", app.Version{Entry: guestbookHandler(true), Note: "patch"}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded RetroPatch: %v, want ErrDegraded", err)
	}
	if err := w.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Checkpoint: %v, want ErrDegraded", err)
	}
	if err := w.FlushLogs(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded FlushLogs: %v, want ErrDegraded", err)
	}

	// Health reports the state.
	h := w.Health()
	if !h.Degraded || h.DegradedCause == "" || h.LastStorageFault == "" {
		t.Fatalf("degraded health snapshot incomplete: %+v", h)
	}
	if err := w.Close(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Close: %v, want ErrDegraded", err)
	}

	// Operator path back: fix the storage (here: stop injecting) and
	// reopen. Full service resumes with all committed state.
	w2 := buildWarp(t, dir, 1)
	defer w2.Close()
	if w2.Degraded() {
		t.Fatal("reopened deployment still degraded")
	}
	res, _, err = w2.DB.Exec("SELECT author, msg FROM entries ORDER BY id")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("reopened SELECT: rows=%d err=%v", len(res.Rows), err)
	}
	if _, _, err := w2.DB.Exec("INSERT INTO entries (id, author, msg) VALUES (999, 'carol', 'back online')"); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}

// TestScrubRescuesWhatRecoveryWouldLose is the scrubber-vs-recovery
// test: bit rot in a cold sealed WAL segment silently truncates the
// replayable chain (recovery stops at the corrupt segment and flags
// TailCorrupt), while a scrub pass on the live deployment detects the
// same corruption early and the fault-fence checkpoint re-secures the
// full state from memory before it is ever needed from disk.
func TestScrubRescuesWhatRecoveryWouldLose(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	dur := store.Options{SyncEveryAppend: true, SegmentBytes: 512}
	w := buildWarpDur(t, live, 1, dur)
	runGuestbookWorkload(w)
	want := dumpWarp(t, w)

	// Bit-rot the oldest (sealed) WAL segment on disk.
	victim := filepath.Join(live, "wal-00-00000001.log")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(live)
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("workload produced only %d segments; cannot corrupt a sealed one", segs)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Control arm: recovery without a scrub loses the tail. (A copy, so
	// the live deployment is unaffected.)
	blind := filepath.Join(base, "blind")
	copyDir(t, live, blind)
	wb := buildWarp(t, blind, 1)
	if !wb.Recovery().TailCorrupt {
		t.Fatal("recovery over the corrupted chain did not flag TailCorrupt")
	}
	if got := dumpWarp(t, wb); got == want {
		t.Fatal("recovery over the corrupted chain lost nothing — corruption not in the replay path")
	}
	_ = wb.Close()

	// Live arm: the scrubber catches it first, the fence checkpoint
	// re-secures the state, and recovery is complete.
	if err := w.ScrubNow(); err == nil {
		t.Fatal("scrub missed the corrupted segment")
	}
	h := w.Health()
	if h.Scrub.Corrupt == 0 || len(h.Scrub.Quarantined) == 0 {
		t.Fatalf("scrub stats did not record the corruption: %+v", h.Scrub)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("fence checkpoint after scrub: %v", err)
	}
	if w.Degraded() {
		t.Fatalf("recoverable corruption degraded the deployment: %v", w.DegradedCause())
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := buildWarpDur(t, live, 1, dur)
	defer w2.Close()
	if w2.Recovery().TailCorrupt {
		t.Fatal("post-rescue recovery still sees corruption")
	}
	if got := dumpWarp(t, w2); got != want {
		t.Fatalf("post-rescue recovery differs\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
