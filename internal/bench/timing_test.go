package bench

import (
	"testing"

	"warp/internal/attacks"
	"warp/internal/core"
	"warp/internal/workload"
)

// fullRepairTiming runs a whole-history repair (CSRF: every visit
// replays through a browser) of the wiki workload and returns its
// per-layer timing split.
func fullRepairTiming(t *testing.T, workers int) core.Timing {
	t.Helper()
	sc, _ := attacks.ByName("CSRF")
	res, err := workload.Run(workload.Config{Users: 16, Victims: 3, Seed: 3000, Scenario: sc, RepairWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Repair(res.Env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PageVisitsReplayed == 0 || rep.AppRunsReexecuted == 0 {
		t.Fatalf("repair replayed %d visits and %d runs, want a full repair", rep.PageVisitsReplayed, rep.AppRunsReexecuted)
	}
	return rep.Timing
}

// TestRepairTimingNonNegative: a worker finds the application's and the
// browser's share of a run or visit by subtracting the database (and
// application) time nested under its own call. Subtracting a delta of the
// session-wide totals instead — which every other worker advances
// concurrently — drove Timing.App and Timing.Browser negative under
// parallel repair within a few repetitions.
func TestRepairTimingNonNegative(t *testing.T) {
	for i := 0; i < 20; i++ {
		tm := fullRepairTiming(t, 4)
		for name, d := range map[string]int64{
			"Init": int64(tm.Init), "Graph": int64(tm.Graph), "Browser": int64(tm.Browser),
			"DB": int64(tm.DB), "App": int64(tm.App), "Ctrl": int64(tm.Ctrl), "Total": int64(tm.Total),
		} {
			if d < 0 {
				t.Fatalf("repetition %d: Timing.%s = %d ns, want >= 0 (%+v)", i, name, d, tm)
			}
		}
	}
}

// TestRepairTimingSerialSplit: with one worker the layers do not overlap,
// so the split is a partition of the wall time — every layer gets a
// share, and the shares (Ctrl being the remainder) sum to Total.
func TestRepairTimingSerialSplit(t *testing.T) {
	tm := fullRepairTiming(t, 1)
	if tm.Browser <= 0 || tm.DB <= 0 || tm.App <= 0 || tm.Ctrl <= 0 {
		t.Fatalf("serial split leaves a layer empty: %+v", tm)
	}
	if sum := tm.Init + tm.Graph + tm.Browser + tm.DB + tm.App + tm.Ctrl; sum != tm.Total {
		t.Fatalf("serial split sums to %v, Total is %v (%+v)", sum, tm.Total, tm)
	}
}
