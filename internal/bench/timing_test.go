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
func fullRepairTiming(t *testing.T) core.Timing {
	t.Helper()
	sc, _ := attacks.ByName("CSRF")
	res, err := workload.Run(workload.Config{Users: 16, Victims: 3, Seed: 3000, Scenario: sc})
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

// TestRepairTimingNonNegative: a run or visit finds the application's
// and the browser's share by subtracting the database (and application)
// time booked by calls nested under its own, not a delta of the
// session-wide totals; twenty repetitions hold that no share goes
// negative.
func TestRepairTimingNonNegative(t *testing.T) {
	for i := 0; i < 20; i++ {
		tm := fullRepairTiming(t)
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

// TestRepairTimingSerialSplit: the repair loop runs one item at a time,
// so the layers do not overlap and the split is a partition of the wall
// time — every layer gets a share, and the shares (Ctrl being the
// remainder) sum to Total.
func TestRepairTimingSerialSplit(t *testing.T) {
	tm := fullRepairTiming(t)
	if tm.Browser <= 0 || tm.DB <= 0 || tm.App <= 0 || tm.Ctrl <= 0 {
		t.Fatalf("split leaves a layer empty: %+v", tm)
	}
	if sum := tm.Init + tm.Graph + tm.Browser + tm.DB + tm.App + tm.Ctrl; sum != tm.Total {
		t.Fatalf("split sums to %v, Total is %v (%+v)", sum, tm.Total, tm)
	}
}
