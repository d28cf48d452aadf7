package workload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"warp/internal/attacks"
)

// runScenario runs one §8.2 scenario on a small workload and repairs it,
// returning the result and the repair report.
func runScenario(t *testing.T, name string, users int, victimsAtStart bool) (*Result, *coreReport) {
	t.Helper()
	sc, ok := attacks.ByName(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	res, err := Run(Config{Users: users, Victims: 3, Seed: 1234, Scenario: sc, VictimsAtStart: victimsAtStart})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sc.Repair(res.Env)
	if err != nil {
		t.Fatal(err)
	}
	return res, &coreReport{rep.PageVisitsReplayed, rep.TotalPageVisits, rep.UsersWithConflicts(), rep.AppRunsReexecuted, rep.QueriesReexecuted}
}

type coreReport struct {
	visitsReplayed, totalVisits int
	usersWithConflicts          int
	runs, queries               int
}

// TestTable3Scenarios verifies the paper's Table 3: every scenario is
// repaired — the repaired deployment equals its attack-free twin — with
// conflicts only where the paper reports them (clickjacking: the victims;
// ACL error: the exploiting user).
func TestTable3Scenarios(t *testing.T) {
	const users = 12
	cases := []struct {
		name          string
		wantConflicts int
	}{
		{"Reflected XSS", 0},
		{"Stored XSS", 0},
		{"CSRF", 0},
		{"Clickjacking", 3},
		{"SQL injection", 0},
		{"ACL error", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, rep := runScenario(t, tc.name, users, false)
			if n, err := res.UnderRepair(); err != nil || n != 0 {
				t.Fatalf("%s: under-repair = %d rows (err %v), want 0", tc.name, n, err)
			}
			if rep.usersWithConflicts != tc.wantConflicts {
				t.Fatalf("%s: users with conflicts = %d, want %d",
					tc.name, rep.usersWithConflicts, tc.wantConflicts)
			}
		})
	}
}

// TestCSRFReattribution: after CSRF repair, the victims' post-attack edits
// belong to the victims again, not the attacker (§8.2).
func TestCSRFReattribution(t *testing.T) {
	sc, _ := attacks.ByName("CSRF")
	res, err := Run(Config{Users: 8, Victims: 2, Seed: 99, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	// Before repair: victims' post-attack edits are attributed to the
	// attacker.
	misattributed := 0
	for _, v := range res.Env.Victims {
		if ed, _ := res.Env.App.PageEditor("Page-" + v.Name); ed == "attacker" {
			misattributed++
		}
	}
	if misattributed == 0 {
		t.Fatal("CSRF attack did not misattribute any edits")
	}
	if _, err := sc.Repair(res.Env); err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Env.Victims {
		if ed, _ := res.Env.App.PageEditor("Page-" + v.Name); ed != v.Name {
			t.Fatalf("victim %s's page editor = %q after repair", v.Name, ed)
		}
		own, _ := res.Env.App.PageContent("Page-" + v.Name)
		if !strings.Contains(own, "post-attack note by "+v.Name) {
			t.Fatalf("victim %s's edit lost: %q", v.Name, own)
		}
	}
}

// TestSelectiveRepair: isolated attacks re-execute a small fraction of
// the workload (Table 7's headline result), while clickjacking re-executes
// nearly everything.
func TestSelectiveRepair(t *testing.T) {
	_, isolated := runScenario(t, "Stored XSS", 14, false)
	frac := float64(isolated.visitsReplayed) / float64(isolated.totalVisits)
	if frac > 0.5 {
		t.Fatalf("stored XSS replayed %.0f%% of visits; want selective repair", frac*100)
	}
	_, full := runScenario(t, "Clickjacking", 14, false)
	fullFrac := float64(full.visitsReplayed) / float64(full.totalVisits)
	if fullFrac < 0.9 {
		t.Fatalf("clickjacking replayed %.0f%% of visits; want near-total re-execution", fullFrac*100)
	}
}

// TestVictimsAtStartReexecutesMoreQueries reproduces Table 7's fifth row:
// with victims at the start of the workload, repair re-executes the same
// visits but many more database queries (the later appends to the rolled-
// back partition re-apply).
func TestVictimsAtStartReexecutesMoreQueries(t *testing.T) {
	_, end := runScenario(t, "Reflected XSS", 14, false)
	_, start := runScenario(t, "Reflected XSS", 14, true)
	if start.queries <= end.queries {
		t.Fatalf("victims-at-start should re-execute more queries: start=%d end=%d",
			start.queries, end.queries)
	}
	if start.visitsReplayed > end.visitsReplayed+2 {
		t.Fatalf("victims-at-start should not balloon visit replays: start=%d end=%d",
			start.visitsReplayed, end.visitsReplayed)
	}
}

// TestCleanWorkload: the workload generator itself produces a consistent
// wiki without a scenario.
func TestCleanWorkload(t *testing.T) {
	res, err := Run(Config{Users: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.PageVisits == 0 || res.AppRuns == 0 || res.Queries == 0 {
		t.Fatalf("empty workload: %+v", res)
	}
	team, _ := res.Env.App.PageContent("TeamPage")
	for _, u := range res.Env.AllUsers() {
		if !strings.Contains(team, "note from "+u.Name) {
			t.Fatalf("missing %s's append: %q", u.Name, team)
		}
	}
}

// TestGroundTruth holds the paper's contract on every §8.2 scenario:
// repair leaves the state the attack-free twin reaches, with victims at
// the start and at the end of the workload. The subtests' workers is
// GOMAXPROCS: the repair loop runs one item at a time, so the repaired
// state must not depend on how many threads run Go code.
func TestGroundTruth(t *testing.T) {
	for _, sc := range attacks.Scenarios() {
		for _, atStart := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				for _, seed := range []int64{1234, 7} {
					name := fmt.Sprintf("%s/start=%v/workers=%d/seed=%d", sc.Name, atStart, workers, seed)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
						res, err := Run(Config{Users: 12, Victims: 3, Seed: seed, Scenario: sc,
							VictimsAtStart: atStart})
						if err != nil {
							t.Fatal(err)
						}
						if _, err := sc.Repair(res.Env); err != nil {
							t.Fatal(err)
						}
						if n, err := res.UnderRepair(); err != nil || n != 0 {
							t.Fatalf("under-repair = %d rows (err %v), want 0", n, err)
						}
					})
				}
			}
		}
	}
}

// TestRepairCountsIgnoreGOMAXPROCS holds that a repair's outcome is a
// function of its seed: Table 7's CSRF row (every visit replays through
// a browser) and its ACL-error row (an administrator's undo), at the
// table's size and seed, repaired three times at each of GOMAXPROCS 1, 2
// and 4, must report the same visits, runs, cancelled runs, queries and
// conflicts every time.
func TestRepairCountsIgnoreGOMAXPROCS(t *testing.T) {
	type counts struct{ visits, runs, cancelled, queries, conflicts int }
	for _, name := range []string{"CSRF", "ACL error"} {
		sc, _ := attacks.ByName(name)
		var first *counts
		for _, procs := range []int{1, 2, 4} {
			for rep := 0; rep < 3; rep++ {
				got := func() counts {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					res, err := Run(Config{Users: 100, Victims: 3, Seed: 3000, Scenario: sc})
					if err != nil {
						t.Fatal(err)
					}
					r, err := sc.Repair(res.Env)
					if err != nil {
						t.Fatal(err)
					}
					return counts{r.PageVisitsReplayed, r.AppRunsReexecuted, r.RunsCancelled, r.QueriesReexecuted, len(r.Conflicts)}
				}()
				if first == nil {
					first = &got
					t.Logf("%s: %+v", name, got)
				} else if got != *first {
					t.Fatalf("%s at GOMAXPROCS %d, repetition %d: %+v, first run %+v", name, procs, rep, got, *first)
				}
			}
		}
	}
}
