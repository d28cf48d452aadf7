package attacks_test

import (
	"testing"

	"warp/internal/attacks"
	"warp/internal/workload"
)

// TestScenariosEndToEnd drives each of the six §8.2 attack scenarios
// through a full workload and repair, and verifies the repaired
// deployment equals its attack-free twin.
func TestScenariosEndToEnd(t *testing.T) {
	for _, sc := range attacks.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := workload.Run(workload.Config{
				Users: 8, Victims: 2, Seed: 42, Scenario: sc,
			})
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			rep, err := sc.Repair(res.Env)
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			if rep.Aborted {
				t.Fatal("repair aborted")
			}
			if rep.AppRunsReexecuted == 0 && rep.RunsCancelled == 0 {
				t.Fatal("repair did no work")
			}
			if n, err := res.UnderRepair(); err != nil || n != 0 {
				t.Fatalf("under-repair = %d rows (err %v), want 0", n, err)
			}
		})
	}
}

// TestScenarioConflictShape pins the Table 3 conflict pattern: only the
// clickjacking attack (whose replay diverges the
// victims' UI state) and the ACL error (whose undo invalidates another
// user's legitimate edit) leave users with conflicts — the paper's
// 0,0,0,3,0,1 column shape.
func TestScenarioConflictShape(t *testing.T) {
	expectConflicts := map[string]bool{
		"Reflected XSS": false,
		"Stored XSS":    false,
		"CSRF":          false,
		"Clickjacking":  true,
		"SQL injection": false,
		"ACL error":     true,
	}
	for _, sc := range attacks.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := workload.Run(workload.Config{
				Users: 8, Victims: 2, Seed: 42, Scenario: sc,
			})
			if err != nil {
				t.Fatalf("workload: %v", err)
			}
			rep, err := sc.Repair(res.Env)
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			want, known := expectConflicts[sc.Name]
			if !known {
				t.Fatalf("scenario %q missing from expectation table", sc.Name)
			}
			if got := rep.UsersWithConflicts() > 0; got != want {
				t.Fatalf("users with conflicts = %d, want >0 == %v", rep.UsersWithConflicts(), want)
			}
			if n, err := res.UnderRepair(); err != nil || n != 0 {
				t.Fatalf("under-repair = %d rows (err %v), want 0", n, err)
			}
		})
	}
}

// TestByName checks the scenario registry.
func TestByName(t *testing.T) {
	for _, name := range []string{"Reflected XSS", "Stored XSS", "CSRF", "Clickjacking", "SQL injection", "ACL error"} {
		if _, ok := attacks.ByName(name); !ok {
			t.Fatalf("scenario %q not found", name)
		}
	}
	if _, ok := attacks.ByName("nope"); ok {
		t.Fatal("unknown scenario found")
	}
}
