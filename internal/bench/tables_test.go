package bench

import (
	"reflect"
	"testing"
)

// TestPaperTableShapes holds the shapes of the paper's Tables 4 and 8 as
// assertions (Table 3 is TestTable3Scenarios in internal/workload, Table 5
// is TestTable5Rows in internal/taint).
func TestPaperTableShapes(t *testing.T) {
	// Table 4 (§8.3): without the extension every victim conflicts;
	// with the visit log but no text merge only read-only attack actions
	// replay cleanly; full WARP also merges appended text, and only an
	// attacker's overwrite of what the victim edited still conflicts.
	t.Run("Table4", func(t *testing.T) {
		rows, err := Table4()
		if err != nil {
			t.Fatal(err)
		}
		want := []Table4Row{
			{AttackAction: "read-only", NoExtension: 8, NoTextMerge: 0, FullWARP: 0},
			{AttackAction: "append-only", NoExtension: 8, NoTextMerge: 8, FullWARP: 0},
			{AttackAction: "overwrite", NoExtension: 8, NoTextMerge: 8, FullWARP: 8},
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("Table 4 = %+v, want %+v", rows, want)
		}
	})

	// Table 8 (§8.5): repairing an isolated attack re-executes the same
	// visits, runs and queries however large the workload around it — the
	// work is proportional to the attack, not to the history.
	t.Run("Table8", func(t *testing.T) {
		small, err := Table8(25)
		if err != nil {
			t.Fatal(err)
		}
		large, err := Table8(100)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range small {
			l := large[i]
			t.Logf("%-14s visits %d/%d → %d/%d, runs %d/%d → %d/%d, queries %d/%d → %d/%d", s.Scenario,
				s.VisitsReplayed, s.VisitsTotal, l.VisitsReplayed, l.VisitsTotal,
				s.RunsReexecuted, s.RunsTotal, l.RunsReexecuted, l.RunsTotal,
				s.QueriesReexecuted, s.QueryTotal, l.QueriesReexecuted, l.QueryTotal)
			if s.VisitsReplayed == 0 || s.RunsReexecuted == 0 {
				t.Errorf("%s: repair re-executed nothing", s.Scenario)
			}
			if s.VisitsReplayed != l.VisitsReplayed || s.RunsReexecuted != l.RunsReexecuted ||
				s.QueriesReexecuted != l.QueriesReexecuted {
				t.Errorf("%s: re-executed %d/%d/%d visits/runs/queries at 25 users but %d/%d/%d at 100",
					s.Scenario, s.VisitsReplayed, s.RunsReexecuted, s.QueriesReexecuted,
					l.VisitsReplayed, l.RunsReexecuted, l.QueriesReexecuted)
			}
			if l.VisitsTotal <= s.VisitsTotal {
				t.Errorf("%s: the 100-user workload has %d visits, the 25-user one %d", s.Scenario, l.VisitsTotal, s.VisitsTotal)
			}
		}
	})
}
