package bench

import (
	"fmt"
	"strings"
	"time"

	"warp/internal/taint"
)

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: WARP repairs the attack scenarios listed in Table 2.\n")
	b.WriteString("Repaired: equal to the attack-free twin; in brackets, the rows that differ.\n")
	fmt.Fprintf(&b, "%-16s  %-22s  %-9s  %s\n", "Attack scenario", "Initial repair", "Repaired?", "# users with conflicts")
	for _, r := range rows {
		mark := "yes"
		if r.UnderRepair != 0 {
			mark = "NO"
		}
		mark = fmt.Sprintf("%s (%d)", mark, r.UnderRepair)
		fmt.Fprintf(&b, "%-16s  %-22s  %-9s  %d\n", r.Scenario, r.InitialRepair, mark, r.UsersConflict)
	}
	return b.String()
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: Effectiveness of WARP UI repair (users with conflicts, 8 victims).\n")
	fmt.Fprintf(&b, "%-13s  %-13s  %-13s  %s\n", "Attack action", "No extension", "No text merge", "WARP")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s  %-13d  %-13d  %d\n", r.AttackAction, r.NoExtension, r.NoTextMerge, r.FullWARP)
	}
	return b.String()
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: Comparison of WARP with the taint-tracking baseline (Akkuş & Goel).\n")
	b.WriteString("Baseline FP shown without / with table white-listing, for the no-FN (flow) policy.\n")
	fmt.Fprintf(&b, "%-28s  %-16s  %-10s  %-8s  %s\n",
		"Bug causing corruption", "Baseline FP", "Base input", "WARP FP", "WARP input")
	for _, r := range rows {
		var flow, flowWL taint.PolicyResult
		var direct taint.PolicyResult
		for _, p := range r.Comparison.Baseline {
			switch p.Policy {
			case taint.PolicyFlow:
				flow = p
			case taint.PolicyFlowWhitelist:
				flowWL = p
			case taint.PolicyDirect:
				direct = p
			}
		}
		warpInput := "No"
		if r.Comparison.WARPConflicts > 0 {
			warpInput = "Yes"
		}
		fmt.Fprintf(&b, "%-28s  %3d / %-10d  %-10s  %-8d  %s\n",
			string(r.Bug), flow.FalsePositives, flowWL.FalsePositives, "Yes",
			r.Comparison.WARPFalsePositives, warpInput)
		if direct.FalseNegatives > 0 {
			fmt.Fprintf(&b, "%-28s  (narrow 'direct' policy would miss %d corrupted rows — false negatives)\n",
				"", direct.FalseNegatives)
		}
	}
	return b.String()
}

// FormatTable7 renders Tables 7/8.
func FormatTable7(title string, rows []Table7Row) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-33s %15s %15s %10s %17s %10s %10s  %s\n",
		"Attack scenario", "Page visits", "App runs", "Fresh runs", "SQL queries", "Orig exec", "Repair", "breakdown (graph/browser/db/app/ctrl)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-33s %7d/%-7d %7d/%-7d %10d %8d/%-8d %10s %10s  %s/%s/%s/%s/%s\n",
			r.Scenario,
			r.VisitsReplayed, r.VisitsTotal,
			r.RunsReexecuted, r.RunsTotal, r.FreshRuns,
			r.QueriesReexecuted, r.QueryTotal,
			round(r.OriginalExec), round(r.Repair.Total),
			round(r.Repair.Graph), round(r.Repair.Browser), round(r.Repair.DB),
			round(r.Repair.App), round(r.Repair.Ctrl))
	}
	return b.String()
}

func round(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(100 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
