// Command warp-bench prints the paper's repair experiments (§8: Tables 3,
// 4, 5, 7 and 8) in the paper's layout, over the internal/bench functions
// the tests call. Table 6, normal-operation overhead, is measured end to
// end by `go run ./benchmarks/warpload`.
//
// Usage:
//
//	warp-bench                  # all tables at default scale
//	warp-bench -table 7         # one table
//	warp-bench -users 100       # Table 3/7 workload size (paper: 100)
//	warp-bench -users8 5000     # Table 8 workload size (paper: 5000)
//	warp-bench -scale5 100      # Table 5 workload scale (paper-comparable)
//
// Every repair runs the paper's loop, one work item at a time, so a
// table's counts are a function of its seed and size, not of the
// machine's core count.
//
// It exits 1 when a table fails to run, a Table 3 scenario is not
// repaired (its repaired deployment differs from the attack-free twin),
// or WARP reports a false positive in Table 5, and 2 on a usage error.
// Absolute timings depend on the machine; the shapes (who repairs, who
// conflicts, what fraction re-executes, how repair scales) are the
// reproduction targets. docs/paper-tables.md records one run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"warp/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("warp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "table to print (3, 4, 5, 7 or 8); 0 = all")
	users := fs.Int("users", 100, "users for Tables 3 and 7 (paper: 100)")
	users8 := fs.Int("users8", 1000, "users for Table 8 (paper: 5000)")
	scale5 := fs.Int("scale5", 100, "workload scale for Table 5")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *table {
	case 0, 3, 4, 5, 7, 8:
	case 6:
		fmt.Fprintln(stderr, "warp-bench: Table 6 (normal-operation overhead) is measured by go run ./benchmarks/warpload")
		return 2
	default:
		fmt.Fprintf(stderr, "warp-bench: no table %d; choose 3, 4, 5, 7 or 8 (0 = all)\n", *table)
		return 2
	}
	want := func(n int) bool { return *table == 0 || *table == n }
	fail := func(err error) int {
		fmt.Fprintln(stderr, "warp-bench:", err)
		return 1
	}

	var t3 []bench.Table3Row
	var t5 []bench.Table5Row
	var err error
	if want(3) {
		if t3, err = bench.Table3(*users); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, bench.FormatTable3(t3))
	}
	if want(4) {
		rows, err := bench.Table4()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, bench.FormatTable4(rows))
	}
	if want(5) {
		if t5, err = bench.Table5(*scale5); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, bench.FormatTable5(t5))
	}
	if want(7) {
		rows, err := bench.Table7(*users)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, bench.FormatTable7(
			fmt.Sprintf("Table 7: Repair performance, %d-user workload.", *users), rows))
	}
	if want(8) {
		rows, err := bench.Table8(*users8)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, bench.FormatTable7(
			fmt.Sprintf("Table 8: Repair performance, %d-user workload (paper: 5,000).", *users8), rows))
	}
	if fails := failures(t3, t5); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(stderr, "warp-bench:", f)
		}
		return 1
	}
	return 0
}

// failures names every row that contradicts the paper: a Table 3
// scenario whose repair left rows off its attack-free twin, or a Table 5
// bug for which WARP left rows off its bug-free twin.
func failures(t3 []bench.Table3Row, t5 []bench.Table5Row) []string {
	var out []string
	for _, r := range t3 {
		if r.UnderRepair != 0 {
			out = append(out, fmt.Sprintf("Table 3: %s not repaired: %d rows differ from the attack-free twin", r.Scenario, r.UnderRepair))
		}
	}
	for _, r := range t5 {
		if fp := r.Comparison.WARPFalsePositives; fp > 0 {
			out = append(out, fmt.Sprintf("Table 5: %s: WARP reports %d false positives", r.Bug, fp))
		}
	}
	return out
}
