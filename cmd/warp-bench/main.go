// Command warp-bench regenerates the experimental tables of the paper's
// evaluation (§8, Tables 3–8) and prints them in the paper's layout.
//
// Usage:
//
//	warp-bench                  # all tables at default scale
//	warp-bench -table 7         # one table
//	warp-bench -users 100       # Table 3/7 workload size (paper: 100)
//	warp-bench -users8 5000     # Table 8 workload size (paper: 5000)
//	warp-bench -scale5 100      # Table 5 workload scale (paper-comparable)
//	warp-bench -repair-workers 1  # serial repair engine for every table
//
// Absolute timings depend on this machine; the shapes (who repairs, who
// conflicts, what fraction re-executes, how repair scales) are the
// reproduction targets. See benchmarks/README.md for the recorded runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"warp/internal/bench"
	"warp/internal/obs"
)

// fmtDur renders a histogram duration at display resolution (the
// buckets are power-of-two wide, so sub-permille digits are noise).
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	}
	return d.String()
}

// printHistograms renders every populated latency histogram — the
// per-plan-shape exec latencies, lock waits, WAL append/fsync,
// checkpoint sections, request handling, and repair items — as a
// quantile table (docs/observability.md).
func printHistograms(snap obs.Snapshot) {
	fmt.Println("Latency histograms (per phase):")
	fmt.Printf("  %-52s %10s %10s %10s %10s %10s %10s\n",
		"metric", "count", "mean", "p50", "p95", "p99", "max")
	for _, h := range snap.Histograms {
		if h.Hist.Count == 0 {
			continue
		}
		fmt.Printf("  %-52s %10d %10s %10s %10s %10s %10s\n",
			h.Name, h.Hist.Count,
			fmtDur(h.Hist.Mean()), fmtDur(h.Hist.Quantile(0.50)),
			fmtDur(h.Hist.Quantile(0.95)), fmtDur(h.Hist.Quantile(0.99)),
			fmtDur(h.Hist.Max()))
	}
}

func main() {
	table := flag.Int("table", 0, "table to regenerate (3-8); 0 = all")
	users := flag.Int("users", 100, "users for Tables 3 and 7 (paper: 100)")
	users8 := flag.Int("users8", 1000, "users for Table 8 (paper: 5000)")
	scale5 := flag.Int("scale5", 100, "workload scale for Table 5")
	table6Visits := flag.Int("table6-visits", 300, "measured visits per configuration for Table 6")
	repairWorkers := flag.Int("repair-workers", 0,
		"parallel repair workers for every repair (0 = GOMAXPROCS, 1 = the paper's serial engine)")
	metrics := flag.Bool("metrics", true,
		"print the per-phase latency histogram table after the runs")
	flag.Parse()
	bench.DefaultRepairWorkers = *repairWorkers
	// Run instrumented so the histogram table below has data; the bench
	// numbers themselves absorb the (few-percent) instrumentation cost,
	// matching how a real deployment runs (warp-server also enables obs).
	obs.SetEnabled(true)

	run := func(n int) bool { return *table == 0 || *table == n }
	pct := func(hit, total uint64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(hit) / float64(total)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "warp-bench:", err)
		os.Exit(1)
	}

	if run(3) {
		rows, err := bench.Table3(*users)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable3(rows))
	}
	if run(4) {
		rows, err := bench.Table4()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable4(rows))
	}
	if run(5) {
		rows, err := bench.Table5(*scale5)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable5(rows))
	}
	if run(6) {
		rows, err := bench.Table6(*table6Visits)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable6(rows))
		// The normal-operation overhead trend, spelled out per layer so a
		// regression is visible outside CI's bench gate: WARP-vs-plain
		// slowdown plus log bytes per visit by layer (browser / app / db).
		for _, r := range rows {
			overhead := 0.0
			if r.WARPVisitsPerSec > 0 {
				overhead = (r.NoWARPVisitsPerSec/r.WARPVisitsPerSec - 1) * 100
			}
			fmt.Printf("%-9s normal-op overhead %+.1f%%; log B/visit: browser %.0f, app %.0f, db %.0f (total %.0f)\n",
				r.Workload, overhead,
				r.BrowserBytesPerVisit, r.AppBytesPerVisit, r.DBBytesPerVisit,
				r.BrowserBytesPerVisit+r.AppBytesPerVisit+r.DBBytesPerVisit)
			// The database fast-path engagement behind the same window:
			// statement/plan cache hit rates and how many scans rode an
			// index. Near-zero hit rates or a high full-scan share mean the
			// overhead above is paying for avoidable recompilation or
			// materialized scans.
			e := r.Exec
			fmt.Printf("%-9s db cache: stmt %.0f%% (%d/%d), plan %.0f%% (%d/%d); scans: %d index, %d full\n",
				r.Workload,
				pct(e.StmtCacheHits, e.StmtCacheHits+e.StmtCacheMisses), e.StmtCacheHits, e.StmtCacheHits+e.StmtCacheMisses,
				pct(e.PlanHits, e.PlanHits+e.PlanMisses), e.PlanHits, e.PlanHits+e.PlanMisses,
				e.IndexScans, e.FullScans)
		}
		fmt.Println()
		withExt, withoutExt, err := bench.ExtensionOverhead(200)
		if err != nil {
			fail(err)
		}
		fmt.Printf("Page load time: %v with extension, %v without (§8.5 inline)\n\n", withExt, withoutExt)
	}
	if run(7) {
		rows, err := bench.Table7(*users)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable7(
			fmt.Sprintf("Table 7: Repair performance, %d-user workload.", *users), rows))
	}
	if run(8) {
		rows, err := bench.Table8(*users8)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable7(
			fmt.Sprintf("Table 8: Repair performance, %d-user workload (paper: 5,000).", *users8), rows))
	}

	if *metrics {
		printHistograms(obs.Default.Snapshot())
	}
}
