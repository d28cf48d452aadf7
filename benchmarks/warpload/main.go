// Command warpload is the repository's end-to-end benchmark: a
// single-process load driver that pushes concurrent traffic through the
// real httpd.Adapter → core.Warp.HandleRequest path of the wiki, blog and
// gallery applications, makes durable edits and recovers them after a
// crash, repairs intrusions quietly and under live load, and attributes
// a request's time to the layers below it. Together with BENCHMARK.json
// at the repository root it defines every performance number a later
// change may claim. See benchmarks/README.md.
//
//	go run ./benchmarks/warpload                      # the suite: every workload, untraced then traced
//	go run ./benchmarks/warpload -repeat 5 -out a.json
//	go run ./benchmarks/warpload -compare a.json b.json
//	go run ./benchmarks/warpload --workload wiki-read --seed 3 --seconds 16 --trace 0   # one run, JSON on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"warp/benchmarks/stats"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the serving-phase
// budget of one workload run.
const defaultSeconds = 16

// outDir receives trace files, result files and (under tmp/) the durable
// workload's persistence directories. Relative to the repository root,
// from which the benchmark is run.
var outDir = filepath.Join("benchmarks", "out")

func traceFile(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

// machine records where a result was measured: a number without it
// cannot be compared with anything.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// clientCount is the number of client goroutines: the load is sized to
// the machine, up to four.
func clientCount() int { return min(runtime.NumCPU(), 4) }

func machineRecord() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clientCount(), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Machine machine    `json:"machine"`
	Seconds float64    `json:"seconds"`
	Flush   string     `json:"flush_policy"`
	Runs    []*summary `json:"runs"`
}

const flushPolicy = "durable workload: windowed group commit, 2ms window, SyncEveryAppend=false"

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	compare  bool
	out      string
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as one JSON line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed: equal seeds give equal request lists")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "serving-phase budget per workload run")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics, span file); default: both")
	flag.IntVar(&o.repeat, "repeat", 1, "run the suite this many times (seeds seed, seed+1, ...) and print median and quartiles")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: warpload -compare base.json candidate.json")
	flag.StringVar(&o.out, "out", "", "write the suite's runs to this file (default benchmarks/out/result.json)")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "where -compare reads the metrics' bounds")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "warpload:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(o.spec, args[0], args[1])
	}
	if o.seconds <= 0 || o.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sc := fullScale(o.seconds)

	if o.workload != "" { // one run, for the acceptance driver
		wl := workloadByName(o.workload)
		if wl == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		s, err := runWorkload(wl, sc, o.seed, o.trace == 1, tmp)
		if err != nil {
			return err
		}
		printSummary(s)
		line, err := json.Marshal(map[string]any{"correct": s.Correct, "attempted": s.Attempted, "failed": s.Failed, "metrics": s.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !s.Correct {
			return fmt.Errorf("%s: %d of %d operations or checks failed", wl.name, s.Failed, s.Attempted)
		}
		return nil
	}

	res := resultFile{Machine: machineRecord(), Seconds: o.seconds, Flush: flushPolicy}
	fmt.Printf("machine: %+v\nflush policy: %s\n", res.Machine, flushPolicy)
	wrong := 0
	for i := 0; i < o.repeat; i++ {
		for _, wl := range workloads {
			fmt.Printf("\n%s — %s\n", wl.name, wl.why)
			for _, traced := range []bool{false, true} {
				if (o.trace == 0 && traced) || (o.trace == 1 && !traced) {
					continue
				}
				s, err := runWorkload(wl, sc, o.seed+int64(i), traced, tmp)
				if err != nil {
					return err
				}
				printSummary(s)
				if !s.Correct {
					wrong++
				}
				res.Runs = append(res.Runs, s)
			}
		}
	}
	if o.repeat > 1 {
		printSpread(res.Runs)
	}
	out := o.out
	if out == "" {
		out = filepath.Join(outDir, "result.json")
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", out)
	if wrong > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", wrong)
	}
	return nil
}

func printSummary(s *summary) {
	mode, defs := "untraced, end-to-end", endToEnd
	if s.Trace == 1 {
		mode, defs = "traced, per-layer", perLayer
	}
	fmt.Printf("\n== %s (%s) seed %d: correct=%v attempted=%d failed=%d wall=%.1fs\n",
		s.Workload, mode, s.Seed, s.Correct, s.Attempted, s.Failed, s.Seconds)
	for _, def := range defs {
		fmt.Printf("  %-36s %14.4f %s\n", def.name, s.Metrics[def.name].Value, def.unit)
	}
	if len(s.Ledger) > 0 {
		fmt.Println("  ledger: mean time per request by layer, traced sat phase (the rows sum to the ServeHTTP span)")
		for _, row := range s.Ledger {
			fmt.Printf("    %-26s %10.2f us  %5.1f%%\n", row.Layer, row.Us, 100*row.Share)
		}
		fmt.Println("  spans:", traceFile(s.Workload))
	}
	for _, n := range s.Notes {
		fmt.Println("  note:", n)
	}
}

// series groups runs' values by workload and metric.
func series(runs []*summary) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, s := range runs {
		if out[s.Workload] == nil {
			out[s.Workload] = map[string][]float64{}
		}
		for name, m := range s.Metrics {
			out[s.Workload][name] = append(out[s.Workload][name], m.Value)
		}
	}
	return out
}

// printSpread prints, per metric and workload, the median and quartiles
// over repeated runs and the quartile distance as a share of the median
// — the spread a regression bound has to clear.
func printSpread(runs []*summary) {
	byWorkload := series(runs)
	fmt.Printf("\n%-20s %-36s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, wl := range workloads {
		for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			xs := byWorkload[wl.name][def.name]
			if len(xs) == 0 {
				continue
			}
			q1, q3 := stats.Quartiles(xs)
			fmt.Printf("%-20s %-36s %12.4f %12.4f %12.4f %7.1f%%\n", wl.name, def.name, q1, stats.Median(xs), q3, 100*stats.Spread(xs))
		}
	}
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareFiles applies each end-to-end metric's bound from BENCHMARK.json
// to two result files and prints one verdict per metric and workload.
func compareFiles(specPath, basePath, candPath string) error {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("reading the bounds: %w (run from the repository root, or pass -spec)", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return err
	}
	if base.Machine != cand.Machine {
		fmt.Printf("warning: machines differ, the comparison means little\n  base:      %+v\n  candidate: %+v\n", base.Machine, cand.Machine)
	}
	bs, cs := series(base.Runs), series(cand.Runs)
	var names []string
	for name := range bs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-20s %-22s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "candidate", "change", "bound", "verdict")
	worse := 0
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			x, y := bs[wl][m.Name], cs[wl][m.Name]
			if len(x) == 0 && len(y) == 0 {
				continue
			}
			v := stats.Compare(x, y, m.Bound, m.Better == "lower")
			if v == stats.Worse {
				worse++
			}
			bm, cm := stats.Median(x), stats.Median(y)
			change := 0.0
			if bm != 0 {
				change = 100 * (cm - bm) / bm
			}
			fmt.Printf("%-20s %-22s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", wl, m.Name, bm, cm, change, 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric × workload pairs are worse than their bound allows", worse)
	}
	return nil
}
