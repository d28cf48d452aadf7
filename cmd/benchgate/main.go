// Command benchgate turns `go test -bench` output into a stable JSON
// report and gates benchmark regressions against a committed baseline.
// It is the tooling behind CI's bench job (.github/workflows/ci.yml):
//
//	go test -run '^$' -bench ... -benchmem ./... | tee bench.txt
//	benchgate -parse bench.txt > BENCH_CURRENT.json
//	benchgate -baseline BENCH_BASELINE.json -current BENCH_CURRENT.json -threshold 0.30
//
// Each report records the machine it was measured on: go test's goos,
// goarch and cpu header lines and the GOMAXPROCS name suffix (-8; none
// means 1), which is then stripped from the benchmark names. The gate
// fails (exit 1) when a benchmark present in both files allocates more
// than threshold more per op (when both carry allocs_per_op, i.e. ran
// with -benchmem) or — only when both reports come from the same
// machine — got more than threshold slower in ns/op; across machines it
// says so and skips ns/op. Benchmarks new in the current run pass by
// definition; benchmarks that disappeared fail the gate on any machine,
// since silently losing coverage is how regressions hide.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured costs.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Machine is what a report was measured on.
type Machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (m Machine) String() string {
	return fmt.Sprintf("%s/%s %q GOMAXPROCS=%d", m.GOOS, m.GOARCH, m.CPU, m.GOMAXPROCS)
}

// Report is the JSON document benchgate emits and compares.
type Report struct {
	Machine    Machine            `json:"machine"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func main() {
	parse := flag.String("parse", "", "parse `go test -bench` output from this file and print JSON")
	baseline := flag.String("baseline", "", "baseline JSON report")
	current := flag.String("current", "", "current JSON report to gate against the baseline")
	threshold := flag.Float64("threshold", 0.30, "allowed fractional ns/op regression (0.30 = 30%)")
	flag.Parse()

	switch {
	case *parse != "":
		rep, err := parseBenchOutput(*parse)
		if err != nil {
			fatal(err)
		}
		if len(rep.Benchmarks) == 0 {
			fatal(fmt.Errorf("no benchmark result lines found in %s", *parse))
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	case *baseline != "" && *current != "":
		base, err := readReport(*baseline)
		if err != nil {
			fatal(err)
		}
		cur, err := readReport(*current)
		if err != nil {
			fatal(err)
		}
		if !gate(base, cur, *threshold) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchgate -parse bench.txt | benchgate -baseline a.json -current b.json [-threshold 0.30]")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(2)
}

// stripProcs removes the trailing -<GOMAXPROCS> go test appends to
// benchmark names when GOMAXPROCS is not 1, so reports compare by name,
// and returns the GOMAXPROCS it named (1 when there is none).
func stripProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}

// parseBenchOutput reads `go test -bench` output from path.
func parseBenchOutput(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// parseBench extracts every `BenchmarkX  N  123 ns/op [456 B/op]` line
// and the machine headers each package prints before them. Repeated runs
// of one benchmark keep the fastest ns/op, the usual noise-floor
// convention. Packages that disagree on the machine are an error.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: make(map[string]Metrics)}
	set := func(field *string, key, v string) error {
		if *field != "" && *field != v {
			return fmt.Errorf("%s headers disagree: %q and %q", key, *field, v)
		}
		*field = v
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if key, v, ok := strings.Cut(line, ": "); ok {
			var err error
			switch key {
			case "goos":
				err = set(&rep.Machine.GOOS, key, v)
			case "goarch":
				err = set(&rep.Machine.GOARCH, key, v)
			case "cpu":
				err = set(&rep.Machine.CPU, key, v)
			}
			if err != nil {
				return nil, err
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		m := Metrics{}
		ok := false
		for i := 2; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				m.NsPerOp = v
				ok = true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if !ok {
			continue
		}
		name, procs := stripProcs(fields[0])
		if rep.Machine.GOMAXPROCS != 0 && rep.Machine.GOMAXPROCS != procs {
			return nil, fmt.Errorf("GOMAXPROCS suffixes disagree: %d and %d", rep.Machine.GOMAXPROCS, procs)
		}
		rep.Machine.GOMAXPROCS = procs
		if prev, exists := rep.Benchmarks[name]; !exists || m.NsPerOp < prev.NsPerOp {
			rep.Benchmarks[name] = m
		}
	}
	return rep, sc.Err()
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// family is the top-level benchmark function name: everything before the
// first sub-benchmark separator.
func family(name string) string {
	if i := strings.Index(name, "/"); i >= 0 {
		return name[:i]
	}
	return name
}

// missingFamilies returns the baselined benchmark families with no
// member at all in the current run, sorted.
func missingFamilies(base, cur *Report) []string {
	present := make(map[string]bool)
	for name := range cur.Benchmarks {
		present[family(name)] = true
	}
	var missing []string
	seen := make(map[string]bool)
	for name := range base.Benchmarks {
		fam := family(name)
		if !present[fam] && !seen[fam] {
			seen[fam] = true
			missing = append(missing, fam)
		}
	}
	sort.Strings(missing)
	return missing
}

// gate prints a comparison table and reports whether the current run
// stays within threshold of the baseline.
func gate(base, cur *Report, threshold float64) bool {
	sameMachine := base.Machine == cur.Machine
	if !sameMachine {
		fmt.Printf("machines differ, ns/op not compared: baseline %v, current %v\n", base.Machine, cur.Machine)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	pass := true
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Printf("MISSING  %-50s baseline %.0f ns/op, absent from current run\n", name, b.NsPerOp)
			pass = false
			continue
		}
		if sameMachine {
			ratio := c.NsPerOp / b.NsPerOp
			verdict := "ok"
			if ratio > 1+threshold {
				verdict = "REGRESSED"
				pass = false
			}
			fmt.Printf("%-9s%-50s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
				verdict, name, b.NsPerOp, c.NsPerOp, (ratio-1)*100)
		}
		// Allocation regressions gate like time regressions: a benchmark
		// with a baselined allocs/op may not allocate more than threshold
		// above it. Benchmarks the baseline never measured with -benchmem
		// are exempt — but a baselined allocs/op that vanished from the
		// current run fails, same as a missing benchmark: silently losing
		// coverage is how regressions hide.
		if b.AllocsPerOp > 0 && c.AllocsPerOp == 0 {
			fmt.Printf("MISSING  %-50s baseline %.0f allocs/op, current run lacks -benchmem\n", name, b.AllocsPerOp)
			pass = false
		}
		if b.AllocsPerOp > 0 && c.AllocsPerOp > 0 {
			aratio := c.AllocsPerOp / b.AllocsPerOp
			averdict := "ok"
			if aratio > 1+threshold {
				averdict = "REGRESSED"
				pass = false
			}
			fmt.Printf("%-9s%-50s %12.0f -> %12.0f allocs/op  (%+.1f%%)\n",
				averdict, name, b.AllocsPerOp, c.AllocsPerOp, (aratio-1)*100)
		}
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("NEW      %-50s %12.0f ns/op (no baseline)\n", name, cur.Benchmarks[name].NsPerOp)
		}
	}
	// Family-level coverage: a whole benchmark function vanishing (every
	// sub-benchmark of one top-level name absent) usually means the CI
	// regex dropped it, not that one case was renamed — call that out
	// separately so the fix points at the workflow, not the code.
	for _, fam := range missingFamilies(base, cur) {
		fmt.Printf("MISSING  %-50s entire benchmark family absent from current run (check the CI -bench regex)\n", fam)
		pass = false
	}
	if !pass {
		fmt.Printf("bench gate: regression beyond %.0f%% against baseline\n", threshold*100)
	} else {
		fmt.Printf("bench gate: all %d baselined benchmarks within %.0f%%\n", len(names), threshold*100)
	}
	return pass
}
