package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the committed contract at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

const specPath = "../../BENCHMARK.json"

func loadSpec(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogMatchesBenchmarkJSON holds the program's metric and workload
// lists equal to the committed contract, name by name and unit by unit.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, program default %v", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, wl.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(names), len(defs))
		}
		for i, def := range defs {
			if def.name != names[i] || def.unit != units[i] {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, names[i], units[i], def.name, def.unit)
			}
			if !name.MatchString(def.name) {
				t.Errorf("%s metric name %q does not match the contract's name rule", kind, def.name)
			}
		}
	}
	var n, u []string
	hasSetup := false
	for _, m := range spec.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range spec.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
}

// TestSmoke runs every workload at toy scale, untraced and traced, and
// asserts that each run passes its correctness checks and reports exactly
// the metrics its mode owes, each once and finite.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			s, err := runWorkload(wl, toyScale(), 1, traced, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, s.Correct, s.Attempted, s.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(traceFile(wl.name)); err != nil {
					t.Errorf("%s: no span file: %v", wl.name, err)
				}
				sum := 0.0
				for _, row := range s.Ledger[:len(s.Ledger)-1] {
					sum += row.Us
				}
				if total := s.Ledger[len(s.Ledger)-1].Us; math.Abs(sum-total) > 1e-6*total {
					t.Errorf("%s: ledger rows sum to %v, ServeHTTP span is %v", wl.name, sum, total)
				}
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d owed", wl.name, traced, len(s.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := s.Metrics[def.name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", wl.name, traced, def.name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != def.unit {
					t.Errorf("%s traced=%v: metric %s = %v [%s]", wl.name, traced, def.name, m.Value, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.name, def.name, m.Value)
				}
			}
		}
	}
}

// TestCompareFiles runs -compare on two result files that differ in one
// metric by more than its bound.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reqPerS float64) string {
		res := resultFile{Runs: []*summary{{Workload: "wiki-read", Metrics: map[string]metric{
			"req_per_s": {Value: reqPerS, Unit: "1/s"}, "p50_ms": {Value: 1, Unit: "ms"}}}}}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 1000), write("same.json", 1001), write("slow.json", 500)
	if err := compareFiles(specPath, base, same); err != nil {
		t.Errorf("equal results judged worse: %v", err)
	}
	if err := compareFiles(specPath, base, slow); err == nil {
		t.Error("halved throughput not judged worse")
	}
}
