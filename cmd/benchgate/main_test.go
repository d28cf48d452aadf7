package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestStripProcs(t *testing.T) {
	cases := map[string]struct {
		name  string
		procs int
	}{
		"BenchmarkRangeScan/indexed-8":   {"BenchmarkRangeScan/indexed", 8},
		"BenchmarkNormalExec/update":     {"BenchmarkNormalExec/update", 1},
		"BenchmarkCheckpoint-16":         {"BenchmarkCheckpoint", 16},
		"BenchmarkDurableWrite/wal-sync": {"BenchmarkDurableWrite/wal-sync", 1},
	}
	for in, want := range cases {
		if name, procs := stripProcs(in); name != want.name || procs != want.procs {
			t.Errorf("stripProcs(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}

// TestParseMachine: the goos, goarch and cpu headers and the GOMAXPROCS
// suffix make the report's machine; no suffix means GOMAXPROCS 1, and
// packages run on different machines cannot make one report.
func TestParseMachine(t *testing.T) {
	const header = "goos: linux\ngoarch: amd64\npkg: warp\ncpu: Intel(R) Xeon(R) Processor\n"
	rep, err := parseBench(strings.NewReader(header +
		"BenchmarkNormalExec/update-2         \t    2000\t     13993 ns/op\t    2269 B/op\t      35 allocs/op\n" +
		"PASS\nok  \twarp\t1.2s\n" + strings.Replace(header, "pkg: warp", "pkg: warp/internal/bench", 1) +
		"BenchmarkDurableWrite/wal-sync-2     \t       5\t    935829 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := Machine{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2}
	if rep.Machine != want {
		t.Errorf("machine = %+v, want %+v", rep.Machine, want)
	}
	if m := rep.Benchmarks["BenchmarkNormalExec/update"]; m.NsPerOp != 13993 || m.AllocsPerOp != 35 {
		t.Errorf("BenchmarkNormalExec/update = %+v", m)
	}
	if _, ok := rep.Benchmarks["BenchmarkDurableWrite/wal-sync"]; !ok {
		t.Errorf("benchmarks = %v", rep.Benchmarks)
	}

	rep, err = parseBench(strings.NewReader(header + "BenchmarkNormalExec/update \t 2000 \t 13993 ns/op\n"))
	if err != nil || rep.Machine.GOMAXPROCS != 1 {
		t.Errorf("no suffix: machine %+v, err %v, want GOMAXPROCS 1", rep.Machine, err)
	}

	for _, bad := range []string{
		header + strings.Replace(header, "amd64", "arm64", 1),
		header + strings.Replace(header, "Xeon", "EPYC", 1),
		header + "BenchmarkA-2 \t 1 \t 5 ns/op\nBenchmarkB-4 \t 1 \t 5 ns/op\n",
	} {
		if _, err := parseBench(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed disagreeing machines without error:\n%s", bad)
		}
	}
}

// TestGateAcrossMachines: ns/op is compared only on the baseline's
// machine; allocs/op and coverage are gated everywhere.
func TestGateAcrossMachines(t *testing.T) {
	here := Machine{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2}
	there := here
	there.GOMAXPROCS = 4
	base := &Report{Machine: here, Benchmarks: map[string]Metrics{
		"BenchmarkNormalExec/update": {NsPerOp: 100, AllocsPerOp: 10},
	}}
	slower := &Report{Machine: there, Benchmarks: map[string]Metrics{
		"BenchmarkNormalExec/update": {NsPerOp: 200, AllocsPerOp: 10},
	}}
	if !gate(base, slower, 0.30) {
		t.Error("a 2x ns/op on a different machine failed the gate")
	}
	slower.Machine = here
	if gate(base, slower, 0.30) {
		t.Error("a 2x ns/op on the baseline's machine passed the gate")
	}
	allocs := &Report{Machine: there, Benchmarks: map[string]Metrics{
		"BenchmarkNormalExec/update": {NsPerOp: 100, AllocsPerOp: 20},
	}}
	if gate(base, allocs, 0.30) {
		t.Error("a 2x allocs/op on a different machine passed the gate")
	}
	if gate(base, &Report{Machine: there, Benchmarks: map[string]Metrics{}}, 0.30) {
		t.Error("a missing family on a different machine passed the gate")
	}
}

func TestMissingFamilies(t *testing.T) {
	base := &Report{Benchmarks: map[string]Metrics{
		"BenchmarkRangeScan/indexed":  {NsPerOp: 1},
		"BenchmarkRangeScan/fullscan": {NsPerOp: 1},
		"BenchmarkNormalExec/update":  {NsPerOp: 1},
		"BenchmarkCheckpoint":         {NsPerOp: 1},
	}}
	cur := &Report{Benchmarks: map[string]Metrics{
		// RangeScan lost one sub-benchmark but the family survives;
		// NormalExec and Checkpoint vanished entirely.
		"BenchmarkRangeScan/indexed": {NsPerOp: 1},
	}}
	got := missingFamilies(base, cur)
	want := []string{"BenchmarkCheckpoint", "BenchmarkNormalExec"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("missingFamilies = %v, want %v", got, want)
	}
}

func TestGateFailsOnMissingFamily(t *testing.T) {
	base := &Report{Benchmarks: map[string]Metrics{
		"BenchmarkRangeScan/indexed": {NsPerOp: 100},
		"BenchmarkNormalExec/update": {NsPerOp: 100},
	}}
	cur := &Report{Benchmarks: map[string]Metrics{
		"BenchmarkRangeScan/indexed": {NsPerOp: 100},
	}}
	if gate(base, cur, 0.30) {
		t.Error("gate passed with an entire baselined family missing")
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := &Report{Benchmarks: map[string]Metrics{
		"BenchmarkRangeScan/indexed": {NsPerOp: 100, AllocsPerOp: 10},
	}}
	cur := &Report{Benchmarks: map[string]Metrics{
		"BenchmarkRangeScan/indexed": {NsPerOp: 120, AllocsPerOp: 12},
	}}
	if !gate(base, cur, 0.30) {
		t.Error("gate failed within threshold")
	}
	cur.Benchmarks["BenchmarkRangeScan/indexed"] = Metrics{NsPerOp: 140, AllocsPerOp: 10}
	if gate(base, cur, 0.30) {
		t.Error("gate passed a 40% ns/op regression")
	}
}
