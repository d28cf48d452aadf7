package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"warp/internal/bench"
	"warp/internal/taint"
)

// TestUsageErrorsExitTwo: a table warp-bench does not print is a usage
// error, and Table 6 points at the harness that measures it.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{{"-table", "6"}, {"-table", "9"}, {"-table", "-1"}, {"-bogus"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", args, stdout.String())
		}
	}
	var stderr bytes.Buffer
	run([]string{"-table", "6"}, &bytes.Buffer{}, &stderr)
	if !strings.Contains(stderr.String(), "go run ./benchmarks/warpload") {
		t.Errorf("-table 6 says %q, want it to name go run ./benchmarks/warpload", stderr.String())
	}
}

// TestFailuresNameBadRows: an unrepaired Table 3 scenario and a Table 5
// row with WARP false positives are failures; good rows are not.
func TestFailuresNameBadRows(t *testing.T) {
	t3 := []bench.Table3Row{{Scenario: "CSRF", UsersConflict: 1}, {Scenario: "ACL error", UnderRepair: 2}}
	t5 := []bench.Table5Row{
		{Bug: "clean", Comparison: &taint.Comparison{}},
		{Bug: "noisy", Comparison: &taint.Comparison{WARPFalsePositives: 2}},
	}
	got := failures(t3, t5)
	want := []string{"Table 3: ACL error not repaired: 2 rows differ from the attack-free twin",
		"Table 5: noisy: WARP reports 2 false positives"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failures = %q, want %q", got, want)
	}
	if got := failures(t3[:1], t5[:1]); got != nil {
		t.Fatalf("good rows reported as failures: %q", got)
	}
}
