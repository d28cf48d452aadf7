package bench

import (
	"strings"
	"testing"
	"time"

	"warp/internal/core"
)

// TestFormatTable3FixedInput pins the Table 3 layout.
func TestFormatTable3FixedInput(t *testing.T) {
	rows := []Table3Row{
		{Scenario: "Reflected XSS", InitialRepair: "Retroactive patching", UnderRepair: 0, UsersConflict: 0},
		{Scenario: "ACL error", InitialRepair: "Admin-initiated", UnderRepair: 3, UsersConflict: 1},
	}
	got := FormatTable3(rows)
	want := "Table 3: WARP repairs the attack scenarios listed in Table 2.\n" +
		"Repaired: equal to the attack-free twin; in brackets, the rows that differ.\n" +
		"Attack scenario   Initial repair          Repaired?  # users with conflicts\n" +
		"Reflected XSS     Retroactive patching    yes (0)    0\n" +
		"ACL error         Admin-initiated         NO (3)     1\n"
	if got != want {
		t.Fatalf("FormatTable3 drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFormatTable7FixedInput exercises the Tables 7/8 renderer, including
// the duration rounding tiers.
func TestFormatTable7FixedInput(t *testing.T) {
	rows := []Table7Row{
		{
			Scenario:       "Stored XSS",
			VisitsReplayed: 4, VisitsTotal: 400,
			RunsReexecuted: 6, RunsTotal: 600,
			QueriesReexecuted: 40, QueryTotal: 4000,
			OriginalExec: 1500 * time.Millisecond,
			Repair: core.Timing{
				Total: 42 * time.Millisecond, Graph: 3 * time.Millisecond,
				Browser: 10 * time.Millisecond, DB: 12 * time.Millisecond,
				App: 9 * time.Millisecond, Ctrl: 8 * time.Millisecond,
			},
		},
	}
	got := FormatTable7("Table 7: WARP repairs attacks.", rows)
	for _, frag := range []string{
		"Table 7: WARP repairs attacks.",
		"Stored XSS",
		"4/400",
		"6/600",
		"40/4000",
		"1.5s",
		"42ms",
		"3ms/10ms/12ms/9ms/8ms",
	} {
		if !strings.Contains(got, frag) {
			t.Fatalf("FormatTable7 output missing %q:\n%s", frag, got)
		}
	}
}

// TestRoundTiers pins the duration rounding used across table renderers.
func TestRoundTiers(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{2340 * time.Millisecond, "2.34s"},
		{1234 * time.Microsecond, "1.2ms"},
		{987 * time.Nanosecond, "1µs"},
	}
	for _, c := range cases {
		if got := round(c.in); got != c.want {
			t.Errorf("round(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
