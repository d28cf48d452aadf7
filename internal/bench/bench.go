// Package bench runs the paper's repair experiments and the measurements
// benchmarks/warpload cannot hold.
//
// Tables 3, 4, 5, 7 and 8 of the paper's evaluation (§8) are functions
// here: cmd/warp-bench prints them in the paper's layout and the tests
// hold their shapes (TestPaperTableShapes). Absolute numbers differ from
// the paper — the substrate is this repository's simulator, not
// Apache/PostgreSQL/Firefox on 2011 hardware — but the shapes match:
// which scenarios repair, who conflicts, what fraction of actions
// re-executes, how repair scales with workload size, and how WARP
// compares to the taint-tracking baseline. Table 6, normal-operation
// overhead, is measured end to end by benchmarks/warpload.
//
// The rest run on one owner-partitioned fixture (fixture.go) and carry
// the bars warpload does not: live latency during an online repair
// against a stop-the-world one (OnlineRepair), and the fsync-per-append
// write path (DurableDeployment).
package bench

import (
	"fmt"
	"strings"
	"time"

	"warp/internal/attacks"
	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/taint"
	"warp/internal/workload"
)

// Table3Row is one row of Table 3: scenario, repair method, success, and
// users with conflicts. UnderRepair counts the rows in which the repaired
// deployment differs from its attack-free twin (workload.Result's
// UnderRepair); 0 means repaired.
type Table3Row struct {
	Scenario      string
	InitialRepair string
	UnderRepair   int
	UsersConflict int
}

// Table3 runs the six §8.2 scenarios and reports repair outcomes.
func Table3(users int) ([]Table3Row, error) {
	var rows []Table3Row
	for _, sc := range attacks.Scenarios() {
		res, err := workload.Run(workload.Config{Users: users, Victims: 3, Seed: 1000, Scenario: sc})
		if err != nil {
			return nil, fmt.Errorf("%s: workload: %w", sc.Name, err)
		}
		rep, err := sc.Repair(res.Env)
		if err != nil {
			return nil, fmt.Errorf("%s: repair: %w", sc.Name, err)
		}
		under, err := res.UnderRepair()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		rows = append(rows, Table3Row{
			Scenario:      sc.Name,
			InitialRepair: sc.InitialRepair,
			UnderRepair:   under,
			UsersConflict: rep.UsersWithConflicts(),
		})
	}
	return rows, nil
}

// Table4Row is one row of Table 4: users with conflicts per replay
// configuration for one attack action type.
type Table4Row struct {
	AttackAction string
	NoExtension  int
	NoTextMerge  int
	FullWARP     int
}

// Table4 measures browser re-execution effectiveness (§8.3): one attacker,
// eight victims, three payload types, three replay configurations.
func Table4() ([]Table4Row, error) {
	payloads := []struct {
		name   string
		script string
	}{
		{"read-only", `<script>warpjs: get /index.php?title=Main</script>`},
		{"append-only", `<script>warpjs: appendedit /edit.php?title=TeamPage content \nAPPENDED</script>`},
		{"overwrite", `<script>warpjs: overwriteedit /edit.php?title=TeamPage content OVERWRITTEN</script>`},
	}
	configs := []struct {
		name string
		cfg  browser.ReplayConfig
	}{
		{"noext", browser.ReplayConfig{HasLog: false}},
		{"nomerge", browser.ReplayConfig{HasLog: true, TextMerge: false}},
		{"full", browser.FullReplay},
	}
	rows := make([]Table4Row, len(payloads))
	for pi, p := range payloads {
		rows[pi].AttackAction = p.name
		for _, c := range configs {
			n, err := table4Run(p.script, c.cfg)
			if err != nil {
				return nil, fmt.Errorf("table4 %s/%s: %w", p.name, c.name, err)
			}
			switch c.name {
			case "noext":
				rows[pi].NoExtension = n
			case "nomerge":
				rows[pi].NoTextMerge = n
			case "full":
				rows[pi].FullWARP = n
			}
		}
	}
	return rows, nil
}

// table4Run builds the 8-victim stored-XSS experiment under one replay
// configuration and returns the users with conflicts after repair.
func table4Run(script string, cfg browser.ReplayConfig) (int, error) {
	sc := &attacks.Scenario{
		Name:          "Stored XSS (table 4)",
		InitialRepair: "Retroactive patching",
		Setup: func(e *attacks.Env) error {
			e.Attacker.B.Open("/block.php?ip=" + urlQ(script))
			return nil
		},
		Trigger: func(e *attacks.Env, victim *attacks.User) error {
			victim.B.Open("/blocklog.php")
			// The victim edits the team page after exposure: they rewrite
			// the first line (of whatever content they saw) and append a
			// note. WARP must preserve this or raise a conflict (§8.3).
			p := victim.B.Open("/edit.php?title=TeamPage")
			field := p.DOM.ByName("content")
			if field == nil {
				return fmt.Errorf("no edit form")
			}
			lines := strings.SplitN(field.InnerText(), "\n", 2)
			edited := "reviewed by " + victim.Name + ": " + lines[0]
			if len(lines) > 1 {
				edited += "\n" + lines[1]
			}
			edited += "\nnote by " + victim.Name
			if err := p.TypeInto("content", edited); err != nil {
				return err
			}
			_, err := p.Submit(0)
			return err
		},
		Repair: nil, // assigned below
	}
	sc.Repair = func(e *attacks.Env) (*core.Report, error) {
		v, _ := e.App.VulnerabilityByKind("Stored XSS")
		return e.W.RetroPatch(v.File, v.Patch)
	}
	res, err := workload.Run(workload.Config{
		Users: 11, Victims: 8, Seed: 2000, Scenario: sc, Replay: &cfg,
	})
	if err != nil {
		return 0, err
	}
	rep, err := sc.Repair(res.Env)
	if err != nil {
		return 0, err
	}
	return rep.UsersWithConflicts(), nil
}

func urlQ(s string) string {
	r := strings.NewReplacer(" ", "%20", "'", "%27", "<", "%3C", ">", "%3E", "=", "%3D",
		"&", "%26", ";", "%3B", "/", "%2F", "?", "%3F", "+", "%2B", "\n", "%0A", "\\", "%5C", "#", "%23")
	return r.Replace(s)
}

// Table5Row is one row of Table 5.
type Table5Row struct {
	Bug        taint.Bug
	Comparison *taint.Comparison
}

// Table5 runs the four §8.4 corruption-bug comparisons.
func Table5(scale int) ([]Table5Row, error) {
	var rows []Table5Row
	for _, bug := range taint.Bugs() {
		cmp, err := taint.RunComparison(bug, scale)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bug, err)
		}
		rows = append(rows, Table5Row{Bug: bug, Comparison: cmp})
	}
	return rows, nil
}

// Table7Row is one row of Tables 7 and 8.
type Table7Row struct {
	Scenario string

	VisitsReplayed, VisitsTotal   int
	RunsReexecuted, RunsTotal     int
	QueriesReexecuted, QueryTotal int

	OriginalExec time.Duration
	Repair       core.Timing
}

// Table7 reproduces Table 7: repair performance across the attack
// scenarios at the given user count (the paper uses 100). Rows: the four
// isolated scenarios, reflected XSS with victims at the start, and the
// two whole-history scenarios (CSRF, clickjacking).
func Table7(users int) ([]Table7Row, error) {
	type spec struct {
		label          string
		scenario       string
		victimsAtStart bool
	}
	specs := []spec{
		{"Reflected XSS", "Reflected XSS", false},
		{"Stored XSS", "Stored XSS", false},
		{"SQL injection", "SQL injection", false},
		{"ACL error", "ACL error", false},
		{"Reflected XSS (victims at start)", "Reflected XSS", true},
		{"CSRF", "CSRF", false},
		{"Clickjacking", "Clickjacking", false},
	}
	var rows []Table7Row
	for _, sp := range specs {
		row, err := runPerfScenario(sp.label, sp.scenario, users, sp.victimsAtStart)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// Table8 reproduces Table 8: the isolated scenarios at large scale (the
// paper uses 5,000 users).
func Table8(users int) ([]Table7Row, error) {
	var rows []Table7Row
	for _, name := range []string{"Reflected XSS", "Stored XSS", "SQL injection", "ACL error"} {
		row, err := runPerfScenario(name, name, users, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runPerfScenario(label, name string, users int, victimsAtStart bool) (*Table7Row, error) {
	sc, ok := attacks.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	res, err := workload.Run(workload.Config{
		Users: users, Victims: 3, Seed: 3000, Scenario: sc, VictimsAtStart: victimsAtStart,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: workload: %w", label, err)
	}
	rep, err := sc.Repair(res.Env)
	if err != nil {
		return nil, fmt.Errorf("%s: repair: %w", label, err)
	}
	return &Table7Row{
		Scenario:          label,
		VisitsReplayed:    rep.PageVisitsReplayed,
		VisitsTotal:       rep.TotalPageVisits,
		RunsReexecuted:    rep.AppRunsReexecuted,
		RunsTotal:         rep.TotalAppRuns,
		QueriesReexecuted: rep.QueriesReexecuted,
		QueryTotal:        rep.TotalQueries,
		OriginalExec:      res.OriginalExecTime,
		Repair:            rep.Timing,
	}, nil
}
