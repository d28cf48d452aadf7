// Package workload generates the multi-user wiki workloads of the paper's
// evaluation (§8.2, §8.5): N users who all log in, read pages, and edit
// pages, with one attacker, a few victims, and everyone else unaffected.
// Attack scenarios (internal/attacks) are spliced in at the start or the
// end of the workload — the paper's "victims at start/end" variants
// (Table 7).
package workload

import (
	"errors"
	"fmt"
	"time"

	"warp/internal/attacks"
	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/history"
	"warp/internal/store"
	"warp/internal/ttdb"
	"warp/internal/webapp/wiki"
)

// Config describes one workload.
type Config struct {
	// Users is the total number of users (the paper uses 100 and 5,000).
	// Minimum 5: one admin, one attacker, and the victims.
	Users int
	// Victims is the number of attacked users (the paper uses 3).
	Victims int
	// Seed drives deployment nondeterminism.
	Seed int64
	// VictimsAtStart places the attack before the background activity
	// (Table 7's fifth row) instead of after it.
	VictimsAtStart bool
	// Scenario is the attack to run; nil runs a clean workload (used for
	// the Table 6 overhead measurements).
	Scenario *attacks.Scenario
	// Replay overrides the browser re-execution configuration (Table 4's
	// degraded modes); nil means full WARP replay.
	Replay *browser.ReplayConfig
	// RepairWorkers sets the parallel repair worker count (0 means
	// GOMAXPROCS, 1 the serial engine).
	RepairWorkers int
	// DataDir, when non-empty, runs the workload against a durable
	// deployment (core.Open) persisting under this directory; the
	// durability benchmarks use it to measure WAL overhead on the
	// paper's workloads. Empty keeps everything in memory.
	DataDir string
	// Durability tunes the persistent store when DataDir is set.
	Durability store.Options
}

// Result is a generated workload: the environment plus original-execution
// statistics for the Tables 7/8 denominators.
type Result struct {
	Env *attacks.Env

	OriginalExecTime time.Duration
	PageVisits       int
	AppRuns          int
	Queries          int

	cfg Config // what UnderRepair re-runs
}

// Run builds a deployment, installs GoWiki, seeds users and pages, and
// executes the workload.
func Run(cfg Config) (*Result, error) { return run(cfg, false) }

// UnderRepair counts the rows in which the deployment, once repaired,
// differs from its attack-free twin: the same workload, seeds and users
// re-run in memory with the scenario's fix in place from the start
// (attacks.Scenario.Fix). 0 means repaired: the state that would have
// existed had the attack never run.
func (r *Result) UnderRepair() (int, error) {
	cfg := r.cfg
	cfg.DataDir = ""
	twin, err := run(cfg, true)
	if err != nil {
		return 0, fmt.Errorf("workload: attack-free twin: %w", err)
	}
	return ttdb.UnderRepair(r.Env.W.DB, twin.Env.W.DB, wiki.DrawnRowIDs()...)
}

// run executes the workload; fixed runs it as the attack-free twin.
func run(cfg Config, fixed bool) (*Result, error) {
	if cfg.Users < 5 {
		return nil, fmt.Errorf("workload: need at least 5 users, got %d", cfg.Users)
	}
	if cfg.Victims <= 0 {
		cfg.Victims = 3
	}
	if cfg.Victims > cfg.Users-2 {
		return nil, fmt.Errorf("workload: %d victims do not fit in %d users", cfg.Victims, cfg.Users)
	}

	ccfg := core.Config{Seed: cfg.Seed, Replay: cfg.Replay, RepairWorkers: cfg.RepairWorkers,
		Durability: cfg.Durability}
	var w *core.Warp
	durable := cfg.DataDir != ""
	if durable {
		var err error
		if w, err = core.Open(cfg.DataDir, ccfg); err != nil {
			return nil, err
		}
	} else {
		w = core.New(ccfg)
	}
	// A durable deployment owns goroutines and an open WAL; on success
	// the caller closes it (Result.Env.W), on failure we must.
	ok := false
	if durable {
		defer func() {
			if !ok {
				_ = w.Close()
			}
		}()
	}
	app, err := wiki.Install(w)
	if err != nil {
		return nil, err
	}
	env := &attacks.Env{W: w, App: app, TargetPage: "TeamPage"}
	sc := cfg.Scenario
	if fixed && sc != nil && sc.Fix != nil {
		if err := sc.Fix(env); err != nil {
			return nil, err
		}
	}

	// Seed accounts and pages (the pre-horizon base state).
	names := make([]string, cfg.Users)
	for i := range names {
		switch {
		case i == 0:
			names[i] = "admin"
		case i == 1:
			names[i] = "attacker"
		case i < 2+cfg.Victims:
			names[i] = fmt.Sprintf("victim%d", i-1)
		default:
			names[i] = fmt.Sprintf("user%d", i)
		}
		if err := app.CreateUser(names[i], "pw-"+names[i], i == 0); err != nil {
			return nil, err
		}
	}
	if err := app.CreatePage("Main", "welcome to GoWiki", false); err != nil {
		return nil, err
	}
	if err := app.CreatePage(env.TargetPage, "team notes", false); err != nil {
		return nil, err
	}
	if err := app.CreatePage("Restricted", "need-to-know only", true); err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := app.CreatePage("Page-"+n, "home page of "+n, false); err != nil {
			return nil, err
		}
	}

	// One browser per user.
	for i, n := range names {
		u := &attacks.User{Name: n, B: w.NewBrowser()}
		switch {
		case i == 0:
			env.Admin = u
		case i == 1:
			env.Attacker = u
		case i < 2+cfg.Victims:
			env.Victims = append(env.Victims, u)
		default:
			env.Others = append(env.Others, u)
		}
	}

	start := time.Now()

	// Everyone logs in (§8.2: "all users login, read, and edit").
	for _, u := range env.AllUsers() {
		if err := login(u); err != nil {
			return nil, fmt.Errorf("workload: login %s: %v", u.Name, err)
		}
	}

	runAttack := func() error {
		if sc == nil || fixed && sc.Fix == nil {
			return nil
		}
		if sc.Setup != nil {
			if err := sc.Setup(env); err != nil {
				return err
			}
		}
		if sc.Trigger == nil {
			return nil
		}
		for _, v := range env.Victims {
			if err := sc.Trigger(env, v); err != nil && !(fixed && errors.Is(err, attacks.ErrBlocked)) {
				return err
			}
			// The victim keeps working after exposure (their edits are what
			// repair must preserve or re-attribute).
			if err := editOwnPage(v, "post-attack note by "+v.Name); err != nil {
				return err
			}
		}
		return nil
	}

	if cfg.VictimsAtStart {
		if err := runAttack(); err != nil {
			return nil, err
		}
	}

	// Background activity: read own page, quick-append to the shared page,
	// edit own page.
	for _, u := range env.AllUsers() {
		if err := browse(env, u); err != nil {
			return nil, fmt.Errorf("workload: browse %s: %v", u.Name, err)
		}
	}

	if !cfg.VictimsAtStart {
		if err := runAttack(); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Env:              env,
		OriginalExecTime: time.Since(start),
		PageVisits:       w.Storage().PageVisits,
		AppRuns:          w.Graph.CountKind(history.KindAppRun),
		Queries:          w.Graph.CountKind(history.KindQuery),
		cfg:              cfg,
	}
	ok = true
	return res, nil
}

// login drives the login form flow.
func login(u *attacks.User) error {
	p := u.B.Open("/login.php")
	if err := p.TypeInto("user", u.Name); err != nil {
		return err
	}
	if err := p.TypeInto("password", "pw-"+u.Name); err != nil {
		return err
	}
	if _, err := p.Submit(0); err != nil {
		return err
	}
	if u.B.Cookies()["sid"] == "" {
		return fmt.Errorf("no session established")
	}
	return nil
}

// browse is one user's background activity.
func browse(env *attacks.Env, u *attacks.User) error {
	own := "Page-" + u.Name
	// Read the own page; it carries the quick-append form.
	p := u.B.Open("/index.php?title=" + own)
	// Append a note to the shared team page (write-only: no read of the
	// team page's content).
	if err := p.TypeInto("title", env.TargetPage); err != nil {
		return err
	}
	if err := p.TypeInto("text", "note from "+u.Name); err != nil {
		return err
	}
	if _, err := p.Submit(0); err != nil {
		return err
	}
	// Edit the own page.
	return editOwnPage(u, "edited by its owner")
}

// editOwnPage appends a line to the user's own page through the edit form.
func editOwnPage(u *attacks.User, line string) error {
	return editPage(u, "Page-"+u.Name, line)
}

// editPage appends a line to a page through the edit form flow.
func editPage(u *attacks.User, title, line string) error {
	p := u.B.Open("/edit.php?title=" + title)
	field := p.DOM.ByName("content")
	if field == nil {
		return fmt.Errorf("no edit form on %s (permission denied?)", title)
	}
	cur := field.InnerText()
	if err := p.TypeInto("content", cur+"\n"+line); err != nil {
		return err
	}
	_, err := p.Submit(0)
	return err
}
