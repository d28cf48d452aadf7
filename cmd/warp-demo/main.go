// Command warp-demo runs the six §8.2 attack scenarios end to end on a
// small multi-user workload and narrates what WARP does for each: the
// attack, the recovery initiation (retroactive patch or visit undo), and
// the verified outcome: how many rows differ from the attack-free twin
// (the same workload with the scenario's fix in place from the start)
// before and after repair. It exits 1 when a repair leaves any. It is the
// quickest way to see the whole system work.
package main

import (
	"flag"
	"fmt"
	"os"

	"warp/internal/attacks"
	"warp/internal/webapp/wiki"
	"warp/internal/workload"
)

func main() {
	users := flag.Int("users", 12, "workload size")
	only := flag.String("scenario", "", "run a single scenario by name")
	flag.Parse()

	for _, sc := range attacks.Scenarios() {
		if *only != "" && sc.Name != *only {
			continue
		}
		if err := runScenario(sc, *users); err != nil {
			fmt.Fprintf(os.Stderr, "warp-demo: %s: %v\n", sc.Name, err)
			os.Exit(1)
		}
	}
}

func runScenario(sc *attacks.Scenario, users int) error {
	fmt.Printf("════ %s ════\n", sc.Name)
	if v, ok := (&wiki.App{}).VulnerabilityByKind(sc.Name); ok && v.CVE != "—" {
		fmt.Printf("vulnerability: %s in %s — %s\n", v.CVE, v.File, v.Description)
		fmt.Printf("fix: %s\n", v.Fix)
	}
	res, err := workload.Run(workload.Config{Users: users, Victims: 3, Seed: 99, Scenario: sc})
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d users, %d page visits, %d app runs, %d queries; attack executed\n",
		users, res.PageVisits, res.AppRuns, res.Queries)

	before, err := res.UnderRepair()
	if err != nil {
		return err
	}
	fmt.Printf("state before repair: %d rows differ from the attack-free twin\n", before)
	fmt.Printf("initiating %s…\n", sc.InitialRepair)

	rep, err := sc.Repair(res.Env)
	if err != nil {
		return err
	}
	fmt.Println("repair:", rep.String())

	after, err := res.UnderRepair()
	if err != nil {
		return err
	}
	fmt.Printf("verified: repaired=%v (%d rows differ from the attack-free twin), users needing input=%d\n\n",
		after == 0, after, rep.UsersWithConflicts())
	if after != 0 {
		return fmt.Errorf("not repaired")
	}
	return nil
}
