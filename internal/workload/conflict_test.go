package workload

import (
	"fmt"
	"runtime"
	"testing"

	"warp/internal/attacks"
)

// TestConflictResolutionByCancel drives the §5.4 workflow end to end: a
// clickjacking repair queues conflicts for the victims; each victim then
// resolves their conflict by canceling the page visit, and the framed
// interaction's effects are undone for good: the deployment equals the
// attack-free twin. The subtests' workers is GOMAXPROCS: the repair loop
// runs one item at a time, so the outcome must not depend on it.
func TestConflictResolutionByCancel(t *testing.T) {
	sc, _ := attacks.ByName("Clickjacking")
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			res, err := Run(Config{Users: 8, Victims: 2, Seed: 17, Scenario: sc})
			if err != nil {
				t.Fatal(err)
			}
			w := res.Env.W
			if _, err := sc.Repair(res.Env); err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Env.Victims {
				conflicts := w.ConflictsFor(v.B.ClientID)
				if len(conflicts) == 0 {
					t.Fatalf("no conflict queued for %s", v.Name)
				}
				// The user cancels the conflicted page visit (the only
				// resolution the paper's prototype UI offers, §6).
				if _, err := w.ResolveConflictByCancel(v.B.ClientID, conflicts[0].VisitID); err != nil {
					t.Fatalf("%s: resolve: %v", v.Name, err)
				}
				if len(w.ConflictsFor(v.B.ClientID)) >= len(conflicts) {
					t.Fatalf("%s: conflict not dequeued", v.Name)
				}
			}
			// Resolving an unknown conflict is rejected.
			if _, err := w.ResolveConflictByCancel("nobody", 1); err == nil {
				t.Fatal("unknown conflict resolution must fail")
			}
			if n, err := res.UnderRepair(); err != nil || n != 0 {
				t.Fatalf("under-repair after resolution = %d rows (err %v), want 0", n, err)
			}
		})
	}
}

// TestCookieInvalidationOnNextContact verifies §5.3's cookie invalidation:
// after a CSRF repair diverges a victim's replayed cookie from the one in
// their real browser, the client's next request gets the stale cookie
// cleared.
func TestCookieInvalidationOnNextContact(t *testing.T) {
	sc, _ := attacks.ByName("CSRF")
	res, err := Run(Config{Users: 6, Victims: 1, Seed: 23, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Env.W
	if _, err := sc.Repair(res.Env); err != nil {
		t.Fatal(err)
	}
	victim := res.Env.Victims[0]
	if !w.PendingCookieInvalidation(victim.B.ClientID) {
		t.Fatal("victim's diverged cookie not queued for invalidation")
	}
	staleSid := victim.B.Cookies()["sid"]
	if staleSid == "" {
		t.Fatal("victim should still hold the stale cookie")
	}
	// The next contact clears it: the server both ignores the stale cookie
	// and instructs the browser to delete it.
	victim.B.Open("/index.php?title=Main")
	if got := victim.B.Cookies()["sid"]; got == staleSid {
		t.Fatalf("stale cookie survived next contact: %q", got)
	}
	if w.PendingCookieInvalidation(victim.B.ClientID) {
		t.Fatal("invalidation should be consumed")
	}
}
