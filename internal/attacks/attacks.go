// Package attacks drives the six attack scenarios of the paper's §8.2
// (Table 2/Table 3) against a GoWiki deployment, together with the
// multi-user workload around them.
//
// Each scenario has four parts: Setup (the attacker's preparation),
// Trigger (what happens when a victim is exposed), Repair (how the
// administrator initiates recovery — retroactive patching for the five
// software vulnerabilities, visit undo for the ACL mistake), and Fix (what
// the attack-free twin has in place from the start, the ground truth
// repair must reach). The workload driver (internal/workload) composes
// these with the login/read/edit background activity of §8.2.
package attacks

import (
	"errors"
	"fmt"
	"net/url"
	"strings"

	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/webapp/wiki"
)

// User is one simulated wiki user with their browser.
type User struct {
	Name string
	B    *browser.Browser
}

// Env is the environment a scenario runs in.
type Env struct {
	W   *core.Warp
	App *wiki.App

	Admin    *User
	Attacker *User
	Victims  []*User
	Others   []*User

	// TargetPage is the shared page attacks corrupt ("TeamPage").
	TargetPage string

	// UndoClient/UndoVisit identify the page visit to cancel for
	// admin-initiated repair scenarios.
	UndoClient string
	UndoVisit  int64
}

// AllUsers returns every user in a stable order.
func (e *Env) AllUsers() []*User {
	out := []*User{e.Admin, e.Attacker}
	out = append(out, e.Victims...)
	out = append(out, e.Others...)
	return out
}

// Scenario is one §8.2 attack scenario.
type Scenario struct {
	Name          string // Table 2/3 row name
	InitialRepair string // "Retroactive patching" or "Admin-initiated"

	// Setup runs the attacker's preparation (after everyone logged in);
	// nil when there is none.
	Setup func(e *Env) error
	// Trigger exposes one victim to the attack; nil when the attack has
	// no victims beyond Setup's.
	Trigger func(e *Env, victim *User) error
	// Repair initiates recovery.
	Repair func(e *Env) (*core.Report, error)
	// Fix puts the scenario's fix in place in the attack-free twin, right
	// after install: a retro-patch scenario installs its Table 2 patch,
	// and Setup and Trigger then run against it (a Trigger it blocks
	// returns ErrBlocked). Nil when the attack is a mistake the twin never
	// makes: it runs neither Setup nor Trigger.
	Fix func(e *Env) error
}

// ErrBlocked is returned by a Trigger that the scenario's fix stops
// before it reaches the application: a no-op in the attack-free twin, a
// failed attack anywhere else.
var ErrBlocked = errors.New("attacks: blocked by the fix")

// q URL-encodes a query component.
func q(s string) string { return url.QueryEscape(s) }

// appendPayload is the XSS payload used by the reflected and stored XSS
// scenarios: executed in the victim's browser, it appends attacker text to
// the shared target page using the victim's session (§1's example attack).
func appendPayload(target string) string {
	return `<script>warpjs: post /append.php title=` + target + `&text=PWNED-by-attacker</script>`
}

// retroPatched completes a retro-patch scenario, whose name is its
// Table 2 vulnerability kind: Repair applies the kind's patch
// retroactively, Fix installs it before anyone acts. (An unknown kind
// names no file, which the runtime refuses to patch.)
func retroPatched(sc *Scenario) *Scenario {
	sc.InitialRepair = "Retroactive patching"
	sc.Repair = func(e *Env) (*core.Report, error) {
		v, _ := e.App.VulnerabilityByKind(sc.Name)
		return e.W.RetroPatch(v.File, v.Patch)
	}
	sc.Fix = func(e *Env) error {
		v, _ := e.App.VulnerabilityByKind(sc.Name)
		return e.W.Runtime.Patch(v.File, v.Patch)
	}
	return sc
}

// Scenarios returns the six §8.2 scenarios.
func Scenarios() []*Scenario {
	return []*Scenario{
		ReflectedXSS(),
		StoredXSS(),
		CSRF(),
		Clickjacking(),
		SQLInjection(),
		ACLError(),
	}
}

// ByName finds a scenario.
func ByName(name string) (*Scenario, bool) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// ReflectedXSS: the attacker lures victims to a page that frames the
// vulnerable installer URL; the reflected payload runs with the victim's
// session.
func ReflectedXSS() *Scenario {
	return retroPatched(&Scenario{
		Name: "Reflected XSS",
		Trigger: func(e *Env, victim *User) error {
			reflURL := "/config/index.php?wgDBname=" + q(appendPayload(e.TargetPage))
			html := `<html><body>win a prize!<iframe src="` + reflURL + `"></iframe></body></html>`
			victim.B.OpenAttackerPage("http://evil.example/prize", html)
			return nil
		},
	})
}

// StoredXSS: the attacker stores the payload through the vulnerable block
// tool; victims view the block log.
func StoredXSS() *Scenario {
	return retroPatched(&Scenario{
		Name: "Stored XSS",
		Setup: func(e *Env) error {
			e.Attacker.B.Open("/block.php?ip=" + q(appendPayload(e.TargetPage)))
			return nil
		},
		Trigger: func(e *Env, victim *User) error {
			victim.B.Open("/blocklog.php")
			return nil
		},
	})
}

// CSRF: the attacker's page silently logs the victim in under the
// attacker's account; the victim's subsequent edits are misattributed.
func CSRF() *Scenario {
	return retroPatched(&Scenario{
		Name: "CSRF",
		Trigger: func(e *Env, victim *User) error {
			html := `<html><body>cute kittens<script>warpjs: post /login.php user=` +
				e.Attacker.Name + `&password=pw-` + e.Attacker.Name + `</script></body></html>`
			victim.B.OpenAttackerPage("http://evil.example/kittens", html)
			return nil
		},
	})
}

// Clickjacking: the attacker's page frames the wiki edit form invisibly;
// the victim interacts with it believing it is the attacker's game.
func Clickjacking() *Scenario {
	return retroPatched(&Scenario{
		Name: "Clickjacking",
		Trigger: func(e *Env, victim *User) error {
			html := `<html><body>click the bouncing cow!<iframe src="/edit.php?title=` +
				q(e.TargetPage) + `"></iframe></body></html>`
			p := victim.B.OpenAttackerPage("http://evil.example/cow", html)
			if len(p.Frames()) == 0 {
				return fmt.Errorf("attacks: clickjacking frame did not load")
			}
			frame := p.Frames()[0]
			if frame.Blocked {
				return ErrBlocked // the patch's frame guard
			}
			if err := frame.TypeInto("content", "mooo from "+victim.Name); err != nil {
				return err
			}
			_, err := frame.Submit(0)
			return err
		},
	})
}

// SQLInjection: the attacker's page makes victims' browsers hit the
// vulnerable maintenance endpoint; the injected UPDATE appends attack text
// to every page (§8.5's scaling note).
func SQLInjection() *Scenario {
	injection := "en', content = content || '" + "\nSQLI-ATTACK"
	return retroPatched(&Scenario{
		Name: "SQL injection",
		Trigger: func(e *Env, victim *User) error {
			html := `<html><body>free stuff<script>warpjs: get /maintenance.php?thelang=` +
				q(injection) + `</script></body></html>`
			victim.B.OpenAttackerPage("http://evil.example/free", html)
			return nil
		},
	})
}

// ACLError: the administrator grants the wrong user access to a protected
// page; the user exploits it; the administrator undoes the granting visit.
// Both happen in Setup, and the twin makes neither: without the mistaken
// grant there is nothing to exploit.
func ACLError() *Scenario {
	return &Scenario{
		Name:          "ACL error",
		InitialRepair: "Admin-initiated",
		Setup: func(e *Env) error {
			// The admin grants the attacker (here: the unprivileged user)
			// access to the protected page, by mistake.
			form := e.Admin.B.Open("/acl.php?title=Restricted")
			if err := form.TypeInto("user", e.Attacker.Name); err != nil {
				return err
			}
			post, err := form.Submit(0)
			if err != nil {
				return err
			}
			e.UndoClient = e.Admin.B.ClientID
			e.UndoVisit = post.Log.VisitID
			// The unprivileged user exploits the grant.
			p := e.Attacker.B.Open("/edit.php?title=Restricted")
			if p.DOM == nil || !strings.Contains(p.DOM.Render(), "textarea") {
				return fmt.Errorf("attacks: exploit did not reach the edit form")
			}
			if err := p.TypeInto("content", "I should not be able to write this"); err != nil {
				return err
			}
			_, err = p.Submit(0)
			return err
		},
		Repair: func(e *Env) (*core.Report, error) {
			return e.W.UndoVisit(e.UndoClient, e.UndoVisit, true)
		},
	}
}
