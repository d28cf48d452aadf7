package wiki

import (
	"strconv"
	"strings"
	"testing"

	"warp/internal/browser"
	"warp/internal/core"
)

// setup installs GoWiki on a fresh WARP deployment with a few users and
// pages.
func setup(t *testing.T) (*core.Warp, *App) {
	t.Helper()
	w := core.New(core.Config{Seed: 7})
	a, err := Install(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []struct {
		name  string
		admin bool
	}{{"admin", true}, {"alice", false}, {"bob", false}, {"mallory", false}} {
		if err := a.CreateUser(u.name, "pw-"+u.name, u.admin); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"Main", "Sandbox", "AlicePage"} {
		if err := a.CreatePage(p, "original content of "+p, false); err != nil {
			t.Fatal(err)
		}
	}
	return w, a
}

// login drives the login flow through the browser.
func login(t *testing.T, b *browser.Browser, user string) {
	t.Helper()
	p := b.Open("/login.php")
	if err := p.TypeInto("user", user); err != nil {
		t.Fatal(err)
	}
	if err := p.TypeInto("password", "pw-"+user); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(0); err != nil {
		t.Fatal(err)
	}
	if b.Cookies()["sid"] == "" {
		t.Fatalf("login failed for %s", user)
	}
}

// editPage drives a page edit through the browser and returns the final
// page.
func editPage(t *testing.T, b *browser.Browser, title, newContent string) *browser.Page {
	t.Helper()
	p := b.Open("/edit.php?title=" + title)
	if err := p.TypeInto("content", newContent); err != nil {
		t.Fatalf("edit %s: %v", title, err)
	}
	p2, err := p.Submit(0)
	if err != nil {
		t.Fatal(err)
	}
	return p2
}

func TestBrowseLoginEdit(t *testing.T) {
	w, a := setup(t)
	b := w.NewBrowser()

	p := b.Open("/index.php?title=Main")
	if !strings.Contains(p.DOM.InnerText(), "original content of Main") {
		t.Fatalf("page render: %q", p.DOM.InnerText())
	}
	login(t, b, "alice")
	editPage(t, b, "Main", "hello from alice")
	got, err := a.PageContent("Main")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello from alice" {
		t.Fatalf("content = %q", got)
	}
	if ed, _ := a.PageEditor("Main"); ed != "alice" {
		t.Fatalf("editor = %q", ed)
	}
	// The visit logs were uploaded.
	if w.Storage().PageVisits < 3 {
		t.Fatalf("visits logged = %d", w.Storage().PageVisits)
	}
}

func TestProtectionACL(t *testing.T) {
	w, a := setup(t)
	if err := a.CreatePage("Secret", "classified", true); err != nil {
		t.Fatal(err)
	}
	b := w.NewBrowser()
	login(t, b, "bob")
	p := b.Open("/edit.php?title=Secret")
	if !strings.Contains(p.DOM.InnerText(), "permission") {
		t.Fatalf("expected denial: %q", p.DOM.InnerText())
	}
	if err := a.Grant("Secret", "bob"); err != nil {
		t.Fatal(err)
	}
	editPage(t, b, "Secret", "bob was here")
	if got, _ := a.PageContent("Secret"); got != "bob was here" {
		t.Fatalf("content = %q", got)
	}
}

func TestEditSanitizesOnSave(t *testing.T) {
	w, a := setup(t)
	b := w.NewBrowser()
	login(t, b, "alice")
	editPage(t, b, "Main", "<script>warpjs: get /index.php</script>")
	got, _ := a.PageContent("Main")
	if strings.Contains(got, "<script>") {
		t.Fatalf("content not sanitized: %q", got)
	}
}

func TestSQLInjectionWorksUnpatched(t *testing.T) {
	w, a := setup(t)
	b := w.NewBrowser()
	// The paper's attack: append attack text to every page via thelang.
	b.Open("/maintenance.php?thelang=" + urlQuery("en', content = content || 'ATTACK"))
	got, _ := a.PageContent("Main")
	if !strings.HasSuffix(got, "ATTACK") {
		t.Fatalf("injection failed: %q", got)
	}
	got, _ = a.PageContent("Sandbox")
	if !strings.HasSuffix(got, "ATTACK") {
		t.Fatalf("injection should hit every page: %q", got)
	}
	_ = w
}

func urlQuery(s string) string {
	r := strings.NewReplacer(" ", "%20", "'", "%27", "|", "%7C", "<", "%3C", ">", "%3E", "=", "%3D", "&", "%26", ";", "%3B", "{", "%7B", "}", "%7D", "/", "%2F", "?", "%3F", "+", "%2B", "\n", "%0A", "\"", "%22", "#", "%23")
	return r.Replace(s)
}

//
// End-to-end repair scenarios
//

// TestRetroPatchStoredXSS runs the paper's §1 worst-case scenario end to
// end: a stored XSS payload reaches a victim's browser, acts with the
// victim's privileges, and the administrator later repairs everything by
// retroactively patching the vulnerable file.
func TestRetroPatchStoredXSS(t *testing.T) {
	w, a := setup(t)

	// Mallory stores the payload through the vulnerable block tool. The
	// payload, when executed in a victim's browser, appends attacker text
	// to AlicePage through the victim's own session.
	attacker := w.NewBrowser()
	login(t, attacker, "mallory")
	payload := `<script>warpjs: appendedit /edit.php?title=AlicePage content  +PWNED</script>`
	attacker.Open("/block.php?ip=" + urlQuery(payload))

	// Alice, the victim, views the infected block log; the payload runs in
	// her browser and corrupts AlicePage.
	alice := w.NewBrowser()
	login(t, alice, "alice")
	alice.Open("/blocklog.php")
	got, _ := a.PageContent("AlicePage")
	if !strings.Contains(got, "+PWNED") {
		t.Fatalf("attack did not land: %q", got)
	}

	// Alice also does legitimate work afterwards.
	editPage(t, alice, "Sandbox", "alice legit edit")

	// Bob browses unrelated pages.
	bob := w.NewBrowser()
	login(t, bob, "bob")
	bob.Open("/index.php?title=Main")

	// The administrator retroactively applies the CVE-2009-4589 patch.
	vuln, _ := a.VulnerabilityByKind("Stored XSS")
	rep, err := w.RetroPatch(vuln.File, vuln.Patch)
	if err != nil {
		t.Fatal(err)
	}

	// The attack's effect is gone; legitimate work survives.
	got, _ = a.PageContent("AlicePage")
	if strings.Contains(got, "PWNED") {
		t.Fatalf("attack persisted after repair: %q", got)
	}
	if got != "original content of AlicePage" {
		t.Fatalf("page not restored: %q", got)
	}
	if got, _ := a.PageContent("Sandbox"); got != "alice legit edit" {
		t.Fatalf("legitimate edit lost: %q", got)
	}
	// The block log entry is now sanitized.
	res, _, err := w.DB.Exec("SELECT note FROM blocklog")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || strings.Contains(res.Rows[0][0].AsText(), "<script>") {
		t.Fatalf("block log not sanitized: %v", res.Rows)
	}
	// No user conflicts: WARP disentangled everything automatically.
	if n := rep.UsersWithConflicts(); n != 0 {
		t.Fatalf("conflicts = %d (%+v)", n, rep.Conflicts)
	}
	// Repair was selective: Bob's unrelated browsing was not replayed.
	if rep.PageVisitsReplayed >= rep.TotalPageVisits {
		t.Fatalf("repair replayed everything: %d/%d", rep.PageVisitsReplayed, rep.TotalPageVisits)
	}
}

// TestRetroPatchPreservesVictimEditViaMerge is the §8.3 append-only case:
// the victim edited a page that the attack had appended to; repair removes
// the attack text and re-applies the victim's edit by three-way merge.
func TestRetroPatchPreservesVictimEditViaMerge(t *testing.T) {
	w, a := setup(t)

	attacker := w.NewBrowser()
	login(t, attacker, "mallory")
	payload := `<script>warpjs: appendedit /edit.php?title=AlicePage content \nATTACKLINE</script>`
	attacker.Open("/block.php?ip=" + urlQuery(payload))

	alice := w.NewBrowser()
	login(t, alice, "alice")
	alice.Open("/blocklog.php") // infected; appends ATTACKLINE to AlicePage

	// Alice edits the (corrupted) page: she appends her own line after the
	// attack line.
	cur, _ := a.PageContent("AlicePage")
	if !strings.Contains(cur, "ATTACKLINE") {
		t.Fatalf("attack did not land: %q", cur)
	}
	editPage(t, alice, "AlicePage", cur+"\nalice line")

	vuln, _ := a.VulnerabilityByKind("Stored XSS")
	rep, err := w.RetroPatch(vuln.File, vuln.Patch)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := a.PageContent("AlicePage")
	if strings.Contains(got, "ATTACKLINE") {
		t.Fatalf("attack text survived: %q", got)
	}
	if !strings.Contains(got, "alice line") {
		t.Fatalf("victim's edit lost: %q", got)
	}
	if n := rep.UsersWithConflicts(); n != 0 {
		t.Fatalf("unexpected conflicts: %+v", rep.Conflicts)
	}
}

// TestRetroPatchUnexploitedVulnerability: patching a bug nobody exploited
// must leave the database unchanged (repair idempotence).
func TestRetroPatchUnexploitedVulnerability(t *testing.T) {
	w, a := setup(t)
	alice := w.NewBrowser()
	login(t, alice, "alice")
	editPage(t, alice, "Main", "alice content")
	alice.Open("/blocklog.php")

	vuln, _ := a.VulnerabilityByKind("Stored XSS")
	rep, err := w.RetroPatch(vuln.File, vuln.Patch)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := a.PageContent("Main"); got != "alice content" {
		t.Fatalf("content changed: %q", got)
	}
	if n := rep.UsersWithConflicts(); n != 0 {
		t.Fatalf("conflicts on unexploited patch: %+v", rep.Conflicts)
	}
}

// TestUndoACLMistake is the paper's administrator-mistake scenario: the
// admin grants the wrong user access to a protected page, the user edits
// it, and the admin undoes the granting page visit. The user's edit is
// reverted and the user gets a conflict.
func TestUndoACLMistake(t *testing.T) {
	w, a := setup(t)
	if err := a.CreatePage("Secret", "classified", true); err != nil {
		t.Fatal(err)
	}

	admin := w.NewBrowser()
	login(t, admin, "admin")
	// The admin grants bob access through the protection form.
	grantForm := admin.Open("/acl.php?title=Secret")
	if err := grantForm.TypeInto("user", "bob"); err != nil {
		t.Fatal(err)
	}
	grantPost, err := grantForm.Submit(0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.HasACL("Secret", "bob") {
		t.Fatal("grant failed")
	}

	// Bob exploits his unexpected access.
	bob := w.NewBrowser()
	login(t, bob, "bob")
	editPage(t, bob, "Secret", "bob read the secrets")

	// The admin undoes the page visit whose POST made the grant.
	rep, err := w.UndoVisit(admin.ClientID, grantPost.Log.VisitID, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.HasACL("Secret", "bob") {
		t.Fatal("grant not undone")
	}
	if got, _ := a.PageContent("Secret"); got != "classified" {
		t.Fatalf("bob's edit not reverted: %q", got)
	}
	// Bob has a conflict: his edit no longer applies (§8.2: 1 user).
	if n := rep.UsersWithConflicts(); n != 1 {
		t.Fatalf("users with conflicts = %d (%+v)", n, rep.Conflicts)
	}
	if len(w.ConflictsFor(bob.ClientID)) == 0 {
		t.Fatal("bob's conflict not queued")
	}
}

// TestRetroPatchSQLInjection: the injection corrupts every page; repair
// restores them all and preserves post-attack legitimate edits.
func TestRetroPatchSQLInjection(t *testing.T) {
	w, a := setup(t)

	attacker := w.NewBrowser()
	attacker.Open("/maintenance.php?thelang=" + urlQuery("en', content = content || '<script>warpjs: get /index.php</script>"))
	if got, _ := a.PageContent("Main"); !strings.Contains(got, "script") {
		t.Fatalf("injection did not land: %q", got)
	}

	// Post-attack, alice edits Sandbox: her edit form shows the corrupted
	// content and she appends her own line below it.
	alice := w.NewBrowser()
	login(t, alice, "alice")
	cur, _ := a.PageContent("Sandbox")
	editPage(t, alice, "Sandbox", cur+"\nand alice")

	vuln, _ := a.VulnerabilityByKind("SQL injection")
	rep, err := w.RetroPatch(vuln.File, vuln.Patch)
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"Main", "AlicePage"} {
		if got, _ := a.PageContent(title); strings.Contains(got, "script") {
			t.Fatalf("%s still corrupted: %q", title, got)
		}
	}
	got, _ := a.PageContent("Sandbox")
	if strings.Contains(got, "script") {
		t.Fatalf("Sandbox still corrupted: %q", got)
	}
	if !strings.Contains(got, "and alice") {
		t.Fatalf("alice's edit lost: %q", got)
	}
	if n := rep.UsersWithConflicts(); n != 0 {
		t.Fatalf("conflicts: %+v", rep.Conflicts)
	}
}

// TestRetroPatchReflectedXSS: a victim visits an attacker page that frames
// the vulnerable installer URL; the reflected payload edits a page with
// the victim's session. Patching the installer undoes it.
func TestRetroPatchReflectedXSS(t *testing.T) {
	w, a := setup(t)

	alice := w.NewBrowser()
	login(t, alice, "alice")
	reflURL := "/config/index.php?wgDBname=" + urlQuery(`<script>warpjs: appendedit /edit.php?title=Main content  REFLECTED</script>`)
	attackHTML := `<html><body>win a prize!<iframe src="` + reflURL + `"></iframe></body></html>`
	alice.OpenAttackerPage("http://evil.example/prize", attackHTML)
	if got, _ := a.PageContent("Main"); !strings.Contains(got, "REFLECTED") {
		t.Fatalf("reflected attack did not land: %q", got)
	}

	vuln, _ := a.VulnerabilityByKind("Reflected XSS")
	rep, err := w.RetroPatch(vuln.File, vuln.Patch)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := a.PageContent("Main"); strings.Contains(got, "REFLECTED") {
		t.Fatalf("attack persisted: %q", got)
	}
	if n := rep.UsersWithConflicts(); n != 0 {
		t.Fatalf("conflicts: %+v", rep.Conflicts)
	}
}

// TestRetroPatchClickjacking: a victim interacts with the wiki through an
// attacker's invisible iframe. After the X-Frame-Options patch the framed
// interaction cannot replay and the victim gets a conflict (Table 3:
// conflicts expected).
func TestRetroPatchClickjacking(t *testing.T) {
	w, a := setup(t)

	alice := w.NewBrowser()
	login(t, alice, "alice")
	attackHTML := `<html><body>click the bouncing cow!<iframe src="/edit.php?title=Main"></iframe></body></html>`
	p := alice.OpenAttackerPage("http://evil.example/cow", attackHTML)
	frame := p.Frames()[0]
	if frame.Blocked {
		t.Fatal("frame should load before the patch")
	}
	// Alice thinks she's playing a game; she actually edits Main.
	if err := frame.TypeInto("content", "cow clicked"); err != nil {
		t.Fatal(err)
	}
	if _, err := frame.Submit(0); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.PageContent("Main"); got != "cow clicked" {
		t.Fatalf("clickjack edit missing: %q", got)
	}

	vuln, _ := a.VulnerabilityByKind("Clickjacking")
	rep, err := w.RetroPatch(vuln.File, vuln.Patch)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := a.PageContent("Main"); got != "original content of Main" {
		t.Fatalf("clickjacked edit not undone: %q", got)
	}
	if n := rep.UsersWithConflicts(); n != 1 {
		t.Fatalf("users with conflicts = %d (%+v)", n, rep.Conflicts)
	}
	found := false
	for _, c := range rep.Conflicts {
		if c.Kind == browser.ConflictFrameBlocked {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected frame-blocked conflict: %+v", rep.Conflicts)
	}
}

// TestRetroPatchLoginCSRF: the attacker's page silently logs the victim in
// under the attacker's account; her edits land under his name. After the
// patch, the CSRF login is rejected on replay and her edits re-execute
// under her own session.
func TestRetroPatchLoginCSRF(t *testing.T) {
	w, a := setup(t)

	alice := w.NewBrowser()
	login(t, alice, "alice")
	// The attack: silently re-log the victim in as mallory.
	attackHTML := `<html><body>cute kittens<script>warpjs: post /login.php user=mallory&password=pw-mallory</script></body></html>`
	alice.OpenAttackerPage("http://evil.example/kittens", attackHTML)

	// Alice, believing she is herself, edits a page. It is attributed to
	// mallory.
	editPage(t, alice, "Sandbox", "alice thinks she wrote this")
	if ed, _ := a.PageEditor("Sandbox"); ed != "mallory" {
		t.Fatalf("CSRF should attribute edit to mallory, got %q", ed)
	}

	vuln, _ := a.VulnerabilityByKind("CSRF")
	if _, err := w.RetroPatch(vuln.File, vuln.Patch); err != nil {
		t.Fatal(err)
	}
	// The edit is preserved but re-attributed to alice (§8.2).
	if got, _ := a.PageContent("Sandbox"); got != "alice thinks she wrote this" {
		t.Fatalf("edit lost: %q", got)
	}
	if ed, _ := a.PageEditor("Sandbox"); ed != "alice" {
		t.Fatalf("edit should be re-attributed to alice, got %q", ed)
	}
	// Alice's diverged cookie is queued for invalidation (§5.3).
	if !w.PendingCookieInvalidation(alice.ClientID) {
		t.Fatal("cookie invalidation not queued")
	}
}

// TestHotStatementsProbeOpenVersionsOnly pins the access plans of the
// statements a page view and an edit execute, after the time-travel
// rewrite: each is an equality probe of a partition or row-ID index
// bounded by the visibility predicate's end_time conjunct (the first
// parameter after the application's), so it visits the versions open at
// the statement's time and not the row's history. A change to the rewrite
// or the planner that loses the bound fails here, not in a benchmark.
func TestHotStatementsProbeOpenVersionsOnly(t *testing.T) {
	w, _ := setup(t)
	bounded := func(table, col string, param int) string {
		return "(" + table + ") scan=index-eq(" + col + ", bounded warp_end_time > ?" + strconv.Itoa(param) + ")"
	}
	for _, c := range []struct {
		src  string
		want []string
	}{
		{"SELECT user_id FROM sessions WHERE sid = ?", []string{"select" + bounded("sessions", "sid", 2)}},
		{"SELECT name, is_admin FROM users WHERE user_id = ?", []string{"select" + bounded("users", "user_id", 2)}},
		{"SELECT content, last_editor FROM pages WHERE title = ?", []string{"select" + bounded("pages", "title", 2)}},
		{"SELECT page_id, content, protected FROM pages WHERE title = ?", []string{"select" + bounded("pages", "title", 2)}},
		{"UPDATE pages SET content = ?, last_editor = ? WHERE title = ?",
			[]string{"select" + bounded("pages", "title", 4), "update" + bounded("pages", "title", 4)}},
		{"UPDATE pages SET protected = TRUE WHERE title = ?",
			[]string{"select" + bounded("pages", "title", 2), "update" + bounded("pages", "title", 2)}},
		{"DELETE FROM sessions WHERE sid = ?", []string{"update" + bounded("sessions", "sid", 2)}},
	} {
		got, err := w.DB.Explain(c.src)
		if err != nil {
			t.Fatalf("Explain(%q): %v", c.src, err)
		}
		if want := strings.Join(c.want, "; ") + "; footprint: "; !strings.HasPrefix(got, want) {
			t.Errorf("Explain(%q) = %q, want prefix %q", c.src, got, want)
		}
	}
}
