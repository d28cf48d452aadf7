package core

import (
	"strings"
	"testing"

	"warp/internal/app"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// The restart suite: a recovered deployment must resume its seeded
// nondeterminism streams (instead of replaying them from the seed) and
// must detect stale code registration (instead of silently replaying
// with mismatched handlers).

// loginApp installs a minimal session-issuing application: every /login
// draws a fresh session ID token and inserts it into a uniquely keyed
// sessions table — the shape of the post-restart login bug.
func loginApp(t *testing.T, w *Warp) {
	t.Helper()
	if err := w.DB.Annotate("sessions", ttdb.TableSpec{RowIDColumn: "sid"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE IF NOT EXISTS sessions (sid TEXT PRIMARY KEY, user_id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	login := func(c *app.Ctx) *httpd.Response {
		sid := c.Token("login.sid")
		if _, err := c.Query("INSERT INTO sessions (sid, user_id) VALUES (?, ?)",
			sqldb.Text(sid), sqldb.Int(1)); err != nil {
			return httpd.ServerError("sid collision: " + err.Error())
		}
		resp := httpd.HTML("welcome")
		resp.SetCookie("sid", sid)
		return resp
	}
	if err := w.Runtime.Register("login.php", app.Version{Entry: login}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/login", "login.php")
}

// TestLoginSurvivesRestart reproduces ROADMAP's post-restart login bug:
// login → restart → login. Without the persisted RNG cursor the
// restarted runtime replays the seeded token stream from the start,
// regenerates the recovered session's sid, and fails its uniqueness
// check.
func TestLoginSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 42, Durability: store.Options{SyncEveryAppend: true}}
	w, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loginApp(t, w)
	resp := w.HandleRequest(httpd.NewRequest("POST", "/login"))
	if resp.Status != 200 {
		t.Fatalf("first login failed: %d %s", resp.Status, resp.Body)
	}
	firstSid := resp.SetCookies["sid"]
	if firstSid == "" {
		t.Fatal("no sid issued")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Crash()
	loginApp(t, w2) // application setup replays idempotently
	resp = w2.HandleRequest(httpd.NewRequest("POST", "/login"))
	if resp.Status != 200 {
		t.Fatalf("post-restart login failed: %d %s (seeded token stream replayed from the start?)", resp.Status, resp.Body)
	}
	if got := resp.SetCookies["sid"]; got == firstSid {
		t.Fatalf("post-restart login re-issued recovered sid %q", got)
	}
	// Both sessions are live.
	res, _, err := w2.DB.Exec("SELECT COUNT(*) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsInt() != 2 {
		t.Fatalf("sessions = %d, want 2", res.FirstValue().AsInt())
	}
}

// TestRNGCursorsSurviveCrash: the checkpointed cursors fix restart after
// a clean Close, but a hard crash between checkpoints used to replay
// the nondeterminism streams' unsynced tail. Cursor advances are now
// WAL-logged (recRNGCursors), so recovery after a crash — with no
// checkpoint ever written — must also resume both streams exactly.
func TestRNGCursorsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 42, Durability: store.Options{SyncEveryAppend: true}}
	w, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loginApp(t, w)
	resp := w.HandleRequest(httpd.NewRequest("POST", "/login"))
	if resp.Status != 200 {
		t.Fatalf("first login failed: %d %s", resp.Status, resp.Body)
	}
	firstSid := resp.SetCookies["sid"]
	firstClient := w.NewBrowser().ClientID
	w.Crash() // hard crash: WAL tail only, no checkpoint

	w2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Crash()
	if w2.Recovery().FromSnapshot {
		t.Fatal("test expects WAL-only recovery, found a checkpoint")
	}
	loginApp(t, w2)
	resp = w2.HandleRequest(httpd.NewRequest("POST", "/login"))
	if resp.Status != 200 {
		t.Fatalf("post-crash login failed: %d %s (cursor WAL records not replayed?)", resp.Status, resp.Body)
	}
	if got := resp.SetCookies["sid"]; got == firstSid {
		t.Fatalf("post-crash login re-issued recovered sid %q", got)
	}
	if got := w2.NewBrowser().ClientID; got == firstClient {
		t.Fatalf("post-crash browser re-issued recovered client ID %q", got)
	}
	res, _, err := w2.DB.Exec("SELECT COUNT(*) FROM sessions")
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsInt() != 2 {
		t.Fatalf("sessions = %d, want 2", res.FirstValue().AsInt())
	}
}

// TestBrowserSeedStreamResumes: browser identities drawn after a restart
// must not collide with recovered ones (the deployment-level half of the
// seeded-RNG restart issue).
func TestBrowserSeedStreamResumes(t *testing.T) {
	dir := t.TempDir()
	dur := store.Options{SyncEveryAppend: true}
	w := buildWarpDur(t, dir, 1, dur)
	b1 := w.NewBrowser()
	b1.Open("/?author=ann&msg=hi")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := buildWarpDur(t, dir, 1, dur)
	defer w2.Crash()
	b2 := w2.NewBrowser()
	if b2.ClientID == b1.ClientID {
		t.Fatalf("post-restart browser re-issued recovered client ID %q", b2.ClientID)
	}
}

// TestStaleCodeDetectedAfterRestart: a deployment checkpointed while
// running patched (v2) code, reopened with only v1 registered, must
// report the stale file and refuse repairs other than re-patching the
// stale file itself.
func TestStaleCodeDetectedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	w := buildWarpDur(t, dir, 1, store.Options{SyncEveryAppend: true})
	b := w.NewBrowser()
	b.Open("/?author=ann&msg=hello")
	patch := app.Version{Entry: guestbookHandler(true), Note: "sanitize"}
	if _, err := w.RetroPatch("guestbook.php", patch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := buildWarpDur(t, dir, 1, store.Options{SyncEveryAppend: true}) // registers v1 only
	defer w2.Crash()
	stale := w2.StaleFiles()
	if len(stale) != 1 || stale[0] != "guestbook.php" {
		t.Fatalf("StaleFiles = %v, want [guestbook.php]", stale)
	}

	// Any repair that would re-execute runs through the stale handler is
	// refused with a diagnosis.
	if _, err := w2.UndoVisit(b.ClientID, 1, true); err == nil ||
		!strings.Contains(err.Error(), "guestbook.php") {
		t.Fatalf("repair with stale code: err = %v, want stale-code refusal naming the file", err)
	}

	// Re-applying the newer version is the fix, and is allowed through as
	// a retroactive patch of the stale file itself.
	if _, err := w2.RetroPatch("guestbook.php", patch); err != nil {
		t.Fatalf("re-patching the stale file: %v", err)
	}
	if stale := w2.StaleFiles(); len(stale) != 0 {
		t.Fatalf("StaleFiles after re-patch = %v, want none", stale)
	}
	// With versions caught up, other repairs run again.
	if _, err := w2.UndoVisit(b.ClientID, 1, true); err != nil {
		t.Fatalf("repair after re-patch: %v", err)
	}
}
