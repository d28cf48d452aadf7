package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/history"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
	"warp/internal/webapp/blog"
	"warp/internal/webapp/wiki"
)

// recordedReads fingerprints the Result of every recorded read in the
// graph, by the Result itself: repair serves a clean re-issued read its
// recorded Result, so one Result can back several records.
func recordedReads(w *core.Warp) map[*sqldb.Result]uint64 {
	out := make(map[*sqldb.Result]uint64)
	for _, a := range w.Graph.ByKind(history.KindQuery) {
		if rec := a.Payload.(*core.QueryPayload).Rec; rec.Kind == ttdb.KindRead && rec.Result != nil {
			out[rec.Result] = rec.Result.Fingerprint()
		}
	}
	return out
}

// checkResultsUnchanged repairs w and fails if any recorded read's Result
// changed, or if the repair served no read from its record (the test would
// then not hold what it is for).
func checkResultsUnchanged(t *testing.T, what string, w *core.Warp, repair func() (*core.Report, error)) {
	t.Helper()
	before := recordedReads(w)
	rep, err := repair()
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppRunsReexecuted == 0 {
		t.Fatalf("%s: no run re-executed", what)
	}
	for res, fp := range before {
		if res.Fingerprint() != fp {
			t.Fatalf("%s: a recorded read result changed during repair: %v", what, res.Rows)
		}
	}
	shared := 0
	for _, a := range w.Graph.ByKind(history.KindQuery) {
		qp := a.Payload.(*core.QueryPayload)
		if _, ok := before[qp.Rec.Result]; ok && qp.Rec.Gen == rep.Generation {
			shared++
		}
	}
	if shared == 0 {
		t.Fatalf("%s: no re-executed run was served a recorded read", what)
	}
	t.Logf("%s: %d runs re-executed, %d reads served from their record", what, rep.AppRunsReexecuted, shared)
}

// TestRecordedResultsStayImmutable: a recorded read's Result is shared
// with the application code of every re-executed run it is served to
// (ttdb.Record.Result), so no repair may write one. Fingerprint them all
// before a full wiki retro-patch (the clickjacking fix of the library
// every page loads) and a blog one (the vote-wiping edit bug), and
// compare after.
func TestRecordedResultsStayImmutable(t *testing.T) {
	t.Run("wiki", func(t *testing.T) {
		w, patch := editedWiki(t)
		checkResultsUnchanged(t, "wiki", w, patch)
	})
	t.Run("blog", func(t *testing.T) {
		w := core.New(core.Config{Seed: 3})
		a, err := blog.Install(w)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 3; i++ {
			if err := a.CreatePost(i, fmt.Sprintf("Post %d", i), "original body"); err != nil {
				t.Fatal(err)
			}
		}
		users := make([]*browser.Browser, 6)
		for i := range users {
			users[i] = w.NewBrowser()
		}
		for i, b := range users[:3] {
			b.Open(fmt.Sprintf("/vote.php?id=1&u=user%d&val=1", i))
			b.Open(fmt.Sprintf("/comment.php?id=%d&u=user%d&text=nice", 1+i%3, i))
			b.Open("/post.php?id=1")
		}
		users[0].Open("/editpost.php?id=1&body=edited+body")
		for i, b := range users[3:] {
			b.Open(fmt.Sprintf("/post.php?id=%d", 1+i%3))
			b.Open(fmt.Sprintf("/vote.php?id=1&u=user%d&val=1", i+3))
			b.Open("/post.php?id=1")
		}
		users[0].Open("/digest.php?id=1")
		fixed := a.EditpostFixed()
		checkResultsUnchanged(t, "blog", w, func() (*core.Report, error) { return w.RetroPatch("editpost.php", fixed) })
	})
}

// editedWiki installs the wiki with three users who each view Main and
// edit Sandbox twice, and returns it with its full repair: the
// clickjacking fix of the library every page loads.
func editedWiki(t *testing.T) (*core.Warp, func() (*core.Report, error)) {
	t.Helper()
	w := core.New(core.Config{Seed: 3})
	a, err := wiki.Install(w)
	if err != nil {
		t.Fatal(err)
	}
	users := []string{"alice", "bob", "carol"}
	for _, u := range users {
		if err := a.CreateUser(u, "pw-"+u, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"Main", "Sandbox"} {
		if err := a.CreatePage(p, "original content of "+p, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range users {
		b := w.NewBrowser()
		login(t, b, u)
		for n := 0; n < 2; n++ {
			b.Open("/index.php?title=Main")
			edit(t, b, "Sandbox", fmt.Sprintf("edit %d by %s", n, u))
			b.Open(fmt.Sprintf("/index.php?title=%s", []string{"Main", "Sandbox"}[(i+n)%2]))
		}
	}
	v, ok := a.VulnerabilityByKind("Clickjacking")
	if !ok {
		t.Fatal("no clickjacking patch")
	}
	return w, func() (*core.Report, error) { return w.RetroPatch(v.File, v.Patch) }
}

// TestServedWriteKeepsVersions: the clickjacking fix changes what every
// page renders but no query, so every re-executed edit re-issues its
// UPDATE unchanged into a partition nothing dirtied, and is served from
// its record (replay.go serveRecorded). Executing it instead would demote
// the version it wrote and copy it into the repair generation, which the
// commit then keeps in its place. The stored versions of pages, read by a
// full scan of the raw table with their times and generations, must be
// the same after the repair as before, and as many.
func TestServedWriteKeepsVersions(t *testing.T) {
	w, patch := editedWiki(t)
	const all = "SELECT * FROM pages"
	versions := func() []string {
		t.Helper()
		if plan, err := w.DB.Raw().Explain(all); err != nil || !strings.Contains(plan, "scan=full") {
			t.Fatalf("%q plans %q, %v; want a full scan", all, plan, err)
		}
		res, err := w.DB.Raw().Exec(all)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			out = append(out, fmt.Sprint(r))
		}
		slices.Sort(out)
		return out
	}
	before := versions()
	rep, err := patch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppRunsReexecuted == 0 {
		t.Fatal("no run re-executed")
	}
	after := versions()
	if len(after) != len(before) {
		t.Fatalf("pages holds %d versions after the repair, %d before", len(after), len(before))
	}
	if !slices.Equal(after, before) {
		t.Fatalf("pages versions changed:\nbefore %q\nafter  %q", before, after)
	}
}

// login signs a wiki user in through the login form.
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
}

// edit replaces a wiki page's content through its edit form.
func edit(t *testing.T, b *browser.Browser, title, content string) {
	t.Helper()
	p := b.Open("/edit.php?title=" + title)
	if err := p.TypeInto("content", content); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(0); err != nil {
		t.Fatal(err)
	}
}
