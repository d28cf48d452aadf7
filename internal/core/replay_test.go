package core

import (
	"testing"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
)

// TestVisitConflictsFromLastReplay replays one visit twice in one repair
// session: a visit replays again whenever its inputs change, and only its
// last replay describes the repaired timeline. The first replay runs
// against a page version without the link the user clicked and reports
// target-gone; the second runs against a version that has it again and
// reports nothing, so the session is left with no conflict.
func TestVisitConflictsFromLastReplay(t *testing.T) {
	w := New(Config{Seed: 5, RepairWorkers: 1})
	page := func(body string) app.Version {
		return app.Version{Entry: func(*app.Ctx) *httpd.Response { return httpd.HTML("<html><body>" + body + "</body></html>") }}
	}
	const link = `<a href="/next">next</a>`
	if err := w.Runtime.Register("links.php", page(link)); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "links.php")
	b := w.NewBrowser()
	if _, err := b.Open("/").ClickLink("next"); err != nil {
		t.Fatal(err)
	}

	gen, err := w.DB.BeginRepair()
	if err != nil {
		t.Fatal(err)
	}
	defer w.DB.AbortRepair()
	rs := w.newSession(gen)
	replay := func(version app.Version) []browser.Conflict {
		t.Helper()
		if err := w.Runtime.Patch("links.php", version); err != nil {
			t.Fatal(err)
		}
		rs.served = make(map[history.Exchange]*servedEntry) // the run re-executes under the new version
		if err := rs.processVisit(&workItem{kind: workVisitReplay, client: b.ClientID, visit: 1}); err != nil {
			t.Fatal(err)
		}
		return rs.allConflicts()
	}
	if got := replay(page("no link here")); len(got) != 1 || got[0].Kind != browser.ConflictTargetGone {
		t.Fatalf("replay without the link: conflicts %+v, want one target-gone", got)
	}
	if got := replay(page(link)); len(got) != 0 {
		t.Fatalf("replay with the link back: conflicts %+v, want none (the earlier replay's are stale)", got)
	}
}
