package core

import (
	"fmt"
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
	w := New(Config{Seed: 5})
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

// TestHeaderOnlyPatchCascadesToVisit: a retroactive patch that changes
// only a response header on an unchanged body — the clickjacking fix's
// X-Frame-Options — still changes the response, so the page visit that
// received it replays. Patching in an identical version replays nothing.
func TestHeaderOnlyPatchCascadesToVisit(t *testing.T) {
	page := func(frameOptions string) app.Version {
		return app.Version{Entry: func(*app.Ctx) *httpd.Response {
			resp := httpd.HTML("<html><body>the same body</body></html>")
			if frameOptions != "" {
				resp.Headers["X-Frame-Options"] = frameOptions
			}
			return resp
		}}
	}
	for _, patch := range []struct {
		frameOptions string
		visits       int
	}{{"DENY", 1}, {"", 0}} {
		w := New(Config{Seed: 5})
		if err := w.Runtime.Register("page.php", page("")); err != nil {
			t.Fatal(err)
		}
		w.Runtime.Mount("/", "page.php")
		w.NewBrowser().Open("/")
		rep, err := w.RetroPatch("page.php", page(patch.frameOptions))
		if err != nil {
			t.Fatal(err)
		}
		if rep.AppRunsReexecuted != 1 || rep.PageVisitsReplayed != patch.visits {
			t.Fatalf("patched header %q: %d runs re-executed and %d visits replayed, want 1 and %d",
				patch.frameOptions, rep.AppRunsReexecuted, rep.PageVisitsReplayed, patch.visits)
		}
	}
}

// TestRecordedRequestsStayImmutable: repair re-executes a recorded run's
// request itself, not a copy, so nothing on the repair path may write
// one. Every original run's request fingerprints the same after a full
// retroactive patch — runs re-executed, visits replayed, cookies
// re-issued — as before it.
func TestRecordedRequestsStayImmutable(t *testing.T) {
	w := newNotesApp(t)
	for u := 0; u < 3; u++ {
		b := w.NewBrowser()
		for n := 0; n < 2; n++ {
			b.Open(fmt.Sprintf("/?owner=u%d&body=<b>note-%d</b>", u, n))
		}
		w.HandleRequest(httpd.NewRequest("GET", fmt.Sprintf("/?owner=u%d&body=<i>plain</i>", u)))
	}
	runs := w.Graph.ByKind(history.KindAppRun)
	before := make([]uint64, len(runs))
	for i, a := range runs {
		before[i] = a.Payload.(*RunPayload).Rec.Req.Fingerprint()
	}
	rep, err := w.RetroPatch("notes.php", app.Version{Entry: sanitizedNotes, Note: "sanitize"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppRunsReexecuted < len(runs) || rep.PageVisitsReplayed == 0 {
		t.Fatalf("%d of %d runs re-executed, %d visits replayed; the patch must reach every run and some visit",
			rep.AppRunsReexecuted, len(runs), rep.PageVisitsReplayed)
	}
	for i, a := range runs {
		if req := a.Payload.(*RunPayload).Rec.Req; req.Fingerprint() != before[i] {
			t.Fatalf("the request of run %d (%s %s) changed during repair", a.ID, req.Method, req.URLString())
		}
	}
}
