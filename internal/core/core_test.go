package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"warp/internal/app"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// newNotesApp builds a minimal one-file application for core-level tests.
func newNotesApp(t *testing.T) *Warp {
	t.Helper()
	w := New(Config{Seed: 5})
	if err := w.DB.Annotate("notes", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		t.Fatal(err)
	}
	handler := func(c *app.Ctx) *httpd.Response {
		if body := c.Req.Param("body"); body != "" {
			id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM notes").FirstValue()
			c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
				id, sqldb.Text(c.Req.Param("owner")), sqldb.Text(body))
		}
		res := c.MustQuery("SELECT body FROM notes WHERE owner = ?", sqldb.Text(c.Req.Param("owner")))
		var b strings.Builder
		b.WriteString("<html><body><ul>")
		for _, row := range res.Rows {
			b.WriteString("<li>" + row[0].AsText() + "</li>")
		}
		b.WriteString("</ul></body></html>")
		return httpd.HTML(b.String())
	}
	if err := w.Runtime.Register("notes.php", app.Version{Entry: handler}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "notes.php")
	return w
}

func TestHandleRequestRecordsActions(t *testing.T) {
	w := newNotesApp(t)
	b := w.NewBrowser()
	p := b.Open("/?owner=alice&body=hello")
	if p.DOM == nil || !strings.Contains(p.DOM.InnerText(), "hello") {
		t.Fatalf("response: %v", p.DOM)
	}
	if w.Graph.Len() == 0 {
		t.Fatal("nothing recorded")
	}
	st := w.Storage()
	if st.PageVisits != 1 || st.AppLogBytes == 0 || st.DBLogBytes == 0 || st.BrowserLogBytes == 0 {
		t.Fatalf("storage accounting: %+v", st)
	}
}

func TestRouteMiss(t *testing.T) {
	w := newNotesApp(t)
	resp := w.HandleRequest(httpd.NewRequest("GET", "/nosuch"))
	if resp.Status != 404 {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestClientLogQuota(t *testing.T) {
	w := New(Config{Seed: 6, ClientLogQuota: 3})
	if err := w.Runtime.Register("f.php", app.Version{Entry: func(c *app.Ctx) *httpd.Response {
		return httpd.HTML("<html><body>x</body></html>")
	}}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/", "f.php")
	b := w.NewBrowser()
	for i := 0; i < 10; i++ {
		b.Open(fmt.Sprintf("/?n=%d", i))
	}
	w.mu.Lock()
	kept := len(w.visitLogs[b.ClientID])
	w.mu.Unlock()
	if kept != 3 {
		t.Fatalf("quota kept %d logs, want 3", kept)
	}
}

func TestConcurrentRequestsAreSafe(t *testing.T) {
	w := newNotesApp(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := w.NewBrowser()
			for i := 0; i < 20; i++ {
				b.Open(fmt.Sprintf("/?owner=u%d&body=note%d", g, i))
			}
		}(g)
	}
	wg.Wait()
	res, _, err := w.DB.Exec("SELECT COUNT(*) FROM notes")
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstValue().AsInt() == 0 {
		t.Fatal("no notes written")
	}
}

func TestRetroPatchOnCoreApp(t *testing.T) {
	w := newNotesApp(t)
	b := w.NewBrowser()
	b.Open("/?owner=alice&body=<script>bad</script>")
	b.Open("/?owner=alice&body=fine")

	fixed := func(c *app.Ctx) *httpd.Response {
		if body := c.Req.Param("body"); body != "" {
			clean := strings.ReplaceAll(strings.ReplaceAll(body, "<", "&lt;"), ">", "&gt;")
			id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM notes").FirstValue()
			c.MustQuery("INSERT INTO notes (id, owner, body) VALUES (?, ?, ?)",
				id, sqldb.Text(c.Req.Param("owner")), sqldb.Text(clean))
		}
		res := c.MustQuery("SELECT body FROM notes WHERE owner = ?", sqldb.Text(c.Req.Param("owner")))
		var sb strings.Builder
		sb.WriteString("<html><body><ul>")
		for _, row := range res.Rows {
			sb.WriteString("<li>" + row[0].AsText() + "</li>")
		}
		sb.WriteString("</ul></body></html>")
		return httpd.HTML(sb.String())
	}
	rep, err := w.RetroPatch("notes.php", app.Version{Entry: fixed, Note: "sanitize"})
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := w.DB.Exec("SELECT body FROM notes ORDER BY id")
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if strings.Contains(res.Rows[0][0].AsText(), "<script>") {
		t.Fatalf("unsanitized row survived: %q", res.Rows[0][0].AsText())
	}
	if res.Rows[1][0].AsText() != "fine" {
		t.Fatalf("legitimate row damaged: %q", res.Rows[1][0].AsText())
	}
	if rep.Generation != 2 {
		t.Fatalf("generation = %d", rep.Generation)
	}
	// A second repair works on the repaired state.
	rep2, err := w.RetroPatch("notes.php", app.Version{Entry: fixed, Note: "no-op patch"})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Generation != 3 {
		t.Fatalf("second generation = %d", rep2.Generation)
	}
}

func TestGCSynchronizesGraphAndDB(t *testing.T) {
	w := newNotesApp(t)
	b := w.NewBrowser()
	for i := 0; i < 5; i++ {
		b.Open(fmt.Sprintf("/?owner=alice&body=n%d", i))
	}
	before := w.Graph.Len()
	horizon := w.Clock.Now() + 1
	if err := w.GC(horizon); err != nil {
		t.Fatal(err)
	}
	if w.Graph.Len() >= before {
		t.Fatalf("graph not collected: %d -> %d", before, w.Graph.Len())
	}
	// Live data survives.
	res, _, _ := w.DB.Exec("SELECT COUNT(*) FROM notes")
	if res.FirstValue().AsInt() != 5 {
		t.Fatalf("GC damaged live rows: %v", res.FirstValue())
	}
	// Repair beyond the horizon is now impossible; RetroPatch finds no
	// runs (all collected) and succeeds as a no-op.
	rep, err := w.RetroPatch("notes.php", app.Version{Entry: func(c *app.Ctx) *httpd.Response {
		return httpd.HTML("<html><body>v2</body></html>")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AppRunsReexecuted != 0 {
		t.Fatalf("collected runs re-executed: %d", rep.AppRunsReexecuted)
	}
}

func TestSuspendBlocksRequests(t *testing.T) {
	w := newNotesApp(t)
	w.Suspend()
	done := make(chan *httpd.Response, 1)
	go func() {
		done <- w.HandleRequest(httpd.NewRequest("GET", "/?owner=x"))
	}()
	select {
	case <-done:
		t.Fatal("request served while suspended")
	default:
	}
	w.Resume()
	resp := <-done
	if resp.Status != 200 {
		t.Fatalf("post-resume status = %d", resp.Status)
	}
}

func TestUndoVisitUnknown(t *testing.T) {
	w := newNotesApp(t)
	if _, err := w.UndoVisit("nosuch", 1, true); err == nil {
		t.Fatal("undo of unknown visit must fail")
	}
	// A failed repair leaves the database out of repair mode.
	if w.DB.InRepair() {
		t.Fatal("repair state leaked")
	}
}

// TestTextKeyedReadOfIntegerPartitionIsRepaired: request parameters
// arrive as text, so a view that names an INTEGER partition does it with
// a text value. The engine's mixed comparison matches the rows; the
// recorded read partition must be the one the rows' writes recorded, or
// repair never re-executes the view of an attacked partition.
func TestTextKeyedReadOfIntegerPartitionIsRepaired(t *testing.T) {
	w := New(Config{Seed: 5})
	if err := w.DB.Annotate("scores", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"team"}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.DB.Exec("CREATE TABLE scores (id INTEGER PRIMARY KEY, team INTEGER, note TEXT)"); err != nil {
		t.Fatal(err)
	}
	post := func(sanitize bool) app.Script {
		return func(c *app.Ctx) *httpd.Response {
			note := c.Req.Param("note")
			if sanitize {
				note = strings.ReplaceAll(note, "<", "&lt;")
			}
			id := c.MustQuery("SELECT COALESCE(MAX(id), 0) + 1 FROM scores").FirstValue()
			c.MustQuery("INSERT INTO scores (id, team, note) VALUES (?, ?, ?)",
				id, sqldb.Int(sqldb.Text(c.Req.Param("team")).AsInt()), sqldb.Text(note))
			return httpd.HTML("<html><body>ok</body></html>")
		}
	}
	view := func(c *app.Ctx) *httpd.Response {
		res := c.MustQuery("SELECT note FROM scores WHERE team = ?", sqldb.Text(c.Req.Param("team")))
		var b strings.Builder
		for _, row := range res.Rows {
			b.WriteString("<li>" + row[0].AsText() + "</li>")
		}
		return httpd.HTML("<html><body><ul>" + b.String() + "</ul></body></html>")
	}
	if err := w.Runtime.Register("post.php", app.Version{Entry: post(false)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Runtime.Register("view.php", app.Version{Entry: view}); err != nil {
		t.Fatal(err)
	}
	w.Runtime.Mount("/post", "post.php")
	w.Runtime.Mount("/view", "view.php")

	for _, url := range []string{
		"/post?team=11&note=fine",
		"/post?team=10&note=<script>bad</script>", // the attack
		"/view?team=10",
		"/view?team=11",
	} {
		if resp := w.HandleRequest(httpd.NewRequest("GET", url)); resp.Status != 200 {
			t.Fatalf("%s: status %d", url, resp.Status)
		}
	}
	rep, err := w.RetroPatch("post.php", app.Version{Entry: post(true), Note: "sanitize"})
	if err != nil {
		t.Fatal(err)
	}
	// Both posts re-run under the patch; only the attacked post's insert
	// changes, and of the two views only team 10's read that partition.
	if rep.AppRunsReexecuted != 3 {
		t.Fatalf("runs re-executed = %d, want 3 (two posts and the view of team 10): %v", rep.AppRunsReexecuted, rep)
	}
}
