package bench

import (
	"fmt"
	"strings"
	"time"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// This file is the one application every repair and durability
// measurement in the package runs: a `posts` table partitioned by owner,
// a login page at /login that issues a session cookie, and a page at
// /page that writes one post into its owner's partition and renders the
// owner's posts.

// install puts the fixture on w, serving page at /page. The table is
// created only if a recovered deployment does not hold it already.
func install(w *core.Warp, page app.Script) error {
	if err := w.DB.Annotate("posts", ttdb.TableSpec{RowIDColumn: "id", PartitionColumns: []string{"owner"}}); err != nil {
		return err
	}
	if _, _, err := w.DB.Exec("CREATE TABLE IF NOT EXISTS posts (id INTEGER PRIMARY KEY, owner TEXT, body TEXT)"); err != nil {
		return err
	}
	if err := w.Runtime.Register("login.php", app.Version{Entry: loginHandler(false)}); err != nil {
		return err
	}
	if err := w.Runtime.Register("page.php", app.Version{Entry: page}); err != nil {
		return err
	}
	w.Runtime.Mount("/login", "login.php")
	w.Runtime.Mount("/page", "page.php")
	return nil
}

// seedClients has clients browsers each log in and visit /page pages
// times, every visit writing one post into the client's own partition.
// It returns the clients' IDs, which are their partition keys.
func seedClients(w *core.Warp, clients, pages int) ([]string, error) {
	owners := make([]string, 0, clients)
	id := 0
	for c := 0; c < clients; c++ {
		b := w.NewBrowser()
		if p := b.Open("/login"); p.DOM == nil {
			return nil, fmt.Errorf("bench: login failed for client %d", c)
		}
		for n := 0; n < pages; n++ {
			id++
			if p := b.Open(fmt.Sprintf("/page?owner=%s&id=%d&body=<i>p%d</i>", b.ClientID, id, n)); p.DOM == nil {
				return nil, fmt.Errorf("bench: page visit failed for client %d", c)
			}
		}
		owners = append(owners, b.ClientID)
	}
	return owners, nil
}

// patchLogin retroactively patches the login page. The patched version
// also sets a hardening cookie and brands the page, so every client's
// login response changes and, through cookie divergence (§5.3), so does
// every later page visit of that client: one replay chain per client.
func patchLogin(w *core.Warp) (*core.Report, error) {
	return w.RetroPatch("login.php", app.Version{Entry: loginHandler(true), Note: "session hardening"})
}

// postsRows returns the posts table as owner|body lines in id order, for
// equivalence checks across configurations.
func postsRows(w *core.Warp) ([]string, error) {
	res, _, err := w.DB.Exec("SELECT owner, body FROM posts ORDER BY id")
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, r[0].AsText()+"|"+r[1].AsText())
	}
	return rows, nil
}

// loginHandler issues a session cookie; patched is patchLogin's version.
func loginHandler(patched bool) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		sid := c.Token("login.sid")
		body := "<html><body>welcome</body></html>"
		if patched {
			body = "<html><body>welcome (hardened)</body></html>"
		}
		resp := httpd.HTML(body)
		resp.SetCookie("sid", sid)
		if patched {
			resp.SetCookie("csrf", c.Token("login.csrf"))
		}
		return resp
	}
}

// pageHandler writes the body parameter, if any, as one post into the
// owner's partition and renders the owner's posts. appLatency stands in
// for the paper's out-of-process PHP render, so a repair takes long
// enough for live traffic to meet it.
func pageHandler(appLatency time.Duration) app.Script {
	return func(c *app.Ctx) *httpd.Response {
		if body := c.Req.Param("body"); body != "" {
			c.MustQuery("INSERT INTO posts (id, owner, body) VALUES (?, ?, ?)",
				sqldb.Int(atoi(c.Req.Param("id"))), sqldb.Text(c.Req.Param("owner")), sqldb.Text(body))
		}
		res := c.MustQuery("SELECT body FROM posts WHERE owner = ?", sqldb.Text(c.Req.Param("owner")))
		if appLatency > 0 {
			time.Sleep(appLatency)
		}
		var b strings.Builder
		b.WriteString("<html><body><ul>")
		for _, row := range res.Rows {
			b.WriteString("<li>" + row[0].AsText() + "</li>")
		}
		b.WriteString("</ul></body></html>")
		return httpd.HTML(b.String())
	}
}

func atoi(s string) int64 {
	var n int64
	fmt.Sscanf(s, "%d", &n)
	return n
}
