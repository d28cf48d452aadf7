// Package wiki implements GoWiki, the MediaWiki stand-in evaluated by the
// paper (§8). It is a complete multi-user wiki: accounts, sessions, page
// viewing and editing, page protection with access control lists, a block
// log, a web installer, and a maintenance endpoint — enough surface to
// host all six vulnerabilities of the paper's Table 2:
//
//	reflected XSS   CVE-2009-0737  config/index.php echoes installer
//	                               options unescaped
//	stored XSS      CVE-2009-4589  block.php stores the ip parameter
//	                               unescaped; the block log renders it
//	CSRF            CVE-2010-1150  login.php accepts login POSTs without a
//	                               challenge token
//	clickjacking    CVE-2011-0003  no X-Frame-Options header (common.php)
//	SQL injection   CVE-2004-2186  maintenance.php concatenates thelang
//	                               into an UPDATE
//	ACL error       —              administrator grants the wrong user
//	                               access (repaired by undo, not patching)
//
// Following the paper's trust model, page content is sanitized when saved
// through edit.php; the vulnerabilities are the paths around that
// sanitization. Patched versions of each file are provided by
// Vulnerabilities for retroactive patching.
package wiki

import (
	"fmt"

	"warp/internal/app"
	"warp/internal/core"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// App is an installed GoWiki application.
type App struct {
	W *core.Warp
}

// Annotations returns the per-table WARP annotations (row ID and partition
// columns) — the "89 lines of annotation" work of §8.1, here as data.
func Annotations() map[string]ttdb.TableSpec {
	return map[string]ttdb.TableSpec{
		"users":    {RowIDColumn: "user_id", PartitionColumns: []string{"name", "user_id"}},
		"sessions": {RowIDColumn: "sid", PartitionColumns: []string{"sid"}},
		// The paper's own example (§4.1): immutable page_id is the row ID;
		// queries look pages up by title or last editor.
		"pages":    {RowIDColumn: "page_id", PartitionColumns: []string{"title", "last_editor"}},
		"acl":      {PartitionColumns: []string{"page_title", "user_name"}}, // synthetic row ID
		"blocklog": {},                                                      // synthetic row ID, whole-table deps
		"tokens":   {RowIDColumn: "token", PartitionColumns: []string{"token"}},
	}
}

// DrawnRowIDs names the tables whose row ID is a token the application
// draws from the deployment's random stream: session IDs and CSRF
// challenge tokens. One extra draw (a patched login's token) shifts
// every later one, so two runs of one workload compare these tables by
// their other columns (ttdb.UnderRepair).
func DrawnRowIDs() []string { return []string{"sessions", "tokens"} }

// Schema returns the application's DDL. The benchmark harness also runs
// it against a plain (non-versioned) engine for the paper's "No WARP"
// baseline (Table 6).
func Schema() []string { return append([]string{}, schema...) }

// schema is the application schema, created through the time-travel layer.
var schema = []string{
	`CREATE TABLE IF NOT EXISTS users (
		user_id INTEGER PRIMARY KEY,
		name TEXT UNIQUE NOT NULL,
		password TEXT NOT NULL,
		is_admin BOOLEAN DEFAULT FALSE
	)`,
	`CREATE TABLE IF NOT EXISTS sessions (
		sid TEXT PRIMARY KEY,
		user_id INTEGER NOT NULL
	)`,
	`CREATE TABLE IF NOT EXISTS pages (
		page_id INTEGER PRIMARY KEY,
		title TEXT UNIQUE NOT NULL,
		lang TEXT DEFAULT 'en',
		last_editor TEXT DEFAULT '',
		protected BOOLEAN DEFAULT FALSE,
		content TEXT DEFAULT ''
	)`,
	`CREATE TABLE IF NOT EXISTS acl (
		page_title TEXT NOT NULL,
		user_name TEXT NOT NULL,
		UNIQUE (page_title, user_name)
	)`,
	`CREATE TABLE IF NOT EXISTS blocklog (
		note TEXT NOT NULL
	)`,
	`CREATE TABLE IF NOT EXISTS tokens (
		token TEXT PRIMARY KEY
	)`,
}

// Install annotates and creates the schema, registers every source file,
// and mounts the routes. It runs against a fresh deployment or a
// recovered one (warp.Open): annotations re-declare identically and the
// DDL uses IF NOT EXISTS, so setup is idempotent across restarts.
func Install(w *core.Warp) (*App, error) {
	a := &App{W: w}
	for table, spec := range Annotations() {
		if err := w.DB.Annotate(table, spec); err != nil {
			return nil, err
		}
	}
	for _, ddl := range schema {
		if _, _, err := w.DB.Exec(ddl); err != nil {
			return nil, err
		}
	}
	files := map[string]app.Version{
		"common.php":       {Lib: a.commonV1(), Note: "layout helpers (vulnerable: no frame guard)"},
		"index.php":        {Entry: a.indexPHP, Note: "page viewer"},
		"edit.php":         {Entry: a.editPHP, Note: "page editor"},
		"append.php":       {Entry: a.appendPHP, Note: "quick append (write-only page edit)"},
		"login.php":        {Entry: a.loginV1, Note: "login (vulnerable: no CSRF challenge)"},
		"logout.php":       {Entry: a.logoutPHP, Note: "logout"},
		"block.php":        {Entry: a.blockV1, Note: "block tool (vulnerable: stored XSS via ip)"},
		"blocklog.php":     {Entry: a.blocklogPHP, Note: "block log viewer"},
		"config/index.php": {Entry: a.installerV1, Note: "installer (vulnerable: reflected XSS)"},
		"maintenance.php":  {Entry: a.maintenanceV1, Note: "maintenance (vulnerable: SQL injection)"},
		"acl.php":          {Entry: a.aclPHP, Note: "page protection admin"},
	}
	for name, v := range files {
		if err := w.Runtime.Register(name, v); err != nil {
			return nil, err
		}
	}
	routes := map[string]string{
		"/":                 "index.php",
		"/index.php":        "index.php",
		"/edit.php":         "edit.php",
		"/append.php":       "append.php",
		"/login.php":        "login.php",
		"/logout.php":       "logout.php",
		"/block.php":        "block.php",
		"/blocklog.php":     "blocklog.php",
		"/config/index.php": "config/index.php",
		"/maintenance.php":  "maintenance.php",
		"/acl.php":          "acl.php",
	}
	for path, file := range routes {
		w.Runtime.Mount(path, file)
	}
	return a, nil
}

// CreateUser seeds an account. Seeding happens before WARP's log horizon,
// like the base checkpoint the paper rolls back to.
func (a *App) CreateUser(name, password string, admin bool) error {
	res, _, err := a.W.DB.Exec("SELECT COALESCE(MAX(user_id), 0) + 1 FROM users")
	if err != nil {
		return err
	}
	id := res.FirstValue().AsInt()
	_, _, err = a.W.DB.Exec(
		"INSERT INTO users (user_id, name, password, is_admin) VALUES (?, ?, ?, ?)",
		sqldb.Int(id), sqldb.Text(name), sqldb.Text(password), sqldb.Bool(admin))
	return err
}

// CreatePage seeds a page.
func (a *App) CreatePage(title, content string, protected bool) error {
	res, _, err := a.W.DB.Exec("SELECT COALESCE(MAX(page_id), 0) + 1 FROM pages")
	if err != nil {
		return err
	}
	id := res.FirstValue().AsInt()
	_, _, err = a.W.DB.Exec(
		"INSERT INTO pages (page_id, title, content, protected) VALUES (?, ?, ?, ?)",
		sqldb.Int(id), sqldb.Text(title), sqldb.Text(content), sqldb.Bool(protected))
	return err
}

// Grant seeds an ACL entry allowing a user to edit a protected page.
func (a *App) Grant(title, user string) error {
	_, _, err := a.W.DB.Exec(
		"INSERT INTO acl (page_title, user_name) VALUES (?, ?)",
		sqldb.Text(title), sqldb.Text(user))
	return err
}

// PageContent reads a page's current content directly (test/bench helper).
func (a *App) PageContent(title string) (string, error) {
	res, _, err := a.W.DB.Exec("SELECT content FROM pages WHERE title = ?", sqldb.Text(title))
	if err != nil {
		return "", err
	}
	if res.Empty() {
		return "", fmt.Errorf("wiki: no page %q", title)
	}
	return res.FirstValue().AsText(), nil
}

// PageEditor reads a page's last_editor column (test/bench helper).
func (a *App) PageEditor(title string) (string, error) {
	res, _, err := a.W.DB.Exec("SELECT last_editor FROM pages WHERE title = ?", sqldb.Text(title))
	if err != nil {
		return "", err
	}
	if res.Empty() {
		return "", fmt.Errorf("wiki: no page %q", title)
	}
	return res.FirstValue().AsText(), nil
}

// HasACL reports whether user may edit the protected page (test helper).
func (a *App) HasACL(title, user string) bool {
	res, _, err := a.W.DB.Exec(
		"SELECT COUNT(*) FROM acl WHERE page_title = ? AND user_name = ?",
		sqldb.Text(title), sqldb.Text(user))
	return err == nil && res.FirstValue().AsInt() > 0
}
