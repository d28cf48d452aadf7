package main

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"warp/benchmarks/gen"
	"warp/internal/attacks"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/webapp/blog"
	"warp/internal/webapp/gallery"
	"warp/internal/webapp/wiki"
	recorded "warp/internal/workload"
)

// deployment is one WARP deployment under test plus what the driver must
// remember about it: session cookies, the schema of its No-WARP twin,
// and where in logical time the spliced attack happened.
type deployment struct {
	w      *core.Warp
	dir    string   // persistence directory; "" for an in-memory deployment
	cookie []string // session index → Cookie header value
	// sessions is how many of them are the load's own users.
	sessions int
	// Sessions beyond the load's own: the attacker's, the live client's,
	// and the victims' (who do nothing but visit the attacked page, so
	// that what a sparse repair re-checks does not depend on the seed).
	attacker, live int
	victims        []int
	// ddl and tables describe the plain-engine twin: the application's
	// own schema (no version columns) plus indexes on the partition
	// columns, which the time-travel layer creates for itself.
	ddl    []string
	tables []string

	wikiApp *wiki.App
	env     *attacks.Env // wiki-repair only
	titles  []string     // wiki pages the serve stream draws from
	markers []string

	attackAt int64    // logical time just before the attack request
	epochOps []gen.Op // the repair epoch as executed
	baseline map[string]string
	// seededPerms is the gallery's permission rows after seeding.
	seededPerms int64
	setupTime   time.Duration // deployment construction, before any measured phase
	origExec    time.Duration // wiki-repair: the recorded workload's own run time
}

// close releases a deployment: a durable one is closed (unless it was
// crashed) and its directory removed.
func (d *deployment) close() error {
	var err error
	if d.dir != "" {
		err = d.w.Close()
		if rmErr := os.RemoveAll(d.dir); err == nil {
			err = rmErr
		}
	}
	return err
}

// handler is the deployment's real entry point: net/http → Adapter →
// HandleRequest.
func (d *deployment) handler() http.Handler {
	return &httpd.Adapter{Handler: d.w.HandleRequest}
}

// post issues one set-up request outside any measurement and fails
// unless it gets the wanted status.
func (d *deployment) post(rw *respWriter, rq gen.Request, cookies []string) error {
	ps, err := prepare([]gen.Op{{Reqs: []gen.Request{rq}}}, cookies)
	if err != nil {
		return err
	}
	issue(d.handler(), rw, &ps[0].reqs[0])
	if !accepted(&ps[0].op.Reqs[0], rw) {
		return fmt.Errorf("set-up %s %s: status %d", rq.Method, rq.URL, rw.status)
	}
	return nil
}

// login opens a session for a wiki user through the login form and
// returns its Cookie header value.
func (d *deployment) login(name string) (string, error) {
	rw := newRespWriter()
	form := "user=" + name + "&password=pw-" + name
	if err := d.post(rw, gen.Request{Method: "POST", URL: "/login.php", Form: form, Session: -1, Status: 303}, nil); err != nil {
		return "", err
	}
	c := rw.h.Get("Set-Cookie")
	if i := strings.IndexByte(c, ';'); i >= 0 {
		c = c[:i]
	}
	if !strings.HasPrefix(c, "sid=") {
		return "", fmt.Errorf("login %s: no session cookie", name)
	}
	return c, nil
}

// exec runs set-up SQL directly on the time-travel database: seeding
// happens before WARP's log horizon, like the base state the paper
// rolls back to.
func (d *deployment) exec(q string, params ...sqldb.Value) error {
	_, _, err := d.w.DB.Exec(q, params...)
	return err
}

// text reads one TEXT cell, "" when the row is missing.
func (d *deployment) text(q string, params ...sqldb.Value) (string, error) {
	res, _, err := d.w.DB.Exec(q, params...)
	if err != nil {
		return "", err
	}
	return res.FirstValue().AsText(), nil
}

func (d *deployment) count(q string, params ...sqldb.Value) (int64, error) {
	res, _, err := d.w.DB.Exec(q, params...)
	if err != nil {
		return 0, err
	}
	return res.FirstValue().AsInt(), nil
}

// pageContents reads every wiki page's current content.
func (d *deployment) pageContents() (map[string]string, error) {
	res, _, err := d.w.DB.Exec("SELECT title, content FROM pages")
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(res.Rows))
	for _, row := range res.Rows {
		out[row[0].AsText()] = row[1].AsText()
	}
	return out, nil
}

// twin builds the deployment's "No WARP" counterpart (Table 6): a plain
// engine with the application's schema and a copy of the current rows.
func (d *deployment) twin() (*sqldb.DB, error) {
	plain := sqldb.Open()
	for _, q := range d.ddl {
		if _, err := plain.Exec(q); err != nil {
			return nil, fmt.Errorf("twin: %s: %w", q, err)
		}
	}
	for _, table := range d.tables {
		res, _, err := d.w.DB.Exec("SELECT * FROM " + table)
		if err != nil {
			return nil, fmt.Errorf("twin: reading %s: %w", table, err)
		}
		marks := strings.TrimSuffix(strings.Repeat("?, ", len(res.Columns)), ", ")
		ins := "INSERT INTO " + table + " (" + strings.Join(res.Columns, ", ") + ") VALUES (" + marks + ")"
		for _, row := range res.Rows {
			if _, err := plain.Exec(ins, row...); err != nil {
				return nil, fmt.Errorf("twin: copying %s: %w", table, err)
			}
		}
	}
	return plain, nil
}

// open creates the workload's deployment: in memory, or durable under a
// fresh directory with the default flush policy (windowed group commit,
// 2ms window, SyncEveryAppend off) and a lowered checkpoint threshold so
// that several checkpoints complete within a run.
func (r *runner) open() (*deployment, error) {
	cfg := core.Config{Seed: 1}
	if !r.wl.durable {
		return &deployment{w: core.New(cfg)}, nil
	}
	dir, err := os.MkdirTemp(r.tmp, r.wl.name+"-")
	if err != nil {
		return nil, err
	}
	cfg.Durability = store.Options{SnapshotBytes: r.sc.snapshotBytes}
	w, err := core.Open(dir, cfg)
	if err != nil {
		return nil, err
	}
	return &deployment{w: w, dir: dir}, nil
}

const (
	// victimEvery spaces the attack's victims through a repair epoch.
	victimEvery  = 10
	targetTitle  = "Target"
	liveTitle    = "LivePage"
	attackMarker = "ATTACK-RESIDUE"
)

// wikiTwinDDL is GoWiki's schema for the plain twin, with the indexes
// the time-travel layer gives itself (row-ID and partition columns): the
// engine does not index keys on its own, and an application without WARP
// would still have them.
func wikiTwinDDL() []string {
	ddl := wiki.Schema()
	for table, spec := range wiki.Annotations() {
		cols := spec.PartitionColumns
		if spec.RowIDColumn != "" {
			cols = append([]string{spec.RowIDColumn}, cols...)
		}
		for _, col := range cols {
			ddl = append(ddl, fmt.Sprintf("CREATE INDEX warp_idx_%s_%s ON %s (%s)", table, col, table, col))
		}
	}
	return ddl
}

var wikiTables = []string{"users", "sessions", "pages", "acl", "blocklog", "tokens"}

// victimSessions is the number of dedicated victim identities.
const victimSessions = 8

// buildWiki seeds GoWiki with the scale's pages and logged-in sessions,
// plus the page the spliced attack targets and the live client's own
// page. Sessions 0..n-1 are the load's users; the attacker, the live
// client and the victims follow.
func (r *runner) buildWiki() (*deployment, error) {
	d, err := r.open()
	if err != nil {
		return nil, err
	}
	if d.wikiApp, err = wiki.Install(d.w); err != nil {
		return nil, err
	}
	d.ddl, d.tables = wikiTwinDDL(), wikiTables
	names := make([]string, r.sc.sessions+2+victimSessions)
	d.sessions, d.attacker, d.live = r.sc.sessions, r.sc.sessions, r.sc.sessions+1
	for i := 0; i < victimSessions; i++ {
		d.victims = append(d.victims, r.sc.sessions+2+i)
	}
	for i := range names {
		names[i] = gen.UserName(i)
		err := d.exec("INSERT INTO users (user_id, name, password, is_admin) VALUES (?, ?, ?, FALSE)",
			sqldb.Int(int64(i+1)), sqldb.Text(names[i]), sqldb.Text("pw-"+names[i]))
		if err != nil {
			return nil, err
		}
	}
	d.titles, d.markers = make([]string, r.sc.pages), make([]string, r.sc.pages)
	for i := range d.titles {
		d.titles[i], d.markers[i] = fmt.Sprintf("P%d", i), gen.PageMarker(i)
	}
	bodies := map[string]string{targetTitle: "target page, as seeded", liveTitle: "live page, as seeded"}
	for i, t := range d.titles {
		bodies[t] = gen.PageBody(i)
	}
	id := int64(0)
	for _, t := range append(append([]string{}, d.titles...), targetTitle, liveTitle) {
		id++
		err := d.exec("INSERT INTO pages (page_id, title, content) VALUES (?, ?, ?)",
			sqldb.Int(id), sqldb.Text(t), sqldb.Text(bodies[t]))
		if err != nil {
			return nil, err
		}
	}
	for _, n := range names {
		c, err := d.login(n)
		if err != nil {
			return nil, err
		}
		d.cookie = append(d.cookie, c)
	}
	return d, nil
}

// wikiStream is the serve stream of the wiki workloads.
func (r *runner) wikiStream(d *deployment, seed int64, n int) []gen.Op {
	spec := gen.WikiSpec{Titles: d.titles, Sessions: d.sessions, ReadFrac: r.wl.readFrac}
	if spec.ReadFrac == 1 {
		spec.Markers = d.markers
	}
	return gen.Wiki(seed, n, spec)
}

// wikiEpoch is the fixed-count slice of the serve stream a repair epoch
// replays, with the attacker's defacement of the target page spliced in
// and, after it, a fixed number of victims who visit that page.
func (r *runner) wikiEpoch(d *deployment) ([]gen.Op, int) {
	attack := gen.WikiEdit(targetTitle, attackMarker+" defaced by the attacker", d.attacker)
	victim := func(k int) gen.Op {
		s := d.victims[k%len(d.victims)]
		if r.wl.readFrac == 1 {
			return gen.WikiRead(targetTitle, "", s)
		}
		return gen.WikiEdit(targetTitle, gen.EditBody(k, targetTitle), s)
	}
	ops := r.wikiStream(d, r.seed+1, r.sc.epoch[r.wl.name])
	return gen.Splice(ops, attack, victim, len(ops)/10, victimEvery)
}

// buildWikiRepair records the paper's §8.2 multi-user workload through
// simulated browsers: reflected XSS with the victims at the start for
// the sparse repair, clickjacking (after which every action re-executes)
// for the full one, no attack for serving.
func buildWikiRepair(r *runner, variant string) (*deployment, error) {
	cfg := recorded.Config{Users: r.sc.repairUsers, Victims: 3, Seed: 3000}
	switch variant {
	case "sparse":
		cfg.Scenario, cfg.VictimsAtStart = attacks.ReflectedXSS(), true
	case "full":
		cfg.Scenario = attacks.Clickjacking()
	}
	t0 := time.Now()
	res, err := recorded.Run(cfg)
	if err != nil {
		return nil, err
	}
	d := &deployment{w: res.Env.W, wikiApp: res.Env.App, env: res.Env,
		ddl: wikiTwinDDL(), tables: wikiTables, origExec: res.OriginalExecTime}
	if err := res.Env.App.CreatePage(liveTitle, "live page, as seeded", false); err != nil {
		return nil, err
	}
	for _, u := range res.Env.Others {
		d.titles = append(d.titles, "Page-"+u.Name)
		d.cookie = append(d.cookie, "sid="+u.B.Cookies()["sid"])
	}
	d.sessions = len(d.cookie)
	// The live client is an extensionless session of an ordinary user.
	live, err := d.login(res.Env.Others[0].Name)
	if err != nil {
		return nil, err
	}
	d.live = len(d.cookie)
	d.cookie = append(d.cookie, live)
	d.setupTime = time.Since(t0)
	return d, nil
}

// Blog/gallery schema for the plain twin: the DDL of blog.Install and
// gallery.Install (which do not export it) plus the same key indexes.
var mixedDDL = []string{
	`CREATE TABLE posts (node_id INTEGER PRIMARY KEY, title TEXT NOT NULL, body TEXT, category TEXT DEFAULT 'general')`,
	`CREATE TABLE votes (node_id INTEGER NOT NULL, voter TEXT NOT NULL, val INTEGER NOT NULL, UNIQUE (node_id, voter))`,
	`CREATE TABLE comments (node_id INTEGER NOT NULL, author TEXT NOT NULL, body TEXT NOT NULL)`,
	`CREATE TABLE digests (node_id INTEGER PRIMARY KEY, nvotes INTEGER NOT NULL, ncomments INTEGER NOT NULL)`,
	`CREATE TABLE albums (album_id INTEGER PRIMARY KEY, name TEXT NOT NULL)`,
	`CREATE TABLE photos (photo_id INTEGER PRIMARY KEY, album_id INTEGER NOT NULL, name TEXT, data TEXT, thumb TEXT)`,
	`CREATE TABLE perms (item_id INTEGER NOT NULL, user_name TEXT NOT NULL, UNIQUE (item_id, user_name))`,
	`CREATE INDEX warp_idx_posts_node_id ON posts (node_id)`,
	`CREATE INDEX warp_idx_posts_category ON posts (category)`,
	`CREATE INDEX warp_idx_digests_node_id ON digests (node_id)`,
	`CREATE INDEX warp_idx_albums_album_id ON albums (album_id)`,
	`CREATE INDEX warp_idx_photos_photo_id ON photos (photo_id)`,
	`CREATE INDEX warp_idx_votes_node_id ON votes (node_id)`,
	`CREATE INDEX warp_idx_votes_voter ON votes (voter)`,
	`CREATE INDEX warp_idx_comments_node_id ON comments (node_id)`,
	`CREATE INDEX warp_idx_comments_author ON comments (author)`,
	`CREATE INDEX warp_idx_photos_album_id ON photos (album_id)`,
	`CREATE INDEX warp_idx_perms_item_id ON perms (item_id)`,
	`CREATE INDEX warp_idx_perms_user_name ON perms (user_name)`,
}

const albums = 20

// buildMixed installs GoBlog and GoGallery side by side (disjoint tables
// and routes) and seeds posts, photos and view permissions. Post
// `posts` is the live client's own; photo `photos` is the attack target.
func (r *runner) buildMixed() (*deployment, error) {
	d, err := r.open()
	if err != nil {
		return nil, err
	}
	b, err := blog.Install(d.w)
	if err != nil {
		return nil, err
	}
	g, err := gallery.Install(d.w)
	if err != nil {
		return nil, err
	}
	d.ddl = mixedDDL
	d.tables = []string{"posts", "votes", "comments", "digests", "albums", "photos", "perms"}
	for i := 0; i <= r.sc.posts; i++ {
		if err := b.CreatePost(int64(i), fmt.Sprintf("Post-%d", i), gen.PageBody(i)[:300]); err != nil {
			return nil, err
		}
		// Every post starts with a digest row. digest.php looks the row up
		// and inserts it when missing; two concurrent first digests of one
		// post both find none, and the loser's INSERT answers 500 with a
		// UNIQUE violation. The workload may not contain operations that
		// fail, so digests always take the UPDATE branch.
		err := d.exec("INSERT INTO digests (node_id, nvotes, ncomments) VALUES (?, 0, 0)", sqldb.Int(int64(i)))
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < albums; i++ {
		if err := g.CreateAlbum(int64(i), fmt.Sprintf("album-%d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i <= r.sc.photos; i++ {
		if err := g.CreatePhoto(int64(i), int64(i%albums), fmt.Sprintf("photo-%d", i), gen.PageBody(i)[:64]); err != nil {
			return nil, err
		}
		for j := 0; j < gen.SeedGrants; j++ {
			user := gen.SeedGrantee(i, j, r.sc.sessions)
			if i == r.sc.photos {
				user = r.sc.sessions + j // the target photo's viewers are the dedicated victims
			}
			err := d.exec("INSERT INTO perms (item_id, user_name) VALUES (?, ?)",
				sqldb.Int(int64(i)), sqldb.Text(gen.UserName(user)))
			if err != nil && !sqldb.IsUniqueViolation(err) {
				return nil, err
			}
		}
	}
	d.seededPerms, err = d.count("SELECT COUNT(*) FROM perms")
	return d, err
}

func (r *runner) mixedSpec() gen.MixedSpec {
	return gen.MixedSpec{Posts: r.sc.posts, Photos: r.sc.photos, Users: r.sc.sessions}
}

// hotEdits is how many of the hottest posts the repair epoch's buggy
// edits hit.
const hotEdits = 30

// mixedEpoch is the blog/gallery repair epoch. It carries both of the
// paper's Table 5 corruption bugs: one buggy album move of the target
// photo (wiping its permissions; dedicated victims then view it) for the
// sparse repair, and early buggy edits of the hottest posts, each wiping
// a vote a dedicated voter has just cast, for the full one: the
// retroactive fix restores those votes, and every later view and digest
// of those posts — most of the blog activity that follows — re-executes.
// Which posts are edited is a matter of rank, not of chance, so the
// cascade's size barely depends on the seed.
func (r *runner) mixedEpoch() ([]gen.Op, int) {
	target := r.sc.photos
	victim := func(k int) gen.Op {
		return gen.PhotoView(target, r.sc.sessions+k%gen.SeedGrants, 403)
	}
	seed, spec := r.seed+1, r.mixedSpec()
	ops := gen.Mixed(seed, r.sc.epoch[r.wl.name], spec)
	var edits []gen.Op
	for i, post := range gen.HotPosts(seed, spec, min(hotEdits, spec.Posts)) {
		edits = append(edits, gen.Vote(post, r.sc.sessions, 5), gen.EditPost(post, i))
	}
	ops = gen.Insert(ops, len(ops)/20, edits)
	return gen.Splice(ops, gen.MovePhoto(target, 1), victim, len(ops)/10, victimEvery)
}
