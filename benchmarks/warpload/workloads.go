package main

import (
	"fmt"
	"strings"

	"warp/benchmarks/gen"
	"warp/internal/core"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
	"warp/internal/webapp/blog"
	"warp/internal/webapp/gallery"
)

// workload is one traffic mix on one kind of deployment, with the
// intrusion its repair phases undo. Every workload runs the same
// life cycle — set-up, serving, repair — so every end-to-end metric is
// defined on each; what differs is which layers do the work.
type workload struct {
	name, why string
	durable   bool
	// readFrac is the wiki streams' share of reads.
	readFrac float64
	// pacedRate is the open-loop phase's request rate, about 40% of what
	// one closed-loop client reached on the recording machine. It is
	// committed here, never derived at run time: a slower build must
	// show as latency, not as a gentler test.
	pacedRate float64
	// nominalRate, when set, bounds the serving phases by operation count
	// (nominalRate × phase seconds) instead of by time, so that the
	// tables grow along the same trajectory on every commit.
	nominalRate float64
	// liveRate is the operation rate of the one live client that keeps
	// working during the online repair.
	liveRate float64
	// gcEvery is the number of served requests between history GCs:
	// about a quarter second's worth at the recording machine's rates, so
	// that every slice of every phase spans whole GC cycles (version
	// chains and the heap saw-tooth between collections).
	gcEvery int64

	build  func(r *runner, variant string) (*deployment, error)
	stream func(r *runner, d *deployment, n int) []gen.Op
	live   func(r *runner, d *deployment) []gen.Op
	repair func(d *deployment, variant string) (*core.Report, error)
	// verify checks a repaired deployment: attack residue gone,
	// bystanders' work intact.
	verify func(r *runner, d *deployment, variant string) error
	// settle, when set, checks the served deployment against what was
	// acknowledged.
	settle func(r *runner, d *deployment) error
}

var workloads = []*workload{
	{
		name: "wiki-read",
		why: "in-memory zipf page reads by logged-in sessions: httpd, app render, history record and ttdb/sqldb point selects under concurrency; " +
			"no WAL, no lock contention",
		readFrac: 1, pacedRate: 20000, liveRate: 400, gcEvery: 10000,
		build: buildWikiVariant, stream: serveWiki, live: liveWiki, repair: repairWiki, verify: verifyWiki, settle: settleWiki,
	},
	{
		name: "wiki-edit-durable",
		why: "durable (warp.Open) full edit visits on zipf pages so hot pages contend: ttdb two-phase update, partition locks, WAL append, " +
			"checkpoints, crash recovery; point reads do little",
		durable: true, readFrac: 0, pacedRate: 3500, liveRate: 400, gcEvery: 2000,
		build: buildWikiVariant, stream: serveWiki, live: liveWiki, repair: repairWiki, verify: verifyWiki, settle: settleWiki,
	},
	{
		name: "blog-gallery-mixed",
		why: "blog and gallery side by side, fixed op count: multi-row partition selects with COUNT/SUM, inserts into growing tables, " +
			"UNIQUE inserts, aggregate-then-update digests; no large-row update or WAL work",
		pacedRate: 2000, nominalRate: 6000, liveRate: 400, gcEvery: 2000,
		build: buildMixedVariant, stream: serveMixed, live: liveMixed, repair: repairMixed, verify: verifyMixed, settle: settleMixed,
	},
	{
		name: "wiki-repair",
		why: "the paper's browser-recorded multi-user wiki workload: dependency-tracked sparse repair, full re-execution with browser replay " +
			"and rollback, online repair under a live client; the serving fast path does little",
		readFrac: 0.8, pacedRate: 5000, liveRate: 200, gcEvery: 4000,
		build: buildWikiRepair, stream: serveWiki, live: liveWiki,
		repair: func(d *deployment, v string) (*core.Report, error) {
			if v == "sparse" {
				return repairPatch(d, "Reflected XSS")
			}
			return repairPatch(d, "Clickjacking")
		},
		verify: verifyWikiRepair,
	},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// replay executes a repair epoch in order through the deployment's real
// entry point from one client, so that the recorded history — and with
// it every re-execution count — is the same on every run of a seed. It
// notes the logical time just before the attack.
func (r *runner) replay(d *deployment, ops []gen.Op, attackIdx int) error {
	stream, err := prepare(ops, d.cookie)
	if err != nil {
		return err
	}
	h, rw := d.handler(), newRespWriter()
	for i := range stream {
		if i == attackIdx {
			d.attackAt = d.w.Clock.Now()
		}
		for j := range stream[i].reqs {
			issue(h, rw, &stream[i].reqs[j])
			if !accepted(stream[i].reqs[j].spec, rw) {
				return fmt.Errorf("epoch op %d (%s): status %d", i, ops[i].Kind, rw.status)
			}
		}
	}
	r.attempted.Add(int64(len(ops)))
	d.epochOps = ops
	return nil
}

//
// wiki-read and wiki-edit-durable
//

func buildWikiVariant(r *runner, variant string) (*deployment, error) {
	d, err := r.timedBuild(r.buildWiki)
	if err != nil || variant == "serve" {
		return d, err
	}
	ops, at := r.wikiEpoch(d)
	if err := r.replay(d, ops, at); err != nil {
		return nil, err
	}
	d.baseline, err = d.pageContents()
	return d, err
}

func serveWiki(r *runner, d *deployment, n int) []gen.Op { return r.wikiStream(d, r.seed, n) }

// liveWiki is the live client's stream: edit visits to its own page.
func liveWiki(r *runner, d *deployment) []gen.Op {
	ops := make([]gen.Op, 512)
	for i := range ops {
		ops[i] = gen.WikiEdit(liveTitle, gen.EditBody(i, liveTitle), d.live)
	}
	return ops
}

// repairPatch retroactively applies the Table 2 patch for one
// vulnerability kind.
func repairPatch(d *deployment, kind string) (*core.Report, error) {
	v, ok := d.wikiApp.VulnerabilityByKind(kind)
	if !ok {
		return nil, fmt.Errorf("no vulnerability %q", kind)
	}
	return d.w.RetroPatch(v.File, v.Patch)
}

// repairWiki: sparse rolls the defaced page's partition back to just
// before the attack (every later reader of it re-executes); full is the
// clickjacking patch of common.php, which every run loaded.
func repairWiki(d *deployment, variant string) (*core.Report, error) {
	if variant == "sparse" {
		p := ttdb.Partition{Table: "pages", Column: "title", Key: sqldb.Text(targetTitle).Key()}
		return d.w.UndoPartition(p, d.attackAt)
	}
	return repairPatch(d, "Clickjacking")
}

// verifyWiki: after the sparse repair the target page is back to its
// seeded content and every other page is untouched; the full repair's
// patch changes no content at all (the live client's own page aside).
func verifyWiki(r *runner, d *deployment, variant string) error {
	got, err := d.pageContents()
	if err != nil {
		return err
	}
	for title, want := range d.baseline {
		switch {
		case title == liveTitle:
			continue
		case title == targetTitle && variant == "sparse":
			want = "target page, as seeded"
		}
		if got[title] != want {
			return fmt.Errorf("%s repair: page %s holds %.60q, want %.60q", variant, title, got[title], want)
		}
	}
	if variant == "sparse" && strings.Contains(got[targetTitle], attackMarker) {
		return fmt.Errorf("sparse repair left attack residue on %s", targetTitle)
	}
	return nil
}

// settleWiki: every page holds either its seeded content or an edit the
// server acknowledged (a 303 to the save) for that very page; reads
// must not have changed anything.
func settleWiki(r *runner, d *deployment) error {
	got, err := d.pageContents()
	if err != nil {
		return err
	}
	for i, title := range d.titles {
		if c := got[title]; c != gen.PageBody(i) && !r.acks.acked(title, c) {
			return fmt.Errorf("page %s holds %.60q: neither its seeded content nor an acknowledged edit", title, c)
		}
	}
	return nil
}

func verifyWikiRepair(r *runner, d *deployment, variant string) error {
	team, err := d.wikiApp.PageContent(d.env.TargetPage)
	if err != nil {
		return err
	}
	for _, residue := range []string{"PWNED", "mooo"} {
		if strings.Contains(team, residue) {
			return fmt.Errorf("%s repair left %q on %s", variant, residue, d.env.TargetPage)
		}
	}
	for _, u := range d.env.Others {
		if !strings.Contains(team, "note from "+u.Name) {
			return fmt.Errorf("%s repair lost the note from bystander %s", variant, u.Name)
		}
	}
	return nil
}

//
// blog-gallery-mixed
//

func buildMixedVariant(r *runner, variant string) (*deployment, error) {
	d, err := r.timedBuild(r.buildMixed)
	if err != nil || variant == "serve" {
		return d, err
	}
	ops, at := r.mixedEpoch()
	return d, r.replay(d, ops, at)
}

func serveMixed(r *runner, d *deployment, n int) []gen.Op {
	return gen.Mixed(r.seed, n, r.mixedSpec())
}

// liveMixed is the live client's stream: comments on its own post.
func liveMixed(r *runner, d *deployment) []gen.Op {
	ops := make([]gen.Op, 512)
	for i := range ops {
		ops[i] = gen.Comment(r.sc.posts, 0, fmt.Sprintf("live comment %d", i))
	}
	return ops
}

// repairMixed retroactively applies the fix for one of the Table 5 bugs.
func repairMixed(d *deployment, variant string) (*core.Report, error) {
	if variant == "sparse" {
		return d.w.RetroPatch("movephoto.php", (&gallery.App{W: d.w}).MovephotoFixed())
	}
	return d.w.RetroPatch("editpost.php", (&blog.App{W: d.w}).EditpostFixed())
}

// verifyMixed: the sparse repair restores the target photo's wiped
// permissions; the full repair restores every vote the buggy edits
// wiped, so the votes table holds exactly one row per distinct
// (post, voter) the epoch's voters sent.
func verifyMixed(r *runner, d *deployment, variant string) error {
	if variant == "sparse" {
		n, err := d.count("SELECT COUNT(*) FROM perms WHERE item_id = ?", sqldb.Int(int64(r.sc.photos)))
		if err != nil {
			return err
		}
		if n != gen.SeedGrants {
			return fmt.Errorf("sparse repair: target photo has %d permissions, want %d", n, gen.SeedGrants)
		}
		return nil
	}
	distinct := map[[2]int]bool{}
	for _, op := range d.epochOps {
		if op.Kind == "vote" {
			distinct[[2]int{op.Key, op.User}] = true
		}
	}
	n, err := d.count("SELECT COUNT(*) FROM votes")
	if err != nil {
		return err
	}
	if n != int64(len(distinct)) {
		return fmt.Errorf("full repair: %d votes stored, want %d (one per distinct voter and post)", n, len(distinct))
	}
	return nil
}

// settleMixed: comment, vote and permission row counts equal the
// acknowledged, non-duplicate POSTs (plus the seeded permissions).
func settleMixed(r *runner, d *deployment) error {
	for _, c := range []struct {
		table string
		want  int64
	}{
		{"comments", r.acks.comments.Load()},
		{"votes", r.acks.votes.Load()},
		{"perms", d.seededPerms + r.acks.grants.Load()},
	} {
		n, err := d.count("SELECT COUNT(*) FROM " + c.table)
		if err != nil {
			return err
		}
		if n != c.want {
			return fmt.Errorf("%s holds %d rows, want %d acknowledged", c.table, n, c.want)
		}
	}
	return nil
}
