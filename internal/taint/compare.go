package taint

import (
	"fmt"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/history"
	"warp/internal/ttdb"
	"warp/internal/webapp/blog"
	"warp/internal/webapp/gallery"
)

// Bug identifies one of the four §8.4 corruption bugs.
type Bug string

// The four bugs of Table 5.
const (
	BugLostVotes    Bug = "Drupal – lost voting info"
	BugLostComments Bug = "Drupal – lost comments"
	BugRemovePerms  Bug = "Gallery2 – removing perms"
	BugResizeImages Bug = "Gallery2 – resizing images"
)

// Bugs lists the Table 5 rows in order.
func Bugs() []Bug {
	return []Bug{BugLostVotes, BugLostComments, BugRemovePerms, BugResizeImages}
}

// PolicyResult is the outcome of one baseline policy on one bug.
type PolicyResult struct {
	Policy         Policy
	FalsePositives int
	FalseNegatives int
}

// Comparison is one Table 5 row: the taint baseline under its policies
// versus WARP.
type Comparison struct {
	Bug       Bug
	Corrupted int // ground-truth corrupted rows

	// Baseline's policies all need the administrator to identify the
	// buggy request (and supply white-lists).
	Baseline []PolicyResult

	// WARP's results: rows left different from the bug-free twin after
	// retroactive patching (ttdb.UnderRepair; want 0), and conflicts
	// requiring user input (want 0).
	WARPFalsePositives int
	WARPConflicts      int
}

// bugSpec describes one comparison scenario: how to deploy the
// application, drive the workload, and patch the bug.
type bugSpec struct {
	file      string // buggy source file, served at "/"+file
	bugURL    string // the request that triggers the bug
	whitelist map[string]bool
	// install installs the application, returning the bug's patch and
	// the step that seeds the base state.
	install func(w *core.Warp) (patch app.Version, seed func() error, err error)
	// workload drives the full activity, bugURL among it.
	workload func(w *core.Warp, scale int, bugURL string) error
}

// deploy installs and seeds one deployment, with the bug fixed from the
// start when fixed is set.
func (spec *bugSpec) deploy(fixed bool) (*core.Warp, app.Version, error) {
	w := core.New(core.Config{Seed: 41})
	patch, seed, err := spec.install(w)
	if err == nil && fixed {
		err = w.Runtime.Patch(spec.file, patch)
	}
	if err == nil {
		err = seed()
	}
	return w, patch, err
}

// RunComparison reproduces one Table 5 row at the given workload scale
// (number of users; the bench default is 100).
func RunComparison(bug Bug, scale int) (*Comparison, error) {
	if scale < 6 {
		scale = 6
	}
	spec, err := specFor(bug)
	if err != nil {
		return nil, err
	}

	// Twin deployments: buggy and oracle (bug fixed from the start).
	buggy, patch, err := spec.deploy(false)
	if err != nil {
		return nil, err
	}
	oracle, _, err := spec.deploy(true)
	if err != nil {
		return nil, err
	}
	if err := spec.workload(buggy, scale, spec.bugURL); err != nil {
		return nil, err
	}
	if err := spec.workload(oracle, scale, spec.bugURL); err != nil {
		return nil, err
	}

	// Ground truth: rows that differ between the buggy and bug-free runs.
	corrupted := make(map[RowKey]bool)
	for _, table := range oracle.DB.Tables() {
		diff, err := ttdb.DiffRows(buggy.DB, oracle.DB, table)
		if err != nil {
			return nil, err
		}
		for _, k := range diff {
			corrupted[RowKey{Table: table, Key: k}] = true
		}
	}

	cmp := &Comparison{Bug: bug, Corrupted: len(corrupted)}

	// The baseline's administrator identifies the bug-triggering request.
	buggyRun, err := findRunByPath(buggy, "/"+spec.file)
	if err != nil {
		return nil, err
	}
	for _, pol := range []Policy{PolicyDirect, PolicyFlow, PolicyFlowWhitelist} {
		an, err := Analyze(buggy, buggyRun, pol, spec.whitelist, corrupted)
		if err != nil {
			return nil, err
		}
		cmp.Baseline = append(cmp.Baseline, PolicyResult{
			Policy:         pol,
			FalsePositives: an.FalsePositives,
			FalseNegatives: an.FalseNegatives,
		})
	}

	// WARP: retroactively patch the buggy file and compare against the
	// oracle.
	rep, err := buggy.RetroPatch(spec.file, patch)
	if err != nil {
		return nil, err
	}
	cmp.WARPConflicts = len(rep.Conflicts)
	if cmp.WARPFalsePositives, err = ttdb.UnderRepair(buggy.DB, oracle.DB); err != nil {
		return nil, err
	}
	return cmp, nil
}

// findRunByPath locates the (first) application run serving a path.
func findRunByPath(w *core.Warp, path string) (history.ActionID, error) {
	for _, act := range w.Graph.ByKind(history.KindAppRun) {
		payload := act.Payload.(*core.RunPayload)
		if payload.Rec.Req.Path == path {
			return act.ID, nil
		}
	}
	return 0, fmt.Errorf("taint: no run for path %s", path)
}

func specFor(bug Bug) (*bugSpec, error) {
	posts, photos := map[string]bool{"posts": true}, map[string]bool{"photos": true}
	switch bug {
	case BugLostVotes:
		return &bugSpec{file: "editpost.php", bugURL: "/editpost.php?id=1&body=edited+body", whitelist: posts,
			install: installBlog((*blog.App).EditpostFixed), workload: blogWorkload}, nil
	case BugLostComments:
		return &bugSpec{file: "movepost.php", bugURL: "/movepost.php?id=1&category=archive", whitelist: posts,
			install: installBlog((*blog.App).MovepostFixed), workload: blogWorkload}, nil
	case BugRemovePerms:
		return &bugSpec{file: "movephoto.php", bugURL: "/movephoto.php?id=1&album=2", whitelist: photos,
			install: installGallery((*gallery.App).MovephotoFixed), workload: galleryWorkload}, nil
	case BugResizeImages:
		return &bugSpec{file: "resize.php", bugURL: "/resize.php?id=1", whitelist: photos,
			install: installGallery((*gallery.App).ResizeFixed), workload: galleryWorkload}, nil
	default:
		return nil, fmt.Errorf("taint: unknown bug %q", bug)
	}
}

// installBlog installs GoBlog; its seed step creates five posts.
func installBlog(fixed func(*blog.App) app.Version) func(*core.Warp) (app.Version, func() error, error) {
	return func(w *core.Warp) (app.Version, func() error, error) {
		a, err := blog.Install(w)
		if err != nil {
			return app.Version{}, nil, err
		}
		return fixed(a), func() error { return seedBlog(a) }, nil
	}
}

// installGallery installs GoGallery; its seed step creates two albums
// and five photos in the first.
func installGallery(fixed func(*gallery.App) app.Version) func(*core.Warp) (app.Version, func() error, error) {
	return func(w *core.Warp) (app.Version, func() error, error) {
		a, err := gallery.Install(w)
		if err != nil {
			return app.Version{}, nil, err
		}
		seed := func() error {
			if err := a.CreateAlbum(1, "Holiday"); err != nil {
				return err
			}
			if err := a.CreateAlbum(2, "Archive"); err != nil {
				return err
			}
			for i := int64(1); i <= 5; i++ {
				if err := a.CreatePhoto(i, 1, fmt.Sprintf("photo%d", i), fmt.Sprintf("IMAGEDATA-%d", i)); err != nil {
					return err
				}
			}
			return nil
		}
		return fixed(a), seed, nil
	}
}

func seedBlog(a *blog.App) error {
	for i := int64(1); i <= 5; i++ {
		if err := a.CreatePost(i, fmt.Sprintf("Post %d", i), "original body"); err != nil {
			return err
		}
	}
	return nil
}

// blogWorkload: half the users vote and comment before the bug, the bug
// fires, the other half keep voting and commenting on the affected post,
// and the stats digest is recomputed (deriving corrupted data — the false-
// negative trap for narrow policies).
func blogWorkload(w *core.Warp, scale int, bugURL string) error {
	users := make([]*browser.Browser, scale)
	for i := range users {
		users[i] = w.NewBrowser()
	}
	half := scale / 2
	for i := 0; i < half; i++ {
		u := fmt.Sprintf("user%d", i)
		post := 1 + i%5
		open(users[i], fmt.Sprintf("/vote.php?id=1&u=%s&val=1", u))
		open(users[i], fmt.Sprintf("/comment.php?id=%d&u=%s&text=nice+post", post, u))
	}
	// The administrator (or a user) triggers the bug.
	open(users[0], bugURL)
	// Post-bug activity on the affected post: these writes are what coarse
	// taint policies flag for rollback (false positives).
	for i := half; i < scale; i++ {
		u := fmt.Sprintf("user%d", i)
		open(users[i], fmt.Sprintf("/comment.php?id=1&u=%s&text=late+comment", u))
		open(users[i], fmt.Sprintf("/vote.php?id=1&u=%s&val=1", u))
	}
	// A stats digest derives data from the (now corrupted) counts.
	open(users[0], "/digest.php?id=1")
	return nil
}

// galleryWorkload: users are granted access and view photos; the bug
// fires; the administrator re-grants and users keep viewing.
func galleryWorkload(w *core.Warp, scale int, bugURL string) error {
	users := make([]*browser.Browser, scale)
	for i := range users {
		users[i] = w.NewBrowser()
	}
	half := scale / 2
	for i := 0; i < half; i++ {
		u := fmt.Sprintf("user%d", i)
		open(users[i], fmt.Sprintf("/grant.php?id=1&user=%s", u))
		open(users[i], fmt.Sprintf("/photo.php?id=1&u=%s", u))
	}
	open(users[0], bugURL)
	// Post-bug: the administrator re-grants users on the affected photo
	// (after the perms bug) and users keep viewing.
	for i := half; i < scale; i++ {
		u := fmt.Sprintf("user%d", i)
		open(users[i], fmt.Sprintf("/grant.php?id=1&user=%s", u))
		open(users[i], fmt.Sprintf("/photo.php?id=1&u=%s", u))
	}
	return nil
}

// open drives one GET page visit.
func open(b *browser.Browser, url string) {
	b.Open(url)
}
