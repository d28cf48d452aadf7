// Package app implements WARP's application runtime and application repair
// manager (paper §3) — the role PHP plus WARP's PHP module played in the
// original prototype.
//
// Application code is organized as named source files (edit.php,
// login.php, ...), each holding a Go function. Files are versioned:
// registering a new version of a file is how patches — including
// retroactive patches — enter the system. During normal execution the
// runtime records, per run: the HTTP request and response, every source
// file loaded, every database query with its result, and the outcomes of
// nondeterministic calls (time, randomness, session-ID generation),
// exactly the dependencies §3.1 lists. During repair the runtime re-runs
// the (possibly patched) code, matching nondeterministic calls to the
// original run by call site, in order (§3.3).
package app

import (
	"fmt"
	"math/rand"
	"sync"

	"warp/internal/httpd"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
	"warp/internal/vclock"
)

// Script is the entry point of an application source file: it handles one
// HTTP request. It is the analog of a PHP page.
type Script func(*Ctx) *httpd.Response

// Library is the exported API of a source file loaded via Include, for
// files that act as shared code rather than entry points.
type Library any

// Version is one version of a source file's code.
type Version struct {
	Entry Script
	Lib   Library
	Note  string // human-readable description (e.g. the CVE a patch fixes)
}

type sourceFile struct {
	name     string
	versions []Version
}

// Runtime hosts an application's source files and executes runs.
type Runtime struct {
	mu     sync.Mutex
	db     *ttdb.DB
	clock  *vclock.Clock
	rng    *rand.Rand
	draws  int64 // values drawn from rng; persisted so restarts resume the stream
	files  map[string]*sourceFile
	routes map[string]string
	runSeq int64
	// versions is the immutable file → version snapshot of the current
	// patch level, shared by every run recorded at it; nil until the next
	// FileVersions call after a Register or Patch.
	versions map[string]int
}

// NewRuntime creates a runtime over a time-travel database. seed drives
// the runtime's source of nondeterminism (tokens, random numbers); the
// value is arbitrary, and recorded values — not the seed — are what repair
// relies on.
func NewRuntime(db *ttdb.DB, seed int64) *Runtime {
	return &Runtime{
		db:     db,
		clock:  db.Clock(),
		rng:    rand.New(rand.NewSource(seed)),
		files:  make(map[string]*sourceFile),
		routes: make(map[string]string),
	}
}

// Register installs the first version of a source file.
func (rt *Runtime) Register(name string, v Version) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, exists := rt.files[name]; exists {
		return fmt.Errorf("app: file %s already registered", name)
	}
	rt.files[name] = &sourceFile{name: name, versions: []Version{v}}
	rt.versions = nil
	return nil
}

// Patch installs a new version of an existing source file. It is the
// entry point for security patches (§3.2).
func (rt *Runtime) Patch(name string, v Version) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f, ok := rt.files[name]
	if !ok {
		return fmt.Errorf("app: cannot patch unknown file %s", name)
	}
	f.versions = append(f.versions, v)
	rt.versions = nil
	return nil
}

// FileVersion returns the current version number of a file (1-based), or 0
// if unknown.
func (rt *Runtime) FileVersion(name string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if f, ok := rt.files[name]; ok {
		return len(f.versions)
	}
	return 0
}

// FileVersions returns the current version number of every registered
// file. The map is shared and immutable: one snapshot per patch level, so
// recording a run costs no per-run map. A run consults it for the files it
// loaded (RunRecord.FilesLoaded) only.
func (rt *Runtime) FileVersions() map[string]int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.versions == nil {
		rt.versions = make(map[string]int, len(rt.files))
		for name, f := range rt.files {
			rt.versions[name] = len(f.versions)
		}
	}
	return rt.versions
}

// SetRunSeqFloor advances the run-ID allocator to at least v. Recovery
// calls it with the highest recovered run ID so post-recovery runs never
// reuse a recorded identity.
func (rt *Runtime) SetRunSeqFloor(v int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if v > rt.runSeq {
		rt.runSeq = v
	}
}

// nextRand draws the next value of the runtime's seeded nondeterminism
// stream, advancing the persistent cursor. Every generator (Token,
// RandInt) consumes exactly one draw, so a recovered deployment can
// fast-forward the stream by cursor alone (AdvanceRNGCursor).
func (rt *Runtime) nextRand() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.draws++
	return rt.rng.Uint64()
}

// RNGCursor reports how many values the runtime's seeded nondeterminism
// stream has produced. The persistence layer stores it in each
// checkpoint so a restarted deployment resumes the stream instead of
// replaying it from the seed — without this, the first post-restart
// login would regenerate a recovered session's sid and fail its
// uniqueness check (docs/persistence.md).
func (rt *Runtime) RNGCursor() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.draws
}

// AdvanceRNGCursor fast-forwards the seeded stream to the given cursor.
// Recovery calls it with the checkpointed cursor; positions already
// passed are left alone.
func (rt *Runtime) AdvanceRNGCursor(n int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.draws < n {
		rt.rng.Uint64()
		rt.draws++
	}
}

// Mount routes an HTTP path to a source file.
func (rt *Runtime) Mount(path, file string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.routes[path] = file
}

// RouteOf resolves an HTTP path to a source file name.
func (rt *Runtime) RouteOf(path string) (string, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f, ok := rt.routes[path]
	return f, ok
}

func (rt *Runtime) current(name string) (Version, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	f, ok := rt.files[name]
	if !ok || len(f.versions) == 0 {
		return Version{}, false
	}
	return f.versions[len(f.versions)-1], true
}

// NonDetCall records one intercepted nondeterministic call (§3.1): the
// call site and the value returned.
type NonDetCall struct {
	Site  string
	Value string
}

// RunRecord is everything WARP logs about one application run: the
// payload of a KindAppRun action in the history graph.
type RunRecord struct {
	RunID       int64
	Time        int64 // logical start time
	File        string
	Req         *httpd.Request
	Resp        *httpd.Response
	FilesLoaded []string
	Queries     []*ttdb.Record
	NonDet      []NonDetCall
	Failed      bool // script panicked
}

// ApproxLogBytes estimates the application-level log footprint of the run
// (request, response, nondeterminism), excluding database records, which
// are accounted separately (Table 6's App vs DB split).
func (r *RunRecord) ApproxLogBytes() int {
	n := 16
	if r.Req != nil {
		n += r.Req.ApproxBytes()
	}
	if r.Resp != nil {
		n += r.Resp.ApproxBytes()
	}
	for _, f := range r.FilesLoaded {
		n += len(f)
	}
	for _, nd := range r.NonDet {
		n += len(nd.Site) + len(nd.Value)
	}
	return n
}

// DBLogBytes estimates the database-level log footprint of the run.
func (r *RunRecord) DBLogBytes() int {
	n := 0
	for _, q := range r.Queries {
		n += q.ApproxLogBytes()
	}
	return n
}

// QueryFunc executes one SQL query on behalf of a run. During normal
// execution it is the time-travel database's Exec; during repair the
// controller substitutes a function that re-executes in the repair
// generation and tracks dependencies (§3.3: "all inputs and outputs to and
// from the application are handled by the repair controller").
type QueryFunc func(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error)

// Ctx is the execution context a script sees: its window onto the request,
// the database, and the interposed nondeterministic functions.
type Ctx struct {
	Req *httpd.Request

	rt     *Runtime
	rec    *RunRecord
	query  QueryFunc
	orig   *RunRecord
	ndNext map[string]int // per-site cursor into orig.NonDet
	loaded map[string]bool
}

// Query executes a SQL statement, recording it and its dependencies.
func (c *Ctx) Query(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	res, rec, err := c.query(sql, params)
	if rec != nil {
		c.rec.Queries = append(c.rec.Queries, rec)
	}
	return res, err
}

// MustQuery is Query for statements that cannot fail in a correct
// application; it panics on error, which the runtime converts into a 500
// response (the PHP fatal-error analog).
func (c *Ctx) MustQuery(sql string, params ...sqldb.Value) *sqldb.Result {
	res, err := c.Query(sql, params...)
	if err != nil {
		panic(fmt.Sprintf("query failed: %v", err))
	}
	return res
}

// nondet returns the recorded value for a call site during replay, or
// generates a fresh value. Matching is per site, in order (§3.3).
func (c *Ctx) nondet(site string, generate func() string) string {
	if c.orig != nil {
		idx := c.ndNext[site]
		seen := 0
		for _, nd := range c.orig.NonDet {
			if nd.Site != site {
				continue
			}
			if seen == idx {
				c.ndNext[site] = idx + 1
				c.rec.NonDet = append(c.rec.NonDet, NonDetCall{Site: site, Value: nd.Value})
				return nd.Value
			}
			seen++
		}
		// No original counterpart: fall through and generate fresh. This is
		// the paper's heuristic-miss path; correctness is unaffected.
	}
	v := generate()
	c.rec.NonDet = append(c.rec.NonDet, NonDetCall{Site: site, Value: v})
	return v
}

// Now returns the current time as the application sees it (the date()/
// time() analog). Recorded and replayed.
func (c *Ctx) Now(site string) int64 {
	v := c.nondet(site, func() string {
		return fmt.Sprintf("%d", c.rt.clock.Now())
	})
	var n int64
	fmt.Sscanf(v, "%d", &n)
	return n
}

// Token returns a random 16-hex-digit token (the mt_rand/session_start
// analog, used for session IDs and CSRF challenges). Recorded and
// replayed; a fresh draw consumes exactly one position of the runtime's
// resumable stream.
func (c *Ctx) Token(site string) string {
	return c.nondet(site, func() string {
		return fmt.Sprintf("%016x", c.rt.nextRand())
	})
}

// RandInt returns a nonnegative random int below n. Recorded and
// replayed; a fresh draw consumes exactly one position of the runtime's
// resumable stream.
func (c *Ctx) RandInt(site string, n int64) int64 {
	v := c.nondet(site, func() string {
		return fmt.Sprintf("%d", int64(c.rt.nextRand()%uint64(n)))
	})
	var out int64
	fmt.Sscanf(v, "%d", &out)
	return out
}

// Include loads another source file (the require/include analog),
// recording the dependency (§3.1), and returns its exported library.
func (c *Ctx) Include(name string) (Library, error) {
	v, ok := c.rt.current(name)
	if !ok {
		return nil, fmt.Errorf("app: include of unknown file %s", name)
	}
	if !c.loaded[name] {
		c.loaded[name] = true
		c.rec.FilesLoaded = append(c.rec.FilesLoaded, name)
	}
	return v.Lib, nil
}

// Run executes one application run. file names the entry source file; req
// is the HTTP request. query routes the run's SQL (nil means direct normal
// execution on the runtime's database). orig, when non-nil, is the
// original run whose nondeterminism should be replayed (repair mode).
func (rt *Runtime) Run(file string, req *httpd.Request, query QueryFunc, orig *RunRecord) (rec *RunRecord, err error) {
	v, ok := rt.current(file)
	if !ok || v.Entry == nil {
		return nil, fmt.Errorf("app: no runnable file %s", file)
	}
	rt.mu.Lock()
	rt.runSeq++
	runID := rt.runSeq
	rt.mu.Unlock()

	if query == nil {
		query = func(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error) {
			return rt.db.Exec(sql, params...)
		}
	}
	rec = &RunRecord{
		RunID: runID,
		Time:  rt.clock.Tick(),
		File:  file,
		Req:   req,
	}
	ctx := &Ctx{
		Req:    req,
		rt:     rt,
		rec:    rec,
		query:  query,
		orig:   orig,
		ndNext: make(map[string]int),
		loaded: make(map[string]bool),
	}
	ctx.loaded[file] = true
	rec.FilesLoaded = append(rec.FilesLoaded, file)

	defer func() {
		if p := recover(); p != nil {
			rec.Failed = true
			rec.Resp = httpd.ServerError(fmt.Sprintf("internal error: %v", p))
			err = nil
		}
	}()
	rec.Resp = v.Entry(ctx)
	if rec.Resp == nil {
		rec.Resp = httpd.ServerError("handler returned no response")
	}
	return rec, nil
}
