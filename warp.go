// Package warp is an intrusion recovery system for database-backed web
// applications: a from-scratch Go reproduction of
//
//	"Intrusion Recovery for Database-backed Web Applications",
//	Chandra, Kim, Shah, Narula, Zeldovich — SOSP 2011.
//
// WARP repairs a compromised web application by rolling back exactly the
// parts of the database the attack influenced and re-executing the
// legitimate actions recorded since, so that the attack's direct and
// indirect effects disappear while users' work survives. Its three core
// ideas, all implemented here:
//
//   - Retroactive patching (RetroPatch): apply a security patch to the
//     past. Every recorded application run that loaded the patched file is
//     re-executed against the fixed code; runs that behave differently are
//     (potential) attacks and their effects are recursively repaired. The
//     administrator never needs to detect or locate the attack.
//
//   - A time-travel database: every table is continuously versioned and
//     partitioned, so repair rolls back individual rows, re-executes
//     queries at their original times, and skips everything untouched —
//     while normal operation continues in a separate repair generation.
//
//   - DOM-level browser replay: the browser extension records user input
//     by DOM element; during repair a server-side browser clone re-opens
//     the repaired pages and re-applies the user's actions, merging text
//     edits three-way, so attacks that ran through users' browsers (XSS,
//     CSRF, clickjacking) are undone without losing the users' work.
//
// Repair runs the paper's loop (docs/repair.md): it takes the earliest
// queued work item, re-executes it, and repeats, so the same history and
// repair give the same outcome on any machine. Beyond the paper, repair
// runs online: live requests keep executing beside it, at once, and the
// repair folds in what they wrote before it commits.
//
// A System wires together the substrates in internal/: the SQL engine
// (sqldb), the time-travel layer (ttdb), the action history graph
// (history), the application runtime (app), the browser simulator
// (browser), and the repair controller (core).
//
// Minimal use:
//
//	sys := warp.New(warp.Config{})
//	sys.DB.Annotate("notes", warp.TableSpec{RowIDColumn: "id"})
//	sys.DB.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)")
//	sys.Runtime.Register("notes.php", warp.Version{Entry: handler})
//	sys.Runtime.Mount("/", "notes.php")
//	b := sys.NewBrowser()
//	b.Open("/")
//	...
//	report, err := sys.RetroPatch("notes.php", warp.Version{Entry: fixed})
package warp

import (
	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/sqldb"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// Aliases for the public surface of the subsystems, so applications built
// on WARP import a single package.
type (
	// Config tunes a WARP deployment.
	Config = core.Config
	// Report summarizes a repair.
	Report = core.Report
	// Timing is a repair's wall-time breakdown.
	Timing = core.Timing
	// StorageStats is the per-layer log storage accounting.
	StorageStats = core.StorageStats
	// ExecStats is the database layer's execution-path counters
	// (Metrics.Exec): statement-cache/plan hit rates and index-vs-full
	// scan counts.
	ExecStats = sqldb.ExecStats
	// Metrics is the process-wide observability snapshot
	// (System.Metrics): exec counters, every registered latency
	// histogram / counter / gauge, and the live repair phase trace. See
	// docs/observability.md.
	Metrics = core.Metrics
	// TraceSnapshot is a point-in-time copy of a repair's phase trace
	// (Metrics.Repair) — safe to read while the repair is still running.
	TraceSnapshot = obs.TraceSnapshot

	// Version is one version of an application source file.
	Version = app.Version
	// Ctx is the execution context application code runs in.
	Ctx = app.Ctx
	// Script is an application entry point.
	Script = app.Script

	// Browser is a simulated client browser with the WARP extension.
	Browser = browser.Browser
	// Page is an open page in a browser.
	Page = browser.Page
	// VisitLog is the extension's per-page-visit event log.
	VisitLog = browser.VisitLog
	// ReplayConfig selects browser re-execution fidelity.
	ReplayConfig = browser.ReplayConfig
	// Conflict is a queued repair conflict awaiting user resolution.
	Conflict = browser.Conflict

	// TableSpec carries a table's row-ID and partition annotations.
	TableSpec = ttdb.TableSpec

	// DurabilityOptions tunes the persistence layer for deployments
	// created with Open (Config.Durability): group commit
	// (SyncEveryAppend, GroupWindow) and the incremental checkpoint
	// cadence (CompactEvery). See docs/persistence.md.
	DurabilityOptions = store.Options
	// CheckpointStats reports what the last checkpoint wrote
	// (System.LastCheckpoint): which sections landed in the new delta
	// file and which were carried forward by manifest reference.
	CheckpointStats = store.CheckpointStats
	// RepairIntent describes a repair that was in flight when a previous
	// instance crashed (System.PendingRepair / ResumeRepair).
	RepairIntent = core.RepairIntent
	// RecoveryStats summarizes what Open recovered from disk.
	RecoveryStats = core.RecoveryStats
	// Health is the deployment's operational snapshot (System.Health):
	// degraded-mode status, the last storage fault, and the background
	// scrubber's progress. Served by warp-server's GET /warp/health.
	Health = core.Health
	// ScrubStats is the background storage scrubber's cumulative
	// progress (Health.Scrub). See docs/persistence.md "Failure model".
	ScrubStats = store.ScrubStats

	// Value is a dynamically typed SQL value.
	Value = sqldb.Value

	// Request is an HTTP request; Response an HTTP response.
	Request = httpd.Request
	// Response is an HTTP response.
	Response = httpd.Response
)

// Value constructors, re-exported for application code.
var (
	// Int returns an INTEGER value.
	Int = sqldb.Int
	// Text returns a TEXT value.
	Text = sqldb.Text
	// Bool returns a BOOLEAN value.
	Bool = sqldb.Bool
	// Null returns the SQL NULL value.
	Null = sqldb.Null
)

// FullReplay is the complete browser re-execution configuration.
var FullReplay = browser.FullReplay

// ErrDegraded is returned (wrapped, with the storage cause) by every
// write path of a deployment that entered degraded read-only mode after
// an unrecoverable storage fault. See docs/persistence.md "Failure
// model".
var ErrDegraded = core.ErrDegraded

// Repair intent kinds (RepairIntent.Kind).
const (
	RepairIntentRetroPatch    = core.IntentRetroPatch
	RepairIntentUndoVisit     = core.IntentUndoVisit
	RepairIntentUndoPartition = core.IntentUndoPartition
)

// System is one WARP-managed web application deployment: the HTTP server
// manager, application runtime, time-travel database, action history
// graph, browser log store, and repair controller of the paper's Figure 1.
//
// All methods of the underlying core deployment are promoted; the most
// important are HandleRequest (serve one request under normal execution),
// NewBrowser (create a wired client), UploadVisitLog (the extension's
// endpoint), RetroPatch / UndoVisit (initiate repair), Conflicts, Storage,
// and GC.
type System struct {
	*core.Warp
}

// New creates an in-memory WARP deployment. State does not survive the
// process; use Open for a durable one.
func New(cfg Config) *System {
	return &System{Warp: core.New(cfg)}
}

// Open creates a WARP deployment backed by a persistence directory
// (docs/persistence.md): every recorded action is written to a
// write-ahead log, checkpoints bound recovery time, and reopening the
// directory recovers the full history graph and time-travel database —
// including a repair that was in flight at crash time (PendingRepair /
// ResumeRepair). Application code is not persisted: Register and Mount
// source files after Open exactly as on a fresh deployment.
func Open(dir string, cfg Config) (*System, error) {
	w, err := core.Open(dir, cfg)
	if err != nil {
		return nil, err
	}
	return &System{Warp: w}, nil
}
