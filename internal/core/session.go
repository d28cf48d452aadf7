package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/obs"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// session is the state of one repair (the paper's repair controller).
// The repair goroutine drives a session while live requests, during an
// online repair, consult it through the admission gate: the maps below
// are guarded by mu, the timing counters are atomic, and the work queue
// itself lives in the scheduler.
type session struct {
	w   *Warp
	gen int64
	rep *Report
	cfg browser.ReplayConfig

	sched *scheduler

	// mu guards the session maps, counters, and the report's work
	// accounting. It is never held across a scheduler push or a Warp/graph
	// lock acquisition.
	mu  sync.Mutex
	seq int64

	// dirt maps partitions to the earliest time their contents changed
	// during this repair; tableDirt, each table to the earliest over its
	// partitions, so a whole-table check is one lookup.
	dirt      map[ttdb.Partition]int64
	tableDirt map[string]int64

	// dirtSeq numbers addDirt calls (drawn under mu); dirtLog keeps each
	// partition's calls in number order; execSeq, per query action run in
	// this session, the number its latest execution began at.
	dirtSeq atomic.Int64
	dirtLog map[ttdb.Partition][]dirtEntry
	execSeq map[history.ActionID]int64

	origRuns    map[history.Exchange]history.ActionID // first-seen (original) run per exchange
	served      map[history.Exchange]*servedEntry
	activeVisit map[string]bool

	jarOverride map[string]map[string]string // diverged replay cookie jars

	// navOverrides remembers, per child visit, the parent's latest
	// re-derived main request (e.g. a merged form), so a later standalone
	// re-replay of the child does not fall back to the stale recorded one.
	navOverrides map[string]*workItem

	// conflicts holds what the session reports, by source: "" for those
	// queued directly (a changed response to a client with no log, an
	// undo that cannot run), a visit key for what that visit's last replay
	// reported — a visit replays again when its inputs change, and only
	// its last replay describes the repaired timeline (allConflicts).
	conflicts map[string][]browser.Conflict

	// Distinct work accounting for the Tables 7/8 "re-executed actions"
	// columns: repeats of the same item (fixpoint passes) count once.
	doneVisits  map[string]bool
	doneRuns    map[history.ActionID]bool
	doneQueries map[history.ActionID]bool

	traceMu sync.Mutex
	trace   func(format string, args ...any)

	// obsTrace is the session's phase trace (frontier / replay /
	// rollback / commit spans); nil when obs is disabled — every Trace
	// method is nil-safe.
	obsTrace *obs.Trace

	// timing, in nanoseconds; atomic so they can be read while a repair
	// accounts.
	tInit    atomic.Int64
	tGraph   atomic.Int64
	tBrowser atomic.Int64
	tDB      atomic.Int64
	tApp     atomic.Int64

	// liveSince is the logical time the session started: records with a
	// later time were logged by live traffic while this repair ran, the
	// only writes the online merge path (replay.go) may touch.
	liveSince int64

	// mergedLive memoizes, per merged live write (table/row/time), the
	// three-way-merged text. The merge is computed once, against the live
	// write's original pre-image; every later re-execution of the same
	// write — query-level or via its run's replay, which re-derives the
	// raw request parameters — applies the memoized text, so the fixpoint
	// converges on the merged value instead of oscillating.
	mergedLive map[string]string

	// passChanges counts state changes observed during the current
	// fixpoint pass: dirt-map entries created or lowered, and query
	// outcomes that changed on re-execution. A pass that drains with
	// zero changes re-executed deterministic, already-converged work, so
	// the fixpoint loop stops instead of burning its full pass budget.
	passChanges atomic.Int64
}

// dirtEntry is one addDirt call on a partition: its number and the time
// the partition's contents changed from.
type dirtEntry struct{ n, from int64 }

// servedEntry caches the outcome of re-serving one HTTP exchange during
// repair, so a visit replay does not re-execute a run the controller
// already re-executed (§5.3 pruning). run is the re-executed run's
// action, 0 for a fresh run.
type servedEntry struct {
	req  *httpd.Request
	resp *httpd.Response
	run  history.ActionID
}

func (w *Warp) newSession(gen int64) *session {
	rep := &Report{Generation: gen}
	rep.TotalAppRuns = w.Graph.CountKind(history.KindAppRun)
	rep.TotalQueries = w.Graph.CountKind(history.KindQuery)
	w.mu.Lock()
	rep.TotalPageVisits = len(w.visitOrder)
	w.mu.Unlock()
	w.Graph.ResetLoadStats()
	rs := &session{
		w:            w,
		gen:          gen,
		rep:          rep,
		cfg:          *w.cfg.Replay,
		dirt:         make(map[ttdb.Partition]int64),
		tableDirt:    make(map[string]int64),
		dirtLog:      make(map[ttdb.Partition][]dirtEntry),
		execSeq:      make(map[history.ActionID]int64),
		origRuns:     make(map[history.Exchange]history.ActionID),
		served:       make(map[history.Exchange]*servedEntry),
		activeVisit:  make(map[string]bool),
		jarOverride:  make(map[string]map[string]string),
		navOverrides: make(map[string]*workItem),
		conflicts:    make(map[string][]browser.Conflict),
		doneVisits:   make(map[string]bool),
		doneRuns:     make(map[history.ActionID]bool),
		doneQueries:  make(map[history.ActionID]bool),
		mergedLive:   make(map[string]string),
		trace:        w.cfg.Trace,
	}
	rs.sched = newScheduler(rs,
		50*(rep.TotalAppRuns+rep.TotalQueries+rep.TotalPageVisits)+10000)
	return rs
}

// nextSeq issues the next session-unique sequence number, used for heap
// tie-breaking and synthetic IDs.
func (rs *session) nextSeq() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.seq++
	return rs.seq
}

// markRun counts a distinct run re-execution.
func (rs *session) markRun(id history.ActionID) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.doneRuns[id] {
		rs.doneRuns[id] = true
		rs.rep.AppRunsReexecuted++
	}
}

// markQuery counts a distinct query re-execution that began at dirt
// number n.
func (rs *session) markQuery(id history.ActionID, n int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.doneQueries[id] {
		rs.doneQueries[id] = true
		rs.rep.QueriesReexecuted++
	}
	rs.noteExecLocked(id, n)
}

// noteExecLocked files that query action id executed from dirt number n
// on. Only reads can overlap themselves, and a read that began later saw
// more, so the largest number wins. Caller holds mu.
func (rs *session) noteExecLocked(id history.ActionID, n int64) {
	if old, ok := rs.execSeq[id]; !ok || n > old {
		rs.execSeq[id] = n
	}
}

// noteRun files the dirt numbers a re-executed run's queries began at
// (ns, one per recorded query, in call order) onto the query actions
// recordRun published for them as run.
func (rs *session) noteRun(run history.ActionID, ns []int64) {
	qs := rs.w.Graph.Get(run).Payload.(*RunPayload).QueryActions
	if len(qs) != len(ns) {
		return // unmatched: leave them unsettled
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, id := range qs {
		rs.noteExecLocked(id, ns[i])
	}
}

// addConflict queues one repair conflict.
func (rs *session) addConflict(c browser.Conflict) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.conflicts[""] = append(rs.conflicts[""], c)
}

// setReplayConflicts files what one replay of the visit key reported, in
// place of its earlier replays' conflicts.
func (rs *session) setReplayConflicts(key string, cs []browser.Conflict) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.conflicts[key] = cs
}

// allConflicts returns the session's conflicts: those queued directly,
// then each replayed visit's last replay's, in visit-key order.
func (rs *session) allConflicts() []browser.Conflict {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []browser.Conflict
	for _, k := range slices.Sorted(maps.Keys(rs.conflicts)) {
		out = append(out, rs.conflicts[k]...)
	}
	return out
}

// tracef logs one controller step when tracing is enabled.
func (rs *session) tracef(format string, args ...any) {
	if rs.trace == nil {
		return
	}
	rs.traceMu.Lock()
	defer rs.traceMu.Unlock()
	rs.trace(format, args...)
}

//
// Dirt tracking and propagation (§4.1: partition-based dependencies)
//

// addDirt records that partitions changed from a given time on and
// enqueues every logged query reading or writing them afterwards that has
// not settled.
//
// The invariant the fixpoint rests on: every mutation of the repair
// generation is followed by an addDirt naming every partition it changed,
// at the mutation's logical time — reExec (a re-executed write's phase-B
// rollback and phase-C write, or what a failed one changed),
// rollbackWrite (and through it undoRun, cancelRun and cancelVisitTree),
// and UndoPartition's RollbackPartition. The call's number is drawn after
// the mutation, so every query execution that began before it holds a
// smaller number (settled).
func (rs *session) addDirt(parts []ttdb.Partition, from int64) {
	rs.mu.Lock()
	n := rs.dirtSeq.Add(1)
	for _, p := range parts {
		if old, ok := rs.dirt[p]; !ok || from < old {
			rs.dirt[p] = from
			rs.passChanges.Add(1)
		}
		if old, ok := rs.tableDirt[p.Table]; !ok || from < old {
			rs.tableDirt[p.Table] = from
		}
		rs.dirtLog[p] = append(rs.dirtLog[p], dirtEntry{n, from})
	}
	rs.mu.Unlock()
	for _, p := range parts {
		rs.propagate(p, from)
	}
}

// partitionNodes expands a partition into the graph nodes its
// dependencies live on: a keyed partition maps to its own node plus the
// table's conservative whole-table node; a whole-table partition fans out
// to every node of the table the graph holds postings for. Ordered by
// node name. Shared by dirt propagation and partition undo.
func (rs *session) partitionNodes(p ttdb.Partition) []history.Node {
	if p.IsWholeTable() {
		// Whole-table dirt touches every partition of the table.
		return rs.w.Graph.TableNodes(p.Table)
	}
	nodes := []history.Node{rs.w.partNode(p), rs.w.partNode(ttdb.WholeTable(p.Table))}
	rs.w.Graph.SortNodes(nodes)
	return nodes
}

// propagate finds actions depending on a partition strictly after the
// causing time. Forward-only propagation is what makes the repair loop
// terminate: re-executing an action at time t can only ever enqueue work
// later than t.
func (rs *session) propagate(p ttdb.Partition, from int64) {
	t0 := time.Now()
	nodes := rs.partitionNodes(p)
	var acts []*history.Action
	for _, n := range nodes {
		acts = append(acts, rs.w.Graph.Readers(n, from+1)...)
		acts = append(acts, rs.w.Graph.Writers(n, from+1)...)
	}
	rs.tGraph.Add(int64(time.Since(t0)))
	rs.mu.Lock()
	log, unsettled := rs.dirtLog[p], acts[:0]
	for _, a := range acts {
		if a.Kind == history.KindQuery && !rs.settledLocked(a, log) {
			unsettled = append(unsettled, a)
		}
	}
	rs.mu.Unlock()
	for _, a := range unsettled {
		rs.enqueueQuery(a)
	}
}

// settledLocked reports whether query action a executed in this session
// and no addDirt call on the partition (log) numbered after that
// execution began changed it before a's time. Live actions logged during
// the repair never executed here, so are never settled. Caller holds mu.
func (rs *session) settledLocked(a *history.Action, log []dirtEntry) bool {
	n, ok := rs.execSeq[a.ID]
	if !ok {
		return false
	}
	for i := len(log) - 1; i >= 0 && log[i].n > n; i-- {
		if log[i].from < a.Time {
			return false
		}
	}
	return true
}

// recordClean reports whether nothing a recorded query depends on was
// dirtied at or before its time: no partition it read, and for a write no
// partition it wrote. This is the one test of "clean": runClean prunes a
// run by it and serveRecorded serves a query by it.
func (rs *session) recordClean(rec *ttdb.Record) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return !rs.dirtyAtLocked(rec.ReadPartitions, rec.Time) &&
		!(rec.IsWrite() && rs.dirtyAtLocked(rec.WritePartitions, rec.Time))
}

// dirtyAtLocked reports whether any of the partitions was dirtied at or
// before t (meaning a query reading them at time t could see changed
// data). Caller holds mu.
func (rs *session) dirtyAtLocked(parts []ttdb.Partition, t int64) bool {
	for _, p := range parts {
		if dt, ok := rs.tableDirt[p.Table]; !ok || dt > t {
			continue // nothing in the table changed at or before t
		}
		if p.IsWholeTable() {
			return true
		}
		if dt, ok := rs.dirt[p]; ok && dt <= t {
			return true
		}
		if dt, ok := rs.dirt[ttdb.WholeTable(p.Table)]; ok && dt <= t {
			return true
		}
	}
	return false
}

// claimed reports whether any of the partitions is dirty in the repair
// generation at all — once dirtied, a partition stays claimed by the
// repair until the final commit. The admission gate paces live writes
// into claimed partitions.
func (rs *session) claimed(parts []ttdb.Partition) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, p := range parts {
		if _, ok := rs.tableDirt[p.Table]; !ok {
			continue
		}
		if p.IsWholeTable() {
			return true
		}
		if _, ok := rs.dirt[p]; ok {
			return true
		}
		if _, ok := rs.dirt[ttdb.WholeTable(p.Table)]; ok {
			return true
		}
	}
	return false
}

// dirtSnapshot copies the current dirt map, for the drain passes.
func (rs *session) dirtSnapshot() map[ttdb.Partition]int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[ttdb.Partition]int64, len(rs.dirt))
	for p, t := range rs.dirt {
		out[p] = t
	}
	return out
}

//
// Repair entry points
//

// RetroPatch retroactively applies a security patch (§3.2): it installs
// the new version of the source file and re-executes every application run
// that loaded that file, recursively repairing everything affected.
func (w *Warp) RetroPatch(file string, v app.Version) (*Report, error) {
	return w.RetroPatchSince(file, v, 0)
}

// RetroPatchSince is RetroPatch from a given past time (the paper's
// "time at which this patch should be applied", default the epoch).
func (w *Warp) RetroPatchSince(file string, v app.Version, since int64) (*Report, error) {
	intent := &RepairIntent{Kind: IntentRetroPatch, File: file, Note: v.Note, Since: since}
	return w.repair(intent, func(rs *session) error {
		t0 := time.Now()
		if err := w.Runtime.Patch(file, v); err != nil {
			return err
		}
		fileNode := nodeIn(w, w.fileNodes, file, history.FileName, false)
		w.Graph.Append(&history.Action{
			Kind:    history.KindPatch,
			Time:    w.Clock.Tick(),
			Outputs: []history.Dep{{Node: fileNode, Time: since}},
			Payload: v.Note,
		})
		tg := time.Now()
		runs := w.Graph.Readers(fileNode, since)
		rs.tGraph.Add(int64(time.Since(tg)))
		for _, a := range runs {
			if a.Kind == history.KindAppRun {
				rs.enqueueRun(a)
			}
		}
		rs.tInit.Add(int64(time.Since(t0)))
		return nil
	}, "")
}

// UndoVisit cancels a past page visit: every HTTP request the visit made
// is undone, with effects recursively repaired (§5.5). Non-administrators
// may not cause conflicts for other users; such repairs abort.
func (w *Warp) UndoVisit(clientID string, visitID int64, admin bool) (*Report, error) {
	return w.undoVisit(clientID, visitID, admin, false)
}

// undoVisit is UndoVisit with the conflict-dequeue marker carried into
// the durable repair intent (ResolveConflictByCancel sets it).
func (w *Warp) undoVisit(clientID string, visitID int64, admin, dequeue bool) (*Report, error) {
	initiator := clientID
	if admin {
		initiator = "" // administrators may cancel anything
	}
	intent := &RepairIntent{Kind: IntentUndoVisit, Client: clientID, Visit: visitID, Admin: admin, Dequeue: dequeue}
	return w.repair(intent, func(rs *session) error {
		t0 := time.Now()
		w.mu.Lock()
		vlog := w.visitByID[clientID][visitID]
		w.mu.Unlock()
		if vlog == nil {
			return fmt.Errorf("warp: no visit log for %s/%d", clientID, visitID)
		}
		for _, tr := range vlog.Snapshot().Requests {
			rs.cancelExchange(clientID, visitID, tr.RequestID)
		}
		rs.tInit.Add(int64(time.Since(t0)))
		return nil
	}, initiator)
}

// UndoPartition cancels every application run that wrote into one
// time-travel partition at or after time t: the partition-granularity
// intrusion-recovery primitive (§4.1 applied at partition scope — contain
// and repair an intrusion by the partition it landed in). The writing
// runs are found through the history graph's partition edges, their
// effects rolled back row by row from the partition's own versions, and dirt propagation re-executes everything downstream that read the
// partition afterwards.
func (w *Warp) UndoPartition(p ttdb.Partition, t int64) (*Report, error) {
	intent := &RepairIntent{Kind: IntentUndoPartition, Partition: p.String(), From: t}
	return w.repair(intent, func(rs *session) error {
		t0 := time.Now()
		// Find the write actions into p at or after t via the graph's
		// partition edges (same fan-out as dirt propagation).
		tg := time.Now()
		nodes := rs.partitionNodes(p)
		runs := make(map[history.ActionID]bool)
		var runOrder []history.ActionID
		for _, n := range nodes {
			for _, a := range w.Graph.Writers(n, t) {
				qp, ok := a.Payload.(*QueryPayload)
				if !ok || qp.Superseded.Load() {
					continue
				}
				if !runs[qp.RunAction] {
					runs[qp.RunAction] = true
					runOrder = append(runOrder, qp.RunAction)
				}
			}
		}
		rs.tGraph.Add(int64(time.Since(tg)))
		// Cancel each writing run outright, exactly as UndoVisit cancels
		// the runs behind a visit's exchanges.
		for _, id := range runOrder {
			act := w.Graph.Get(id)
			if act == nil {
				continue
			}
			if payload, ok := act.Payload.(*RunPayload); ok {
				rs.cancelRun(payload, payload.Rec.Req.ClientID, payload.Rec.Req.VisitID)
			}
		}
		// Belt and braces: roll the partition itself back via the version
		// index, so even writes whose records lost their row IDs are undone.
		sp := rs.obsTrace.Begin("rollback")
		dirt, err := w.DB.RollbackPartition(p, t)
		sp.End()
		if err != nil {
			return err
		}
		rs.addDirt(append(dirt, p), t)
		rs.tInit.Add(int64(time.Since(t0)))
		return nil
	}, "")
}

// repair runs a full repair session: fork a generation, seed the queue,
// process to fixpoint, drain under suspension, and commit (or abort when a
// non-admin undo caused conflicts for other users).
//
// Durability protocol (persist.go): the intent is logged (after
// re-persisting grown visit logs, which the repair will read) before any
// repair work, aborts log an end marker, and a commit is made durable by
// a checkpoint written under the final suspension. Repair-generation
// mutations are never WAL-logged, so a crash anywhere in between
// recovers the pre-repair state plus the pending intent.
func (w *Warp) repair(intent *RepairIntent, seed func(*session) error, restrictConflictsTo string) (*Report, error) {
	w.repairMu.Lock()
	defer w.repairMu.Unlock()

	// A degraded deployment refuses repair outright: repair rewrites
	// history and must end with a durable commit checkpoint, which the
	// failed storage cannot provide.
	if err := w.degradedErr(); err != nil {
		return nil, err
	}

	// A recovered deployment whose application re-registered older code
	// than the checkpoint recorded must not repair: re-executing recorded
	// runs through mismatched handlers silently corrupts the repaired
	// timeline. A retroactive patch of the stale file itself is the fix
	// and is allowed through.
	if stale := w.StaleFiles(); len(stale) > 0 {
		var bad []string
		for _, f := range stale {
			if intent.Kind == IntentRetroPatch && f == intent.File {
				continue
			}
			bad = append(bad, f)
		}
		if len(bad) > 0 {
			return nil, fmt.Errorf("warp: stale code registration for %s (recovered deployment runs older versions than recorded); re-apply the newer versions before repairing", strings.Join(bad, ", "))
		}
	}

	tStart := time.Now()
	repairsTotal.Inc()
	repairActive.Set(1)
	defer repairActive.Set(0)
	actionsReplayed.Set(0)
	actionsRemaining.Set(0)
	var tr *obs.Trace
	if obs.Enabled() {
		tr = obs.NewTrace("repair:" + intent.Kind.String())
		w.lastRepairTrace.Store(tr)
		defer tr.Finish()
	}
	gen, err := w.DB.BeginRepair()
	if err != nil {
		return nil, err
	}
	if w.pers != nil {
		w.pers.syncVisitLogs()
		if err := w.pers.logIntent(intent); err != nil {
			_ = w.DB.AbortRepair()
			return nil, fmt.Errorf("warp: persisting repair intent: %w", err)
		}
	}
	abort := func() {
		_ = w.DB.AbortRepair()
		if w.pers != nil {
			w.pers.logRepairEnd()
		}
	}
	rs := w.newSession(gen)
	rs.obsTrace = tr
	rs.liveSince = w.Clock.Now()

	// Suspension policy (docs/repair.md "Online repair"): by default the
	// deployment keeps serving while repair runs — live writes pass
	// through the admission gate, which queues them briefly when their
	// partition footprint collides with an in-flight repair item — and
	// the exclusive suspension shrinks to the final commit window below.
	// The stop-the-world baseline suspends for the whole span instead.
	exclusive := w.stopTheWorld
	suspended := false
	suspend := func() {
		if !suspended {
			w.Suspend()
			suspended = true
		}
	}
	defer func() {
		if suspended {
			w.Resume()
		}
	}()
	if exclusive {
		suspend()
	} else {
		w.admission.Store(&admissionGate{w: w, rs: rs, sched: rs.sched})
		defer w.admission.Store(nil)
	}

	sp := tr.Begin("frontier")
	err = seed(rs)
	sp.End()
	if err != nil {
		abort()
		return nil, err
	}
	drainPass := func() error {
		rs.passChanges.Store(0)
		sp = tr.Begin("replay")
		err := rs.sched.drain()
		sp.End()
		return err
	}
	// converge re-propagates all dirt and drains, for at most passes
	// passes. Propagation enqueues only unsettled readers, so a repair
	// nothing raced enqueues nothing here. A pass that drains without a
	// single dirt or outcome change re-executed only deterministic,
	// already-converged work, so it stops there rather than spending its
	// full pass budget on identical re-drains.
	converge := func(passes int) error {
		for pass := 0; pass < passes; pass++ {
			for p, t := range rs.dirtSnapshot() {
				rs.propagate(p, t)
			}
			if rs.sched.pendingLen() == 0 {
				return nil
			}
			if err := drainPass(); err != nil {
				return err
			}
			if rs.passChanges.Load() == 0 {
				return nil
			}
		}
		return nil
	}
	err = drainPass()
	// Catch-up (online repair): converge while the deployment is still
	// serving, so writes logged by live traffic during the bulk replay
	// are folded into the repair generation before anything suspends.
	// Each converged pass shrinks the racing window; the suspended passes
	// below close it.
	if err == nil && !exclusive {
		err = converge(4)
	}
	// Commit window (§4.3): briefly suspend normal operation and
	// converge again, so requests logged during repair on repaired
	// partitions are re-applied.
	if err == nil {
		suspend()
		err = converge(8)
	}
	if err != nil {
		abort()
		return nil, err
	}

	// Non-admin undo must not spill conflicts onto other users (§5.5).
	conflicts := rs.allConflicts()
	if restrictConflictsTo != "" {
		for _, c := range conflicts {
			if c.Client != restrictConflictsTo {
				if err := w.DB.AbortRepair(); err != nil {
					return nil, err
				}
				if w.pers != nil {
					w.pers.logRepairEnd()
				}
				rs.rep.Aborted = true
				rs.rep.Conflicts = conflicts
				rs.rep.Timing.Total = time.Since(tStart)
				return rs.rep, fmt.Errorf("warp: undo would conflict for user %s; aborted", c.Client)
			}
		}
	}

	commitSpan := tr.Begin("commit")
	defer commitSpan.End()
	if err := w.DB.FinishRepair(); err != nil {
		return nil, err
	}

	// Queue conflicts and cookie invalidations for affected clients.
	w.mu.Lock()
	w.conflicts = append(w.conflicts, conflicts...)
	for client, jar := range rs.jarOverride {
		var names []string
		for name := range jar {
			names = append(names, name)
		}
		sort.Strings(names)
		w.cookieInvalid[client] = names
	}
	w.mu.Unlock()

	// Commit point for durability: the checkpoint both persists the
	// repaired state and retires the intent by truncating the WAL. Still
	// under the §4.3 suspension, so the cut is consistent. A crashed
	// store (fault injection / dying process) is fine to ignore — the
	// intent stays pending and the next Open re-runs the repair on the
	// pre-repair state, converging to this same outcome. Any other
	// failure must surface: the in-memory generation has switched, so
	// letting the deployment keep serving (and WAL-logging post-repair
	// records) against an intent that will replay over pre-repair state
	// would make recovery diverge from what was acknowledged.
	if w.pers != nil {
		// Repair rewrote history payloads and visit logs in place, paths
		// the observer-based dirty tracking cannot see; force those
		// sections into the commit checkpoint.
		w.pers.markRepairDirty()
		if err := w.checkpointQuiesced(); err != nil && !errors.Is(err, store.ErrCrashed) {
			rs.rep.Timing.Total = time.Since(tStart)
			return rs.rep, fmt.Errorf("warp: repair committed in memory but its checkpoint failed (intent remains pending): %w", err)
		}
	}

	rs.rep.Conflicts = conflicts
	rs.rep.GraphNodesLoaded = w.Graph.LoadedNodes()
	rs.rep.Timing.Init = time.Duration(rs.tInit.Load())
	rs.rep.Timing.Graph = time.Duration(rs.tGraph.Load())
	rs.rep.Timing.Browser = time.Duration(rs.tBrowser.Load())
	rs.rep.Timing.DB = time.Duration(rs.tDB.Load())
	rs.rep.Timing.App = time.Duration(rs.tApp.Load())
	rs.rep.Timing.Total = time.Since(tStart)
	rs.rep.Timing.Ctrl = rs.rep.Timing.Total - rs.rep.Timing.Init - rs.rep.Timing.Graph -
		rs.rep.Timing.Browser - rs.rep.Timing.DB - rs.rep.Timing.App
	return rs.rep, nil
}
