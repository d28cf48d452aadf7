// Online-repair admission (docs/repair.md "Online repair"): the seam
// that lets normal execution coexist with a running repair.
//
// While a repair session drains its work queue, the deployment no longer
// suspends — live requests keep executing on every partition the repair
// frontier has not claimed. The scheduler's cached footprints double as
// admission claims: before a live write executes, the gate derives its
// partition footprint by static analysis (ttdb.StmtPartitions: the read
// partitions the executed statement's record will hold, the one kind of
// partition dirt and footprints use) and compares it against the repair
// item in flight and against the session's dirt map (partitions the
// repair has already claimed for its generation). A disjoint write
// proceeds immediately; a conflicting write waits briefly — for the
// item in flight to retire, or for the flat admission window on a
// claimed partition — then proceeds regardless: a write racing past the
// frontier, or moving rows into a partition its footprint does not name,
// is logged in the action history graph, so dirt propagation re-enqueues
// it and the repair fixpoint folds it into the repair generation
// (session.go). The wait is never needed for correctness; it narrows the
// race window and paces sustained writers on claimed partitions so they
// cannot feed the drain new work faster than it retires. admissionWait
// is online repair's one pacing bound.
//
// Live reads are never gated: they read the current generation, which
// repair does not mutate until the final generation-switch commit
// window, and that window still takes the exclusive suspension.
package core

import (
	"sync"
	"time"

	"warp/internal/app"
	"warp/internal/history"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// admissionWait bounds how long a conflicting live write waits for the
// repair frontier to move off its partitions before executing anyway.
const admissionWait = 50 * time.Millisecond

// admissionGate gates live writes against the repair frontier. One gate
// exists per repair session; Warp.admission holds it while the session
// runs online.
type admissionGate struct {
	w     *Warp
	rs    *session
	sched *scheduler
}

// queryFunc is the app.QueryFunc handleRequest injects while a repair is
// online: admission check, then the normal-execution Exec path.
func (g *admissionGate) queryFunc(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error) {
	// A deployment that degraded mid-repair refuses the write before the
	// admission wait: the database's write gate would reject it anyway,
	// and there is no point pacing a statement that cannot execute.
	if err := g.w.degradedErr(); err != nil {
		return nil, nil, err
	}
	g.admit(sql, params)
	return g.w.DB.Exec(sql, params...)
}

// admit blocks a conflicting live write until the colliding repair item
// retires or the admission timeout passes. Reads and unparseable
// statements pass through untouched (the Exec path will surface the
// parse error itself).
func (g *admissionGate) admit(sql string, params []sqldb.Value) {
	parts, isWrite, err := g.w.DB.StmtPartitions(sql, params)
	if err != nil || !isWrite {
		return
	}
	claimed := parts == nil || g.rs.claimed(parts)
	if !claimed && !g.sched.conflictsWithInflight(parts) {
		return
	}
	liveWritesQueued.Inc()
	liveWritesWaiting.Add(1)
	if claimed {
		// The partition is dirty in the repair generation, so it stays
		// claimed until the final commit — there is nothing to wait out.
		// Pace the write for the full admission window instead: every
		// such write re-enters the repair's dirt propagation, and an
		// unpaced writer could feed the drain new work faster than it
		// retires, stalling the repair indefinitely.
		time.Sleep(admissionWait)
	} else {
		g.sched.waitConflictClear(parts, admissionWait)
	}
	liveWritesWaiting.Add(-1)
}

// conflictsWithInflight reports whether a live write's partition
// footprint overlaps the in-flight repair item's claims. A nil footprint
// (DDL) conflicts with any item in flight.
func (s *scheduler) conflictsWithInflight(parts []ttdb.Partition) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conflictsLocked(parts)
}

func (s *scheduler) conflictsLocked(parts []ttdb.Partition) bool {
	if s.inflight == nil {
		return false
	}
	if parts == nil {
		return true
	}
	live := liveClaims(s.rs.w.Graph, parts)
	fp := s.footprintFor(s.inflight)
	return overlaps(live, &fp.reads) || overlaps(live, &fp.writes)
}

// liveClaims is a live write's partitions as sorted footprint claims.
// Names are looked up, not interned: a partition no action ever named
// is on no footprint, so it can overlap one only through its table's
// wildcard.
func liveClaims(g *history.Graph, parts []ttdb.Partition) *history.Handles {
	var h history.Handles
	for _, p := range parts {
		wild, ok := g.Lookup(partitionName(ttdb.WholeTable(p.Table)))
		if !ok {
			continue // no partition of the table was ever named
		}
		if p.IsWholeTable() {
			h.Nodes = append(h.Nodes, wild)
			continue
		}
		if n, ok := g.Lookup(partitionName(p)); ok {
			h.Nodes = append(h.Nodes, n)
		}
		h.Wilds = append(h.Wilds, wild)
	}
	sortHandles(&h)
	return &h
}

// waitConflictClear waits until the footprint stops conflicting with
// the in-flight repair item, or the timeout passes. Completions broadcast
// the scheduler's cond, so the wait wakes as the frontier moves; the
// timer covers the uninstall race (a gate loaded just before the session
// finished would otherwise wait on a cond nobody signals again).
func (s *scheduler) waitConflictClear(parts []ttdb.Partition, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	var timerOnce sync.Once
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.conflictsLocked(parts) {
		if !time.Now().Before(deadline) {
			return
		}
		timerOnce.Do(func() {
			time.AfterFunc(timeout, s.cond.Broadcast)
		})
		s.cond.Wait()
	}
}

// liveQueryFunc returns the QueryFunc normal execution should use right
// now: the admission gate's while a repair is online, nil (plain
// DB.Exec) otherwise.
func (w *Warp) liveQueryFunc() app.QueryFunc {
	if g := w.admission.Load(); g != nil {
		return g.queryFunc
	}
	return nil
}
