// Online-repair admission (docs/repair.md "Online repair"): the seam
// that lets normal execution coexist with a running repair.
//
// While a repair session drains its work queue, the deployment no longer
// suspends — live requests keep executing. Before a live write executes,
// the gate derives its partitions by static analysis
// (ttdb.StmtPartitions: the read partitions the executed statement's
// record will hold, the one kind of partition dirt uses) and checks them
// against the session's dirt map, the partitions the repair has claimed
// for its generation. A write on unclaimed partitions executes at once.
// A write into a claimed partition, or DDL, sleeps the admission window
// first and then executes regardless. The wait is never needed for
// correctness: every live write is logged in the action history graph,
// so dirt propagation re-enqueues it and the repair fixpoint folds it
// into the repair generation (session.go). It paces sustained writers on
// claimed partitions so they cannot feed the drain new work faster than
// it retires. admissionWait is online repair's one pacing bound.
//
// Live reads are never gated: they read the current generation, which
// repair does not mutate until the final generation-switch commit
// window, and that window still takes the exclusive suspension.
package core

import (
	"time"

	"warp/internal/app"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// admissionWait is how long a live write into a claimed partition waits
// before executing.
const admissionWait = 50 * time.Millisecond

// admissionGate gates live writes against the repair's claims. One gate
// exists per repair session; Warp.admission holds it while the session
// runs online.
type admissionGate struct {
	w  *Warp
	rs *session
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

// admit holds a live write for the admission window when it is DDL or
// its partitions are claimed. A claimed partition stays dirty in the
// repair generation until the final commit, so there is nothing to wait
// out; the window paces the writer. Reads, writes on unclaimed
// partitions and unparseable statements pass through untouched (the
// Exec path will surface the parse error itself).
func (g *admissionGate) admit(sql string, params []sqldb.Value) {
	parts, isWrite, err := g.w.DB.StmtPartitions(sql, params)
	if err != nil || !isWrite || (parts != nil && !g.rs.claimed(parts)) {
		return
	}
	liveWritesQueued.Inc()
	liveWritesWaiting.Add(1)
	time.Sleep(admissionWait)
	liveWritesWaiting.Add(-1)
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
