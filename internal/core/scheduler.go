// The repair scheduler: the paper's repair loop over a time-ordered work
// queue. The controller takes the earliest queued item, re-executes it,
// and repeats until the queue is empty; re-execution enqueues whatever
// the item's changed outputs dirtied. One loop on the repair goroutine
// does all of it, so a repair's outcome is a function of its inputs and
// the seed, never of goroutine timing.
//
// Online repair (admission.go) compares a live write against the one
// item in flight. That item's footprint — the dependency set it claims —
// is derived from the history graph's dependency edges
// (Graph.AppendHandles) on the first comparison, not recomputed from
// query records. A footprint holds node handles sorted by value, and a
// live write's claims are intersected with it by merging; the handle
// order is used for nothing else. A page-visit replay's footprint claims
// the client's cookie node, the visit's subtree of exchange nodes (a
// replay may cancel or re-serve any of them), and the partition edges of
// the runs behind those exchanges.
package core

import (
	"container/heap"
	"fmt"
	"net/url"
	"slices"
	"sync"

	"warp/internal/browser"
	"warp/internal/history"
)

// workKind classifies repair work items.
type workKind uint8

const (
	workQueryCheck  workKind = iota // re-execute / re-check one query
	workRunExec                     // re-execute one application run
	workVisitReplay                 // replay one browser page visit
)

// workItem is one queued unit of repair work, ordered by original time.
type workItem struct {
	kind workKind
	time int64
	seq  int64

	action history.ActionID // query / run items

	client string // visit items
	visit  int64
	// navOverride carries a replayed parent's re-derived navigation
	// request for the child visit's main request (it may differ from the
	// recorded one, e.g. after a text merge).
	navMethod string
	navURL    string
	navForm   url.Values
	hasNav    bool

	// fp caches the item's footprint (footprintFor) from its first
	// comparison with a live write on. A cached footprint can under-claim
	// partitions the item's own writes discover later (AddDeps), but that
	// is safe: the discovering write also marks those partitions dirty,
	// and dirt propagation re-enqueues any reader that ran too early.
	fp *footprint
}

type workQueue []*workItem

func (q workQueue) Len() int { return len(q) }
func (q workQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q workQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *workQueue) Push(x any)   { *q = append(*q, x.(*workItem)) }
func (q *workQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// footprint is the dependency set a work item claims while in flight:
// what it reads and what it writes, each sealed (sorted, deduplicated)
// once it is built.
type footprint struct {
	reads  history.Handles
	writes history.Handles
}

// overlaps reports whether two sealed claims share a node — the same
// node, or a table wildcard on one side and a partition of that table on
// the other — or an exchange.
func overlaps(a, b *history.Handles) bool {
	if meet(a.Nodes, b.Nodes) || meet(a.Nodes, b.Wilds) || meet(a.Wilds, b.Nodes) {
		return true
	}
	for _, e := range a.Exchanges {
		if slices.Contains(b.Exchanges, e) {
			return true
		}
	}
	return false
}

// meet reports whether two sorted handle lists share an element.
func meet(a, b []history.Node) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// seal sorts and deduplicates a footprint's node lists, for meet.
func (fp *footprint) seal() *footprint {
	sortHandles(&fp.reads)
	sortHandles(&fp.writes)
	return fp
}

func sortHandles(h *history.Handles) {
	slices.Sort(h.Nodes)
	h.Nodes = slices.Compact(h.Nodes)
	slices.Sort(h.Wilds)
	h.Wilds = slices.Compact(h.Wilds)
}

// scheduler owns the repair work queue and runs the repair loop.
type scheduler struct {
	rs      *session
	maxIter int

	// mu guards the queue and inflight; cond is broadcast whenever an
	// item retires, for live writes waiting on the one in flight.
	mu          sync.Mutex
	cond        *sync.Cond
	pending     workQueue
	pendingKeys map[itemKey]bool
	inflight    *workItem
	iterations  int
}

func newScheduler(rs *session, maxIter int) *scheduler {
	s := &scheduler{
		rs:          rs,
		maxIter:     maxIter,
		pendingKeys: make(map[itemKey]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// itemKey is a work item's deduplication identity. A comparable struct
// (not a formatted string) because dirt propagation probes and inserts
// keys millions of times during a large repair.
type itemKey struct {
	kind   workKind
	action history.ActionID
	client string
	visit  int64
}

func keyOf(it *workItem) itemKey {
	if it.kind == workVisitReplay {
		return itemKey{kind: workVisitReplay, client: it.client, visit: it.visit}
	}
	return itemKey{kind: it.kind, action: it.action}
}

func runKeyOf(run history.ActionID) itemKey {
	return itemKey{kind: workRunExec, action: run}
}

// push enqueues a work item, deduplicating against identical pending items
// (navigation-carrying replacements always enter).
func (s *scheduler) push(it *workItem) {
	key := keyOf(it)
	s.mu.Lock()
	if s.pendingKeys[key] && !it.hasNav {
		s.mu.Unlock()
		return
	}
	s.pendingKeys[key] = true
	s.mu.Unlock()
	it.seq = s.rs.nextSeq()
	s.mu.Lock()
	heap.Push(&s.pending, it)
	s.mu.Unlock()
	actionsRemaining.Add(1)
}

// isPending reports whether an item with the given key is queued.
func (s *scheduler) isPending(key itemKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingKeys[key]
}

// pendingLen returns the number of queued items.
func (s *scheduler) pendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// drain is the paper's repair loop: it pops the earliest queued item,
// re-executes it, retires it, and repeats until the queue is empty. It
// stops at the first error, or after maxIter items over the session.
func (s *scheduler) drain() error {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return nil
		}
		s.iterations++
		if s.iterations > s.maxIter {
			s.mu.Unlock()
			return fmt.Errorf("warp: repair did not converge after %d steps", s.iterations)
		}
		it := heap.Pop(&s.pending).(*workItem)
		key := keyOf(it)
		delete(s.pendingKeys, key)
		s.inflight = it
		s.mu.Unlock()
		actionsRemaining.Add(-1)
		s.rs.tracef("pop t=%d kind=%d key=%+v nav=%v", it.time, it.kind, key, it.hasNav)
		err := s.rs.processTimed(it)
		s.complete()
		if err != nil {
			return err
		}
	}
}

// complete retires the in-flight item and wakes the live writes waiting
// on it.
func (s *scheduler) complete() {
	s.mu.Lock()
	s.inflight = nil
	s.mu.Unlock()
	s.cond.Broadcast()
}

// footprintFor returns an item's dependency footprint, deriving it from
// the history graph's dependency edges on first use. Only a live write's
// admission check needs one, so a repair no live write meets derives
// none. Called with s.mu held.
func (s *scheduler) footprintFor(it *workItem) *footprint {
	if it.fp != nil {
		return it.fp
	}
	if it.kind == workVisitReplay {
		it.fp = s.visitFootprint(it)
	} else {
		it.fp = &footprint{}
		s.addActionDeps(it.fp, it.action)
		if it.kind == workRunExec {
			s.addRunQueryDeps(it.fp, it.action)
		}
	}
	return it.fp.seal()
}

// visitFootprint claims what one page-visit replay can touch: the
// client's cookie jar, the visit's subtree of exchanges (replays cancel
// unmatched children recursively and re-serve any exchange), and the
// dependency edges of the runs behind those exchanges. Effects outside
// this set — a patched page navigating somewhere new, a fresh run
// writing an unclaimed partition — are caught by dirt propagation's
// fixpoint, the same under-claim safety the cached footprints rely on.
func (s *scheduler) visitFootprint(it *workItem) *footprint {
	w := s.rs.w
	fp := &footprint{}
	fp.writes.Nodes = append(fp.writes.Nodes, nodeIn(w, w.cookieNodes, it.client, history.CookieName, false))

	var exchanges []history.Exchange
	w.mu.Lock()
	var walk func(visit int64)
	walk = func(visit int64) {
		if vlog := w.visitByID[it.client][visit]; vlog != nil {
			for _, tr := range vlog.Snapshot().Requests {
				exchanges = append(exchanges, history.Exchange{Client: it.client, Visit: visit, Request: tr.RequestID})
			}
		}
		for _, c := range w.childVisits(it.client, visit) {
			walk(c.VisitID)
		}
	}
	walk(it.visit)
	w.mu.Unlock()

	for _, e := range exchanges {
		fp.writes.Exchanges = append(fp.writes.Exchanges, e)
		if run := w.latestRun(e); run != nil {
			s.addActionDeps(fp, run.ID)
			s.addRunQueryDeps(fp, run.ID)
		}
	}
	return fp
}

// addRunQueryDeps folds the dependency edges of a run's recorded queries
// into a footprint.
func (s *scheduler) addRunQueryDeps(fp *footprint, run history.ActionID) {
	act := s.rs.w.Graph.Get(run)
	if act == nil {
		return
	}
	payload, ok := act.Payload.(*RunPayload)
	if !ok {
		return
	}
	for _, qid := range payload.QueryActions {
		s.addActionDeps(fp, qid)
	}
}

// addActionDeps folds one action's graph dependency edges into a
// footprint.
func (s *scheduler) addActionDeps(fp *footprint, id history.ActionID) {
	s.rs.w.Graph.AppendHandles(id, &fp.reads, &fp.writes)
}

//
// Session-side queueing helpers
//

func (rs *session) enqueueQuery(a *history.Action) {
	if p, ok := a.Payload.(*QueryPayload); ok && !p.Superseded.Load() {
		// Dirt propagation re-offers the same query for every partition it
		// reads, every time those partitions gain dirt; probe the pending
		// set before allocating the work item (push re-checks under lock,
		// so a racing duplicate still deduplicates — it just pays the
		// allocation).
		if rs.sched.isPending(itemKey{kind: workQueryCheck, action: a.ID}) {
			return
		}
		rs.sched.push(&workItem{kind: workQueryCheck, time: a.Time, action: a.ID})
	}
}

func (rs *session) enqueueRun(a *history.Action) {
	if p, ok := a.Payload.(*RunPayload); ok && !p.Superseded.Load() {
		if rs.sched.isPending(itemKey{kind: workRunExec, action: a.ID}) {
			return
		}
		rs.sched.push(&workItem{kind: workRunExec, time: a.Time, action: a.ID})
	}
}

func (rs *session) enqueueVisit(log *browser.VisitLog) {
	key := fmt.Sprintf("v:%s/%d", log.ClientID, log.VisitID)
	rs.mu.Lock()
	active := rs.activeVisit[key]
	rs.mu.Unlock()
	if active {
		return
	}
	rs.sched.push(&workItem{kind: workVisitReplay, time: log.Time, client: log.ClientID, visit: log.VisitID})
}

// process dispatches one work item to its re-execution handler.
func (rs *session) process(it *workItem) error {
	switch it.kind {
	case workQueryCheck:
		return rs.processQuery(it)
	case workRunExec:
		return rs.processRun(it)
	case workVisitReplay:
		return rs.processVisit(it)
	}
	return nil
}
