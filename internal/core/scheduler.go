// The repair scheduler: a dependency-scheduled, worker-pool executor for
// repair work items.
//
// The paper's repair loop pops one item at a time from a time-ordered
// heap. But the action history graph already encodes which actions are
// independent: two actions whose partition dependency sets are disjoint
// cannot observe each other's effects, because re-execution happens at the
// actions' original logical times against the time-travel database. The
// scheduler exploits this: it maintains the same time-ordered heap, but
// dispatches every item whose dependency footprint does not conflict with
// an earlier unfinished item to a pool of N workers. Conflicting items
// retain the paper's strict time order.
//
// Page-visit replays are exclusive *per client*: a replay threads one
// client's cookie jar and navigation state through its runs, so two
// visits of the same client serialize, while independent clients'
// visits replay in parallel. A visit's footprint claims the client's
// cookie node, the visit's subtree of exchange nodes (a replay may
// cancel or re-serve any of them), and the partition edges of the runs
// behind those exchanges — so visit replays also order correctly
// against individual query checks and run re-executions touching the
// same state.
//
// Footprints are derived from the history graph's dependency edges
// (Graph.AppendHandles), not recomputed from query records, so a work
// item's conflict set is exactly the partition overlap the graph already
// indexed. A footprint holds node handles sorted by value, and two
// footprints are intersected by merging them; the handle order is used
// for nothing else. With one worker the scheduler runs the identical
// serial heap walk the paper describes, and derives no footprint at all.
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
	// runAction is the run the item belongs to: the owning run for query
	// items, the action itself for run items. A query check never runs
	// concurrently with its owning run's re-execution.
	runAction history.ActionID

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
	// comparison on. A cached footprint can under-claim partitions an
	// in-flight write discovers later (AddDeps), but that is safe: the
	// discovering write also marks those partitions dirty, and dirt
	// propagation re-enqueues any reader that ran too early — the same
	// fixpoint the serial loop relies on.
	fp *footprint
	// blocker is the item a dispatch scan last found this one in conflict
	// with; done says a worker has retired the item (both guarded by the
	// scheduler's mu). Footprints are cached and queued items keep their
	// order, so until its blocker is done an item stays blocked — the
	// blocker is in flight, or queued ahead of it and itself blocked — and
	// a rescan skips its footprint comparisons. Every completion rescans
	// the frontier, so how often depends on when the workers happen to
	// finish: the comparisons are kept off that path to keep a repair's
	// cost from varying with it.
	blocker *workItem
	done    bool
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
	run    history.ActionID
	// client is set on visit-replay items: replays of one client's
	// visits serialize among themselves (they thread the client's cookie
	// jar and navigation state), independent clients replay in parallel.
	client string
}

// conflicts reports whether two footprints must not be in flight together.
func (a *footprint) conflicts(b *footprint) bool {
	if a.run != 0 && a.run == b.run {
		return true
	}
	if a.client != "" && a.client == b.client {
		return true
	}
	return overlaps(&a.writes, &b.reads) || overlaps(&a.writes, &b.writes) || overlaps(&b.writes, &a.reads)
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

// lookahead bounds how many blocked items a dispatch scan considers
// before waiting for a completion. This is a deliberate trade: on a
// heavily skewed workload (one hot partition blocking >lookahead earlier
// items) a dispatchable item beyond the window waits for the next
// completion-triggered rescan even though workers are idle, in exchange
// for bounding each scan's cost under the scheduler lock. The busy==0
// first-pop case always dispatches, so the cap can never stall the
// scheduler outright.
const lookahead = 64

// scheduler owns the repair work queue and the worker pool.
type scheduler struct {
	rs      *session
	workers int
	maxIter int

	mu          sync.Mutex
	cond        *sync.Cond
	pending     workQueue
	pendingKeys map[itemKey]bool
	blocked     []*workItem
	inflight    map[*workItem]bool
	busy        int
	iterations  int
	err         error
}

func newScheduler(rs *session, workers, maxIter int) *scheduler {
	s := &scheduler{
		rs:          rs,
		workers:     workers,
		maxIter:     maxIter,
		pendingKeys: make(map[itemKey]bool),
		inflight:    make(map[*workItem]bool),
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
	s.cond.Broadcast()
}

// isPending reports whether an item with the given key is queued (or
// blocked awaiting dispatch).
func (s *scheduler) isPending(key itemKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingKeys[key]
}

// pendingLen returns the number of queued items.
func (s *scheduler) pendingLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) + len(s.blocked)
}

// drain processes the queue to exhaustion with the dependency-scheduled
// worker pool: the coordinator scans the frontier of the time-ordered
// queue and hands every non-conflicting item to an idle worker;
// completions and pushes wake it to rescan. With one worker it pops the
// heap minimum each time, after the previous item finished — the paper's
// serial loop.
func (s *scheduler) drain() error {
	work := make(chan *workItem, s.workers)
	var wg sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				s.mu.Lock()
				stopped := s.err != nil
				s.mu.Unlock()
				var err error
				if !stopped {
					err = s.rs.processTimed(it)
				}
				s.complete(it, err)
			}
		}()
	}

	s.mu.Lock()
	for {
		if s.err != nil {
			break
		}
		if len(s.pending) == 0 && len(s.blocked) == 0 && s.busy == 0 {
			break
		}
		if s.busy >= s.workers {
			s.cond.Wait()
			continue
		}
		it := s.nextDispatchable()
		if it == nil {
			if s.busy == 0 && len(s.pending)+len(s.blocked) > 0 {
				// Cannot happen: with nothing in flight the earliest item
				// never conflicts. Guard against a livelock regardless.
				s.err = fmt.Errorf("warp: repair scheduler stalled with %d queued items", len(s.pending)+len(s.blocked))
				break
			}
			s.cond.Wait()
			continue
		}
		s.iterations++
		if s.iterations > s.maxIter {
			s.err = fmt.Errorf("warp: repair did not converge after %d steps", s.iterations)
			break
		}
		key := keyOf(it)
		delete(s.pendingKeys, key)
		s.inflight[it] = true
		s.busy++
		actionsRemaining.Add(-1)
		s.rs.tracef("pop t=%d kind=%d key=%+v nav=%v", it.time, it.kind, key, it.hasNav)
		work <- it // buffered to s.workers; busy < workers, so never blocks
	}
	err := s.err
	s.mu.Unlock()

	close(work)
	wg.Wait()

	s.mu.Lock()
	if err == nil {
		err = s.err
	}
	// A failed drain leaves blocked items around; fold them back so the
	// queue is consistent for inspection.
	for _, it := range s.blocked {
		heap.Push(&s.pending, it)
	}
	s.blocked = s.blocked[:0]
	s.mu.Unlock()
	return err
}

// complete retires an in-flight item and wakes the coordinator.
func (s *scheduler) complete(it *workItem, err error) {
	s.mu.Lock()
	delete(s.inflight, it)
	it.done = true
	s.busy--
	if err != nil && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// nextDispatchable scans the queue in time order for the first item whose
// footprint conflicts with neither an in-flight item nor an earlier
// blocked item. Called with s.mu held; blocked items are re-merged into
// the heap first so the scan order is globally time-sorted.
func (s *scheduler) nextDispatchable() *workItem {
	for _, it := range s.blocked {
		heap.Push(&s.pending, it)
	}
	s.blocked = s.blocked[:0]

	for len(s.pending) > 0 && len(s.blocked) < lookahead {
		it := heap.Pop(&s.pending).(*workItem)
		if it.blocker == nil || it.blocker.done {
			it.blocker = s.blockerOf(it)
		}
		if it.blocker == nil {
			return it
		}
		s.blocked = append(s.blocked, it)
	}
	return nil
}

// blockerOf returns an in-flight item, or one of the items this scan has
// already found blocked, whose footprint conflicts with the item's; nil
// when there is none.
func (s *scheduler) blockerOf(it *workItem) *workItem {
	for in := range s.inflight {
		if s.footprintFor(it).conflicts(s.footprintFor(in)) {
			return in
		}
	}
	for _, b := range s.blocked {
		if s.footprintFor(it).conflicts(s.footprintFor(b)) {
			return b
		}
	}
	return nil
}

// footprintFor returns an item's dependency footprint, deriving it from
// the history graph's dependency edges on first use. Only a comparison
// with an item in flight or blocked ahead needs one, so an item that
// meets an idle, empty frontier — every item, with one worker — is
// dispatched without it. Called with s.mu held.
func (s *scheduler) footprintFor(it *workItem) *footprint {
	if it.fp != nil {
		return it.fp
	}
	if it.kind == workVisitReplay {
		it.fp = s.visitFootprint(it)
	} else {
		it.fp = &footprint{run: it.runAction}
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
// dependency edges of the runs behind those exchanges. The visits
// themselves need no claim of their own: replays of one client already
// serialize on fp.client. Effects outside
// this set — a patched page navigating somewhere new, a fresh run
// writing an unclaimed partition — are caught by dirt propagation's
// fixpoint, the same under-claim safety the cached footprints rely on.
func (s *scheduler) visitFootprint(it *workItem) *footprint {
	w := s.rs.w
	fp := &footprint{client: it.client}
	fp.writes.Nodes = append(fp.writes.Nodes, nodeIn(w, w.cookieNodes, it.client, history.CookieName, false))

	var exchanges []history.Exchange
	w.mu.Lock()
	var walk func(visit int64)
	walk = func(visit int64) {
		if vlog := w.visitByID[it.client][visit]; vlog != nil {
			for _, tr := range vlog.Requests {
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
		rs.sched.push(&workItem{kind: workQueryCheck, time: a.Time, action: a.ID, runAction: p.RunAction})
	}
}

func (rs *session) enqueueRun(a *history.Action) {
	if p, ok := a.Payload.(*RunPayload); ok && !p.Superseded.Load() {
		if rs.sched.isPending(itemKey{kind: workRunExec, action: a.ID}) {
			return
		}
		rs.sched.push(&workItem{kind: workRunExec, time: a.Time, action: a.ID, runAction: a.ID})
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
