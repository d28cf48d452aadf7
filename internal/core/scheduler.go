// The repair scheduler: the paper's repair loop over a time-ordered work
// queue. The controller takes the earliest queued item, re-executes it,
// and repeats until the queue is empty; re-execution enqueues whatever
// the item's changed outputs dirtied. One loop on the repair goroutine
// does all of it, so a repair's outcome is a function of its inputs and
// the seed, never of goroutine timing.
//
// Live requests beside an online repair wait only for its final
// suspension: what they change is folded in by dirt propagation and the
// fixpoint (session.go "converge").
package core

import (
	"container/heap"
	"fmt"
	"net/url"
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

// scheduler owns the repair work queue and runs the repair loop.
type scheduler struct {
	rs      *session
	maxIter int

	// mu guards the queue.
	mu          sync.Mutex
	pending     workQueue
	pendingKeys map[itemKey]bool
	iterations  int
}

func newScheduler(rs *session, maxIter int) *scheduler {
	return &scheduler{
		rs:          rs,
		maxIter:     maxIter,
		pendingKeys: make(map[itemKey]bool),
	}
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
// re-executes it, retires it, and repeats until the queue is empty or
// holds only items later than horizon (a logical time). It stops at the
// first error, or after maxIter items over the session.
func (s *scheduler) drain(horizon int64) error {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 || s.pending[0].time > horizon {
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
		s.mu.Unlock()
		actionsRemaining.Add(-1)
		s.rs.tracef("pop t=%d kind=%d key=%+v nav=%v", it.time, it.kind, key, it.hasNav)
		if err := s.rs.processTimed(it); err != nil {
			return err
		}
	}
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
