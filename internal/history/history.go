// Package history implements WARP's action history graph, the data
// structure WARP borrows from Retro (paper §2.1, Figure 1).
//
// A node represents the history of some part of the system over time — a
// source code file, a database partition, an HTTP exchange, a browser page
// visit, a client's cookie. An action represents a unit of (re-)executable
// work — an application run, a database query, a browser page execution, a
// retroactive patch — with input and output dependencies on nodes at
// specific times.
//
// During normal execution the repair managers append actions; during repair
// the controller walks the graph to find what must be re-executed. The
// graph maintains per-node time-sorted indexes so the controller can load
// only the parts of the graph an attack actually touched (the paper's
// incremental loading, §8.5).
package history

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"warp/internal/obs"
)

// Size gauges (docs/observability.md), set at every append batch and GC;
// Graph.Stats returns the same three figures.
var (
	actionsGauge  = obs.NewGauge("warp_history_actions")
	nodesGauge    = obs.NewGauge("warp_history_nodes")
	postingsGauge = obs.NewGauge("warp_history_postings")
)

// ActionID identifies an action in the graph.
type ActionID int64

// Kind classifies actions.
type Kind uint8

// Action kinds.
const (
	KindAppRun    Kind = iota // one run of application code (a "PHP execution")
	KindQuery                 // one SQL query issued by a run
	KindPageVisit             // one browser page execution
	KindPatch                 // a retroactive patch application
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindAppRun:
		return "app-run"
	case KindQuery:
		return "query"
	case KindPageVisit:
		return "page-visit"
	case KindPatch:
		return "patch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Dep is a dependency edge endpoint: a node at a time. Node is an
// interned handle, or ExchangeNode for the owning action's Exchange.
type Dep struct {
	Node Node
	Time int64
}

// Action is one unit of recorded, re-executable work.
type Action struct {
	ID      ActionID
	Kind    Kind
	Time    int64 // when the action started (logical clock)
	Inputs  []Dep
	Outputs []Dep
	// Exchange is the HTTP exchange ExchangeNode edges refer to; fixed at
	// append time.
	Exchange Exchange
	// Payload carries the kind-specific record (an app-run record, a query
	// record, a page-visit record). The repair managers interpret it.
	Payload any
}

// onExchange reports whether the action has an exchange edge of the given
// direction.
func (a *Action) onExchange(output bool) bool {
	deps := a.Inputs
	if output {
		deps = a.Outputs
	}
	return a.Exchange != (Exchange{}) && slices.ContainsFunc(deps, func(d Dep) bool { return d.Node == ExchangeNode })
}

// Observer receives graph change events, in the order they commit. It
// is how a persistence layer follows the graph without the graph knowing
// anything about storage (internal/store encodes these events as WAL
// records); the graph is fully usable with no observer set.
//
// Callbacks run inside the graph's critical section, so the append order
// an observer sees is exactly the graph's order. Implementations must
// not call back into the Graph, NodeName excepted.
type Observer interface {
	// ActionsAppended fires once per append batch, after the actions are
	// assigned their IDs and indexed. Payloads are shared, not copied; the
	// slice is the graph's and must not be retained.
	ActionsAppended(batch []*Action)
	// GraphCollected fires after GC removed actions older than
	// beforeTime.
	GraphCollected(beforeTime int64)
}

// Graph is the action history graph. It is safe for concurrent use.
type Graph struct {
	mu sync.RWMutex
	// actions is a dense slab: actions[i] holds action base+i, nil once
	// collected. GC trims it from the front.
	actions []*Action
	base    ActionID
	live    int
	perKind [256]int // live actions by Kind; a uint8 indexes it whole
	nextID  ActionID
	obs     Observer
	batch   []*Action // scratch for observer batches

	// Per-node indexes, by handle: actions that read from / wrote to a
	// node, in append order. postings counts their entries.
	readers  [][]ActionID
	writers  [][]ActionID
	postings int
	// exchanges maps an exchange to the live actions with an edge on it,
	// in append order. Only repair looks exchanges up, so appending posts
	// nothing here: the lookup that needs the index builds it, or extends
	// it over the actions from exchNext on, and GC drops it.
	exchanges map[Exchange][]ActionID
	exchNext  ActionID
	// tableNodes lists, by a table's wildcard node, the partition nodes
	// that currently have postings, so the dependency API can honor
	// whole-table ↔ keyed-partition overlap (a write to "t/*" depends on
	// readers of every "t/..." node and vice versa).
	tableNodes map[Node][]Node

	// loadedNodes counts distinct nodes touched by repair-time lookups,
	// approximating the paper's incremental graph loading cost metric.
	loadedNodes map[Node]bool

	// muts counts structural mutations (appends, restores, dependency
	// extensions, GC). The persistence layer compares it against the
	// count at the last checkpoint to decide whether the graph section
	// must be rewritten — the graph's side of dirty tracking. In-place
	// payload mutations (repair superseding actions) do not pass through
	// the graph and are force-marked by the repair commit path instead.
	muts int64

	nmu   sync.RWMutex
	nodes nodeTable
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		tableNodes:  make(map[Node][]Node),
		loadedNodes: make(map[Node]bool),
		nextID:      1,
		nodes:       nodeTable{byName: make(map[string]Node), names: []string{""}, wild: []Node{ExchangeNode}},
	}
}

// SetObserver installs the graph's change observer (nil to remove).
// Install before concurrent use; the observer is not re-notified of
// actions already in the graph.
func (g *Graph) SetObserver(o Observer) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.obs = o
}

// get returns a live action by ID. Caller holds g.mu.
func (g *Graph) get(id ActionID) *Action {
	if i := id - g.base; i >= 0 && int(i) < len(g.actions) {
		return g.actions[i]
	}
	return nil
}

// store places an action in its slab slot and indexes its edges. Caller
// holds g.mu and has checked the slot is free.
func (g *Graph) store(a *Action) {
	if len(g.actions) == 0 {
		g.base = a.ID
	}
	for int(a.ID-g.base) >= len(g.actions) {
		g.actions = append(g.actions, nil)
	}
	g.actions[a.ID-g.base] = a
	g.live++
	g.perKind[a.Kind]++
	g.index(a)
}

// index posts an action's edges on interned nodes. Caller holds g.mu.
func (g *Graph) index(a *Action) {
	for _, d := range a.Inputs {
		if d.Node != ExchangeNode {
			g.post(&g.readers, d.Node, a.ID)
		}
	}
	for _, d := range a.Outputs {
		if d.Node != ExchangeNode {
			g.post(&g.writers, d.Node, a.ID)
		}
	}
}

// exchangeIndex returns the exchange index, first posting every action
// appended since it was last consulted. Caller holds g.mu for writing.
func (g *Graph) exchangeIndex() map[Exchange][]ActionID {
	if g.exchanges == nil {
		g.exchanges = make(map[Exchange][]ActionID)
		g.exchNext = g.base
	}
	for id := max(g.exchNext, g.base); id < g.nextID; id++ {
		if a := g.get(id); a != nil && (a.onExchange(false) || a.onExchange(true)) {
			g.exchanges[a.Exchange] = append(g.exchanges[a.Exchange], id)
		}
	}
	g.exchNext = g.nextID
	return g.exchanges
}

// post appends one posting, noting a partition node's first posting in
// its table's list. Caller holds g.mu.
func (g *Graph) post(index *[][]ActionID, n Node, id ActionID) {
	for int(n) >= len(g.readers) {
		g.readers = append(g.readers, nil)
		g.writers = append(g.writers, nil)
	}
	if len(g.readers[n]) == 0 && len(g.writers[n]) == 0 {
		if wild := g.wildOf(n); wild != ExchangeNode {
			g.tableNodes[wild] = append(g.tableNodes[wild], n)
		}
	}
	(*index)[n] = append((*index)[n], id)
	g.postings++
}

// published finishes a mutation that changed the graph's size. Caller
// holds g.mu.
func (g *Graph) published() {
	g.muts++
	actionsGauge.Set(int64(g.live))
	postingsGauge.Set(int64(g.postings + len(g.exchanges)))
}

// Append records a new action and returns its assigned ID.
func (g *Graph) Append(a *Action) ActionID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.batch = append(g.batch[:0], a)
	return g.appendBatch(nil)
}

// AppendRun records a run and its queries in one critical section: they
// receive consecutive IDs in slice order, link (if non-nil) then runs so
// the caller can cross-reference the IDs in the payloads, and the observer
// sees one batch. The graph keeps pointers into acts.
func (g *Graph) AppendRun(acts []Action, link func()) ActionID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.batch = g.batch[:0]
	for i := range acts {
		g.batch = append(g.batch, &acts[i])
	}
	return g.appendBatch(link)
}

// appendBatch publishes g.batch. Caller holds g.mu.
func (g *Graph) appendBatch(link func()) ActionID {
	first := g.nextID
	for _, a := range g.batch {
		a.ID = g.nextID
		g.nextID++
	}
	if link != nil {
		link()
	}
	for _, a := range g.batch {
		g.store(a)
	}
	g.published()
	if g.obs != nil {
		g.obs.ActionsAppended(g.batch)
	}
	return first
}

// RestoreAction re-appends a previously recorded action during recovery,
// preserving its original ID (recovery replays actions in their logged
// append order, so the graph's order is reproduced exactly). The
// observer is not notified: restored actions are already durable.
func (g *Graph) RestoreAction(a *Action) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a.ID <= 0 {
		return fmt.Errorf("history: restore of action without ID")
	}
	if len(g.actions) > 0 && a.ID < g.base {
		return fmt.Errorf("history: restore of action %d below the collected horizon %d", a.ID, g.base)
	}
	if g.get(a.ID) != nil {
		return fmt.Errorf("history: restore of duplicate action %d", a.ID)
	}
	g.store(a)
	g.published()
	if a.ID >= g.nextID {
		g.nextID = a.ID + 1
	}
	if a.ID < g.exchNext {
		g.exchanges = nil // restored behind the index's horizon: rebuild on demand
	}
	return nil
}

// Get returns an action by ID, or nil if unknown (e.g. collected).
func (g *Graph) Get(id ActionID) *Action {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.get(id)
}

// AddDeps extends an existing action with additional dependencies on
// interned nodes, indexing them. Repair uses this when a re-executed
// query's record replaces the original in place but touches new
// partitions.
func (g *Graph) AddDeps(id ActionID, inputs, outputs []Dep) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.get(id)
	if a == nil {
		return
	}
	g.muts++
	a.Inputs = g.extend(a.Inputs, inputs, &g.readers, id)
	a.Outputs = g.extend(a.Outputs, outputs, &g.writers, id)
}

// extend appends the deps not already present, posting each.
func (g *Graph) extend(have, add []Dep, index *[][]ActionID, id ActionID) []Dep {
next:
	for _, d := range add {
		for _, h := range have {
			if h == d {
				continue next
			}
		}
		have = append(have, d)
		g.post(index, d.Node, id)
	}
	return have
}

// TableNodes returns the partition nodes of a table that currently have
// postings, ordered by name: the fan-out of whole-table dirt during
// repair.
func (g *Graph) TableNodes(table string) []Node {
	g.nmu.RLock()
	wild := g.nodes.byName[PartitionName(table+"/*")]
	g.nmu.RUnlock()
	g.mu.RLock()
	out := append([]Node(nil), g.tableNodes[wild]...)
	g.mu.RUnlock()
	g.SortNodes(out)
	return out
}

// ExchangeActions returns the live actions with an edge on exchange e —
// the run that served it and, after repair, its re-executions — in append
// order.
func (g *Graph) ExchangeActions(e Exchange) []*Action {
	g.mu.Lock() // the lookup may extend the exchange index
	defer g.mu.Unlock()
	var out []*Action
	for _, id := range g.exchangeIndex()[e] {
		out = append(out, g.get(id))
	}
	return out
}

// Len returns the number of live actions.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.live
}

// Stats reports the graph's size: live actions, interned node names, and
// index postings (reader/writer entries plus exchange keys built so far).
func (g *Graph) Stats() (actions, nodes, postings int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.nmu.RLock()
	defer g.nmu.RUnlock()
	return g.live, len(g.nodes.names) - 1, g.postings + len(g.exchanges)
}

// Readers returns the distinct actions with an input dependency on node at
// or after fromTime, in (time, ID) order.
func (g *Graph) Readers(node Node, fromTime int64) []*Action {
	return g.lookup(&g.readers, node, fromTime)
}

// Writers returns the distinct actions with an output dependency on node
// at or after fromTime, in (time, ID) order.
func (g *Graph) Writers(node Node, fromTime int64) []*Action {
	return g.lookup(&g.writers, node, fromTime)
}

func (g *Graph) lookup(index *[][]ActionID, node Node, fromTime int64) []*Action {
	g.mu.Lock()
	g.loadedNodes[node] = true
	var out []*Action
	if int(node) < len(*index) {
		ids := (*index)[node]
		out = make([]*Action, 0, len(ids))
		for _, id := range ids {
			if a := g.get(id); a != nil && a.Time >= fromTime {
				out = append(out, a)
			}
		}
	}
	g.mu.Unlock()
	sortByTime(out)
	// An action with two edges on the node was posted twice.
	return slices.Compact(out)
}

// sortByTime orders actions by (time, ID).
func sortByTime(acts []*Action) {
	sort.Slice(acts, func(i, j int) bool {
		if acts[i].Time != acts[j].Time {
			return acts[i].Time < acts[j].Time
		}
		return acts[i].ID < acts[j].ID
	})
}

// CountKind returns the number of live actions of a kind.
func (g *Graph) CountKind(k Kind) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.perKind[k]
}

// ByKind returns all live actions of a kind, in append order.
func (g *Graph) ByKind(k Kind) []*Action {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []*Action
	for _, a := range g.actions {
		if a != nil && a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

// All returns every live action in append order.
func (g *Graph) All() []*Action {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Action, 0, g.live)
	for _, a := range g.actions {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// LoadedNodes reports how many distinct nodes repair-time lookups have
// touched, the incremental-loading metric of §8.5.
func (g *Graph) LoadedNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.loadedNodes)
}

// ResetLoadStats clears the loaded-node accounting (e.g. between repairs).
func (g *Graph) ResetLoadStats() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.loadedNodes = make(map[Node]bool)
}

// GC removes actions older than beforeTime, in sync with the time-travel
// database's version GC (§4.2): repair needs both the old row versions and
// the graph entries, so both horizons move together. The slab is trimmed
// from the front and every index rebuilt from the survivors.
func (g *Graph) GC(beforeTime int64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	removed := 0
	for i, a := range g.actions {
		if a != nil && a.Time < beforeTime {
			g.actions[i] = nil
			g.perKind[a.Kind]--
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	g.live -= removed
	first := 0
	for first < len(g.actions) && g.actions[first] == nil {
		first++
	}
	// Copy rather than re-slice, so the collected prefix is released.
	g.actions = append([]*Action(nil), g.actions[first:]...)
	g.base += ActionID(first)
	g.reindex()
	if g.obs != nil {
		g.obs.GraphCollected(beforeTime)
	}
	return removed
}

// Revert takes back what an aborted repair did to the graph: it drops
// the actions in drop, and cuts each action in trim back to the number
// of input and output edges it had before (AddDeps only appends). The
// observer is not notified: repair's actions and edges are never logged.
func (g *Graph) Revert(drop []ActionID, trim map[ActionID][2]int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, n := range trim {
		if a := g.get(id); a != nil {
			a.Inputs, a.Outputs = a.Inputs[:n[0]:n[0]], a.Outputs[:n[1]:n[1]]
		}
	}
	for _, id := range drop {
		if a := g.get(id); a != nil {
			g.actions[id-g.base] = nil
			g.perKind[a.Kind]--
			g.live--
		}
	}
	g.reindex()
}

// reindex rebuilds every index from the live actions and publishes the
// change. Caller holds g.mu.
func (g *Graph) reindex() {
	for n := range g.readers {
		g.readers[n], g.writers[n] = g.readers[n][:0], g.writers[n][:0]
	}
	clear(g.tableNodes)
	g.exchanges = nil
	g.postings = 0
	for _, a := range g.actions {
		if a != nil {
			g.index(a)
		}
	}
	g.published()
}

// MutationCount returns the number of structural mutations the graph
// has seen. The persistence layer snapshots it at checkpoint time and
// rewrites the graph section only when it has advanced since.
func (g *Graph) MutationCount() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.muts
}
