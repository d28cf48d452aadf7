package history

import (
	"sort"
	"strconv"
	"strings"
)

// Node is the dense handle of an interned node name. The graph's node
// table maps each distinct name — a source file, a database partition, a
// client's cookie state — to a handle once (Graph.Intern); dependency
// edges carry the handle and the per-node indexes are slices indexed by
// it, so recording an edge never builds or hashes a string. Names survive
// at the edges only: the persistence codec, explain-style output, tests.
// Handles start at 1 and are never reused or collected: the table is
// bounded by the distinct names, not by the number of requests.
type Node uint32

// ExchangeNode is the one handle that is not interned: on an action's
// edge it stands for the HTTP exchange in that action's Exchange field.
// An exchange has one reader and one writer, the run that served it, so
// it is never posted into the shared per-node indexes.
const ExchangeNode Node = 0

// Exchange identifies one HTTP exchange by the browser-assigned ⟨client,
// visit, request⟩ tuple (§5.1). The zero value means "no exchange".
type Exchange struct {
	Client  string
	Visit   int64
	Request int64
}

// Name returns the exchange's node name, "http:<client>/<visit>/<request>".
func (e Exchange) Name() string {
	b := append(make([]byte, 0, len(e.Client)+48), "http:"...)
	b = append(append(b, e.Client...), '/')
	b = append(strconv.AppendInt(b, e.Visit, 10), '/')
	return string(strconv.AppendInt(b, e.Request, 10))
}

// ParseExchange undoes Exchange.Name; ok is false for other names. Client
// IDs may contain "/", so the numeric fields are split off the end.
func ParseExchange(name string) (e Exchange, ok bool) {
	rest, ok := strings.CutPrefix(name, "http:")
	i := strings.LastIndexByte(rest, '/')
	if !ok || i < 0 {
		return Exchange{}, false
	}
	j := strings.LastIndexByte(rest[:i], '/')
	if j < 0 {
		return Exchange{}, false
	}
	visit, err1 := strconv.ParseInt(rest[j+1:i], 10, 64)
	req, err2 := strconv.ParseInt(rest[i+1:], 10, 64)
	return Exchange{Client: rest[:j], Visit: visit, Request: req}, err1 == nil && err2 == nil
}

// FileName returns the node name of an application source file.
func FileName(file string) string { return "file:" + file }

// PartitionName returns the node name of a database partition; partition
// is the string form of a ttdb.Partition.
func PartitionName(partition string) string { return "part:" + partition }

// CookieName returns the node name of a client's cookie state.
func CookieName(clientID string) string { return "cookie:" + clientID }

// partitionTable splits a partition node's name into its table and whether
// it is the whole-table wildcard. Partition strings are "<table>/*" or
// "<table>/<column>=<key>" (ttdb.Partition.String); table names are SQL
// identifiers, so the first "/" is unambiguous.
func partitionTable(name string) (table string, whole bool, ok bool) {
	part, ok := strings.CutPrefix(name, "part:")
	i := strings.IndexByte(part, '/')
	if !ok || i <= 0 {
		return "", false, false
	}
	return part[:i], part[i+1:] == "*", true
}

// nodeTable is the graph's name ↔ handle table, under Graph.nmu — a leaf
// in the lock order, so names are interned outside the graph's critical
// section and resolved (by the persistence observer) inside it.
type nodeTable struct {
	byName map[string]Node
	names  []string // by handle
	// wild is, by handle, the wildcard node of a partition node's table
	// (itself for the wildcard) and ExchangeNode for other kinds.
	wild []Node
}

// intern returns name's handle, assigning one — and one to its table's
// wildcard, which keyed partitions overlap — on first sight.
func (t *nodeTable) intern(name string) Node {
	if n, ok := t.byName[name]; ok {
		return n
	}
	wild := ExchangeNode
	table, whole, isPart := partitionTable(name)
	if isPart && !whole {
		wild = t.intern(PartitionName(table + "/*"))
	}
	n := Node(len(t.names))
	if whole {
		wild = n
	}
	t.byName[name], t.names, t.wild = n, append(t.names, name), append(t.wild, wild)
	nodesGauge.Set(int64(n))
	return n
}

// Intern returns the handle of a node name, assigning one on first sight.
func (g *Graph) Intern(name string) Node {
	g.nmu.RLock()
	n, ok := g.nodes.byName[name]
	g.nmu.RUnlock()
	if ok {
		return n
	}
	g.nmu.Lock()
	defer g.nmu.Unlock()
	return g.nodes.intern(name)
}

// NodeName returns the name a handle was interned under. Unlike the rest
// of the Graph it may be called from Observer callbacks.
func (g *Graph) NodeName(n Node) string {
	g.nmu.RLock()
	defer g.nmu.RUnlock()
	return g.nodes.names[n]
}

// SortNodes orders handles by node name — the one order repair may
// observe (docs/repair.md): handle values depend on which request
// happened to name a node first.
func (g *Graph) SortNodes(nodes []Node) {
	g.nmu.RLock()
	defer g.nmu.RUnlock()
	names := g.nodes.names
	sort.Slice(nodes, func(i, j int) bool { return names[nodes[i]] < names[nodes[j]] })
}

// wildOf returns the wildcard node of a partition node's table, and
// ExchangeNode for nodes of other kinds.
func (g *Graph) wildOf(n Node) Node {
	g.nmu.RLock()
	defer g.nmu.RUnlock()
	return g.nodes.wild[n]
}
