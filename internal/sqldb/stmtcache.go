package sqldb

import (
	"sync"
	"sync/atomic"
)

// DefaultStmtCacheSize bounds a statement cache that was created with a
// non-positive size.
const DefaultStmtCacheSize = 1024

// CachedStmt is one prepared statement: the parsed AST, its canonical
// SQL rendering (computed once — query records reuse it instead of
// re-stringifying the AST per execution), and the compiled plan of the
// engine that last executed it. The statement is shared and must not be
// mutated; rewriting layers clone before rewriting.
type CachedStmt struct {
	src       string
	Stmt      Statement
	canonical string
	nParams   int // placeholders the statement expects (CheckParams)
	plan      atomic.Pointer[stmtPlan]
	aux       atomic.Pointer[any]

	prev, next *CachedStmt // LRU list, most recent at head
}

// NewCachedStmt wraps an already-parsed statement in a standalone
// handle (not registered in any cache), so rewriting layers can reuse
// the plan-cache machinery for statements they construct themselves.
func NewCachedStmt(stmt Statement) *CachedStmt {
	return &CachedStmt{Stmt: stmt, canonical: stmt.String(), nParams: countParams(stmt)}
}

// NumParams returns the number of positional parameters the statement
// expects. Rewriting layers append their own parameters after these.
func (cs *CachedStmt) NumParams() int { return cs.nParams }

// Aux returns the handle's auxiliary attachment, or nil. The slot lets
// a layer above the engine (the time-travel rewriter) cache derived
// state — e.g. its augmented statement — alongside the parsed handle.
func (cs *CachedStmt) Aux() any {
	p := cs.aux.Load()
	if p == nil {
		return nil
	}
	return *p
}

// SetAux replaces the handle's auxiliary attachment.
func (cs *CachedStmt) SetAux(v any) { cs.aux.Store(&v) }

// Source returns the SQL text the statement was parsed from.
func (cs *CachedStmt) Source() string { return cs.src }

// Canonical returns the statement's canonical SQL rendering, equal to
// Stmt.String() but computed once for the life of the cache entry.
func (cs *CachedStmt) Canonical() string { return cs.canonical }

// StmtCache is a bounded, concurrency-safe LRU cache of prepared
// statements keyed by SQL source text. One cache is shared by every
// layer of a deployment that round-trips SQL text — normal execution,
// WAL replay, and repair re-execution — so each distinct query form is
// parsed (and its canonical string built) once.
type StmtCache struct {
	mu         sync.Mutex
	max        int
	m          map[string]*CachedStmt
	head, tail *CachedStmt
}

// NewStmtCache returns an empty cache bounded to max entries
// (DefaultStmtCacheSize when max <= 0).
func NewStmtCache(max int) *StmtCache {
	if max <= 0 {
		max = DefaultStmtCacheSize
	}
	return &StmtCache{max: max, m: make(map[string]*CachedStmt, 64)}
}

// Get returns the cached statement for src, parsing and inserting it on
// miss. Parse errors are returned and not cached.
func (c *StmtCache) Get(src string) (*CachedStmt, error) {
	c.mu.Lock()
	if cs, ok := c.m[src]; ok {
		c.moveToFront(cs)
		c.mu.Unlock()
		stmtCacheHits.Inc()
		return cs, nil
	}
	c.mu.Unlock()
	stmtCacheMisses.Inc()

	// Parse outside the lock: misses are the slow path and must not
	// serialize behind each other. A racing duplicate insert is resolved
	// below by keeping the first entry.
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	cs := NewCachedStmt(stmt)
	cs.src = src

	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.m[src]; ok {
		c.moveToFront(prior)
		return prior, nil
	}
	c.m[src] = cs
	c.pushFront(cs)
	for len(c.m) > c.max {
		c.evictTail()
	}
	return cs, nil
}

// Len returns the number of cached statements.
func (c *StmtCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// pushFront links cs as the most recently used entry. Caller holds mu.
func (c *StmtCache) pushFront(cs *CachedStmt) {
	cs.prev = nil
	cs.next = c.head
	if c.head != nil {
		c.head.prev = cs
	}
	c.head = cs
	if c.tail == nil {
		c.tail = cs
	}
}

// moveToFront refreshes cs's recency. Caller holds mu.
func (c *StmtCache) moveToFront(cs *CachedStmt) {
	if c.head == cs {
		return
	}
	// Unlink.
	if cs.prev != nil {
		cs.prev.next = cs.next
	}
	if cs.next != nil {
		cs.next.prev = cs.prev
	}
	if c.tail == cs {
		c.tail = cs.prev
	}
	c.pushFront(cs)
}

// evictTail drops the least recently used entry. Caller holds mu.
func (c *StmtCache) evictTail() {
	lru := c.tail
	if lru == nil {
		return
	}
	delete(c.m, lru.src)
	c.tail = lru.prev
	if c.tail != nil {
		c.tail.next = nil
	} else {
		c.head = nil
	}
	lru.prev, lru.next = nil, nil
}
