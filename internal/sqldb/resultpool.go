package sqldb

import "sync"

// Result row storage pooling for the exec path. A SELECT allocates one
// []Value per row plus the Rows header; on the rewriting layer's hot
// paths some of those results are purely internal — the phase-1 capture
// read of an UPDATE is consumed and dropped within the same call — so
// their storage can be recycled instead of re-allocated per execution.
//
// Results built through ExecCachedOwned cut every row from one
// arena; the caller hands the storage back with PutResult when the
// result (and every row slice obtained from it) is no longer
// referenced. Results from the ordinary entry points escape to the
// application and to records, so they are never arena-backed.
//
// Mirrors the store encoder pool (store/codec.go): a sync.Pool with
// retention caps so one oversized result does not pin its backing
// forever.

const (
	// maxPooledResultValues caps the value backing retained by the pool.
	maxPooledResultValues = 1 << 14
	// maxPooledResultRows caps the row-header slice retained by the pool.
	maxPooledResultRows = 1 << 12
)

// resultArena is the recyclable storage behind an owned Result's rows.
type resultArena struct {
	vals    []Value   // current backing chunk; row slices are cut from it
	rows    [][]Value // recycled Rows header
	lastCut int       // size of the most recent cut, for dropLastRow
}

var resultArenaPool = sync.Pool{New: func() any { return new(resultArena) }}

// newPooledResult returns a Result whose rows will be cut from pooled
// storage until PutResult reclaims it.
func newPooledResult() *Result {
	a := resultArenaPool.Get().(*resultArena)
	return &Result{Rows: a.rows[:0], arena: a}
}

// appendRow extends the result by one zeroed row of n values and
// returns it for filling. Owned results cut the row from the arena;
// others allocate it.
func (r *Result) appendRow(n int) []Value {
	a := r.arena
	if a == nil {
		row := make([]Value, n)
		r.Rows = append(r.Rows, row)
		return row
	}
	if len(a.vals)+n > cap(a.vals) {
		// Grow into a fresh chunk. Rows already cut keep the old chunk
		// alive until the result is dropped or released; only the final
		// chunk returns to the pool.
		c := 2 * cap(a.vals)
		if c < 256 {
			c = 256
		}
		if c < n {
			c = n
		}
		a.vals = make([]Value, 0, c)
	}
	start := len(a.vals)
	a.vals = a.vals[:start+n]
	a.lastCut = n
	row := a.vals[start : start+n : start+n]
	for i := range row {
		row[i] = Value{}
	}
	r.Rows = append(r.Rows, row)
	return row
}

// dropLastRow removes the most recently appended row (DISTINCT found a
// duplicate), returning its arena cut — whose size is tracked, so a row
// slice that outgrew its cut cannot corrupt neighboring rows' storage.
func (r *Result) dropLastRow() {
	n := len(r.Rows)
	if n == 0 {
		return
	}
	r.Rows = r.Rows[:n-1]
	if a := r.arena; a != nil && a.lastCut > 0 {
		a.vals = a.vals[:len(a.vals)-a.lastCut]
		a.lastCut = 0
	}
}

// PutResult returns an owned result's row storage to the pool. Call it
// only when the result — including every row slice obtained from it —
// is no longer referenced anywhere; results aliased into records or
// stripped sub-results must never be released. Releasing a result that
// was not arena-backed is a no-op.
func PutResult(res *Result) {
	if res == nil || res.arena == nil {
		return
	}
	a := res.arena
	res.arena = nil
	if cap(a.vals) > maxPooledResultValues || cap(res.Rows) > maxPooledResultRows {
		return
	}
	a.vals = a.vals[:0]
	a.rows = res.Rows[:0]
	res.Rows = nil
	resultArenaPool.Put(a)
}
