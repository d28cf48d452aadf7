package sqldb

import "fmt"

// ScanTable streams a table's live rows to fn in slot (scan) order,
// without materializing a result set: checkpoint encoding of large
// tables runs in bounded memory regardless of table size.
//
// cols selects and orders the projected columns; nil streams full rows
// in declaration order. fn receives the row's stable engine slot —
// inserts append fresh slots and deletes leave tombstones, so a slot is
// a durable total order over a table's rows that later deletes
// elsewhere cannot shift; WARP's checkpoint tags rows with it so restore
// re-inserts them, from one section or several, in order — and
// the projected values in a buffer that is reused across calls; callers
// must copy anything they retain. A non-nil error from fn aborts the
// scan and is returned.
//
// The scan holds the database lock for its full duration, so fn
// observes a consistent snapshot and must not call back into the
// database.
func (db *DB) ScanTable(table string, cols []string, fn func(slot int, vals []Value) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("sql: no such table %s", table)
	}
	if cols == nil {
		return t.store.forEachLive(func(slot int, r *row) error {
			return fn(slot, r.vals)
		})
	}
	ords := make([]int, len(cols))
	for i, c := range cols {
		ci, ok := t.columnPos(c)
		if !ok {
			return fmt.Errorf("sql: table %s: no such column %s", table, c)
		}
		ords[i] = ci
	}
	buf := make([]Value, len(cols))
	return t.store.forEachLive(func(slot int, r *row) error {
		for i, ci := range ords {
			buf[i] = r.vals[ci]
		}
		return fn(slot, buf)
	})
}
