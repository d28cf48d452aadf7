package sqldb

// Slot-stable paged row storage. Rows live in fixed-size pages instead
// of one ever-growing slice: a slot s maps to pages[s>>pageShift] at
// offset s&pageMask, so growth never moves existing rows (no doubling
// copies of a multi-gigabyte table) and a page of consecutive slots sits
// in a few cache lines for the scan paths. Each page carries a live-row
// count — the slot map — so scans skip pages that hold only tombstones,
// which matters after the time-travel layer's generation purges and GC
// tombstone entire regions of history.
//
// The slot contract is unchanged from the slice layout and is what
// checkpoint streaming (EncodeTableShards), repair rollback, and the
// indexes all rely on: slots are allocated in ascending order, a row's
// slot never changes, and deletes leave tombstones rather than reusing
// the slot, so a slot remains a durable total order over a table's rows.

const (
	pageShift = 8 // 256 rows per page
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type rowPage struct {
	rows [pageSize]row
	live int // live (non-tombstone) rows on this page
}

// pageStore holds one table's rows.
type pageStore struct {
	pages []*rowPage
	n     int // slots allocated; slot n is the next append point
}

// rowAt returns the row at an allocated slot.
func (ps *pageStore) rowAt(slot int) *row {
	return &ps.pages[slot>>pageShift].rows[slot&pageMask]
}

// alloc appends a live row and returns its slot.
func (ps *pageStore) alloc(vals []Value) int {
	slot := ps.n
	if slot>>pageShift == len(ps.pages) {
		ps.pages = append(ps.pages, &rowPage{})
	}
	pg := ps.pages[slot>>pageShift]
	pg.rows[slot&pageMask] = row{vals: vals}
	pg.live++
	ps.n++
	return slot
}

// kill tombstones a slot, dropping its values.
func (ps *pageStore) kill(slot int) {
	pg := ps.pages[slot>>pageShift]
	pg.rows[slot&pageMask] = row{deleted: true}
	pg.live--
}

// forEachLive streams live rows in ascending slot order, skipping pages
// with no live rows without touching their slots. A non-nil error from
// fn aborts the walk and is returned.
func (ps *pageStore) forEachLive(fn func(slot int, r *row) error) error {
	for pi, pg := range ps.pages {
		if pg.live == 0 {
			continue
		}
		base := pi << pageShift
		limit := pageSize
		if rem := ps.n - base; rem < limit {
			limit = rem
		}
		for off := 0; off < limit; off++ {
			r := &pg.rows[off]
			if r.deleted {
				continue
			}
			if err := fn(base+off, r); err != nil {
				return err
			}
		}
	}
	return nil
}
