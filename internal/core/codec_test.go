package core

import (
	"testing"

	"warp/internal/app"
	"warp/internal/history"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// TestOutOfRangeIndexRejected: a payload that passes its checksum is still
// outside input, so a position it names — a query's index into its run, a
// visit's index into the snapshot's visit order — is checked against what
// was decoded, a value past the int range included, and refused with an
// error instead of indexing out of range.
func TestOutOfRangeIndexRejected(t *testing.T) {
	queryRef := func(idx uint64) error {
		g := history.New()
		run := &history.Action{ID: 1, Kind: history.KindAppRun, Time: 1,
			Payload: &RunPayload{Rec: &app.RunRecord{Queries: []*ttdb.Record{{}}}}}
		if err := g.RestoreAction(run); err != nil {
			t.Fatal(err)
		}
		enc := store.NewEncoder()
		enc.Int(2)
		enc.Byte(byte(history.KindQuery))
		enc.Int(2)
		encodeDeps(enc, g, nil, "")
		encodeDeps(enc, g, nil, "")
		enc.Byte(payloadQueryRef)
		enc.Int(1)
		enc.Uvarint(idx)
		enc.Bool(false)
		enc.Bool(false)
		_, _, err := decodeAction(store.NewDecoder(enc.Bytes()), g)
		return err
	}
	visitPos := func(idx uint64) error {
		enc := store.NewEncoder()
		enc.Uvarint(0) // no visit logs
		enc.Uvarint(1) // one client
		enc.String("c")
		enc.Uvarint(1) // one position
		enc.Uvarint(idx)
		return New(Config{Seed: 1}).restoreVisits(store.NewDecoder(enc.Bytes()))
	}
	for _, c := range []struct {
		name   string
		decode func(uint64) error
		idx    uint64
	}{
		{"query index past the run", queryRef, 1},
		{"query index past int", queryRef, 1 << 63},
		{"query index max", queryRef, 1<<64 - 1},
		{"visit position past the order", visitPos, 0},
		{"visit position past int", visitPos, 1 << 63},
		{"visit position max", visitPos, 1<<64 - 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(c.idx); err == nil {
				t.Fatalf("index %d decoded without an error", c.idx)
			}
		})
	}
	if err := queryRef(0); err != nil {
		t.Fatalf("an in-range query index: %v", err)
	}
}
