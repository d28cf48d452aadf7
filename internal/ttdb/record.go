package ttdb

import (
	"fmt"
	"hash/fnv"

	"warp/internal/sqldb"
)

// QueryKind classifies a recorded query.
type QueryKind uint8

// Query kinds.
const (
	KindRead QueryKind = iota
	KindInsert
	KindUpdate
	KindDelete
	KindDDL
)

// String names the kind.
func (k QueryKind) String() string {
	switch k {
	case KindRead:
		return "read"
	case KindInsert:
		return "insert"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	case KindDDL:
		return "ddl"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is the durable log entry for one executed query: what WARP's
// database manager records during normal execution (§4, §7) and what the
// repair controller needs to re-execute the query later and decide whether
// its result changed.
type Record struct {
	SQL    string
	Params []sqldb.Value
	Time   int64
	Gen    int64
	Table  string
	Kind   QueryKind

	// ReadPartitions is what the query's WHERE clause may have read.
	ReadPartitions []Partition
	// WritePartitions covers every partition value of every touched row,
	// before and after the write.
	WritePartitions []Partition
	// WriteRowIDs names the rows the query modified (§4.2: the write set
	// recorded for two-phase re-execution).
	WriteRowIDs []sqldb.Value

	// Result is the application-visible result; ErrText records a failed
	// outcome (for example a uniqueness violation, §6). A recorded Result
	// is never written after it is recorded: repair serves a clean
	// re-issued query the recorded Result itself, shared with the
	// application code that reads it.
	Result  *sqldb.Result
	ErrText string

	// PreImage is the overwritten text value of a single-row,
	// single-column UPDATE — the merge base online repair uses to
	// three-way merge a live write logged during repair against the
	// repaired value of the same row (docs/repair.md). HasPreImage
	// distinguishes a captured empty string from "not captured".
	PreImage    string
	HasPreImage bool
}

// IsWrite reports whether the record is a database mutation.
func (r *Record) IsWrite() bool {
	return r.Kind == KindInsert || r.Kind == KindUpdate || r.Kind == KindDelete
}

// Outcome fingerprints the query's observable outcome — result rows,
// affected count, and error state — so the repair controller can test
// result equivalence (§2.1).
func (r *Record) Outcome() uint64 {
	h := fnv.New64a()
	if r.ErrText != "" {
		h.Write([]byte("err:"))
		h.Write([]byte(r.ErrText))
		return h.Sum64()
	}
	if r.Result == nil {
		return h.Sum64()
	}
	fp := r.Result.Fingerprint()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(fp >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// ApproxLogBytes estimates the size of this record on disk, for the
// paper's Table 6 storage accounting.
func (r *Record) ApproxLogBytes() int {
	n := len(r.SQL) + len(r.ErrText) + 8 /* time */ + 8 /* gen */
	for _, p := range r.Params {
		n += 9 + len(p.Str)
	}
	for _, p := range r.ReadPartitions {
		n += len(p.Table) + len(p.Column) + len(p.Key)
	}
	for _, p := range r.WritePartitions {
		n += len(p.Table) + len(p.Column) + len(p.Key)
	}
	n += 9 * len(r.WriteRowIDs)
	if r.Result != nil {
		for _, c := range r.Result.Columns {
			n += len(c)
		}
		for _, row := range r.Result.Rows {
			for _, v := range row {
				n += 9 + len(v.Str)
			}
		}
	}
	return n
}
