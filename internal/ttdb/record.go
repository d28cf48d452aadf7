package ttdb

import (
	"fmt"
	"slices"

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

// SameOutcome reports whether two records of a query observed the same
// outcome — the same error, or else the same affected count, columns and
// rows, values compared by Key — so the repair controller can test
// result equivalence (§2.1).
func (r *Record) SameOutcome(o *Record) bool {
	if r.ErrText != "" || o.ErrText != "" {
		return r.ErrText == o.ErrText
	}
	a, b := r.Result, o.Result
	if a == nil || b == nil {
		return a == b
	}
	return a.Affected == b.Affected && slices.Equal(a.Columns, b.Columns) &&
		slices.EqualFunc(a.Rows, b.Rows, func(x, y []sqldb.Value) bool {
			return slices.EqualFunc(x, y, func(v, w sqldb.Value) bool { return v.Key() == w.Key() })
		})
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
