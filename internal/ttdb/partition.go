package ttdb

import (
	"sort"
	"strings"

	"warp/internal/sqldb"
)

// Partition names a slice of a table for dependency analysis (§4.1). A
// partition is identified by a partition column and the Key() of a value in
// that column. The zero Column denotes the whole table: the conservative
// fallback when WHERE-clause analysis cannot bound what a query touches.
type Partition struct {
	Table  string
	Column string // "" means the whole table
	Key    string // sqldb.Value.Key() of the partition value
}

// WholeTable returns the conservative whole-table partition.
func WholeTable(table string) Partition { return Partition{Table: table} }

// IsWholeTable reports whether p covers the entire table.
func (p Partition) IsWholeTable() bool { return p.Column == "" }

// String renders the partition for logs, debugging, and history-graph
// node names. ParsePartition is its inverse.
func (p Partition) String() string {
	if p.IsWholeTable() {
		return p.Table + "/*"
	}
	return p.Table + "/" + p.Column + "=" + p.Key
}

// ParsePartition parses the String form of a partition back into a
// Partition. Table and column names are SQL identifiers (no "/" or "="),
// so splitting at the first separator is unambiguous even when the key
// contains arbitrary user data. A pending partition undo persists its
// partition in this form.
func ParsePartition(s string) (Partition, bool) {
	i := strings.IndexByte(s, '/')
	if i <= 0 {
		return Partition{}, false
	}
	table, rest := s[:i], s[i+1:]
	if rest == "*" {
		return WholeTable(table), true
	}
	j := strings.IndexByte(rest, '=')
	if j <= 0 {
		return Partition{}, false
	}
	return Partition{Table: table, Column: rest[:j], Key: rest[j+1:]}, true
}

// PartitionSet is a set of partitions with overlap queries.
type PartitionSet struct {
	whole map[string]bool // tables fully covered
	keys  map[Partition]bool
}

// NewPartitionSet returns an empty set.
func NewPartitionSet() *PartitionSet {
	return &PartitionSet{whole: make(map[string]bool), keys: make(map[Partition]bool)}
}

// Add inserts p into the set.
func (s *PartitionSet) Add(p Partition) {
	if p.IsWholeTable() {
		s.whole[p.Table] = true
		return
	}
	s.keys[p] = true
}

// AddAll inserts every partition in ps.
func (s *PartitionSet) AddAll(ps []Partition) {
	for _, p := range ps {
		s.Add(p)
	}
}

// Len returns the number of distinct entries.
func (s *PartitionSet) Len() int { return len(s.whole) + len(s.keys) }

// OverlapsAny reports whether any partition in ps overlaps the set. A
// whole-table partition overlaps everything in its table; keyed
// partitions overlap only when equal, since a write records the keys of
// every touched row in every partition column.
func (s *PartitionSet) OverlapsAny(ps []Partition) bool {
	for _, p := range ps {
		if s.whole[p.Table] {
			return true
		}
		if p.IsWholeTable() {
			// Any keyed entry or whole-table entry on this table overlaps.
			for q := range s.keys {
				if q.Table == p.Table {
					return true
				}
			}
			continue
		}
		if s.keys[p] {
			return true
		}
	}
	return false
}

// Slice returns the set contents in a stable order.
func (s *PartitionSet) Slice() []Partition {
	out := make([]Partition, 0, s.Len())
	for t := range s.whole {
		out = append(out, WholeTable(t))
	}
	for p := range s.keys {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Key < b.Key
	})
	return out
}

// String renders the set for debugging.
func (s *PartitionSet) String() string {
	parts := s.Slice()
	strs := make([]string, len(parts))
	for i, p := range parts {
		strs[i] = p.String()
	}
	return "{" + strings.Join(strs, ", ") + "}"
}

// rowPartitions returns the partitions a concrete row belongs to: one per
// partition column, or the whole table when the table has none.
func (m *tableMeta) rowPartitions(get func(col string) sqldb.Value) []Partition {
	if len(m.parts) == 0 {
		return []Partition{WholeTable(m.name)}
	}
	out := make([]Partition, len(m.parts))
	for i, pc := range m.parts {
		out[i] = Partition{Table: m.name, Column: pc.name, Key: get(pc.name).Key()}
	}
	return out
}
