package ttdb

import (
	"fmt"
	"sort"

	"warp/internal/sqldb"
	"warp/internal/store"
)

// This file implements the time-travel database's side of durability
// (docs/persistence.md): binary codecs for values and query records, a
// per-table snapshot encoder/decoder, and WAL-record replay.
//
// The division of labor with internal/store: ttdb encodes and decodes
// its own state with store's generic codec primitives and emits change
// events through the Observer interface; store only moves opaque bytes.
//
// Snapshot layout: each table is one *header* section (annotation,
// schema, allocator) plus one *rows* section holding every physical row
// version. A table's stamp (Stamp) moves whenever either would change,
// so an incremental checkpoint rewrites only the tables whose stamps
// moved. Every section ends with a list of version-index entries that is
// always written empty: stateVersion 2 kept a per-partition event index
// there, what it answered is now read off the row versions
// (partindex.go), and a version-2 section's entries are skipped.
//
// A directory written before tables had one rows section holds up to
// eight per partitioned table, hash slices of the first partition column's keys;
// the header counts them and restore merges them (RestoreTableShard).
//
// Replay strategy: every normal-execution mutation is logged as its
// query Record (SQL, parameters, time, generation, write set). Replaying
// the records in logged order through the same execution engine, at
// their original times and generations and reusing their original row
// IDs, rebuilds bit-identical physical state — the versioned tables and
// the row ID allocator.

// EncodeValue appends one SQL value to the encoder.
func EncodeValue(enc *store.Encoder, v sqldb.Value) {
	enc.Byte(byte(v.Kind))
	switch v.Kind {
	case sqldb.KindInt:
		enc.Int(v.Int)
	case sqldb.KindText:
		enc.String(v.Str)
	case sqldb.KindBool:
		enc.Bool(v.B)
	}
}

// DecodeValue reads one SQL value.
func DecodeValue(dec *store.Decoder) sqldb.Value {
	switch sqldb.Kind(dec.Byte()) {
	case sqldb.KindInt:
		return sqldb.Int(dec.Int())
	case sqldb.KindText:
		return sqldb.Text(dec.String())
	case sqldb.KindBool:
		return sqldb.Bool(dec.Bool())
	default:
		return sqldb.Null()
	}
}

func encodeValues(enc *store.Encoder, vals []sqldb.Value) {
	enc.Uvarint(uint64(len(vals)))
	for _, v := range vals {
		EncodeValue(enc, v)
	}
}

func decodeValues(dec *store.Decoder) []sqldb.Value {
	n := dec.Count()
	out := make([]sqldb.Value, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, DecodeValue(dec))
	}
	return out
}

func encodePartition(enc *store.Encoder, p Partition) {
	enc.String(p.Table)
	enc.String(p.Column)
	enc.String(p.Key)
}

func decodePartition(dec *store.Decoder) Partition {
	return Partition{Table: dec.String(), Column: dec.String(), Key: dec.String()}
}

func encodePartitions(enc *store.Encoder, ps []Partition) {
	enc.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		encodePartition(enc, p)
	}
}

func decodePartitions(dec *store.Decoder) []Partition {
	n := dec.Count()
	out := make([]Partition, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, decodePartition(dec))
	}
	return out
}

func encodeResult(enc *store.Encoder, res *sqldb.Result) {
	if res == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.Uvarint(uint64(len(res.Columns)))
	for _, c := range res.Columns {
		enc.String(c)
	}
	enc.Int(int64(res.Affected))
	enc.Uvarint(uint64(len(res.Rows)))
	for _, row := range res.Rows {
		encodeValues(enc, row)
	}
}

func decodeResult(dec *store.Decoder) *sqldb.Result {
	if !dec.Bool() {
		return nil
	}
	res := &sqldb.Result{}
	n := dec.Count()
	for i := 0; i < n; i++ {
		res.Columns = append(res.Columns, dec.String())
	}
	res.Affected = int(dec.Int())
	n = dec.Count()
	for i := 0; i < n; i++ {
		res.Rows = append(res.Rows, decodeValues(dec))
	}
	return res
}

// EncodeRecord appends a query record to the encoder.
func EncodeRecord(enc *store.Encoder, r *Record) {
	enc.String(r.SQL)
	encodeValues(enc, r.Params)
	enc.Int(r.Time)
	enc.Int(r.Gen)
	enc.String(r.Table)
	enc.Byte(byte(r.Kind))
	encodePartitions(enc, r.ReadPartitions)
	encodePartitions(enc, r.WritePartitions)
	encodeValues(enc, r.WriteRowIDs)
	encodeResult(enc, r.Result)
	enc.String(r.ErrText)
	enc.Bool(r.HasPreImage)
	enc.String(r.PreImage)
}

// DecodeRecord reads a query record.
func DecodeRecord(dec *store.Decoder) *Record {
	r := &Record{
		SQL:    dec.String(),
		Params: decodeValues(dec),
		Time:   dec.Int(),
		Gen:    dec.Int(),
		Table:  dec.String(),
		Kind:   QueryKind(dec.Byte()),
	}
	r.ReadPartitions = decodePartitions(dec)
	r.WritePartitions = decodePartitions(dec)
	r.WriteRowIDs = decodeValues(dec)
	r.Result = decodeResult(dec)
	r.ErrText = dec.String()
	r.HasPreImage = dec.Bool()
	r.PreImage = dec.String()
	return r
}

func encodeSpec(enc *store.Encoder, spec TableSpec) {
	enc.String(spec.RowIDColumn)
	enc.Uvarint(uint64(len(spec.PartitionColumns)))
	for _, c := range spec.PartitionColumns {
		enc.String(c)
	}
}

func decodeSpec(dec *store.Decoder) TableSpec {
	spec := TableSpec{RowIDColumn: dec.String()}
	n := dec.Count()
	for i := 0; i < n; i++ {
		spec.PartitionColumns = append(spec.PartitionColumns, dec.String())
	}
	return spec
}

// DecodeSpec reads a table annotation (the payload of an annotation WAL
// record, written by the core's observer from TableAnnotated events).
func DecodeSpec(dec *store.Decoder) TableSpec { return decodeSpec(dec) }

// EncodeSpec appends a table annotation to the encoder.
func EncodeSpec(enc *store.Encoder, spec TableSpec) { encodeSpec(enc, spec) }

// stateVersion 2 introduced sharded table sections (header + row
// shards); version-1 (PR 3) snapshots are refused rather than misread.
// Version 3 has the same layout with every version-index entry list
// empty: a version-2 binary, which would roll a partition back from those
// lists, refuses a version-3 directory instead of undoing nothing. A
// version-3 header counts its table's rows sections, so writing one per
// table instead of up to eight needed no new version.
const stateVersion = 3

// EncodeMeta serializes the database's global metadata — the current
// generation, the GC horizon, and pending table annotations — as one
// snapshot section. Table contents are encoded separately (EncodeTable),
// so an incremental checkpoint rewrites only the tables that changed.
func (db *DB) EncodeMeta(enc *store.Encoder) {
	db.mu.Lock()
	defer db.mu.Unlock()
	enc.Byte(stateVersion)
	enc.Int(db.currentGen.Load())
	enc.Int(db.gcBefore)

	specNames := make([]string, 0, len(db.specs))
	for name := range db.specs {
		specNames = append(specNames, name)
	}
	sort.Strings(specNames)
	enc.Uvarint(uint64(len(specNames)))
	for _, name := range specNames {
		enc.String(name)
		encodeSpec(enc, db.specs[name])
	}
}

// RestoreMeta rebuilds the global metadata from an EncodeMeta section.
func (db *DB) RestoreMeta(dec *store.Decoder) error {
	if v := dec.Byte(); v != 2 && v != stateVersion {
		if err := dec.Err(); err != nil {
			return err
		}
		return fmt.Errorf("ttdb: unsupported snapshot state version %d", v)
	}
	db.currentGen.Store(dec.Int())
	db.gcBefore = dec.Int()

	nSpecs := dec.Count()
	for i := 0; i < nSpecs; i++ {
		name := dec.String()
		db.specs[name] = decodeSpec(dec)
	}
	return dec.Err()
}

// skipVersionIndex reads past a section's version-index entry list:
// empty in every section this version writes, the retired per-partition
// event index in a version-2 one.
func skipVersionIndex(dec *store.Decoder) {
	for i, n := 0, dec.Count(); i < n; i++ {
		_, _ = dec.String(), dec.String() // partition column and key
		for j, n := 0, dec.Count(); j < n; j++ {
			DecodeValue(dec) // row ID
			dec.Int()        // event time
		}
	}
}

// Stamp identifies one table's checkpointed state: the engine's change
// sequence for the table (sqldb.DB.ChangeSeq) and its row-ID allocator.
// Every change to the table's header or rows moves one of the two — the
// allocator covers a synthetic-ID INSERT that failed on uniqueness, which
// advances it without changing the engine — so a table whose stamp
// equals the one its sections were written at can keep those sections.
// The zero Stamp is no table's.
type Stamp struct {
	change    uint64
	nextRowID int64
}

// stamp reads a table's stamp; the caller holds its lock.
func (db *DB) stamp(m *tableMeta) Stamp {
	st := Stamp{change: db.raw.ChangeSeq(m.name)}
	m.mu.Lock()
	st.nextRowID = m.nextRowID
	m.mu.Unlock()
	return st
}

// EncodeTable serializes one table as two self-contained snapshot
// sections, under the table's shared lock: the header (annotation,
// augmented schema, row-ID allocator) and then the rows. section is
// asked for each one's encoder, header first, with the stamp read under
// that lock; it returns nil to leave the section out. EncodeTable
// returns the stamp. The caller is responsible for quiescing direct
// writers.
func (db *DB) EncodeTable(table string, section func(stamp Stamp, rows bool) *store.Encoder) (Stamp, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, unlock, err := db.lockTable(table, false)
	if err != nil {
		return Stamp{}, err
	}
	defer unlock()
	st := db.stamp(m)
	if enc := section(st, false); enc != nil {
		if err := db.encodeTableHeaderLocked(enc, m); err != nil {
			return st, err
		}
	}
	if enc := section(st, true); enc != nil {
		if err := db.encodeTableRowsLocked(enc, m); err != nil {
			return st, err
		}
	}
	return st, nil
}

// encodeTableHeaderLocked writes the table's header section.
func (db *DB) encodeTableHeaderLocked(enc *store.Encoder, m *tableMeta) error {
	enc.String(m.name)
	encodeSpec(enc, m.spec)
	enc.Uvarint(1) // rows sections
	m.mu.Lock()
	enc.Int(m.nextRowID)
	m.mu.Unlock()
	enc.Uvarint(uint64(len(m.userCols)))
	for _, c := range m.userCols {
		enc.String(c)
	}

	cols, uniques, err := db.raw.Schema(m.name)
	if err != nil {
		return err
	}
	enc.Uvarint(uint64(len(cols)))
	for _, c := range cols {
		enc.String(c.Name)
		enc.Byte(byte(c.Type))
		enc.Bool(c.NotNull)
		if c.Default != nil {
			enc.Bool(true)
			EncodeValue(enc, c.Default.Value)
		} else {
			enc.Bool(false)
		}
	}
	enc.Uvarint(uint64(len(uniques)))
	for _, u := range uniques {
		enc.String(u.Name)
		enc.Bool(u.Primary)
		enc.Uvarint(uint64(len(u.Columns)))
		for _, c := range u.Columns {
			enc.String(c)
		}
	}
	idxCols := db.raw.IndexedColumns(m.name)
	enc.Uvarint(uint64(len(idxCols)))
	for _, c := range idxCols {
		enc.String(c)
	}

	enc.Uvarint(0) // version-index entries: none (skipVersionIndex)
	return nil
}

// encodeTableRowsLocked writes the table's rows section: every physical
// row version, streamed from the engine's cursor into the encoder, so no
// result set is materialized and memory stays bounded by the encoder's
// chunk buffer regardless of table size. Each row carries its engine
// slot, the order restore re-inserts rows in (RestoreTableShard).
func (db *DB) encodeTableRowsLocked(enc *store.Encoder, m *tableMeta) error {
	cols := m.physicalColumns()
	enc.String(m.name)
	enc.Uvarint(0) // section index among the table's rows sections
	enc.Uvarint(uint64(len(cols)))
	for _, c := range cols {
		enc.String(c)
	}
	count := db.raw.RowCount(m.name)
	enc.Uvarint(uint64(count))
	emitted := 0
	err := db.raw.ScanTable(m.name, cols, func(slot int, vals []sqldb.Value) error {
		emitted++
		enc.Uvarint(uint64(slot))
		encodeValues(enc, vals)
		return nil
	})
	if err != nil {
		return err
	}
	// The count prefix was read before the scan; a mutation slipping
	// between the two (a caller that failed to quiesce direct writers)
	// must be a hard error here, not a silently misframed section
	// discovered at recovery.
	if emitted != count {
		return fmt.Errorf("ttdb: table %s changed during encode: %d rows emitted, %d counted", m.name, emitted, count)
	}
	enc.Uvarint(0) // version-index entries: none (skipVersionIndex)
	return nil
}

// RestoreTableHeader rebuilds one table's structure from a header
// section (EncodeTable): schema, indexes, allocator, annotation.
// The database must not already hold the table; RestoreMeta must run
// first so annotations are in place, and the table's rows sections must
// be restored afterwards (RestoreTableShard). It returns the table name.
func (db *DB) RestoreTableHeader(dec *store.Decoder) (string, error) {
	name := dec.String()
	spec := decodeSpec(dec)
	shards := max(int(dec.Uvarint()), 1)
	m := &tableMeta{
		name:      name,
		spec:      spec,
		rowIDCol:  spec.RowIDColumn,
		nextRowID: dec.Int(),
	}
	if m.rowIDCol == "" {
		m.rowIDCol = ColRowID
		m.synthetic = true
	}
	nUser := dec.Count()
	for i := 0; i < nUser; i++ {
		m.userCols = append(m.userCols, dec.String())
	}

	// Recreate the (already augmented) physical schema directly on the
	// raw engine: the versioning columns and extended uniqueness
	// constraints were applied when the table was first created.
	ct := &sqldb.CreateTable{Table: name}
	nCols := dec.Count()
	for i := 0; i < nCols; i++ {
		col := sqldb.ColumnDef{Name: dec.String(), Type: sqldb.Kind(dec.Byte()), NotNull: dec.Bool()}
		if dec.Bool() {
			col.Default = &sqldb.Literal{Value: DecodeValue(dec)}
		}
		ct.Columns = append(ct.Columns, col)
	}
	nUniq := dec.Count()
	for i := 0; i < nUniq; i++ {
		u := sqldb.UniqueConstraint{Name: dec.String(), Primary: dec.Bool()}
		nc := dec.Count()
		for j := 0; j < nc; j++ {
			u.Columns = append(u.Columns, dec.String())
		}
		ct.Uniques = append(ct.Uniques, u)
	}
	if err := dec.Err(); err != nil {
		return "", err
	}
	if err := db.rawDDL(ct); err != nil {
		return "", err
	}
	nIdx := dec.Count()
	for i := 0; i < nIdx; i++ {
		if err := db.rawDDL(warpIndex(name, dec.String())); err != nil {
			return "", err
		}
	}

	skipVersionIndex(dec)
	if err := dec.Err(); err != nil {
		return "", err
	}

	// Arm the rows-restore accounting now: if none of the table's rows
	// sections ever arrive, VerifyRestored must fail the open rather than
	// surface a silently empty table.
	m.restore = &tableRestore{shards: shards}

	m.prepareScopeFacts(ct.Columns)
	db.tablesMu.Lock()
	db.tables[name] = m
	db.tablesMu.Unlock()
	return name, nil
}

// RestoreTableShard loads one rows section into a table previously
// restored by RestoreTableHeader. A table has one rows section, or up to
// eight in an older directory; rows are buffered until every section the
// header counts has arrived and then inserted in their original slot
// order, so the restored engine state is bit-identical to the encoded
// one.
func (db *DB) RestoreTableShard(dec *store.Decoder) error {
	name := dec.String()
	dec.Uvarint() // section index, informational
	m, err := db.meta(name)
	if err != nil {
		return fmt.Errorf("ttdb: rows section for unknown table %s (header missing?)", name)
	}
	buf := m.restore
	if buf == nil {
		return fmt.Errorf("ttdb: table %s has more rows sections than its header counts", name)
	}

	nRowCols := dec.Count()
	rowCols := make([]string, 0, nRowCols)
	for i := 0; i < nRowCols; i++ {
		rowCols = append(rowCols, dec.String())
	}
	if buf.cols == nil {
		buf.cols = rowCols
	}
	nRows := dec.Count()
	for i := 0; i < nRows; i++ {
		pos := dec.Uvarint()
		vals := decodeValues(dec)
		if len(vals) != len(rowCols) {
			return fmt.Errorf("ttdb: snapshot row of %s has %d values for %d columns", name, len(vals), len(rowCols))
		}
		buf.rows = append(buf.rows, posRow{pos: pos, vals: vals})
	}
	skipVersionIndex(dec)
	if err := dec.Err(); err != nil {
		return err
	}

	buf.restored++
	if buf.restored < buf.shards {
		return nil
	}
	m.restore = nil
	sort.Slice(buf.rows, func(i, j int) bool { return buf.rows[i].pos < buf.rows[j].pos })
	ins := physicalInsert(name, buf.cols)
	for _, row := range buf.rows {
		if _, err := db.raw.ExecCached(ins, row.vals); err != nil {
			return err
		}
	}
	return nil
}

// VerifyRestored checks that every table's rows sections all arrived: a
// table still buffering is a checkpoint with missing sections, which
// must fail recovery rather than surface as an empty table.
func (db *DB) VerifyRestored() error {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	for name, m := range db.tables {
		if m.restore != nil {
			return fmt.Errorf("ttdb: table %s restored %d of %d rows sections", name, m.restore.restored, m.restore.shards)
		}
	}
	return nil
}

// Replay re-applies one logged query record during recovery: the
// statement re-executes at its original time and generation, reusing its
// originally assigned row IDs, which reproduces the exact physical state
// the original execution created. Records must replay in logged order.
// Parsing goes through the statement cache — recovery replays thousands
// of records over a handful of query forms — and the record's own SQL
// (already canonical) is reused rather than re-rendered.
//
// A log written before the parameter count became strict may hold a
// record with surplus parameters (such a call used to execute, ignoring
// them); replay drops the surplus, which reproduces that execution
// exactly. Too few parameters never produced a record.
func (db *DB) Replay(rec *Record) error {
	cs, err := db.stmts.Get(rec.SQL)
	params := rec.Params
	if err == nil {
		if n := cs.NumParams(); len(params) > n {
			params = params[:n]
		}
		err = cs.CheckParams(params)
	}
	if err != nil {
		return fmt.Errorf("ttdb: replaying %q: %w", rec.SQL, err)
	}
	m, reads, unlock, err := db.lockFor(cs, params)
	if err != nil {
		return fmt.Errorf("ttdb: replaying %q: %w", rec.SQL, err)
	}
	defer unlock()
	db.clock.AdvanceTo(rec.Time)
	if _, _, err := db.execAt(cs, params, rec.Time, rec.Gen, rec, m, reads); err != nil {
		return fmt.Errorf("ttdb: replaying %q: %w", rec.SQL, err)
	}
	return nil
}
