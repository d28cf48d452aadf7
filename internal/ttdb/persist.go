package ttdb

import (
	"fmt"
	"sort"

	"warp/internal/sqldb"
	"warp/internal/store"
)

// This file implements the time-travel database's side of durability
// (docs/persistence.md): binary codecs for values and query records, a
// sharded snapshot encoder/decoder, and WAL-record replay.
//
// The division of labor with internal/store: ttdb encodes and decodes
// its own state with store's generic codec primitives and emits change
// events through the Observer interface; store only moves opaque bytes.
//
// Snapshot layout: each table is one *header* section (annotation,
// schema, allocator) plus ShardCount *row-shard* sections, each holding
// the physical row versions of one hash slice of the table's lock-column
// keys. Dirty tracking (ttdb.go) is kept at the same granularity, so a
// repaired hot row rewrites its shard, not the whole table. Tables
// without partition columns have a single shard. Every section ends with
// a list of version-index entries that is always written empty:
// stateVersion 2 kept a per-partition event index there, what it answered
// is now read off the row versions (partindex.go), and a version-2
// section's entries are skipped.
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
// lists, refuses a version-3 directory instead of undoing nothing.
const stateVersion = 3

// EncodeMeta serializes the database's global metadata — the current
// generation, the GC horizon, and pending table annotations — as one
// snapshot section. Table contents are encoded separately (EncodeTableHeader
// and EncodeTableShards), so an incremental checkpoint rewrites only the
// shards that changed.
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

// EncodeTableHeader serializes one table's structural state — annotation,
// augmented schema, row-ID allocator, shard count — as a self-contained
// snapshot section. The table's lock is held shared for the duration; the
// caller is responsible for quiescing direct writers.
func (db *DB) EncodeTableHeader(enc *store.Encoder, table string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, unlock, err := db.lockTable(table, false)
	if err != nil {
		return err
	}
	defer unlock()
	return db.encodeTableHeaderLocked(enc, m)
}

func (db *DB) encodeTableHeaderLocked(enc *store.Encoder, m *tableMeta) error {
	enc.String(m.name)
	encodeSpec(enc, m.spec)
	enc.Uvarint(uint64(m.shards))
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

// EncodeTableShards serializes the given row shards of a table — each
// shard holds the physical row versions whose lock-column key hashes to
// it — streaming rows straight from the engine's cursor into the shard
// encoders, so no result set is ever materialized and memory stays
// bounded by the encoders' chunk buffers regardless of table size. sink
// returns the destination encoder for each shard, in the given order.
// For tables without partition columns there is a single shard holding
// every row.
func (db *DB) EncodeTableShards(table string, shards []int, sink func(shard int) *store.Encoder) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, unlock, err := db.lockTable(table, false)
	if err != nil {
		return err
	}
	defer unlock()
	return db.encodeTableShardsLocked(m, shards, sink)
}

func (db *DB) encodeTableShardsLocked(m *tableMeta, shards []int, sink func(shard int) *store.Encoder) error {
	for _, shard := range shards {
		if shard < 0 || shard >= m.shards {
			return fmt.Errorf("ttdb: table %s has no shard %d", m.name, shard)
		}
	}
	cols := m.physicalColumns()
	lockIdx := -1
	for i, c := range cols {
		if c == m.lockCol {
			lockIdx = i
		}
	}
	// Rows stream straight from the engine's cursor into the shard
	// encoders — no materialized result set, so encoding cost is one
	// scan and memory stays bounded by the encoders' chunk buffers
	// regardless of table size. A cheap counting pre-pass supplies each
	// shard's row-count prefix. Each row carries its *engine slot* so
	// restore can merge the shards back into the original row order —
	// recovery must be bit-identical to the never-crashed state,
	// including scan order. Slots, unlike scan ranks, stay valid in
	// sections carried forward across later physical deletes (a repair
	// commit's purge) of rows in other shards. A restore compacts
	// tombstones and renumbers slots, so Open re-marks every restored
	// table dirty and the next checkpoint re-tags all shards
	// consistently (core/persist.go).
	counts := make([]int, m.shards)
	var countCols []string
	if lockIdx >= 0 {
		countCols = []string{m.lockCol}
	} else {
		countCols = []string{} // project nothing: only the row count matters
	}
	err := db.raw.ScanTable(m.name, countCols, func(_ int, vals []sqldb.Value) error {
		s := 0
		if lockIdx >= 0 {
			s = m.shardOfKey(vals[0].Key())
		}
		counts[s]++
		return nil
	})
	if err != nil {
		return err
	}

	// Each shard section must be written contiguously (checkpoint files
	// hold one open section at a time), so rows stream through one
	// filtered scan per requested shard. Incremental checkpoints
	// typically rewrite a single shard; full rewrites trade extra scans
	// for never materializing the table.
	for _, shard := range shards {
		enc := sink(shard)
		enc.String(m.name)
		enc.Uvarint(uint64(shard))
		enc.Uvarint(uint64(len(cols)))
		for _, c := range cols {
			enc.String(c)
		}
		enc.Uvarint(uint64(counts[shard]))
		emitted := 0
		err = db.raw.ScanTable(m.name, cols, func(slot int, vals []sqldb.Value) error {
			s := 0
			if lockIdx >= 0 {
				s = m.shardOfKey(vals[lockIdx].Key())
			}
			if s != shard {
				return nil
			}
			emitted++
			enc.Uvarint(uint64(slot))
			encodeValues(enc, vals)
			return nil
		})
		if err != nil {
			return err
		}
		// The count prefix came from a separate pre-pass; a mutation
		// slipping between the scans (a caller that failed to quiesce
		// direct writers) must be a hard error here, not a silently
		// misframed section discovered at recovery.
		if emitted != counts[shard] {
			return fmt.Errorf("ttdb: table %s shard %d changed during encode: %d rows emitted, %d counted", m.name, shard, emitted, counts[shard])
		}
		enc.Uvarint(0) // version-index entries: none (skipVersionIndex)
	}
	return nil
}

// RestoreTableHeader rebuilds one table's structure from an
// EncodeTableHeader section: schema, indexes, allocator, annotation.
// The database must not already hold the table; RestoreMeta must run
// first so annotations are in place, and the table's row shards must be
// restored afterwards (RestoreTableShard). It returns the table name.
func (db *DB) RestoreTableHeader(dec *store.Decoder) (string, error) {
	name := dec.String()
	spec := decodeSpec(dec)
	m := &tableMeta{
		name:      name,
		spec:      spec,
		rowIDCol:  spec.RowIDColumn,
		shards:    int(dec.Uvarint()),
		nextRowID: dec.Int(),
	}
	if m.shards < 1 {
		m.shards = 1
	}
	if m.rowIDCol == "" {
		m.rowIDCol = ColRowID
		m.synthetic = true
	}
	if len(spec.PartitionColumns) > 0 {
		m.lockCol = spec.PartitionColumns[0]
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

	// Arm the shard-restore accounting now: if none of the table's row
	// shards ever arrive, VerifyRestored must fail the open rather than
	// surface a silently empty table.
	m.restore = &tableRestore{}

	m.prepareScopeFacts(ct.Columns)
	db.tablesMu.Lock()
	db.tables[name] = m
	db.tablesMu.Unlock()
	return name, nil
}

// RestoreTableShard loads one row shard written by EncodeTableShards into
// a table previously restored by RestoreTableHeader. Rows are buffered
// until every shard of the table has arrived and then inserted in their
// original physical scan order, so the restored engine state is
// bit-identical to the encoded one.
func (db *DB) RestoreTableShard(dec *store.Decoder) error {
	name := dec.String()
	dec.Uvarint() // shard index, informational
	m, err := db.meta(name)
	if err != nil {
		return fmt.Errorf("ttdb: shard section for unknown table %s (header missing?)", name)
	}
	if m.restore == nil {
		m.restore = &tableRestore{}
	}
	buf := m.restore

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
	if buf.restored < m.shards {
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

// VerifyRestored checks that every table's row shards all arrived: a
// table still buffering is a checkpoint with missing shard sections,
// which must fail recovery rather than surface as an empty table.
func (db *DB) VerifyRestored() error {
	db.tablesMu.RLock()
	defer db.tablesMu.RUnlock()
	for name, m := range db.tables {
		if m.restore != nil {
			return fmt.Errorf("ttdb: table %s restored %d of %d row shards", name, m.restore.restored, m.shards)
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
	m, acc, unlock, err := db.lockFor(cs, params)
	if err != nil {
		return fmt.Errorf("ttdb: replaying %q: %w", rec.SQL, err)
	}
	defer unlock()
	db.clock.AdvanceTo(rec.Time)
	if _, _, err := db.execAt(cs, params, rec.Time, rec.Gen, rec, m, acc); err != nil {
		return fmt.Errorf("ttdb: replaying %q: %w", rec.SQL, err)
	}
	return nil
}
