// Durable persistence for a WARP deployment (docs/persistence.md).
//
// Open creates a deployment backed by internal/store: every normal-
// execution state change — history action appends, time-travel database
// mutations, visit-log uploads, GC — is encoded as a typed WAL record by
// the observer hooks below, and Checkpoint serializes a consistent cut
// of the whole system. Recovery replays WAL-tail-over-snapshot.
//
// Repair is durable at a coarser grain, matching its semantics: a
// logged intent record brackets the repair, the repair's own mutations
// are not individually logged (they happen in the forked repair
// generation), and the commit is made durable by a checkpoint written
// under the same §4.3 suspension that makes the generation switch
// atomic. A crash mid-repair therefore recovers the exact pre-repair
// state plus a pending intent, and ResumeRepair re-runs the repair to
// the same outcome — the WAL analog of the paper's "repair is just a
// (re)computation over durable logs".
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// WAL record types.
const (
	recHistoryAction byte = 1 // one appended history action
	recTTDBRecord    byte = 2 // one committed database mutation
	recTTDBAnnotate  byte = 3 // a table annotation
	recTTDBGC        byte = 4 // database GC horizon move
	recGraphGC       byte = 5 // graph GC horizon move
	recVisitLog      byte = 6 // visit-log upload or refresh (upsert)
	recRepairIntent  byte = 7 // a repair began
	recRepairEnd     byte = 8 // a repair aborted (commits checkpoint instead)
	recRNGCursors    byte = 9 // nondeterminism cursor advance (runtime, browser seeds)
)

// IntentKind classifies repair intents.
type IntentKind byte

// Repair intent kinds.
const (
	IntentRetroPatch    IntentKind = 1
	IntentUndoVisit     IntentKind = 2
	IntentUndoPartition IntentKind = 3
)

// String names the intent kind (repair trace and log labels).
func (k IntentKind) String() string {
	switch k {
	case IntentRetroPatch:
		return "retro_patch"
	case IntentUndoVisit:
		return "undo_visit"
	case IntentUndoPartition:
		return "undo_partition"
	}
	return "unknown"
}

// RepairIntent is the durable description of a repair request, logged
// when the repair begins. If the process dies mid-repair, Open surfaces
// the intent through PendingRepair and ResumeRepair re-runs it against
// the recovered (pre-repair) state. Retroactive patches carry code — a
// Go function this reproduction cannot serialize, just as the paper's
// prototype kept patched PHP source on the filesystem outside the
// database — so resuming a patch intent requires re-supplying the
// patched version.
type RepairIntent struct {
	Kind IntentKind

	// RetroPatch fields.
	File  string
	Note  string
	Since int64

	// UndoVisit fields. Dequeue marks an undo that resolved a queued
	// conflict (ResolveConflictByCancel): resuming re-removes it.
	Client  string
	Visit   int64
	Admin   bool
	Dequeue bool

	// UndoPartition fields: the partition's String form and the time.
	Partition string
	From      int64
}

// RecoveryStats summarizes what Open recovered from disk.
type RecoveryStats struct {
	// FromSnapshot is true when a checkpoint (manifest + sections) was
	// loaded.
	FromSnapshot bool
	// WALRecords is the number of WAL-tail records replayed.
	WALRecords int
	// TailCorrupt is true when the WAL ended in a torn or corrupt frame;
	// the state recovered is the consistent prefix before it.
	TailCorrupt bool
	// SnapshotFallback is true when the newest checkpoint failed its
	// checksum and an older one was used.
	SnapshotFallback bool
}

// Checkpoint section names (docs/persistence.md). core/meta and
// ttdb/meta are small and rewritten every checkpoint; history, visits,
// and each ttdb table's header and rows sections are rewritten only when
// they changed and carried forward by manifest reference otherwise. A
// directory written before tables had one rows section may hold
// rows/1..7 as well; restore reads them, and the first checkpoint drops
// them.
const (
	secCoreMeta    = "core/meta"
	secHistory     = "history"
	secTTDBMeta    = "ttdb/meta"
	secVisits      = "core/visits"
	secTablePrefix = "ttdb/table/"
	secRowsInfix   = "/rows/"
)

// tableRowsSection names a table's rows section.
func tableRowsSection(table string) string {
	return secTablePrefix + table + secRowsInfix + "0"
}

// persister connects a deployment to its store: it implements both
// layers' observer interfaces, encoding change events as WAL records.
type persister struct {
	w  *Warp
	st *store.Store

	mu sync.Mutex
	// loggedVisits maps visit keys to 1 + (events + requests) at the
	// last time the log was written, so syncVisitLogs re-logs only
	// visits that grew since upload.
	loggedVisits map[string]int
	// failErr latches the first WAL append failure from an observer
	// callback. Observers cannot propagate errors through the layers
	// that invoke them, but an I/O failure must not stay silent — the
	// latched error surfaces on FlushLogs, Checkpoint, and Close.
	failErr error
	// histMuts is the graph's mutation count at the last checkpoint
	// (-1 forces a rewrite); visitsDirty marks visit-log changes since
	// the last checkpoint. Together with stamps these decide which
	// sections an incremental checkpoint rewrites.
	histMuts    int64
	visitsDirty bool
	// stamps holds each table's stamp as of the last successful
	// checkpoint; a table whose stamp moved is rewritten. Empty after
	// Open, so the first checkpoint rewrites every table. Touched only by
	// checkpointQuiesced, which repairMu serializes.
	stamps map[string]ttdb.Stamp
	// lastCursor is the nondeterminism cursor position already logged,
	// so logCursors appends only on advance.
	lastCursor cursorMark

	stopOnce sync.Once
	ckptStop chan struct{}
	ckptDone chan struct{}
}

// append writes one WAL record, latching the first failure.
func (p *persister) append(typ byte, payload []byte) {
	if err := p.st.Append(typ, payload); err != nil {
		p.latchErr(err)
	}
}

// latchErr records the first observer-side WAL append failure.
func (p *persister) latchErr(err error) {
	p.mu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.mu.Unlock()
}

// markRepairDirty force-marks the sections a repair rewrites in place —
// the history graph (superseded flags, extended dependencies) and the
// visit logs (replayed child visits, merged edits). Called before the
// repair commit checkpoint; the database's tables need no marking, since
// every row a repair changes moves its table's stamp.
func (p *persister) markRepairDirty() {
	p.mu.Lock()
	p.histMuts = -1
	p.visitsDirty = true
	p.mu.Unlock()
}

// lastErr returns the first latched WAL append failure, if any.
func (p *persister) lastErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failErr
}

// clearErrIf unlatches a failure after a successful checkpoint: the
// snapshot captured the full in-memory state, so records the failed
// appends lost are durable again. Only the error observed before the
// checkpoint is cleared — a failure raced in during the build stays.
func (p *persister) clearErrIf(err error) {
	p.mu.Lock()
	if p.failErr == err {
		p.failErr = nil
	}
	p.mu.Unlock()
}

// ActionsAppended implements history.Observer: normal-execution actions
// are WAL-logged at append time, one record each, in batch order.
// Repair-produced actions (patched runs, their queries, patch markers)
// are not — a repair becomes durable atomically via the commit
// checkpoint.
func (p *persister) ActionsAppended(batch []*history.Action) {
	for _, a := range batch {
		switch pl := a.Payload.(type) {
		case *RunPayload:
			if pl.Repaired {
				continue
			}
		case *QueryPayload:
			if pl.Repaired {
				continue
			}
		default:
			if a.Kind == history.KindPatch {
				continue
			}
		}
		enc := store.GetEncoder()
		encodeAction(enc, a, p.w.Graph, false)
		p.append(recHistoryAction, enc.Bytes())
		store.PutEncoder(enc)
	}
}

// GraphCollected implements history.Observer.
func (p *persister) GraphCollected(beforeTime int64) {
	enc := store.GetEncoder()
	enc.Int(beforeTime)
	p.append(recGraphGC, enc.Bytes())
	store.PutEncoder(enc)
}

// RecordApplied implements ttdb.Observer. Any cursor advance is logged
// ahead of the record (see logCursors).
func (p *persister) RecordApplied(rec *ttdb.Record) {
	p.logCursors(p.w.Runtime.RNGCursor(), p.w.rngDraws.Load())
	enc := store.GetEncoder()
	ttdb.EncodeRecord(enc, rec)
	p.append(recTTDBRecord, enc.Bytes())
	store.PutEncoder(enc)
}

// TableAnnotated implements ttdb.Observer.
func (p *persister) TableAnnotated(table string, spec ttdb.TableSpec) {
	enc := store.GetEncoder()
	enc.String(table)
	ttdb.EncodeSpec(enc, spec)
	p.append(recTTDBAnnotate, enc.Bytes())
	store.PutEncoder(enc)
}

// Collected implements ttdb.Observer.
func (p *persister) Collected(beforeTime int64) {
	enc := store.GetEncoder()
	enc.Int(beforeTime)
	p.append(recTTDBGC, enc.Bytes())
	store.PutEncoder(enc)
}

func visitKey(clientID string, visitID int64) string {
	return clientID + "/" + strconv.FormatInt(visitID, 10)
}

// logVisit writes (or refreshes) one visit log record. The caller holds
// w.mu, which orders visit records against each other.
func (p *persister) logVisit(v *browser.VisitLog) {
	key := visitKey(v.ClientID, v.VisitID)
	v.Lock()
	size := 1 + len(v.Events) + len(v.Requests)
	v.Unlock()
	p.mu.Lock()
	if p.loggedVisits[key] == size {
		p.mu.Unlock()
		return
	}
	p.loggedVisits[key] = size
	p.visitsDirty = true
	p.mu.Unlock()
	enc := store.GetEncoder()
	encodeVisitLog(enc, v)
	p.append(recVisitLog, enc.Bytes())
	store.PutEncoder(enc)
}

// syncVisitLogs re-logs every visit log that gained events or requests
// since it was last written. In the in-process model the live browser
// keeps appending to the shared log object after upload; repair relies
// on those events, so they are re-persisted before each repair intent
// (the durable analog of the extension's periodic re-upload, §5.2) and
// on FlushLogs.
func (p *persister) syncVisitLogs() {
	p.w.mu.Lock()
	for _, v := range p.w.visitOrder {
		p.logVisit(v)
	}
	p.w.mu.Unlock()
}

// logIntent makes a repair intent durable before any repair work runs.
// Failure is returned (not swallowed): a repair that proceeds without a
// durable intent could be lost without trace by a crash, which is the
// exact guarantee the intent exists to provide.
func (p *persister) logIntent(it *RepairIntent) error {
	enc := store.NewEncoder()
	encodeIntent(enc, it)
	if err := p.st.Append(recRepairIntent, enc.Bytes()); err != nil {
		return err
	}
	return p.st.Sync() // a repair must not outrun its durable intent
}

func (p *persister) logRepairEnd() {
	p.append(recRepairEnd, nil)
}

// cursorMark is a position of the two nondeterminism cursors.
type cursorMark struct{ rt, br int64 }

// logCursors WAL-logs an advance of the nondeterminism cursors — the
// runtime's seeded token stream and the deployment's browser-seed
// stream. Checkpoints already persist the cursors (encodeCoreMeta), but
// a hard crash between checkpoints would otherwise replay the streams'
// unsynced tail: the first post-crash login would re-issue a recovered
// session's sid. Records are tiny, emitted only on advance, and replay
// idempotently (recovery only ever fast-forwards).
//
// RecordApplied calls this *before* appending its mutation record.
// Recovery keeps a prefix of the log, so ordering the cursor ahead of
// the record guarantees any recovered mutation implies the cursor state
// that existed when it committed — a crash can lose a login's session
// row together with its cursor advance, but never keep the row while
// rewinding the stream that issued its sid.
func (p *persister) logCursors(runtimeCursor, browserDraws int64) {
	p.mu.Lock()
	last := p.lastCursor
	p.mu.Unlock()
	want := cursorMark{rt: max(last.rt, runtimeCursor), br: max(last.br, browserDraws)}
	if want == last {
		return
	}
	enc := store.GetEncoder()
	enc.Int(want.rt)
	enc.Int(want.br)
	err := p.st.Append(recRNGCursors, enc.Bytes())
	store.PutEncoder(enc)
	if err != nil {
		// The mark is advanced only on a successful append: a transient
		// failure here must not let a later mutation record reach the
		// log without its preceding cursor record — the next record
		// retries the cursor first. Concurrent callers may duplicate a
		// record; replay is monotonic, so duplicates are harmless.
		p.latchErr(err)
		return
	}
	p.mu.Lock()
	p.lastCursor = cursorMark{rt: max(p.lastCursor.rt, want.rt), br: max(p.lastCursor.br, want.br)}
	p.mu.Unlock()
}

func (p *persister) checkpointLoop() {
	defer close(p.ckptDone)
	for {
		select {
		case <-p.ckptStop:
			return
		case <-p.st.NeedSnapshot():
			_ = p.w.Checkpoint()
		case <-p.st.FaultSignal():
			p.fence()
		}
	}
}

// fence responds to a storage fault (store.FaultSignal): it attempts
// one checkpoint, which — if the fault was transient (a poisoned
// segment the log already rotated past, a scrubbed-out corrupt file)
// — re-secures the entire in-memory state under a fresh recovery root
// and absolves the fault. If the checkpoint itself fails, the storage
// can no longer accept writes and the deployment degrades to read-only
// mode (degraded.go) instead of acknowledging writes it may lose.
func (p *persister) fence() {
	if p.w.Degraded() {
		return
	}
	err := p.w.Checkpoint()
	if err != nil {
		// One retry: the first attempt may itself have consumed a
		// transient fault (a poisoned fsync mid-checkpoint). A second
		// failure means the storage really cannot take a checkpoint.
		err = p.w.Checkpoint()
	}
	if err != nil {
		cause := p.st.LastFault()
		if cause == nil {
			cause = err
		}
		p.w.enterDegraded(cause)
	}
}

func (p *persister) stop() {
	p.stopOnce.Do(func() {
		close(p.ckptStop)
		<-p.ckptDone
	})
}

// Open creates a WARP deployment backed by the persistence directory
// dir, recovering any state a previous instance left there: the newest
// snapshot is restored, the WAL tail after it is replayed, and derived
// indexes are rebuilt. Application code (source files, routes,
// annotations) is not persisted — like the paper's PHP source tree it
// lives outside the database — so the application must Register and
// Mount its files after Open exactly as it does on a fresh deployment;
// setup DDL replays idempotently (CREATE TABLE IF NOT EXISTS, identical
// re-annotation).
//
// If a repair was in flight at crash time, PendingRepair reports its
// intent; call ResumeRepair after re-registering application code.
func Open(dir string, cfg Config) (*Warp, error) {
	st, rec, err := store.Open(dir, cfg.Durability)
	if err != nil {
		return nil, err
	}
	w := New(cfg)
	fail := func(err error) (*Warp, error) {
		_ = st.Close()
		return nil, err
	}
	if rec.Manifest {
		if err := w.restoreSections(rec); err != nil {
			return fail(fmt.Errorf("warp: restoring checkpoint: %w", err))
		}
	}
	walHist, walVisits := false, false
	for i, r := range rec.Records {
		switch r.Type {
		case recHistoryAction, recGraphGC:
			walHist = true
		case recVisitLog:
			walVisits = true
		}
		if err := w.applyWAL(r); err != nil {
			return fail(fmt.Errorf("warp: replaying WAL record %d: %w", i, err))
		}
	}
	w.rebuildDerived()
	w.recovery = RecoveryStats{
		FromSnapshot:     rec.Manifest,
		WALRecords:       len(rec.Records),
		TailCorrupt:      rec.TailCorrupt,
		SnapshotFallback: rec.SnapshotFallback,
	}

	p := &persister{
		w: w, st: st,
		loggedVisits: make(map[string]int),
		lastCursor:   cursorMark{rt: w.Runtime.RNGCursor(), br: w.rngDraws.Load()},
		ckptStop:     make(chan struct{}),
		ckptDone:     make(chan struct{}),
	}
	// Seed the dirty state: sections restored from the checkpoint are
	// clean (the manifest still references them); anything the WAL tail
	// touched is stale and must be rewritten by the next checkpoint.
	// Replayed database records marked their own tables dirty on the way
	// through DB.Replay.
	p.histMuts = w.Graph.MutationCount()
	if walHist {
		p.histMuts = -1
	}
	p.visitsDirty = walVisits
	w.mu.Lock()
	for _, v := range w.visitOrder {
		p.loggedVisits[visitKey(v.ClientID, v.VisitID)] = 1 + len(v.Events) + len(v.Requests)
	}
	w.mu.Unlock()
	w.pers = p
	w.Graph.SetObserver(p)
	w.DB.SetObserver(p)
	go p.checkpointLoop()
	if w.recovery.TailCorrupt {
		// The WAL holds a torn or unreachable region; appending beyond
		// it would strand acknowledged records where the next recovery
		// cannot reach them. Checkpoint immediately: the recovered state
		// becomes the new base, the manifest's boundaries move past the
		// damage, and the damaged segments are pruned. A store that can
		// neither replay its log nor write a checkpoint is refused.
		if err := w.Checkpoint(); err != nil {
			w.pers.stop()
			return fail(fmt.Errorf("warp: fencing corrupt WAL tail: %w", err))
		}
	}
	return w, nil
}

// restoreSections rebuilds the deployment from a checkpoint's sections,
// in dependency order: core metadata (clock first), the history graph,
// the database's metadata, then every table, then the visit logs. A
// section that the manifest names but cannot be read — or one of the
// always-present sections missing entirely — fails the whole Open:
// loading a partial deployment would silently drop recorded actions.
func (w *Warp) restoreSections(rec *store.Recovery) error {
	read := func(name string) (*store.Decoder, error) {
		dec, err := rec.ReadSection(name)
		if err != nil {
			return nil, fmt.Errorf("section %s: %w", name, err)
		}
		return dec, nil
	}
	dec, err := read(secCoreMeta)
	if err != nil {
		return err
	}
	if err := w.restoreCoreMeta(dec); err != nil {
		return fmt.Errorf("section %s: %w", secCoreMeta, err)
	}
	dec, err = read(secHistory)
	if err != nil {
		return err
	}
	if err := w.restoreHistory(dec); err != nil {
		return fmt.Errorf("section %s: %w", secHistory, err)
	}
	dec, err = read(secTTDBMeta)
	if err != nil {
		return err
	}
	if err := w.DB.RestoreMeta(dec); err != nil {
		return fmt.Errorf("section %s: %w", secTTDBMeta, err)
	}
	// Tables restore in two passes: every header (schema + allocator)
	// first, then every rows section, since rows can only load into a
	// table whose header has been restored.
	for _, name := range rec.SectionNames() {
		if !strings.HasPrefix(name, secTablePrefix) || strings.Contains(name, secRowsInfix) {
			continue
		}
		dec, err = read(name)
		if err != nil {
			return err
		}
		if _, err := w.DB.RestoreTableHeader(dec); err != nil {
			return fmt.Errorf("section %s: %w", name, err)
		}
	}
	for _, name := range rec.SectionNames() {
		if !strings.HasPrefix(name, secTablePrefix) || !strings.Contains(name, secRowsInfix) {
			continue
		}
		dec, err = read(name)
		if err != nil {
			return err
		}
		if err := w.DB.RestoreTableShard(dec); err != nil {
			return fmt.Errorf("section %s: %w", name, err)
		}
	}
	if err := w.DB.VerifyRestored(); err != nil {
		return err
	}
	dec, err = read(secVisits)
	if err != nil {
		return err
	}
	if err := w.restoreVisits(dec); err != nil {
		return fmt.Errorf("section %s: %w", secVisits, err)
	}
	return nil
}

// Recovery returns what Open recovered; the zero value for in-memory
// deployments and fresh directories.
func (w *Warp) Recovery() RecoveryStats { return w.recovery }

// Recovered reports whether Open restored any prior state.
func (w *Warp) Recovered() bool {
	return w.recovery.FromSnapshot || w.recovery.WALRecords > 0
}

// PendingRepair returns the intent of a repair that was in flight when a
// previous instance crashed, or nil.
func (w *Warp) PendingRepair() *RepairIntent {
	if w.pendingIntent == nil {
		return nil
	}
	it := *w.pendingIntent
	return &it
}

// ResumeRepair re-runs the pending crashed repair against the recovered
// state. Undo intents are self-contained; a retroactive patch intent
// needs the patched code re-supplied (patch), since code is not
// persisted. The repair runs through the normal entry points, so it
// re-logs its own intent and commits (or aborts) durably.
func (w *Warp) ResumeRepair(patch *app.Version) (*Report, error) {
	it := w.pendingIntent
	if it == nil {
		return nil, fmt.Errorf("warp: no pending repair to resume")
	}
	w.pendingIntent = nil
	switch it.Kind {
	case IntentRetroPatch:
		if patch == nil {
			return nil, fmt.Errorf("warp: resuming the retroactive patch of %s requires the patched code", it.File)
		}
		return w.RetroPatchSince(it.File, *patch, it.Since)
	case IntentUndoVisit:
		if it.Dequeue {
			w.mu.Lock()
			rest := w.conflicts[:0]
			for _, c := range w.conflicts {
				if c.Client == it.Client && c.VisitID == it.Visit {
					continue
				}
				rest = append(rest, c)
			}
			w.conflicts = rest
			w.mu.Unlock()
		}
		return w.undoVisit(it.Client, it.Visit, it.Admin, it.Dequeue)
	case IntentUndoPartition:
		p, ok := ttdb.ParsePartition(it.Partition)
		if !ok {
			return nil, fmt.Errorf("warp: pending repair names invalid partition %q", it.Partition)
		}
		return w.UndoPartition(p, it.From)
	default:
		return nil, fmt.Errorf("warp: unknown pending repair kind %d", it.Kind)
	}
}

// Checkpoint writes an incremental checkpoint of the deployment and
// truncates the WAL: sections whose state changed since the last
// checkpoint (tracked per ttdb table, plus the history graph and the
// visit-log store) are rewritten into a new delta file, unchanged
// sections are carried forward by manifest reference, and every
// Durability.CompactEvery-th checkpoint rewrites everything so the
// delta chain stays short. A table costs only if it was written since
// the last checkpoint, but the history and core/visits sections are
// rewritten whole whenever any request was recorded or any visit log
// changed, so a checkpoint's cost grows with all retained history.
// Request processing is suspended for the duration (the same brief §4.3
// suspension repair uses) and repair is excluded; uploads may
// interleave (their records are idempotent upserts). No-op for
// in-memory deployments.
func (w *Warp) Checkpoint() error {
	if w.pers == nil {
		return nil
	}
	if err := w.degradedErr(); err != nil {
		return err
	}
	w.repairMu.Lock()
	defer w.repairMu.Unlock()
	w.Suspend()
	defer w.Resume()
	return w.checkpointQuiesced()
}

// checkpointQuiesced writes the checkpoint; the caller holds repairMu
// and the suspension lock. A successful checkpoint re-establishes
// durability of everything in memory, so it unlatches an earlier
// observer append failure.
func (w *Warp) checkpointQuiesced() error {
	p := w.pers
	// Visit logs grow in place after upload (the live browser keeps the
	// shared object); observe that growth now so a grown-but-unlogged
	// visit marks the visits section dirty before the cut below.
	p.syncVisitLogs()
	before := p.lastErr()

	// Claim the dirty state up front. Mutators are quiesced, so nothing
	// is lost between the claim and the encode; if the checkpoint fails
	// the claims are restored for the next attempt.
	histMuts := w.Graph.MutationCount()
	p.mu.Lock()
	histDirty := p.histMuts != histMuts
	visitsDirty := p.visitsDirty
	p.visitsDirty = false
	p.mu.Unlock()
	stamps := make(map[string]ttdb.Stamp, len(p.stamps))

	err := p.st.WriteCheckpoint(func(cw *store.CheckpointWriter) error {
		// The small always-fresh sections: clock, request counters,
		// conflict queue, cookie invalidations, storage accounting, and
		// the database's generation/GC/annotation metadata.
		w.encodeCoreMeta(cw.Section(secCoreMeta))
		w.DB.EncodeMeta(cw.Section(secTTDBMeta))

		if histDirty || !cw.Keep(secHistory) {
			w.encodeHistory(cw.Section(secHistory))
		}
		for _, table := range w.DB.Tables() {
			// A table keeps both sections while its stamp stands where
			// the last checkpoint wrote them. Rows stream from the engine
			// cursor straight into the section encoder (ttdb.EncodeTable).
			stamp, err := w.DB.EncodeTable(table, func(now ttdb.Stamp, rows bool) *store.Encoder {
				name := secTablePrefix + table
				if rows {
					name = tableRowsSection(table)
				}
				if now == p.stamps[table] && cw.Keep(name) {
					return nil
				}
				return cw.Section(name)
			})
			if err != nil {
				return err
			}
			stamps[table] = stamp
		}
		if visitsDirty || !cw.Keep(secVisits) {
			w.encodeVisits(cw.Section(secVisits))
		}
		return nil
	})
	if err != nil {
		p.mu.Lock()
		p.visitsDirty = p.visitsDirty || visitsDirty
		p.mu.Unlock()
		return err
	}
	p.stamps = stamps
	p.mu.Lock()
	p.histMuts = histMuts
	p.mu.Unlock()
	if before != nil {
		p.clearErrIf(before)
	}
	return nil
}

// LastCheckpoint reports what the most recent checkpoint wrote — which
// sections went into the delta file and which were carried forward —
// for tests and operational visibility. Zero value for in-memory
// deployments.
func (w *Warp) LastCheckpoint() store.CheckpointStats {
	if w.pers == nil {
		return store.CheckpointStats{}
	}
	return w.pers.st.LastCheckpoint()
}

// FlushLogs makes everything recorded so far durable: visit logs that
// grew since upload are re-persisted and the WAL is fsynced. It also
// surfaces any WAL write failure an observer callback latched (those
// run inside the layers' critical sections and cannot propagate errors
// themselves).
func (w *Warp) FlushLogs() error {
	if w.pers == nil {
		return nil
	}
	if err := w.degradedErr(); err != nil {
		return err
	}
	w.pers.syncVisitLogs()
	if err := w.pers.st.Sync(); err != nil {
		return err
	}
	return w.pers.lastErr()
}

// Close checkpoints and releases the store. In-memory deployments and
// crashed stores close as no-ops. A WAL write failure latched by an
// observer callback that the final checkpoint could not absolve is
// returned here. A degraded deployment closes without the final
// checkpoint (the storage already refused one) and returns ErrDegraded
// with the original cause.
func (w *Warp) Close() error {
	if w.pers == nil {
		return nil
	}
	w.pers.stop()
	if w.pers.st.Dead() {
		return w.pers.st.Close()
	}
	if err := w.degradedErr(); err != nil {
		_ = w.pers.st.Close()
		return err
	}
	err := w.Checkpoint()
	if err != nil && !errors.Is(err, ErrDegraded) {
		// The attempt may have consumed a transient fault; retry once
		// before giving up (the same policy as the fault fence).
		err = w.Checkpoint()
	}
	if err != nil {
		_ = w.pers.st.Close()
		return err
	}
	if err := w.pers.st.Close(); err != nil {
		return err
	}
	return w.pers.lastErr()
}

// Crash simulates a process crash for fault-injection tests: user-space
// buffers are dropped and the store refuses further writes. The
// deployment keeps running in memory; reopen the directory with Open to
// observe what a real crash would have recovered.
func (w *Warp) Crash() {
	if w.pers == nil {
		return
	}
	w.pers.stop()
	w.pers.st.Crash()
}

//
// Checkpoint section encoding and recovery
//

// coreSnapVersion 3 added the runtime nondeterminism cursors (so a
// restart resumes the seeded token/browser-ID streams instead of
// replaying them — the post-restart login bug) and the file-version map
// (so a restart detects stale code registration). Version 4 extended
// the embedded query-record encoding with the UPDATE pre-image fields
// online repair merges against.
const coreSnapVersion = 4

// encodeCoreMeta serializes the deployment's small always-fresh state:
// the logical clock, the server-side request counter, the cookie
// invalidation queue, the conflict queue, storage accounting, the
// nondeterminism cursors, and the registered file versions.
func (w *Warp) encodeCoreMeta(enc *store.Encoder) {
	enc.Uvarint(coreSnapVersion)
	enc.Int(w.Clock.Now())

	w.mu.Lock()
	defer w.mu.Unlock()
	enc.Int(w.srvReqSeq.Load())

	cookieClients := make([]string, 0, len(w.cookieInvalid))
	for c := range w.cookieInvalid {
		cookieClients = append(cookieClients, c)
	}
	sort.Strings(cookieClients)
	enc.Uvarint(uint64(len(cookieClients)))
	for _, c := range cookieClients {
		enc.String(c)
		names := w.cookieInvalid[c]
		enc.Uvarint(uint64(len(names)))
		for _, n := range names {
			enc.String(n)
		}
	}

	enc.Uvarint(uint64(len(w.conflicts)))
	for _, c := range w.conflicts {
		encodeConflict(enc, c)
	}

	enc.Int(int64(w.browserLogBytes))
	enc.Int(w.appLogBytes.Load())
	enc.Int(w.dbLogBytes.Load())

	// A pending repair intent (recovered from a crashed instance but not
	// yet resumed) must survive the checkpoint that prunes its WAL
	// record — otherwise a checkpoint-then-crash sequence would silently
	// forget the half-done repair.
	if w.pendingIntent != nil {
		enc.Bool(true)
		encodeIntent(enc, w.pendingIntent)
	} else {
		enc.Bool(false)
	}

	// Nondeterminism cursors: where the runtime's seeded token stream and
	// the deployment's browser-seed stream stand, so a recovered instance
	// resumes them rather than re-issuing values live sessions already
	// hold (login → restart → login).
	enc.Int(w.Runtime.RNGCursor())
	enc.Int(w.rngDraws.Load())

	// Registered file versions, for stale-code detection after recovery
	// (the code itself lives outside the database, like the paper's PHP
	// source tree).
	versions := w.Runtime.FileVersions()
	files := make([]string, 0, len(versions))
	for f := range versions {
		files = append(files, f)
	}
	sort.Strings(files)
	enc.Uvarint(uint64(len(files)))
	for _, f := range files {
		enc.String(f)
		enc.Int(int64(versions[f]))
	}
}

func (w *Warp) restoreCoreMeta(dec *store.Decoder) error {
	if v := dec.Uvarint(); v != coreSnapVersion {
		if err := dec.Err(); err != nil {
			return err
		}
		return fmt.Errorf("core: unsupported snapshot version %d", v)
	}
	w.Clock.AdvanceTo(dec.Int())

	w.mu.Lock()
	defer w.mu.Unlock()
	w.srvReqSeq.Store(dec.Int())

	nCookie := dec.Count()
	for i := 0; i < nCookie; i++ {
		c := dec.String()
		n := dec.Count()
		names := make([]string, 0, n)
		for j := 0; j < n; j++ {
			names = append(names, dec.String())
		}
		w.cookieInvalid[c] = names
	}

	nConf := dec.Count()
	for i := 0; i < nConf; i++ {
		w.conflicts = append(w.conflicts, decodeConflict(dec))
	}

	w.browserLogBytes = int(dec.Int())
	w.appLogBytes.Store(dec.Int())
	w.dbLogBytes.Store(dec.Int())
	if dec.Bool() {
		it := decodeIntent(dec)
		w.pendingIntent = &it
	}

	// Resume the nondeterminism streams at their recorded cursors.
	w.Runtime.AdvanceRNGCursor(dec.Int())
	browserDraws := dec.Int()
	for w.rngDraws.Load() < browserDraws {
		w.rng.Int63()
		w.rngDraws.Add(1)
	}

	nFiles := dec.Count()
	w.recoveredFileVersions = make(map[string]int, nFiles)
	for i := 0; i < nFiles; i++ {
		f := dec.String()
		w.recoveredFileVersions[f] = int(dec.Int())
	}
	return dec.Err()
}

// encodeHistory serializes the action history graph with payloads.
func (w *Warp) encodeHistory(enc *store.Encoder) {
	actions := w.Graph.All()
	enc.Uvarint(uint64(len(actions)))
	for _, a := range actions {
		encodeAction(enc, a, w.Graph, true)
	}
}

func (w *Warp) restoreHistory(dec *store.Decoder) error {
	nActions := dec.Count()
	for i := 0; i < nActions; i++ {
		a, _, err := decodeAction(dec, w.Graph)
		if err != nil {
			return err
		}
		if err := w.Graph.RestoreAction(a); err != nil {
			return err
		}
	}
	return dec.Err()
}

// encodeVisits serializes the browser log store: every visit log in
// upload order plus the per-client index (by position, preserving the
// pointer sharing between the order list and the per-client lists).
func (w *Warp) encodeVisits(enc *store.Encoder) {
	w.mu.Lock()
	defer w.mu.Unlock()
	enc.Uvarint(uint64(len(w.visitOrder)))
	pos := make(map[*browser.VisitLog]int, len(w.visitOrder))
	for i, v := range w.visitOrder {
		pos[v] = i
		encodeVisitLog(enc, v)
	}
	clients := make([]string, 0, len(w.visitLogs))
	for c := range w.visitLogs {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	enc.Uvarint(uint64(len(clients)))
	for _, c := range clients {
		enc.String(c)
		logs := w.visitLogs[c]
		enc.Uvarint(uint64(len(logs)))
		for _, v := range logs {
			enc.Uvarint(uint64(pos[v]))
		}
	}
}

func (w *Warp) restoreVisits(dec *store.Decoder) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	nVisits := dec.Count()
	order := make([]*browser.VisitLog, 0, nVisits)
	for i := 0; i < nVisits; i++ {
		order = append(order, decodeVisitLog(dec))
	}
	w.visitOrder = order
	nClients := dec.Count()
	for i := 0; i < nClients; i++ {
		c := dec.String()
		n := dec.Count()
		logs := make([]*browser.VisitLog, 0, n)
		byID := make(map[int64]*browser.VisitLog, n)
		for j := 0; j < n; j++ {
			idx := dec.Uvarint()
			if dec.Err() != nil || idx >= uint64(len(order)) {
				return fmt.Errorf("core: snapshot visit index out of range")
			}
			logs = append(logs, order[idx])
			byID[order[idx].VisitID] = order[idx]
		}
		w.visitLogs[c] = logs
		w.visitByID[c] = byID
	}
	return dec.Err()
}

// applyWAL replays one WAL-tail record during recovery.
func (w *Warp) applyWAL(r store.Record) error {
	dec := store.NewDecoder(r.Payload)
	switch r.Type {
	case recHistoryAction:
		a, qp, err := decodeAction(dec, w.Graph)
		if err != nil {
			return err
		}
		if err := w.Graph.RestoreAction(a); err != nil {
			return err
		}
		switch pl := a.Payload.(type) {
		case *RunPayload:
			w.appLogBytes.Add(int64(pl.Rec.ApproxLogBytes()))
			w.dbLogBytes.Add(int64(pl.Rec.DBLogBytes()))
		case *QueryPayload:
			// Link the query action back into the owning run, restoring
			// the QueryActions list the crash interrupted.
			if qp != nil && qp.run != nil {
				qp.run.QueryActions = append(qp.run.QueryActions, a.ID)
			}
		}
		return nil
	case recTTDBRecord:
		rec := ttdb.DecodeRecord(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		return w.DB.Replay(rec)
	case recTTDBAnnotate:
		table := dec.String()
		spec := ttdb.DecodeSpec(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		return w.DB.Annotate(table, spec)
	case recTTDBGC:
		t := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		return w.DB.GC(t)
	case recGraphGC:
		t := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		w.Graph.GC(t)
		return nil
	case recVisitLog:
		v := decodeVisitLog(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		w.restoreVisitLog(v)
		return nil
	case recRepairIntent:
		it := decodeIntent(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		w.pendingIntent = &it
		return nil
	case recRepairEnd:
		w.pendingIntent = nil
		return nil
	case recRNGCursors:
		rtCur := dec.Int()
		brCur := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		w.Runtime.AdvanceRNGCursor(rtCur)
		w.mu.Lock()
		for w.rngDraws.Load() < brCur {
			w.rng.Int63()
			w.rngDraws.Add(1)
		}
		w.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("core: unknown WAL record type %d", r.Type)
	}
}

// restoreVisitLog upserts a replayed visit log: refreshed uploads of the
// same visit replace the earlier state in place (pointer identity is
// preserved for the per-client stores), new visits insert through the
// same quota rule as UploadVisitLog.
func (w *Warp) restoreVisitLog(v *browser.VisitLog) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v.ClientID == "" {
		return
	}
	if existing := w.visitByID[v.ClientID][v.VisitID]; existing != nil {
		w.browserLogBytes += v.ApproxLogBytes() - existing.ApproxLogBytes()
		existing.ReplaceWith(v)
		return
	}
	w.insertVisitLogLocked(v)
}

// rebuildDerived reconstructs the in-memory state that is derivable from
// the recovered graph and logs — the server-side request counter and the
// run-ID floor; the exchange and per-table node indexes are the graph's
// own and came back with its actions — and advances the clock past every
// recovered timestamp.
func (w *Warp) rebuildDerived() {
	maxTime := w.Clock.Now()
	var maxRunID int64
	for _, a := range w.Graph.All() {
		if a.Time > maxTime {
			maxTime = a.Time
		}
		rp, ok := a.Payload.(*RunPayload)
		if !ok {
			continue
		}
		if e := a.Exchange; e.Client == "srv" && e.Visit == 0 && e.Request > w.srvReqSeq.Load() {
			w.srvReqSeq.Store(e.Request)
		}
		if rp.Rec != nil {
			if rp.Rec.RunID > maxRunID {
				maxRunID = rp.Rec.RunID
			}
			for _, q := range rp.Rec.Queries {
				if q.Time > maxTime {
					maxTime = q.Time
				}
			}
		}
	}
	w.mu.Lock()
	for _, v := range w.visitOrder {
		if v.Time > maxTime {
			maxTime = v.Time
		}
	}
	w.mu.Unlock()
	w.Clock.AdvanceTo(maxTime)
	w.Runtime.SetRunSeqFloor(maxRunID)
}
