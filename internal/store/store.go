package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/obs"
	"warp/internal/store/storefs"
)

// Options tunes a Store. The zero value selects the defaults below.
type Options struct {
	// SyncEveryAppend makes Append wait until its record is fsynced.
	// Concurrent appenders share fsyncs (group commit): one leader syncs
	// while followers' frames accumulate in the buffer for the next
	// sync. Off by default: records are fsynced by the group-commit
	// window instead, trading a bounded post-crash data-loss window (at
	// most GroupWindow) for an fsync-free hot path.
	SyncEveryAppend bool
	// GroupWindow is the maximum delay between fsyncs of buffered
	// records (default 2ms).
	GroupWindow time.Duration
	// SegmentBytes rotates the WAL to a new segment file past this size
	// (default 16 MiB).
	SegmentBytes int64
	// SnapshotBytes signals NeedSnapshot after this many WAL bytes since
	// the last checkpoint (default 64 MiB); negative disables the signal.
	SnapshotBytes int64
	// CompactEvery forces a full checkpoint (every live section
	// rewritten, superseding all deltas) after this many incremental
	// checkpoints (default 8). A full checkpoint lets the prune step
	// reclaim the whole delta chain.
	CompactEvery int
	// FS is the filesystem the store runs on; nil selects the real OS
	// filesystem. Tests substitute an error-injecting implementation
	// (internal/store/faultfs) to exercise the failure model.
	FS storefs.FS
	// RetryAttempts is the total number of tries a transient write or
	// segment-create error gets before surfacing (default 3). Fsync is
	// never retried — see the fsync-poisoning rule (chain.go).
	RetryAttempts int
	// RetryBackoff is the initial backoff between retries, doubling up
	// to a 50ms cap (default 1ms).
	RetryBackoff time.Duration
	// ScrubInterval starts a background scrubber that re-verifies the
	// CRCs of cold WAL segments and live checkpoint files at this
	// period, quarantining corrupt files (docs/persistence.md "Failure
	// model"). 0 disables the scrubber; ScrubNow remains available.
	ScrubInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.GroupWindow <= 0 {
		o.GroupWindow = 2 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.SnapshotBytes == 0 {
		o.SnapshotBytes = 64 << 20
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 8
	}
	if o.FS == nil {
		o.FS = storefs.OS
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = time.Millisecond
	}
	return o
}

// Record is one typed WAL record. LSN is its log sequence number:
// unique and totally ordered, assigned at append time.
type Record struct {
	LSN     int64
	Type    byte
	Payload []byte
}

// Recovery reports what Open found on disk: the newest loadable
// checkpoint (manifest plus the delta files it references), exposed as
// named sections, and the merged WAL tail after it.
type Recovery struct {
	// Manifest is true when a checkpoint was loaded; its sections are
	// read with ReadSection.
	Manifest bool
	// Records is the WAL tail after the checkpoint, every segment chain
	// found on disk merged into LSN order.
	Records []Record
	// TailCorrupt is true when at least one chain's replay stopped at a
	// torn or corrupt frame (or an unreachable segment beyond a gap):
	// Records holds the consistent per-chain prefixes before that.
	TailCorrupt bool
	// SnapshotFallback is true when a newer manifest existed but failed
	// validation and an older checkpoint was used instead.
	SnapshotFallback bool

	dir      string
	fs       storefs.FS
	sections map[string]sectionRef
	order    []string
}

type sectionRef struct {
	fileSeq int64
	offset  int64
}

// SectionNames returns the checkpoint's section names in manifest
// (declaration) order.
func (r *Recovery) SectionNames() []string { return r.order }

// HasSection reports whether the checkpoint holds a section.
func (r *Recovery) HasSection(name string) bool {
	_, ok := r.sections[name]
	return ok
}

// ReadSection reads and validates one section's payload, returning a
// decoder over it. Sections are read one at a time, so recovery memory
// is bounded by the largest single section, not the checkpoint.
func (r *Recovery) ReadSection(name string) (*Decoder, error) {
	ref, ok := r.sections[name]
	if !ok {
		return nil, fmt.Errorf("store: checkpoint has no section %q", name)
	}
	payload, err := readSectionPayload(r.fs, ckptPath(r.dir, ref.fileSeq), ref.offset)
	if err != nil {
		return nil, err
	}
	return NewDecoder(payload), nil
}

// ErrCrashed is returned by operations on a store after Crash.
var ErrCrashed = errors.New("store: store has crashed")

// Store is an open persistence directory: one WAL segment chain plus
// the manifest-rooted checkpoint history. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	fs   storefs.FS

	lsn atomic.Int64 // record sequence number
	log *chain

	walSince atomic.Int64 // WAL bytes since the last checkpoint
	snapped  atomic.Bool  // NeedSnapshot already signalled this interval
	needSnap chan struct{}

	// ckptMu serializes checkpoints and guards the fields below.
	ckptMu    sync.Mutex
	manifest  *manifest
	ckptSeq   int64
	sinceFull int
	lastCkpt  CheckpointStats
	// orphans maps the ids of chains other than 0 found at Open (an
	// earlier version wrote several) to their highest on-disk segment
	// seq. Their records were recovered at Open; the next checkpoint
	// covers and prunes them.
	orphans map[int]int64

	stateMu sync.Mutex
	dead    bool
	closed  bool

	// faultMu guards the storage-fault latch. A fault is any storage
	// error that escaped the retry policy: an fsync poisoning, an
	// exhausted write retry, a checkpoint that could not be written, or
	// scrubber-detected corruption. Faults are reported once per
	// signal-channel slot; the deployment layer (internal/core) listens
	// on FaultSignal and responds with a fence checkpoint or degraded
	// mode.
	faultMu   sync.Mutex
	lastFault error
	faultCh   chan struct{}
	// sealedTorn records segments sealed by fsync poisoning: their
	// tails are legitimately torn, so the scrubber must not flag them.
	sealedTorn map[string]bool
	// quarantined records files the scrubber found corrupt; prune
	// renames them to <name>.quarantine instead of deleting so an
	// operator can inspect them (scrub.go).
	quarantined map[string]bool

	stopOnce  sync.Once
	flushStop chan struct{}
	flushDone chan struct{}
	scrubStop chan struct{}
	scrubDone chan struct{}
	scrubMu   sync.Mutex
	scrubStat ScrubStats
}

// reportFault latches a storage fault and signals FaultSignal (capacity
// one: concurrent faults coalesce). ErrCrashed and closed-store errors
// are not faults.
func (s *Store) reportFault(err error) {
	if err == nil || errors.Is(err, ErrCrashed) {
		return
	}
	faultsReported.Inc()
	s.faultMu.Lock()
	s.lastFault = err
	s.faultMu.Unlock()
	select {
	case s.faultCh <- struct{}{}:
	default:
	}
}

// LastFault returns the most recent storage fault, or nil.
func (s *Store) LastFault() error {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.lastFault
}

// FaultSignal delivers one signal per outstanding storage fault. The
// deployment layer listens and responds with a fence checkpoint
// (re-securing in-memory state the WAL failed to) or, if that fails
// too, degraded read-only mode.
func (s *Store) FaultSignal() <-chan struct{} { return s.faultCh }

// markSealedTorn records an fsync-poisoned segment for the scrubber.
func (s *Store) markSealedTorn(path string) {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	s.sealedTorn[filepath.Base(path)] = true
}

func (s *Store) isSealedTorn(name string) bool {
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return s.sealedTorn[name]
}

// parseDigits reads s as decimal ASCII digits and nothing else: file
// names are outside input, and a sign, space, 0x or _ that a lenient
// parser accepts would let a stray file pass for a segment or manifest.
func parseDigits(s string) (n int64, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int64(s[i]-'0')
	}
	return n, len(s) > 0
}

// parseSeqName parses <prefix><8 digits><suffix>.
func parseSeqName(name, prefix, suffix string, seq *int64) (ok bool) {
	if len(name) != len(prefix)+8+len(suffix) ||
		!strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return false
	}
	*seq, ok = parseDigits(name[len(prefix) : len(prefix)+8])
	return ok
}

// parseSegName parses wal-<2 digits chain id>-<8 digits seq>.log.
func parseSegName(name string, id *int, seq *int64) bool {
	if len(name) != len("wal-00-00000000.log") || name[:4] != "wal-" || name[6] != '-' {
		return false
	}
	chainID, ok := parseDigits(name[4:6])
	*id = int(chainID)
	return ok && parseSeqName(name[7:], "", ".log", seq)
}

// errBadWALRecord marks a store-level record parse failure (missing LSN
// or type byte, or non-monotonic LSN) inside a frame whose checksum
// validated; recovery treats it exactly like a torn tail.
var errBadWALRecord = errors.New("store: malformed WAL record")

// truncateFile durably truncates a file to n bytes.
func truncateFile(fs storefs.FS, path string, n int64) error {
	f, err := fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Open opens (creating if needed) a persistence directory, recovers the
// newest valid checkpoint (manifest + base + deltas) plus the WAL tail
// after it, and starts a fresh segment for new appends. A possibly-torn
// previous tail segment is never appended to again.
//
// Recovery layers, in order: the manifest names every live section and
// the delta file holding it; sections load the checkpointed state; then
// the WAL tail replays its consistent prefix. This version writes one
// segment chain (wal-00-*), but a directory is outside input: every
// wal-NN-* chain found is replayed and all are merged into LSN order,
// so a directory an earlier version wrote with several chains opens. A
// torn tail on one chain drops only that chain's unsynced suffix
// (reported via TailCorrupt). A manifest whose
// referenced delta file is missing is a hard error — loading a partial
// checkpoint and calling it recovered would be silent data loss — while
// a corrupt newest manifest or delta falls back to the previous
// checkpoint.
func Open(dir string, opts Options) (*Store, *Recovery, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	walFiles := make(map[int][]int64)
	var manifestSeqs []int64
	maxCkptSeq := int64(0)
	tmpCleaned := false
	for _, e := range entries {
		var seq int64
		var id int
		// Orphaned temp files are leftovers of a checkpoint or manifest
		// write that died before its rename: never referenced by
		// anything, safe to delete, and deleting them keeps a failed
		// checkpoint from slowly filling the disk with garbage.
		if strings.HasSuffix(e.Name(), ".tmp") {
			if err := fs.Remove(filepath.Join(dir, e.Name())); err == nil {
				tmpCleaned = true
			}
			continue
		}
		switch {
		case parseSegName(e.Name(), &id, &seq):
			walFiles[id] = append(walFiles[id], seq)
		case parseSeqName(e.Name(), "manifest-", ".mf", &seq):
			manifestSeqs = append(manifestSeqs, seq)
			if seq > maxCkptSeq {
				maxCkptSeq = seq
			}
		case parseSeqName(e.Name(), "ckpt-", ".sec", &seq):
			if seq > maxCkptSeq {
				maxCkptSeq = seq
			}
		case parseSeqName(e.Name(), "wal-", ".log", &seq), parseSeqName(e.Name(), "snap-", ".snap", &seq):
			// The first on-disk layout (wal-<seq>.log + snap-<seq>.snap).
			// Opening it as an empty store would silently discard the
			// deployment's history; refuse instead.
			return nil, nil, fmt.Errorf("store: %s holds the legacy wal-<seq>.log/snap-<seq>.snap layout (found %s), which this version cannot read; recover it with the previous release or start a fresh directory", dir, e.Name())
		}
	}
	sort.Slice(manifestSeqs, func(i, j int) bool { return manifestSeqs[i] > manifestSeqs[j] })
	if tmpCleaned {
		_ = fs.SyncDir(dir)
	}

	rec := &Recovery{dir: dir, fs: fs}
	var mf *manifest
	var mfErr error
	for i, seq := range manifestSeqs {
		m, err := readManifestFile(fs, manifestPath(dir, seq))
		if err != nil {
			mfErr = err
			continue
		}
		sections, order, err := indexSections(fs, dir, m)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, nil, fmt.Errorf("store: manifest %d references a missing checkpoint file: %w", seq, err)
			}
			mfErr = err
			continue
		}
		mf = m
		rec.Manifest = true
		rec.sections = sections
		rec.order = order
		rec.SnapshotFallback = i > 0
		break
	}
	if mf == nil && mfErr != nil {
		// Checkpoints existed but none validates: refusing to run from a
		// silently wrong base state beats inventing one.
		return nil, nil, mfErr
	}

	// Replay each chain's consecutive run of segments after the
	// checkpoint's per-chain boundary, then merge by LSN. A missing
	// segment inside a chain's run is a gap — typically segments pruned
	// by a newer checkpoint whose manifest later failed validation — and
	// everything past it was appended against state this recovery does
	// not have; stopping there keeps each chain's recovered stream a
	// true prefix.
	maxLSN := int64(0)
	if mf != nil {
		maxLSN = mf.maxLSN
	}
	perChain := make(map[int][]Record)
	chainIDs := make([]int, 0, len(walFiles))
	for id, seqs := range walFiles {
		chainIDs = append(chainIDs, id)
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		bound := int64(-1)
		if mf != nil {
			if b, ok := mf.bounds[id]; ok {
				bound = b
			}
		}
		next := bound + 1
		if bound < 0 {
			next = seqs[0]
		}
		have := make(map[int64]bool, len(seqs))
		for _, seq := range seqs {
			have[seq] = true
		}
		var recs []Record
		corrupt := false
		prevLSN := int64(0)
		tornSeg, tornLen := int64(-1), int64(0)
		for have[next] && !corrupt {
			validLen, clean, err := readSegment(fs, segName(dir, id, next), func(payload []byte) error {
				lsn, k := binary.Uvarint(payload)
				if k <= 0 || k >= len(payload) || int64(lsn) <= prevLSN {
					return errBadWALRecord
				}
				prevLSN = int64(lsn)
				p := make([]byte, len(payload)-k-1)
				copy(p, payload[k+1:])
				recs = append(recs, Record{LSN: int64(lsn), Type: payload[k], Payload: p})
				return nil
			})
			if err != nil && !errors.Is(err, errBadWALRecord) {
				return nil, nil, err
			}
			if err != nil || !clean {
				corrupt = true
				tornSeg, tornLen = next, validLen
				break
			}
			next++
		}
		if !corrupt && seqs[len(seqs)-1] >= next {
			corrupt = true // unreachable segments beyond a gap
		}
		if corrupt {
			rec.TailCorrupt = true
		}
		// A torn frame in the newest segment of a chain is the ordinary
		// crash tail. Truncate the file to its valid prefix so
		// the chain stays appendable: without this, records fsynced into
		// segments started after this recovery would sit beyond the torn
		// frame and a second recovery would never reach them. A torn
		// frame with later segments present is different — rotation
		// fsyncs a segment before starting the next, so that is real
		// corruption and replay stops without touching the file.
		if tornSeg >= 0 && tornSeg == seqs[len(seqs)-1] {
			if err := truncateFile(fs, segName(dir, id, tornSeg), tornLen); err != nil {
				return nil, nil, fmt.Errorf("store: neutralizing torn tail of WAL chain %d: %w", id, err)
			}
		}
		if prevLSN > maxLSN {
			maxLSN = prevLSN
		}
		perChain[id] = recs
	}
	sort.Ints(chainIDs)
	rec.Records = mergeByLSN(perChain, chainIDs)

	s := &Store{
		dir:         dir,
		opts:        opts,
		fs:          fs,
		manifest:    mf,
		ckptSeq:     maxCkptSeq + 1,
		needSnap:    make(chan struct{}, 1),
		orphans:     make(map[int]int64),
		faultCh:     make(chan struct{}, 1),
		sealedTorn:  make(map[string]bool),
		quarantined: make(map[string]bool),
		flushStop:   make(chan struct{}),
		flushDone:   make(chan struct{}),
	}
	s.lsn.Store(maxLSN)
	start := int64(1)
	for id, seqs := range walFiles {
		if last := seqs[len(seqs)-1]; id != 0 {
			s.orphans[id] = last
		} else {
			start = last + 1
		}
	}
	if mf != nil && mf.bounds[0] >= start {
		start = mf.bounds[0] + 1
	}
	if s.log, err = newChain(s, start); err != nil {
		return nil, nil, err
	}
	go s.flusher()
	if opts.ScrubInterval > 0 {
		s.scrubStop = make(chan struct{})
		s.scrubDone = make(chan struct{})
		go s.scrubber()
	}
	return s, rec, nil
}

// indexSections validates every checkpoint file a manifest references —
// frame CRCs, per-section CRCs, trailer counts — and resolves each
// manifest section to its file offset. A missing file surfaces as
// os.ErrNotExist; a manifest entry absent from its file is ErrCorrupt.
func indexSections(fs storefs.FS, dir string, m *manifest) (map[string]sectionRef, []string, error) {
	offsets := make(map[int64]map[string]int64)
	for fileSeq := range m.fileRefs() {
		offs, err := validateSectionFile(fs, ckptPath(dir, fileSeq))
		if err != nil {
			return nil, nil, err
		}
		offsets[fileSeq] = offs
	}
	sections := make(map[string]sectionRef, len(m.sections))
	order := make([]string, 0, len(m.sections))
	for _, s := range m.sections {
		off, ok := offsets[s.fileSeq][s.name]
		if !ok {
			return nil, nil, fmt.Errorf("%w: manifest section %q missing from checkpoint %d", ErrCorrupt, s.name, s.fileSeq)
		}
		sections[s.name] = sectionRef{fileSeq: s.fileSeq, offset: off}
		order = append(order, s.name)
	}
	return sections, order, nil
}

// mergeByLSN merges per-chain record streams (each already
// LSN-monotonic) into one globally ordered stream.
func mergeByLSN(perChain map[int][]Record, ids []int) []Record {
	total := 0
	for _, recs := range perChain {
		total += len(recs)
	}
	if total == 0 {
		return nil
	}
	out := make([]Record, 0, total)
	idx := make(map[int]int, len(ids))
	for len(out) < total {
		best := -1
		var bestLSN int64
		for _, id := range ids {
			i := idx[id]
			if i >= len(perChain[id]) {
				continue
			}
			if best < 0 || perChain[id][i].LSN < bestLSN {
				best, bestLSN = id, perChain[id][i].LSN
			}
		}
		out = append(out, perChain[best][idx[best]])
		idx[best]++
	}
	return out
}

// Dir returns the persistence directory.
func (s *Store) Dir() string { return s.dir }

// Dead reports whether the store has crashed (Crash was called).
func (s *Store) Dead() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return s.dead
}

// NeedSnapshot signals (at most once per checkpoint interval) that the
// WAL has grown past Options.SnapshotBytes and a checkpoint would bound
// recovery time.
func (s *Store) NeedSnapshot() <-chan struct{} { return s.needSnap }

// WALBytesSinceSnapshot returns the bytes appended since the last
// checkpoint (or since Open).
func (s *Store) WALBytesSinceSnapshot() int64 { return s.walSince.Load() }

// Append writes one typed record to the log. With SyncEveryAppend it
// returns once the record is durable; otherwise the record becomes
// durable within GroupWindow. Records become durable in append order: a
// crash keeps a prefix, so a record describing earlier ones (a history
// action after the table records of its queries) never outlives them.
func (s *Store) Append(typ byte, payload []byte) error {
	var start time.Time
	if obs.Enabled() {
		start = time.Now()
	}
	c := s.log
	c.mu.Lock()
	before := c.appended
	// The LSN is assigned under the chain lock, so file order is
	// LSN-monotonic — the invariant recovery relies on.
	target, err := c.append(s.lsn.Add(1), typ, payload)
	if err != nil {
		c.mu.Unlock()
		s.reportFault(err)
		return err
	}
	n := target - before
	since := s.walSince.Add(n)
	if s.opts.SnapshotBytes > 0 && since >= s.opts.SnapshotBytes &&
		s.snapped.CompareAndSwap(false, true) {
		select {
		case s.needSnap <- struct{}{}:
		default:
		}
	}
	if s.opts.SyncEveryAppend {
		err = c.waitSynced(target)
	}
	c.mu.Unlock()
	walAppends.Inc()
	walAppendBytes.Add(uint64(n))
	if !start.IsZero() {
		walAppendHist.Observe(time.Since(start))
	}
	return err
}

// Sync makes every record appended before the call durable.
func (s *Store) Sync() error {
	c := s.log
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waitSynced(c.appended)
}

// flusher is the group-commit clock: it bounds how long a record
// appended without SyncEveryAppend stays unsynced. Errors need no
// handling here — the sync path already latched them as faults.
func (s *Store) flusher() {
	defer close(s.flushDone)
	tick := time.NewTicker(s.opts.GroupWindow)
	defer tick.Stop()
	for {
		select {
		case <-s.flushStop:
			return
		case <-tick.C:
			_ = s.Sync()
		}
	}
}

// CheckpointStats describes the last checkpoint written.
type CheckpointStats struct {
	// Seq is the checkpoint's sequence number.
	Seq int64
	// Full is true when every section was rewritten (no deltas carried).
	Full bool
	// Written lists the sections written into this checkpoint's delta
	// file; Kept lists the sections carried forward by reference.
	Written []string
	Kept    []string
	// Bytes is the size of the delta file written.
	Bytes int64
}

// LastCheckpoint returns statistics for the most recent successful
// checkpoint of this store instance.
func (s *Store) LastCheckpoint() CheckpointStats {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.lastCkpt
}

// CheckpointWriter receives a checkpoint's sections. For every live
// section the builder either writes it (Section) or carries the
// previous checkpoint's copy forward (Keep); sections it does neither
// for cease to exist. Keep fails — forcing a write — when there is no
// previous checkpoint, when the section is new, or when the store has
// decided this checkpoint is a full compaction.
type CheckpointWriter struct {
	st        *Store
	fw        *sectionFileWriter
	fileSeq   int64
	allowKeep bool
	prevSecs  map[string]int64

	enc      *Encoder
	secStart time.Time // start of the section being streamed (obs)
	sections []manifestSection
	written  []string
	kept     []string
	err      error
}

// checkpointChunkSize is the spill threshold of the streaming
// checkpoint encoder: sections are written as chunks of roughly this
// size, so checkpoint memory stays bounded regardless of section size.
const checkpointChunkSize = 256 << 10

// Section begins a new section and returns its streaming encoder, valid
// until the next Section call (or the end of the build). The encoder
// spills chunks of checkpointChunkSize to disk as it grows, so encoding
// a section of any size uses bounded memory.
func (cw *CheckpointWriter) Section(name string) *Encoder {
	cw.closeSection()
	if obs.Enabled() {
		cw.secStart = time.Now()
	}
	if cw.err == nil {
		if err := cw.fw.begin(name); err != nil {
			cw.err = err
		}
	}
	cw.sections = append(cw.sections, manifestSection{name: name, fileSeq: cw.fileSeq})
	cw.written = append(cw.written, name)
	cw.enc = newStreamEncoder(checkpointChunkSize, func(b []byte) error {
		if cw.err != nil {
			return cw.err
		}
		if err := cw.fw.chunk(b); err != nil {
			cw.err = err
			return err
		}
		return nil
	})
	return cw.enc
}

// Keep carries a section forward from the previous checkpoint by
// reference. It reports false when the caller must write the section
// instead.
func (cw *CheckpointWriter) Keep(name string) bool {
	if !cw.allowKeep {
		return false
	}
	fileSeq, ok := cw.prevSecs[name]
	if !ok {
		return false
	}
	cw.sections = append(cw.sections, manifestSection{name: name, fileSeq: fileSeq})
	cw.kept = append(cw.kept, name)
	return true
}

func (cw *CheckpointWriter) closeSection() {
	if cw.enc == nil {
		return
	}
	cw.enc.flush()
	if err := cw.enc.spillErr(); err != nil && cw.err == nil {
		cw.err = err
	}
	cw.enc = nil
	if !cw.secStart.IsZero() {
		ckptSectionHist.Observe(time.Since(cw.secStart))
		cw.secStart = time.Time{}
	}
}

// WriteCheckpoint rotates the WAL, streams the sections the
// build function emits into a new delta file, and atomically installs a
// manifest referencing them plus any sections carried forward. It then
// prunes WAL segments, delta files, and manifests the new checkpoint
// superseded. Incremental checkpoints write only what the builder
// chooses to; every Options.CompactEvery-th checkpoint refuses Keep,
// forcing a full rewrite that lets the whole prior delta chain go.
//
// The caller must quiesce mutators for the duration of the call: every
// state change that is WAL-logged must either be fully reflected in an
// emitted (or kept) section or append only after the rotation point. No
// store locks are held while build runs — the builder typically takes
// the application's own locks, which concurrent appenders hold while
// calling Append, so holding store locks across build would invert that
// order and deadlock. Appends that race the build (e.g. visit-log
// upserts, which are idempotent) land in post-rotation segments and
// replay over the checkpoint.
func (s *Store) WriteCheckpoint(build func(*CheckpointWriter) error) error {
	var startedAt time.Time
	if obs.Enabled() {
		startedAt = time.Now()
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Rotate first: records appended after this point land in segments
	// that survive the prune and replay over the new checkpoint.
	fin, err := s.log.cut()
	if err != nil {
		return err
	}
	bounds := map[int]int64{0: fin}
	// Orphan chains: their records were recovered at Open and are part
	// of the state being checkpointed, so the checkpoint covers them
	// entirely.
	for id, maxSeq := range s.orphans {
		bounds[id] = maxSeq
	}
	covered := s.walSince.Load()
	lsnAt := s.lsn.Load()
	seq := s.ckptSeq
	s.ckptSeq++
	full := s.manifest == nil || s.sinceFull >= s.opts.CompactEvery

	fw, err := newSectionFileWriter(s.fs, ckptPath(s.dir, seq))
	if err != nil {
		ioErrCkpt.Inc()
		s.reportFault(err)
		return err
	}
	cw := &CheckpointWriter{st: s, fw: fw, fileSeq: seq, allowKeep: !full}
	if !full {
		cw.prevSecs = make(map[string]int64, len(s.manifest.sections))
		for _, sec := range s.manifest.sections {
			cw.prevSecs[sec.name] = sec.fileSeq
		}
	}
	err = build(cw)
	cw.closeSection()
	if err == nil {
		err = cw.err
	}
	if err != nil {
		// The abort path removes the temp file; the final ckpt-*.sec
		// name never existed, so the prior manifest and its deltas
		// remain the recovery root untouched. cw.err is a chunk-spill
		// I/O failure (e.g. ENOSPC) and counts as a storage fault;
		// build's own errors are the application's.
		fw.abort()
		if cw.err != nil {
			ioErrCkpt.Inc()
			s.reportFault(cw.err)
		}
		return err
	}
	if err := fw.finish(); err != nil {
		ioErrCkpt.Inc()
		s.reportFault(err)
		return err
	}
	m := &manifest{seq: seq, maxLSN: lsnAt, bounds: bounds, sections: cw.sections}
	if err := writeManifestFile(s.fs, s.dir, m); err != nil {
		ioErrCkpt.Inc()
		s.reportFault(err)
		return err
	}
	s.manifest = m
	if len(cw.kept) == 0 {
		s.sinceFull = 0
	} else {
		s.sinceFull++
	}
	s.walSince.Add(-covered)
	s.snapped.Store(false)
	s.orphans = map[int]int64{}
	s.lastCkpt = CheckpointStats{
		Seq: seq, Full: len(cw.kept) == 0,
		Written: cw.written, Kept: cw.kept, Bytes: fw.off,
	}

	// Prune outside any append path: recovery correctness does not
	// depend on it, only disk usage does.
	s.prune()
	ckptTotal.Inc()
	ckptBytes.Add(uint64(fw.off))
	if !startedAt.IsZero() {
		ckptHist.Observe(time.Since(startedAt))
	}
	return nil
}

// prune removes WAL segments, checkpoint files, and manifests the
// current manifest has superseded. Files the scrubber quarantined are
// renamed to <name>.quarantine instead of deleted — the parse loop at
// Open ignores the suffix, so a quarantined file can never rejoin
// recovery, but an operator can still inspect it. Called with ckptMu
// held.
func (s *Store) prune() {
	m := s.manifest
	refs := m.fileRefs()
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	drop := func(name string) {
		path := filepath.Join(s.dir, name)
		s.faultMu.Lock()
		quarantined := s.quarantined[name]
		delete(s.quarantined, name)
		delete(s.sealedTorn, name)
		s.faultMu.Unlock()
		if quarantined {
			if s.fs.Rename(path, path+".quarantine") == nil {
				return
			}
		}
		_ = s.fs.Remove(path)
	}
	for _, e := range entries {
		var seq int64
		var id int
		switch {
		case parseSegName(e.Name(), &id, &seq):
			if bound, ok := m.bounds[id]; ok && seq <= bound {
				drop(e.Name())
			}
		case parseSeqName(e.Name(), "ckpt-", ".sec", &seq):
			if !refs[seq] && seq < m.seq {
				drop(e.Name())
			}
		case parseSeqName(e.Name(), "manifest-", ".mf", &seq):
			if seq < m.seq {
				drop(e.Name())
			}
		}
	}
	_ = s.fs.SyncDir(s.dir)
}

// Close flushes and fsyncs the log and releases the store. Closing a
// crashed store is a no-op.
func (s *Store) Close() error {
	s.stateMu.Lock()
	if s.dead || s.closed {
		s.stateMu.Unlock()
		return nil
	}
	s.closed = true
	s.stateMu.Unlock()
	err := s.log.close()
	s.stopOnce.Do(func() { close(s.flushStop) })
	<-s.flushDone
	s.stopScrubber()
	return err
}

// stopScrubber stops the background scrub loop, if one was started.
func (s *Store) stopScrubber() {
	if s.scrubStop == nil {
		return
	}
	select {
	case <-s.scrubStop:
	default:
		close(s.scrubStop)
	}
	<-s.scrubDone
}

// Crash simulates a process crash: user-space buffers are dropped, the
// files are abandoned as-is, and every subsequent operation fails with
// ErrCrashed. What recovery will see is exactly what had reached the OS.
func (s *Store) Crash() {
	s.stateMu.Lock()
	if s.dead || s.closed {
		s.stateMu.Unlock()
		return
	}
	s.dead = true
	s.stateMu.Unlock()
	s.log.crash()
	s.stopOnce.Do(func() { close(s.flushStop) })
	<-s.flushDone
	s.stopScrubber()
}
