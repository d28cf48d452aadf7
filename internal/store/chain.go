package store

import (
	"fmt"
	"path/filepath"
	"sync"
)

// A chain is the store's write-ahead log: one sequence of segment files
// (wal-00-<seq>.log) with one group-commit clock. Every record carries a
// global LSN assigned under the chain's lock, so file order is LSN order
// and a crash keeps a prefix of what was appended (the torn-tail rule,
// wal.go): a record can never be recovered without every record
// appended before it.
//
// Failure model (docs/persistence.md "Failure model"): write errors
// retry inside walWriter under the store's retry policy; a *failed
// fsync* is poisonous and never retried. After fsync failure the kernel
// may silently have dropped the dirty pages, so a later successful
// fsync of the same file proves nothing about them — the chain
// therefore seals the segment (close without sync, never trust it
// again), bumps its poison epoch so every waiter blocked on that
// segment's durability gets an error instead of a false ack, and starts
// a fresh segment for subsequent appends. The store latches the fault
// (reportFault); the deployment layer reacts with a fence checkpoint
// that re-secures the in-memory state the sealed segment failed to make
// durable (internal/core).
type chain struct {
	st    *Store // fault latch, sealed-segment registry, dir, fs, options
	retry retryPolicy

	mu       sync.Mutex
	cond     *sync.Cond
	w        *walWriter
	seq      int64 // sequence number of the active segment
	appended int64 // bytes appended to the chain
	synced   int64 // bytes known durable
	syncing  bool  // a group-commit leader is fsyncing outside the lock
	// epoch increments on every fsync poisoning. A durability waiter
	// captures the epoch at entry; seeing it change means the segment
	// holding its record was sealed with the record's durability
	// unknown, and the wait fails with poisonErr rather than falsely
	// acking. (The error can be spuriously pessimistic for a record
	// synced just before the poison — the safe direction.)
	epoch     int64
	poisonErr error
	// broken latches when a replacement segment cannot be opened: the
	// chain can accept no further appends, and only a checkpoint (or
	// degraded mode) can carry the deployment from here.
	broken error
	dead   bool
	closed bool
}

func newChain(st *Store, startSeq int64) (*chain, error) {
	c := &chain{
		st: st, seq: startSeq,
		retry: retryPolicy{attempts: st.opts.RetryAttempts, backoff: st.opts.RetryBackoff},
	}
	c.cond = sync.NewCond(&c.mu)
	w, err := openSegment(st.fs, segName(st.dir, 0, startSeq), c.retry)
	if err != nil {
		return nil, err
	}
	c.w = w
	return c, nil
}

// usable reports why the chain can take no append or sync, or nil.
// Called with c.mu held.
func (c *chain) usable() error {
	if c.dead || c.closed {
		return ErrCrashed
	}
	return c.broken
}

// append buffers one record's frame and returns the byte offset the
// caller must wait on for durability. Rotation happens here when the
// active segment crosses SegmentBytes. Called with c.mu held.
func (c *chain) append(lsn int64, typ byte, payload []byte) (target int64, err error) {
	if err := c.usable(); err != nil {
		return 0, err
	}
	c.appended += c.w.append(lsn, typ, payload)
	target = c.appended
	if c.w.size >= c.st.opts.SegmentBytes {
		if err := c.rotate(); err != nil {
			return 0, err
		}
	}
	return target, nil
}

// waitSynced blocks until byte offset target is durable, acting as the
// group-commit leader when no sync is in flight. It is the store's one
// durability wait: SyncEveryAppend appends, Sync and the flusher all
// come through here. Called with c.mu held.
func (c *chain) waitSynced(target int64) error {
	epoch := c.epoch
	for {
		if err := c.usable(); err != nil {
			return err
		}
		if c.epoch != epoch {
			return c.poisonErr
		}
		if c.synced >= target {
			return nil
		}
		if c.syncing {
			c.cond.Wait()
			continue
		}
		// Leader: flush the shared buffer under the lock (a memory
		// copy), fsync outside it so followers keep appending frames
		// that ride the next sync.
		c.syncing = true
		appended := c.appended
		if err := c.w.flush(); err != nil {
			c.syncing = false
			c.cond.Broadcast()
			c.st.reportFault(err)
			return err
		}
		f := c.w.f
		c.mu.Unlock()
		err := timedSync(f)
		c.mu.Lock()
		c.syncing = false
		if err != nil {
			c.poison(err)
			return c.poisonErr
		}
		if appended > c.synced {
			c.synced = appended
		}
		c.cond.Broadcast()
	}
}

// poison applies the fsync-poisoning rule after a failed fsync: seal
// the active segment (close the descriptor without another sync
// attempt — its flushed-but-unsynced suffix is of unknown durability
// and must never be trusted), bump the poison epoch so blocked waiters
// error out instead of false-acking, and open a fresh segment for
// subsequent appends. Buffered-but-unflushed frames are dropped with
// the seal; the deployment's fault fence re-secures their state from
// memory with a checkpoint. Called with c.mu held and syncing false.
func (c *chain) poison(cause error) {
	fsyncPoisoned.Inc()
	c.epoch++
	c.poisonErr = fmt.Errorf("store: fsync failed, segment %s sealed: %w",
		filepath.Base(c.w.path), cause)
	c.w.abandon()
	c.st.markSealedTorn(c.w.path)
	c.synced = c.appended
	c.seq++
	w, err := openSegment(c.st.fs, segName(c.st.dir, 0, c.seq), c.retry)
	if err != nil {
		c.broken = fmt.Errorf("store: no replacement segment after fsync failure: %w", err)
	} else {
		c.w = w
	}
	c.st.reportFault(c.poisonErr)
	c.cond.Broadcast()
}

// rotate finalizes the active segment (flush, fsync, close) and starts
// the next one. Called with c.mu held; waits out an in-flight sync
// first. A finalize failure poisons the segment — the close path ends
// in an fsync, so a failed close leaves the same unknown-durability
// tail a failed group-commit fsync does.
func (c *chain) rotate() error {
	for c.syncing {
		c.cond.Wait()
	}
	if err := c.usable(); err != nil {
		return err
	}
	if err := c.w.close(); err != nil {
		c.poison(err)
		return c.poisonErr
	}
	c.synced = c.appended
	c.seq++
	w, err := openSegment(c.st.fs, segName(c.st.dir, 0, c.seq), c.retry)
	if err != nil {
		c.broken = fmt.Errorf("store: no segment after rotation: %w", err)
		c.st.reportFault(c.broken)
		return c.broken
	}
	c.w = w
	c.cond.Broadcast()
	return nil
}

// cut rotates for a checkpoint and returns the finalized segment's
// sequence number: records in segments after it replay over the
// checkpoint being written.
func (c *chain) cut() (finalized int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.rotate(); err != nil {
		return 0, err
	}
	return c.seq - 1, nil
}

// activeSeq returns the sequence number of the segment accepting
// appends. The scrubber skips it and anything newer: their tails are
// legitimately torn until the next sync.
func (c *chain) activeSeq() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// close flushes, fsyncs, and releases the chain.
func (c *chain) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.syncing && !c.dead && !c.closed {
		c.cond.Wait()
	}
	if c.dead || c.closed {
		return nil
	}
	c.closed = true
	defer c.cond.Broadcast()
	if c.broken != nil {
		c.w.abandon()
		return c.broken
	}
	if c.synced == c.appended {
		// Nothing unsynced: skip the redundant final fsync so a disk
		// that died after the last real sync cannot fail a clean close.
		return c.w.f.Close()
	}
	return c.w.close()
}

// crash drops user-space buffers and refuses further writes, exactly as
// a process death would.
func (c *chain) crash() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead || c.closed {
		return
	}
	c.dead = true
	c.w.abandon()
	c.cond.Broadcast()
}

// segName formats a segment filename: wal-<chain>-<seq>.log. This
// version writes chain 0 only; Open also reads chains an earlier
// version wrote under other ids.
func segName(dir string, id int, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%02d-%08d.log", id, seq))
}
