package core

import (
	"errors"
	"fmt"
	"time"

	"warp/internal/obs"
	"warp/internal/store"
)

// Degraded read-only mode (docs/persistence.md "Failure model"). When
// the storage layer reports a fault — a poisoned fsync, an exhausted
// write retry, a checkpoint that could not be installed, scrub-detected
// corruption — the persister's fault fence attempts one checkpoint to
// re-secure the in-memory state. If that checkpoint succeeds, every
// committed byte is durable again under a fresh recovery root and the
// deployment carries on. If it fails, the storage is presumed unable to
// accept writes, and the deployment degrades rather than risking
// acknowledged-but-lost data: reads and time-travel queries keep
// serving (the in-memory state is intact and everything committed
// before the fault is recoverable from disk), while writes, repairs,
// and checkpoints are refused with ErrDegraded. Degraded mode is
// terminal for the process; the operator path back is to fix the
// underlying storage and re-Open the directory.

// ErrDegraded is returned (wrapped, with the storage cause) by every
// write path of a degraded deployment.
var ErrDegraded = errors.New("warp: degraded (read-only) mode")

var degradedGauge = obs.NewGauge("warp_store_degraded")

// degradedState is the terminal fault record a degraded Warp holds.
type degradedState struct {
	cause error
	since time.Time
	err   error // the wrapped ErrDegraded handed to refused writers
}

// enterDegraded switches the deployment into degraded read-only mode.
// Idempotent; only the first cause is kept.
func (w *Warp) enterDegraded(cause error) {
	st := &degradedState{
		cause: cause,
		since: time.Now(),
		err:   fmt.Errorf("%w: %v", ErrDegraded, cause),
	}
	if !w.degraded.CompareAndSwap(nil, st) {
		return
	}
	degradedGauge.Set(1)
	// Gate the database's normal-execution write path: live requests keep
	// reading, but any INSERT/UPDATE/DELETE/DDL — whether from
	// handleRequest, during a repair or not, or a direct DB.Exec — is
	// refused before it mutates state that can no longer be made
	// durable.
	w.DB.SetWriteGate(func() error { return st.err })
}

// Degraded reports whether the deployment is in degraded read-only mode.
func (w *Warp) Degraded() bool { return w.degraded.Load() != nil }

// DegradedCause returns the storage fault that degraded the deployment
// (nil when healthy).
func (w *Warp) DegradedCause() error {
	if st := w.degraded.Load(); st != nil {
		return st.cause
	}
	return nil
}

// degradedErr returns the wrapped ErrDegraded for refusal sites, nil
// when healthy.
func (w *Warp) degradedErr() error {
	if st := w.degraded.Load(); st != nil {
		return st.err
	}
	return nil
}

// Health is a point-in-time operational snapshot of the deployment,
// served by the deployment server's /warp/health endpoint.
type Health struct {
	// Degraded is true when the deployment is in read-only degraded mode.
	Degraded bool
	// DegradedCause and DegradedSince describe the fault that degraded
	// the deployment (empty/zero when healthy).
	DegradedCause string
	DegradedSince time.Time
	// LastStorageFault is the most recent fault the store reported, even
	// if the fault fence absorbed it with a successful checkpoint.
	LastStorageFault string
	// Scrub is the background scrubber's cumulative progress (zero value
	// for in-memory deployments or when scrubbing is disabled).
	Scrub store.ScrubStats
}

// Health reports the deployment's current health.
func (w *Warp) Health() Health {
	var h Health
	if st := w.degraded.Load(); st != nil {
		h.Degraded = true
		h.DegradedCause = st.cause.Error()
		h.DegradedSince = st.since
	}
	if w.pers != nil {
		if err := w.pers.st.LastFault(); err != nil {
			h.LastStorageFault = err.Error()
		}
		h.Scrub = w.pers.st.ScrubStats()
	}
	return h
}

// ScrubNow runs one synchronous storage scrub pass (no-op for in-memory
// deployments); see store.ScrubNow.
func (w *Warp) ScrubNow() error {
	if w.pers == nil {
		return nil
	}
	return w.pers.st.ScrubNow()
}
