// Package obs is WARP's observability substrate: lock-cheap atomic
// counters and gauges, fixed-bucket latency histograms with mergeable
// snapshots and quantile extraction, a package-level metric registry
// with Prometheus text exposition, and a span-style trace recorder for
// multi-phase operations (repair). It depends only on the standard
// library and is safe for concurrent use everywhere.
//
// # Cost model
//
// The instrumented layers (sqldb, ttdb, store, core) follow one rule so
// the normal-operation fast path keeps its allocation budget and its
// ns/op within a few percent of uninstrumented:
//
//   - counters and gauges update unconditionally: a single uncontended
//     atomic add, a few nanoseconds, never an allocation;
//   - anything that needs a clock — latency histograms, slow-operation
//     logging, trace spans — is gated on Enabled() at the call site, so
//     a deployment that never calls SetEnabled(true) pays one atomic
//     load per site and no time.Now calls.
//
// Histogram.Observe itself is three atomic adds and never allocates, so
// enabling observability is cheap enough to leave on in production;
// cmd/warp-server enables it at startup, benchmarks/warpload for its
// traced runs (--trace 1), and BenchmarkInstrumentedExec holds the
// overhead bound in CI.
//
// See docs/observability.md for the metric inventory.
package obs

import "sync/atomic"

// enabled gates the timing-dependent instrumentation sites.
var enabled atomic.Bool

// SetEnabled turns timed instrumentation (latency histograms, trace
// spans, slow-operation checks) on or off process-wide. Counters and
// gauges record regardless.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether timed instrumentation is on.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous atomic value (it can go up and down).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }
