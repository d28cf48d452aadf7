package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Registry holds named metrics for export. Registration is idempotent
// by name, so package init blocks and tests can re-request a metric
// without double-registering. Metric reads and writes never touch the
// registry lock — it guards only the name index.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry; the package-level constructors
// register there, and Warp.Metrics / the /warp/metrics endpoint export
// it.
var Default = NewRegistry()

// Metric names follow Prometheus convention: a base name, optionally
// one {key="value"} label set baked into the registered name (e.g.
// `warp_sqldb_exec_seconds{shape="select_eq"}`). Histograms registered
// this way export as native Prometheus histograms with the label set
// merged into each series.

// Counter returns the named counter, creating and registering it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating and registering it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating and registering it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	return h
}

// NewCounter registers (or finds) a counter in the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers (or finds) a gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers (or finds) a histogram in the Default
// registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// CounterValue is one counter's exported state.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge's exported state.
type GaugeValue struct {
	Name  string
	Value int64
}

// HistogramValue is one histogram's exported state.
type HistogramValue struct {
	Name string
	Hist HistSnapshot
}

// Snapshot is a point-in-time copy of every metric in a registry,
// sorted by name.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		s.Histograms = append(s.Histograms, HistogramValue{Name: h.name, Hist: h.Snapshot()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the named counter's value from the snapshot (0 when
// absent).
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value from the snapshot (0 when
// absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram's snapshot and whether it was
// present.
func (s Snapshot) Histogram(name string) (HistSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Hist, true
		}
	}
	return HistSnapshot{}, false
}

// Sub returns a window view: counters and histograms become the deltas
// s − prev (metrics absent from prev pass through whole); gauges keep
// their current (instantaneous) values.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{Gauges: s.Gauges}
	for _, c := range s.Counters {
		out.Counters = append(out.Counters, CounterValue{Name: c.Name, Value: c.Value - prev.Counter(c.Name)})
	}
	for _, h := range s.Histograms {
		hs := h.Hist
		if p, ok := prev.Histogram(h.Name); ok {
			hs = hs.Sub(p)
		}
		out.Histograms = append(out.Histograms, HistogramValue{Name: h.Name, Hist: hs})
	}
	return out
}

// splitName separates a registered name into its base metric name and
// the baked-in label list (without braces): "m{a=\"b\"}" → "m", `a="b"`.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// WritePrometheus writes every metric of the registry in the Prometheus
// text exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative _bucket series with le labels in
// seconds plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	// A family's series sort next to each other; it gets one TYPE line.
	var last string
	typeLine := func(base, kind string) error {
		if base == last {
			return nil
		}
		last = base
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	for _, c := range s.Counters {
		base, labels := splitName(c.Name)
		if err := typeLine(base, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", sample(base, labels, ""), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		base, labels := splitName(g.Name)
		if err := typeLine(base, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", sample(base, labels, ""), g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		base, labels := splitName(h.Name)
		if err := typeLine(base, "histogram"); err != nil {
			return err
		}
		var cum uint64
		for i, n := range h.Hist.Buckets {
			if n == 0 {
				continue
			}
			cum += n
			le := fmt.Sprintf(`le="%g"`, float64(BucketUpper(i))/1e9)
			if _, err := fmt.Fprintf(w, "%s %d\n", sample(base+"_bucket", labels, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", sample(base+"_bucket", labels, `le="+Inf"`), h.Hist.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n%s %d\n",
			sample(base+"_sum", labels, ""), float64(h.Hist.Sum)/1e9,
			sample(base+"_count", labels, ""), h.Hist.Count); err != nil {
			return err
		}
	}
	return nil
}

// sample renders one series name with its merged label set.
func sample(name, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — warp-server mounts it at GET /warp/metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }
