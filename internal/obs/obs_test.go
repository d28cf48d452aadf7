package obs

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBounds checks the bucket geometry: every nanosecond value
// lands in the bucket whose [lower, upper] range contains it, bucket 0
// is exactly 0, and the power-of-two boundaries split the way the
// bit-length rule says (2^(i-1) opens bucket i).
func TestBucketBounds(t *testing.T) {
	for _, ns := range []int64{-5, 0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 20, (1 << 40) - 1, 1 << 40, 1<<62 + 1} {
		i := bucketOf(ns)
		want := ns
		if want < 0 {
			want = 0
		}
		if lo, hi := bucketLower(i), BucketUpper(i); want < lo || want > hi {
			t.Errorf("bucketOf(%d) = %d, but bucket range is [%d, %d]", ns, i, lo, hi)
		}
	}
	if got := bucketOf(0); got != 0 {
		t.Errorf("bucketOf(0) = %d, want 0", got)
	}
	for i := 1; i < NumBuckets-1; i++ {
		// The lower bound of bucket i+1 is one past the upper bound of
		// bucket i: no gaps, no overlap.
		if bucketLower(i+1) != BucketUpper(i)+1 {
			t.Fatalf("gap between bucket %d (upper %d) and bucket %d (lower %d)",
				i, BucketUpper(i), i+1, bucketLower(i+1))
		}
	}
}

// testDurations returns a deterministic pseudorandom duration sample
// spanning several orders of magnitude (the spread of real exec/fsync
// latencies).
func testDurations(n int) []time.Duration {
	out := make([]time.Duration, 0, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		// Spread over ~2^10..2^34 ns (µs to tens of seconds).
		shift := 10 + (state>>58)%25
		out = append(out, time.Duration((state>>20)%(uint64(1)<<shift)))
	}
	return out
}

// TestQuantileOracle observes a recorded duration sample and checks the
// histogram quantiles against the exact order statistics of the sorted
// sample: each reported quantile must land in the same power-of-two
// bucket as the true value — the documented resolution bound.
func TestQuantileOracle(t *testing.T) {
	durs := testDurations(5000)
	var h Histogram
	for _, d := range durs {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durs)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(durs))
	}

	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		oracle := sorted[int(q*float64(len(sorted)-1))]
		got := s.Quantile(q)
		if bucketOf(int64(got)) != bucketOf(int64(oracle)) {
			t.Errorf("Quantile(%.2f) = %v (bucket %d), oracle %v (bucket %d)",
				q, got, bucketOf(int64(got)), oracle, bucketOf(int64(oracle)))
		}
	}

	// Max is the containing bucket's upper bound for the true maximum.
	trueMax := sorted[len(sorted)-1]
	if got := s.Max(); got != time.Duration(BucketUpper(bucketOf(int64(trueMax)))) {
		t.Errorf("Max() = %v, want upper bound of bucket holding %v", got, trueMax)
	}

	// Mean is exact: Sum and Count are not bucketed.
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	if got, want := s.Mean(), sum/time.Duration(len(durs)); got != want {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
}

// TestQuantileEdges covers the empty, single-observation, and clamping
// cases.
func TestQuantileEdges(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Error("empty snapshot should report zeros")
	}
	var h Histogram
	h.Observe(100 * time.Microsecond)
	s := h.Snapshot()
	b := bucketOf(int64(100 * time.Microsecond))
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := s.Quantile(q); bucketOf(int64(got)) != b {
			t.Errorf("single-observation Quantile(%g) = %v, outside bucket %d", q, got, b)
		}
	}
}

// TestMergeSub checks that snapshots add and subtract exactly: merging
// two disjoint samples equals observing both into one histogram, and a
// window bracketed by two snapshots recovers exactly the observations
// in between.
func TestMergeSub(t *testing.T) {
	a, b := testDurations(500), testDurations(700)[500:]
	var ha, hb, hboth Histogram
	for _, d := range a {
		ha.Observe(d)
		hboth.Observe(d)
	}
	for _, d := range b {
		hb.Observe(d)
		hboth.Observe(d)
	}
	merged := ha.Snapshot()
	merged.Merge(hb.Snapshot())
	if merged != hboth.Snapshot() {
		t.Error("Merge(a, b) differs from observing a∪b directly")
	}
	if diff := hboth.Snapshot().Sub(ha.Snapshot()); diff != hb.Snapshot() {
		t.Error("Sub window differs from the observations inside it")
	}
}

// TestRegistryIdempotent checks that re-requesting a metric name returns
// the same instance and that snapshots come out sorted with lookups
// working.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1, c2 := r.Counter("z_total"), r.Counter("z_total")
	if c1 != c2 {
		t.Error("Counter registration not idempotent")
	}
	c1.Add(3)
	r.Counter("a_total").Inc()
	r.Gauge("g").Set(-7)
	r.Histogram("h_seconds").Observe(time.Millisecond)

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a_total" || s.Counters[1].Name != "z_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counter("z_total") != 3 || s.Counter("a_total") != 1 || s.Counter("missing") != 0 {
		t.Error("Snapshot.Counter lookups wrong")
	}
	if s.Gauge("g") != -7 {
		t.Error("Snapshot.Gauge lookup wrong")
	}
	if hs, ok := s.Histogram("h_seconds"); !ok || hs.Count != 1 {
		t.Error("Snapshot.Histogram lookup wrong")
	}

	c1.Add(5)
	r.Histogram("h_seconds").Observe(time.Millisecond)
	win := r.Snapshot().Sub(s)
	if win.Counter("z_total") != 5 || win.Counter("a_total") != 0 {
		t.Error("Snapshot.Sub counter deltas wrong")
	}
	if win.Gauge("g") != -7 {
		t.Error("Snapshot.Sub should keep gauges instantaneous")
	}
	if hs, _ := win.Histogram("h_seconds"); hs.Count != 1 {
		t.Errorf("Snapshot.Sub histogram window count = %d, want 1", hs.Count)
	}
}

// TestWritePrometheus checks the text exposition: one TYPE line per
// family, baked-in label merging, cumulative le buckets in seconds, and
// the +Inf bucket equal to _count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("warp_x_total").Add(9)
	r.Counter(`warp_y_total{path="a"}`).Add(1)
	r.Counter(`warp_y_total{path="b"}`).Add(2)
	r.Gauge(`warp_g{kind="a"}`).Set(4)
	h := r.Histogram(`warp_h_seconds{shape="eq"}`)
	h.Observe(time.Second)
	h.Observe(2 * time.Second)
	h.Observe(time.Millisecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE warp_x_total counter\nwarp_x_total 9\n",
		"# TYPE warp_y_total counter\nwarp_y_total{path=\"a\"} 1\nwarp_y_total{path=\"b\"} 2\n",
		"# TYPE warp_g gauge\nwarp_g{kind=\"a\"} 4\n",
		"# TYPE warp_h_seconds histogram\n",
		`warp_h_seconds_bucket{shape="eq",le="+Inf"} 3`,
		`warp_h_seconds_count{shape="eq"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 1ms observation's bucket count must be
	// included in the ≥1s buckets' counts.
	var lastCum int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "warp_h_seconds_bucket") {
			v, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("unparsable bucket line %q: %v", line, err)
			}
			if v < lastCum {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastCum = v
		}
	}
	if lastCum != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", lastCum)
	}
}

// TestSplitName checks baked-in label parsing.
func TestSplitName(t *testing.T) {
	for _, tc := range []struct{ in, base, labels string }{
		{"m", "m", ""},
		{`m{a="b"}`, "m", `a="b"`},
		{"m{broken", "m{broken", ""},
	} {
		base, labels := splitName(tc.in)
		if base != tc.base || labels != tc.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)", tc.in, base, labels, tc.base, tc.labels)
		}
	}
}

// TestTraceNil checks that every trace operation is inert on a nil
// trace, so instrumented code needs no conditionals when tracing is
// off.
func TestTraceNil(t *testing.T) {
	var tr *Trace
	sp := tr.Begin("phase")
	sp.End()
	tr.Finish()
	if s := tr.Snapshot(); s.Name != "" || len(s.Phases) != 0 {
		t.Error("nil trace snapshot should be zero")
	}
}

// TestTracePhases checks per-phase aggregation, first-seen ordering,
// open-span accounting, and the bounded detail list with drop counting.
func TestTracePhases(t *testing.T) {
	tr := NewTrace("repair:test")
	sp := tr.Begin("frontier")
	sp.End()
	for i := 0; i < 3; i++ {
		sp := tr.Begin("replay")
		sp.End()
	}
	open := tr.Begin("commit")
	s := tr.Snapshot()
	if s.Open != 1 {
		t.Errorf("Open = %d, want 1", s.Open)
	}
	open.End()
	tr.Finish()
	tr.Finish() // idempotent

	s = tr.Snapshot()
	if !s.Done || s.Name != "repair:test" {
		t.Fatalf("snapshot after Finish: %+v", s)
	}
	wantOrder := []string{"frontier", "replay", "commit"}
	if len(s.Phases) != len(wantOrder) {
		t.Fatalf("phases = %+v, want %v", s.Phases, wantOrder)
	}
	for i, name := range wantOrder {
		if s.Phases[i].Phase != name {
			t.Errorf("phase[%d] = %q, want %q (first-seen order)", i, s.Phases[i].Phase, name)
		}
	}
	if got := s.Phase("replay").Count; got != 3 {
		t.Errorf("replay count = %d, want 3", got)
	}
	if s.Phase("absent").Count != 0 {
		t.Error("absent phase should report zero")
	}
	if len(s.Spans) != 5 {
		t.Errorf("spans = %d, want 5", len(s.Spans))
	}

	// Overflow: past maxTraceSpans the detail list stops growing but
	// aggregates and the drop counter keep counting.
	for i := len(s.Spans); i < maxTraceSpans+10; i++ {
		sp := tr.Begin("replay")
		sp.End()
	}
	s = tr.Snapshot()
	if len(s.Spans) != maxTraceSpans {
		t.Errorf("spans = %d, want cap %d", len(s.Spans), maxTraceSpans)
	}
	if s.Dropped != 10 {
		t.Errorf("Dropped = %d, want 10", s.Dropped)
	}
	if got := s.Phase("replay").Count; got != uint64(3+maxTraceSpans+10-5) {
		t.Errorf("replay count = %d, want %d (aggregates ignore the cap)", got, 3+maxTraceSpans+10-5)
	}
}

// TestConcurrentObserve hammers one histogram, counter, and gauge from
// many goroutines while another goroutine snapshots continuously — the
// -race run is the assertion that the atomics are used correctly; the
// final counts are the assertion that no observation is lost.
func TestConcurrentObserve(t *testing.T) {
	const (
		writers = 8
		perW    = 2000
	)
	r := NewRegistry()
	h := r.Histogram("h")
	c := r.Counter("c")
	g := r.Gauge("g")
	tr := NewTrace("t")

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		prev := r.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := r.Snapshot()
			// Windows bracketed by racing snapshots must still be
			// monotone: counts never go backwards.
			if cur.Counter("c") < prev.Counter("c") {
				t.Error("counter went backwards across snapshots")
				return
			}
			hs, _ := cur.Histogram("h")
			ps, _ := prev.Histogram("h")
			if hs.Count < ps.Count {
				t.Error("histogram count went backwards across snapshots")
				return
			}
			tr.Snapshot()
			prev = cur
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(time.Duration(w*perW+i) * time.Microsecond)
				c.Inc()
				g.Add(1)
				g.Add(-1)
				sp := tr.Begin("work")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := h.Snapshot()
	if want := uint64(writers * perW); s.Count != want {
		t.Errorf("histogram count = %d, want %d", s.Count, want)
	}
	if c.Value() != uint64(writers*perW) {
		t.Errorf("counter = %d, want %d", c.Value(), writers*perW)
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %d, want 0", g.Value())
	}
	if got := tr.Snapshot().Phase("work").Count; got != uint64(writers*perW) {
		t.Errorf("trace phase count = %d, want %d", got, writers*perW)
	}
}

// TestEnabledToggle checks the package-level gate.
func TestEnabledToggle(t *testing.T) {
	prev := Enabled()
	defer SetEnabled(prev)
	SetEnabled(true)
	if !Enabled() {
		t.Error("Enabled() = false after SetEnabled(true)")
	}
	SetEnabled(false)
	if Enabled() {
		t.Error("Enabled() = true after SetEnabled(false)")
	}
}
