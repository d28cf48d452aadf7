package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"warp/benchmarks/gen"
	"warp/benchmarks/stats"
	"warp/internal/core"
	"warp/internal/obs"
)

// scale sizes a run. full is what BENCHMARK.json's numbers are measured
// at; toy is the smoke test's.
type scale struct {
	seconds         float64 // serving-phase budget per workload
	pages, sessions int     // wiki pages and logged-in sessions
	posts, photos   int
	epoch           map[string]int // ops in a repair epoch, per workload
	repairUsers     int            // users of the browser-recorded wiki workload
	reps            int            // quiet repetitions per repair kind
	shrink          int64          // divides the count-based intervals: history-GC interval, micro-slice size (toy runs have few requests)
	snapshotBytes   int64          // WAL bytes between checkpoints (durable workload)
	barrierOps      int            // writes between the flush barrier and the crash
	probeOps        int64          // requests the layer probe samples
	streamLen       int            // generated serve stream (cycled by time-bounded phases)
}

func fullScale(seconds float64) scale {
	return scale{
		seconds: seconds, pages: 2000, sessions: 64, posts: 500, photos: 500,
		epoch:       map[string]int{"wiki-read": 12000, "wiki-edit-durable": 200, "blog-gallery-mixed": 5000},
		repairUsers: 100, reps: 8, shrink: 1, snapshotBytes: 12 << 20, barrierOps: 200, probeOps: 2000, streamLen: 1 << 15,
	}
}

func toyScale() scale {
	return scale{
		seconds: 0.12, pages: 40, sessions: 8, posts: 20, photos: 20,
		epoch:       map[string]int{"wiki-read": 120, "wiki-edit-durable": 60, "blog-gallery-mixed": 120},
		repairUsers: 8, reps: 1, shrink: 50, snapshotBytes: 128 << 10, barrierOps: 10, probeOps: 100, streamLen: 1 << 10,
	}
}

// acks remembers what the server acknowledged, which is what the
// correctness checks hold the database to.
type acks struct {
	edits                   []atomic.Bool // by stream position
	comments, votes, grants atomic.Int64
}

func (a *acks) track(p *pop, j int, rw *respWriter) {
	switch p.op.Kind {
	case "edit":
		if j == 1 {
			a.edits[p.serial].Store(true)
		}
	case "comment":
		a.comments.Add(1)
	case "vote":
		if rw.status == 303 {
			a.votes.Add(1)
		}
	case "grant":
		if !bytes.Contains(rw.body, []byte("already")) {
			a.grants.Add(1)
		}
	}
}

// acked reports whether content is an edit of title that was acknowledged.
func (a *acks) acked(title, content string) bool {
	var serial int
	if _, err := fmt.Sscanf(content, "edit-%d of", &serial); err != nil || serial < 0 || serial >= len(a.edits) {
		return false
	}
	return a.edits[serial].Load() && content == gen.EditBody(serial, title)
}

// runner executes one workload once, traced or untraced.
type runner struct {
	wl      *workload
	sc      scale
	seed    int64
	traced  bool
	clients int
	tmp     string // parent of persistence directories

	spans     *spanLog // nil when untraced
	acks      *acks
	attempted atomic.Int64
	failed    atomic.Int64
	setups    []float64 // seconds, one per deployment built

	mu       sync.Mutex
	failures []string // first few, for the operator; guarded by mu

	metrics map[string]float64
	notes   []string
	ledger  []ledgerRow
}

// set and note are called from the runner's own goroutine only.
func (r *runner) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = v
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// describe keeps the first few failure descriptions for the operator;
// client goroutines call it for failed requests, which they count
// themselves.
func (r *runner) describe(format string, args ...any) {
	r.mu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// fail counts and describes a failed check.
func (r *runner) fail(format string, args ...any) {
	r.failed.Add(1)
	r.describe(format, args...)
}

// timedBuild constructs a deployment and records how long that took:
// every deployment a run builds contributes a sample to setup_s.
func (r *runner) timedBuild(build func() (*deployment, error)) (*deployment, error) {
	runtime.GC() // every build starts from a collected heap, like a fresh process
	t0 := time.Now()
	d, err := build()
	if err == nil {
		d.setupTime = time.Since(t0)
	}
	return d, err
}

func (r *runner) build(variant string) (*deployment, error) {
	d, err := r.wl.build(r, variant)
	if err != nil {
		return nil, fmt.Errorf("building %s deployment: %w", variant, err)
	}
	r.setups = append(r.setups, d.setupTime.Seconds())
	return d, nil
}

// execute runs the workload's life cycle: serve, settle, (crash and
// recover,) repair.
func (r *runner) execute() error {
	if r.traced {
		r.spans = newSpanLog()
	}
	d, err := r.build("serve")
	if err != nil {
		return err
	}
	if err := r.serve(d); err != nil {
		return err
	}
	if err := d.close(); err != nil {
		return err
	}
	if err := r.repairs(); err != nil {
		return err
	}
	r.set("setup_s", fastTime(r.setups))
	r.set("load.fail_ratio", float64(r.failed.Load())/math.Max(1, float64(r.attempted.Load())))
	return nil
}

// fastRate and fastTime are the estimators of every repeated timing: the
// quartile on the fast side of the repetitions (third quartile of rates,
// first of times). On a shared host interference only ever slows a
// repetition down, in bursts of tens of milliseconds and in spells of
// tens of seconds; the fast-side quartile of many equal pieces of work
// moved a third as much from run to run as their median did, and the
// fastest piece alone moved more than either.
func fastRate(perSec []float64) float64  { _, q3 := stats.Quartiles(perSec); return q3 }
func fastTime(seconds []float64) float64 { q1, _ := stats.Quartiles(seconds); return q1 }

// rate is a phase's request rate from its micro-slices' rates, grouped by
// round. Where every micro-slice is the same work it is the fast-side
// quartile of them all. On a count-bounded workload it is not: the tables
// grow, a request costs several times more at the end of a run than at
// its start, and a quartile of the whole run would pick a stretch of the
// trajectory, not a quiet moment. There the quartile is taken round by
// round, where neighbours are alike, and the rounds' times per request
// are averaged: the rate of the whole trajectory.
func (r *runner) rate(rounds [][]float64) float64 {
	if r.wl.nominalRate == 0 {
		var all []float64
		for _, perSec := range rounds {
			all = append(all, perSec...)
		}
		return fastRate(all)
	}
	perReq, n := 0.0, 0.0
	for _, perSec := range rounds {
		if q := fastRate(perSec); q > 0 {
			perReq, n = perReq+1/q, n+1
		}
	}
	return n / perReq
}

// lim bounds a serving phase of the given length.
func (r *runner) lim(seconds float64) limit {
	if r.wl.nominalRate > 0 {
		return limit{ops: int64(math.Max(1, r.wl.nominalRate*seconds))}
	}
	return limit{until: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

// serve runs the serving phases on a fresh deployment. After an untimed
// warm-up it makes `rounds` rounds of four slices each:
//
//	c1    — one closed-loop client on WARP
//	plain — the same client and the same operations on the plain twin ("No WARP")
//	sat   — closed loop, all clients
//	paced — open loop at the committed rate
//
// The c1, plain and sat slices are made of micro-slices, each timed on
// its own; rates are fast-side quartiles of theirs (see rate), the tax
// is the median of the c1/plain pairs' ratios, the paced latencies are
// pooled. Interleaving spreads each phase over the whole serving window:
// a slow spell of the host costs every phase a round or two instead of
// costing one phase most of its samples.
//
// A traced run makes the second slice untraced WARP instead (the ratio is
// the tracing overhead) and traces the others; the layers' own
// histograms are read over the sat slices.
func (r *runner) serve(d *deployment) error {
	S := r.sc.seconds
	n := r.sc.streamLen
	if need := int(r.wl.nominalRate * S * 1.2); need > n {
		n = need // count-bounded phases must not wrap around the stream
	}
	ops := r.wl.stream(r, d, n)
	stream, err := prepare(ops, d.cookie)
	if err != nil {
		return err
	}
	reqs := 0
	for i := range ops {
		reqs += len(ops[i].Reqs)
	}
	opRate := r.wl.pacedRate * float64(len(ops)) / float64(reqs)
	r.acks = &acks{edits: make([]atomic.Bool, len(stream))}
	plainDB, err := d.twin()
	if err != nil {
		return err
	}
	served := new(atomic.Int64)
	shared := d.handler()
	untraced := &target{handler: func(int) http.Handler { return shared }, served: served, track: r.acks.track}
	warp, other := untraced, untraced
	if r.traced {
		warp = &target{served: served, track: r.acks.track, handler: func(int) http.Handler {
			return newTracedClient(r.spans, d.w.HandleRequest)
		}}
	} else {
		plain := plainHandler(d, plainDB, nil)
		other = &target{handler: func(int) http.Handler { return plain }}
	}
	defer obs.SetEnabled(false)

	gc := r.startHistoryGC(d.w, served, r.wl.gcEvery/r.sc.shrink)
	defer gc.halt()
	cur := new(cursor)
	// slice runs one slice; a traced run switches the program's own
	// instrumentation on for its traced slices and labels their spans.
	slice := func(name string, tg *target, clients int, rate float64, lim limit) phase {
		obs.SetEnabled(r.traced && tg == warp)
		r.spans.setPhase(name)
		ph := r.run(tg, stream, cur, clients, rate, lim)
		obs.SetEnabled(false)
		return ph
	}
	// again reruns the operations a slice just consumed, from one client,
	// on another target.
	again := func(name string, tg *target, ph phase) phase {
		end := cur.next.Load()
		cur.next.Store(end - ph.ops)
		out := slice(name, tg, 1, 0, limit{ops: ph.ops})
		cur.next.Store(end)
		return out
	}
	// A workload whose tables grow keeps its plain twin in step: the twin
	// replays, untimed, what only WARP was asked to do. Otherwise the twin
	// would render ever shorter pages than WARP does, and the tax would
	// measure the lag.
	shadow := func(ph phase) {
		if r.wl.nominalRate > 0 && !r.traced {
			again("shadow", other, ph)
		}
	}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	first, serveStart := d.w.Metrics(), time.Now()

	// Warm-up: caches fill, lazy set-up finishes, on both sides.
	shadow(slice("warm-up", untraced, r.clients, 0, r.lim(0.04*S)))
	slice("warm-up", other, 1, 0, r.lim(0.02*S))

	// A slice is made of micro-slices: about a hundredth of a second of
	// one client's work at the recording machine's speed, as an operation
	// count, so that every micro-slice of a phase is the same amount of
	// work. spend runs micro-slices until the slice's share of the serving
	// seconds is used up: an operation count on a count-bounded workload,
	// measured time otherwise.
	micro := int64(math.Max(1, opRate/40/float64(r.sc.shrink)))
	spend := func(seconds float64, size int64, one func(ops int64) phase) {
		opsLeft := int64(math.Max(1, r.wl.nominalRate*seconds))
		timeLeft := time.Duration(seconds * float64(time.Second))
		counted := r.wl.nominalRate > 0
		for (counted && opsLeft > 0) || (!counted && timeLeft > 0) {
			ops := size
			if counted {
				ops = min(size, opsLeft)
			}
			ph := one(ops)
			opsLeft, timeLeft = opsLeft-ph.ops, timeLeft-ph.elapsed
		}
	}

	const rounds = 16
	var (
		rateA, rateB, rateSat [rounds][]float64 // per round, per micro-slice
		ratios                []float64
		sat, paced            phase
		layers                = newWindow()
		logBytes              int
	)
	for i := 0; i < rounds; i++ {
		spend(0.16*S/rounds, micro, func(ops int64) phase {
			a := slice("c1", warp, 1, 0, limit{ops: ops})
			b := again("c1-other", other, a) // the very same operations: the ratio compares like with like
			if a.perSec() > 0 && b.perSec() > 0 {
				rateA[i], rateB[i], ratios = append(rateA[i], a.perSec()), append(rateB[i], b.perSec()), append(ratios, b.perSec()/a.perSec())
			}
			return a
		})

		before, stor0 := d.w.Metrics(), d.w.Storage()
		var round phase
		spend(0.30*S/rounds, 2*micro*int64(r.clients), func(ops int64) phase {
			ph := slice("sat", warp, r.clients, 0, limit{ops: ops})
			rateSat[i] = append(rateSat[i], ph.perSec())
			round.add(ph)
			return ph
		})
		stor1 := d.w.Storage()
		layers.add(before, d.w.Metrics())
		logBytes += (stor1.AppLogBytes + stor1.DBLogBytes + stor1.BrowserLogBytes) -
			(stor0.AppLogBytes + stor0.DBLogBytes + stor0.BrowserLogBytes)
		sat.add(round)
		shadow(round)

		ph := slice("paced", warp, r.clients, opRate, limit{ops: int64(math.Max(1, opRate*0.30*S/rounds))})
		paced.add(ph)
		shadow(ph)
	}
	sort.Float64s(paced.lat)
	sort.Float64s(paced.late)

	if r.traced {
		r.set("trace.overhead_ratio", stats.Median(ratios))
		r.layerWindow(layers, sat)
	} else {
		r.set("req_per_s.c1", r.rate(rateA[:]))
		r.set("warp_tax_ratio", stats.Median(ratios))
		r.note("c1: WARP %.0f req/s, plain twin %.0f req/s, %d pairs of micro-slices", r.rate(rateA[:]), r.rate(rateB[:]), len(ratios))
	}
	r.set("req_per_s", r.rate(rateSat[:]))
	r.set("log_bytes_per_req", float64(logBytes)/float64(sat.reqs))
	r.set("p50_ms", stats.Median(paced.lat))
	pct, tail := stats.Tail(paced.lat)
	r.set("load.p99_ms", tail)
	r.note("paced: %.0f req/s open loop, %d samples, tail reported at p%.0f", r.wl.pacedRate, len(paced.lat), pct)
	_, late := stats.Tail(paced.late)
	r.set("load.gen_late_p99_ms", late)
	r.set("load.samples", float64(len(paced.lat)))
	misses := paced.failed
	for _, l := range paced.lat {
		if l > 50 {
			misses++
		}
	}
	r.set("load.slo_miss_ratio", float64(misses)/math.Max(1, float64(len(paced.lat))))

	if err := gc.halt(); err != nil {
		return err
	}
	r.set("core.gc_calls", float64(len(gc.pauses)))
	if len(gc.pauses) > 0 {
		sum, max := 0.0, 0.0
		for _, p := range gc.pauses {
			sum, max = sum+p, math.Max(max, p)
		}
		r.set("core.gc_pause_ms.mean", sum/float64(len(gc.pauses)))
		r.set("core.gc_pause_ms.max", max)
	}
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	r.set("go.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)

	if r.wl.settle != nil {
		if err := r.wl.settle(r, d); err != nil {
			r.fail("served state: %v", err)
		}
	}
	if r.traced {
		whole := newWindow()
		whole.add(first, d.w.Metrics())
		r.storeWindow(whole, served.Load(), time.Since(serveStart))
		r.spans.setPhase("probe")
		if err := r.retained(d, untraced, stream, cur); err != nil {
			return err
		}
		r.probe(d, stream, cur)
	}
	r.spans.setPhase("recover")
	if r.wl.durable {
		return r.crashRecover(d, untraced, stream, cur, served.Load())
	}
	return nil
}

// retained measures what a request leaves behind until the next history
// GC: heap bytes and history-graph actions, and what it allocates.
func (r *runner) retained(d *deployment, tg *target, stream []pop, cur *cursor) error {
	if err := d.w.GC(d.w.Clock.Now()); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	actions := d.w.Graph.Len()
	ph := r.run(tg, stream, cur, 1, 0, limit{ops: 4000 / r.sc.shrink})
	runtime.ReadMemStats(&m1)
	allocs := m1.Mallocs - m0.Mallocs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.set("go.allocs_per_req", float64(allocs)/float64(ph.reqs))
	r.set("go.heap_bytes_per_req", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(ph.reqs))
	r.set("history.actions_per_req", float64(d.w.Graph.Len()-actions)/float64(ph.reqs))
	return nil
}

// crashRecover is the durability check of the durable workload: flush
// barrier, a few more writes, a simulated crash that discards unflushed
// bytes, recovery. Every write acknowledged before the barrier must be
// readable afterwards; a write after it may or may not have survived,
// but nothing else may appear.
func (r *runner) crashRecover(d *deployment, tg *target, stream []pop, cur *cursor, served int64) error {
	sp := r.spans.begin("core.FlushLogs", 0, 0)
	err := d.w.FlushLogs()
	sp.end()
	if err != nil {
		return fmt.Errorf("flush barrier: %w", err)
	}
	atBarrier, err := d.pageContents()
	if err != nil {
		return err
	}
	r.set("store.disk_bytes_per_req", float64(dirBytes(d.dir))/math.Max(1, float64(served)))
	post := &acks{edits: make([]atomic.Bool, len(stream))}
	late := &target{handler: tg.handler, track: post.track}
	r.run(late, stream, cur, r.clients, 0, limit{ops: int64(r.sc.barrierOps)})
	d.w.Crash()

	sp = r.spans.begin("core.Open", 0, 0)
	t0 := time.Now()
	w2, err := core.Open(d.dir, core.Config{Seed: 1})
	recoverTime := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	r.set("store.recover_ms", ms(recoverTime))
	r.set("store.recover_records", float64(w2.Recovery().WALRecords))
	recovered := &deployment{w: w2, dir: d.dir}
	d.dir = "" // the recovered instance owns the directory now
	got, err := recovered.pageContents()
	if err != nil {
		return err
	}
	for title, want := range atBarrier {
		if got[title] != want && !post.acked(title, got[title]) {
			r.fail("after crash+recovery page %s holds %.60q, not its content at the flush barrier %.60q", title, got[title], want)
		}
	}
	return recovered.close()
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file vanishing under a live store is not worth failing over
	})
	return n
}

// repairs runs the repair phases, each on a deployment built for it so
// that every repetition repairs an identical history: `sparse` and
// `full` quietly, several times (fast-side quartile of the times and the
// usual re-execution counts reported; a repetition that counted
// differently is noted). A traced run makes one repetition of each and
// then repairs `full` once more with one live client working on its own
// page throughout: the online repair feeds per-layer metrics only.
func (r *runner) repairs() error {
	obs.SetEnabled(r.traced)
	defer obs.SetEnabled(false)
	r.spans.setPhase("repair")
	// The sparse repair is timed for the per-layer list only (its time
	// moved more than a tenth from run to run, see the README); what the
	// end-to-end list takes from it is a count, for which a few
	// repetitions are enough to tell the usual counts from a stray one.
	reps := map[string]int{"sparse": min(3, r.sc.reps), "full": r.sc.reps}
	if r.traced {
		reps = map[string]int{"sparse": 1, "full": 1}
	}
	times := map[string][]float64{}
	reports := map[string][]*core.Report{}
	var origExec time.Duration
	for _, variant := range []string{"sparse", "full"} {
		for i := 0; i < reps[variant]; i++ {
			d, err := r.build(variant)
			if err != nil {
				return err
			}
			before := d.w.Metrics()
			runtime.GC() // quiet repairs start from a collected heap
			sp := r.spans.begin("core.repair."+variant, 0, 0)
			t0 := time.Now()
			rep, err := r.wl.repair(d, variant)
			elapsed := time.Since(t0)
			sp.end()
			if err != nil {
				return fmt.Errorf("%s repair: %w", variant, err)
			}
			times[variant] = append(times[variant], elapsed.Seconds())
			if err := r.wl.verify(r, d, variant); err != nil {
				r.fail("%v", err)
			}
			reports[variant] = append(reports[variant], rep)
			if variant == "full" && r.traced {
				r.repairLayers(d, before, rep)
			}
			origExec = d.origExec
			if err := d.close(); err != nil {
				return err
			}
		}
	}
	usual := map[string]*core.Report{}
	for _, variant := range []string{"sparse", "full"} {
		rep, odd := usualReport(reports[variant])
		usual[variant] = rep
		if odd > 0 {
			// Not a failure of the repair (verify passed): parallel repair
			// workers now and then settle a few items differently. Say so.
			r.note("%s repair: %d of %d repetitions re-executed different counts from the usual ones below", variant, odd, len(reports[variant]))
		}
		r.set("core.repair.reexec_visits."+variant, float64(rep.PageVisitsReplayed))
		r.set("core.repair.reexec_runs."+variant, float64(rep.AppRunsReexecuted))
		r.set("core.repair.reexec_queries."+variant, float64(rep.QueriesReexecuted))
		r.note("%s repair: %s; times %.3f s", variant, counts(rep), times[variant])
	}
	r.set("repair_s.full", fastTime(times["full"]))
	r.set("core.repair.sparse_ms", 1000*fastTime(times["sparse"]))
	r.set("reexec_frac.sparse", float64(usual["sparse"].QueriesReexecuted)/math.Max(1, float64(usual["sparse"].TotalQueries)))
	r.set("core.repair.orig_exec_ms", ms(origExec))

	if r.traced {
		return r.onlineRepair()
	}
	return nil
}

// onlineRepair repairs `full` with one live client paced on its own page
// or post throughout.
func (r *runner) onlineRepair() error {
	d, err := r.build("full")
	if err != nil {
		return err
	}
	stream, err := prepare(r.wl.live(r, d), d.cookie)
	if err != nil {
		return err
	}
	h := d.handler()
	tg := &target{handler: func(int) http.Handler { return h }}
	stop, done := make(chan struct{}), make(chan phase, 1)
	go func() { done <- r.run(tg, stream, new(cursor), 1, r.wl.liveRate, limit{stop: stop}) }()
	before := d.w.Metrics()
	sp := r.spans.begin("core.repair.online", 0, 0)
	_, err = r.wl.repair(d, "full")
	sp.end()
	close(stop)
	ph := <-done
	if err != nil {
		return fmt.Errorf("online repair: %w", err)
	}
	if err := r.wl.verify(r, d, "full"); err != nil {
		r.fail("online: %v", err)
	}
	pct, tail := stats.Tail(ph.lat)
	r.set("load.live_p99_ms", tail)
	r.set("core.repair.live_queued", float64(d.w.Metrics().Obs.Sub(before.Obs).Counter("warp_core_live_writes_queued_total")))
	r.note("online repair: live client at %.0f ops/s, %d samples, tail reported at p%.0f", r.wl.liveRate, len(ph.lat), pct)
	return d.close()
}

// usualReport picks, from the repetitions of one repair, a report whose
// counts are the most common ones, and says how many repetitions differed
// from it.
func usualReport(reps []*core.Report) (usual *core.Report, odd int) {
	seen := map[string]int{}
	for _, rep := range reps {
		seen[counts(rep)]++
		if usual == nil || seen[counts(rep)] > seen[counts(usual)] {
			usual = rep
		}
	}
	return usual, len(reps) - seen[counts(usual)]
}

// counts renders the part of a repair report that should repeat exactly.
// Re-executed and cancelled runs are summed: with parallel repair workers
// the browser-replayed full repair settles a handful of runs one way or
// the other depending on scheduling, and only their sum is exact.
func counts(rep *core.Report) string {
	return fmt.Sprintf("visits %d/%d, runs re-executed or cancelled %d/%d, queries %d/%d",
		rep.PageVisitsReplayed, rep.TotalPageVisits, rep.AppRunsReexecuted+rep.RunsCancelled, rep.TotalAppRuns,
		rep.QueriesReexecuted, rep.TotalQueries)
}

// summary is a run's outcome.
type summary struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	Ledger    []ledgerRow       `json:"ledger,omitempty"`
	Seconds   float64           `json:"wall_s"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload executes one workload and renders the metrics its mode
// reports: every end-to-end metric untraced, every per-layer one traced.
func runWorkload(wl *workload, sc scale, seed int64, traced bool, tmp string) (*summary, error) {
	r := &runner{wl: wl, sc: sc, seed: seed, traced: traced, clients: clientCount(), tmp: tmp, metrics: map[string]float64{}}
	t0 := time.Now()
	if err := r.execute(); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	s := &summary{Workload: wl.name, Seed: seed, Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: map[string]metric{}, Notes: r.notes, Ledger: r.ledger, Seconds: time.Since(t0).Seconds()}
	s.Correct = s.Failed == 0
	defs := endToEnd
	if traced {
		s.Trace, defs = 1, perLayer
		meta := map[string]any{"workload": wl.name, "seed": seed, "machine": machineRecord()}
		if err := r.spans.write(traceFile(wl.name), meta); err != nil {
			return nil, err
		}
	}
	for _, def := range defs {
		v, ok := r.metrics[def.name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", wl.name, def.name)
		}
		s.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "warpload: %s: FAILED: %s\n", wl.name, f)
	}
	return s, nil
}
