package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/core"
)

// target is where a phase sends its requests: the WARP deployment, or
// its plain twin.
type target struct {
	// handler returns the entry point a client goroutine calls. Traced
	// runs hand each client its own span-recording adapter.
	handler func(client int) http.Handler
	// served, when set, counts requests: it is what the background
	// history GC watches.
	served *atomic.Int64
	// track, when set, sees every accepted response (acknowledged writes
	// are what the correctness checks hold the database to).
	track func(p *pop, j int, rw *respWriter)
}

// limit bounds a phase by operation count, by wall time, or by a stop
// signal; the zero value of a field leaves that bound off.
type limit struct {
	ops   int64
	until time.Time
	stop  <-chan struct{}
}

func (l limit) reached(i int64) bool {
	if l.ops > 0 && i >= l.ops {
		return true
	}
	if !l.until.IsZero() && !time.Now().Before(l.until) {
		return true
	}
	if l.stop != nil {
		select {
		case <-l.stop:
			return true
		default:
		}
	}
	return false
}

// phase is what one load phase measured.
type phase struct {
	ops, reqs, failed int64
	elapsed           time.Duration
	lat, late         []float64 // ms per request / per op; paced phases only
}

func (p *phase) perSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.reqs) / p.elapsed.Seconds()
}

// add folds another phase's counts, time and samples into p.
func (p *phase) add(o phase) {
	p.ops += o.ops
	p.reqs += o.reqs
	p.failed += o.failed
	p.elapsed += o.elapsed
	p.lat, p.late = append(p.lat, o.lat...), append(p.late, o.late...)
}

// cursor hands out stream positions; alternating slices share one so
// that both sides walk the same stream in step.
type cursor struct{ next atomic.Int64 }

// run drives a stream at a target from `clients` goroutines. With
// rate == 0 the loop is closed: each client sends its next operation
// when the previous one completes. With rate > 0 (operations per
// second) it is open: operation i is due at start + i/rate whatever the
// system does, each request's latency is timed from when it was due (a
// form's POST is due when its GET returns), and how late the generator
// itself ran is reported alongside.
func (r *runner) run(tg *target, stream []pop, cur *cursor, clients int, rate float64, lim limit) phase {
	var (
		mu    sync.Mutex
		total phase
		wg    sync.WaitGroup
		done  atomic.Int64 // ops handed out in this phase
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, rw := tg.handler(c), newRespWriter()
			var mine phase
			for {
				i := done.Add(1) - 1
				if lim.reached(i) {
					break
				}
				p := &stream[int(cur.next.Add(1)-1)%len(stream)]
				due := start
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					waitUntil(due)
					mine.late = append(mine.late, ms(time.Since(due)))
				}
				mine.ops++
				for j := range p.reqs {
					issue(h, rw, &p.reqs[j])
					now := time.Now()
					mine.reqs++
					ok := accepted(p.reqs[j].spec, rw)
					if rate > 0 {
						mine.lat = append(mine.lat, ms(now.Sub(due)))
						due = now
					}
					if !ok {
						mine.failed++
						r.describe("%s %s: status %d, body %.80q", p.reqs[j].spec.Method, p.reqs[j].spec.URL, rw.status, rw.body)
						break
					}
					if tg.track != nil {
						tg.track(p, j, rw)
					}
				}
				if tg.served != nil {
					tg.served.Add(int64(len(p.reqs)))
				}
			}
			mu.Lock()
			total.add(mine)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	sort.Float64s(total.lat)
	sort.Float64s(total.late)
	r.attempted.Add(total.reqs)
	r.failed.Add(total.failed)
	return total
}

// waitUntil sleeps to just before t and then yields until t: timer
// wake-ups alone are tens of microseconds late, which at these request
// rates would be most of the latency being measured.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 200*time.Microsecond {
		time.Sleep(d - 100*time.Microsecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// historyGC bounds history the way a deployment does: every `every`
// served requests a background goroutine calls Warp.GC up to the current
// logical time. Its stalls (GC holds the deployment's log mutex) are part
// of what the paced phase's tail sees.
type historyGC struct {
	stop, done chan struct{}
	halted     sync.Once
	pauses     []float64 // ms
	err        error
}

func (r *runner) startHistoryGC(w *core.Warp, served *atomic.Int64, every int64) *historyGC {
	g := &historyGC{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		next := served.Load() + every
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			if served.Load() < next {
				continue
			}
			next += every
			sp := r.spans.begin("core.GC", 0, 0)
			t0 := time.Now()
			if err := w.GC(w.Clock.Now()); err != nil && g.err == nil {
				g.err = fmt.Errorf("history GC: %w", err)
			}
			g.pauses = append(g.pauses, ms(time.Since(t0)))
			sp.end()
		}
	}()
	return g
}

// halt stops the GC goroutine and waits for it; calling it again only
// returns the error again.
func (g *historyGC) halt() error {
	g.halted.Do(func() { close(g.stop) })
	<-g.done
	return g.err
}
