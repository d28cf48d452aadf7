// The SLO throttle governor (docs/repair.md "Online repair"): paces
// repair workers against a live-request latency target.
//
// An online repair competes with normal execution for CPU and for
// table locks. Config.RepairSLO names the live p99 the operator is
// willing to trade repair speed for; while a repair drains, the governor
// samples the warp_core_request_seconds histogram on a short ticker,
// computes the p99 of each window's delta, and moves the scheduler's
// dispatch ceiling one worker at a time — down when the window's p99
// exceeds the SLO, back up when it clears 70% of it. Windows with no
// live traffic recover concurrency, so an idle deployment repairs at
// full speed. The governor is additive-increase/additive-decrease on
// purpose: repair items are short, so one-step moves converge in a few
// windows, and the floor of one worker keeps the repair always making
// progress toward its own completion.
package core

import (
	"time"
)

// throttleInterval is the governor's sampling window.
const throttleInterval = 10 * time.Millisecond

// throttleGovernor runs beside one online repair session.
type throttleGovernor struct {
	sched *scheduler
	slo   time.Duration
	stop  chan struct{}
	done  chan struct{}
}

// startThrottle launches the governor. Callers gate on RepairSLO > 0 and
// obs.Enabled() — without the request histogram there is nothing to
// read.
func startThrottle(sched *scheduler, slo time.Duration) *throttleGovernor {
	g := &throttleGovernor{sched: sched, slo: slo, stop: make(chan struct{}), done: make(chan struct{})}
	throttleLevel.Set(int64(sched.workers))
	go g.run()
	return g
}

func (g *throttleGovernor) run() {
	defer close(g.done)
	limit := g.sched.workers
	prev := requestHist.Snapshot()
	ticker := time.NewTicker(throttleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
		}
		cur := requestHist.Snapshot()
		delta := cur.Sub(prev)
		prev = cur
		next := limit
		if delta.Count == 0 {
			// No live requests completed this window: nothing to protect,
			// recover concurrency.
			if limit < g.sched.workers {
				next = limit + 1
			}
		} else {
			p99 := delta.Quantile(0.99)
			switch {
			case p99 > g.slo && limit > 1:
				next = limit - 1
			case p99 < g.slo*7/10 && limit < g.sched.workers:
				next = limit + 1
			}
		}
		if next != limit {
			limit = next
			g.sched.setWorkerLimit(limit)
			throttleLevel.Set(int64(limit))
		}
	}
}

// halt stops the governor and lifts its cap.
func (g *throttleGovernor) halt() {
	close(g.stop)
	<-g.done
	g.sched.setWorkerLimit(0)
	throttleLevel.Set(0)
}
