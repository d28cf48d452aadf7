package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"warp/internal/httpd"
)

// span is one benchmark-side trace span: recorded from the benchmark's
// own files around the calls into each layer, kept in memory, written
// out when the run ends. Spans of one request share its Req identifier.
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase,omitempty"` // the load phase it ended in
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// maxSpans caps what one run keeps (and writes): a saturated phase makes
// spans far faster than anyone will read them. Sums and counts used for
// the ledger are kept exactly regardless.
const maxSpans = 200000

// spanLog collects spans. A nil *spanLog records nothing, so untraced
// runs call the same code.
type spanLog struct {
	origin time.Time

	nextID atomic.Int64

	mu      sync.Mutex
	phase   string
	spans   []span
	dropped int64
	sum     map[spanKey]time.Duration
	count   map[spanKey]int64
}

// spanKey indexes the per-phase aggregates.
type spanKey struct{ phase, name string }

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), sum: map[spanKey]time.Duration{}, count: map[spanKey]int64{}}
}

type openSpan struct {
	log   *spanLog
	s     span
	start time.Time
}

func (l *spanLog) begin(name string, parent, req int64) openSpan {
	if l == nil {
		return openSpan{}
	}
	now := time.Now()
	return openSpan{log: l, start: now, s: span{Name: name, ID: l.nextID.Add(1), Parent: parent, Req: req, Start: int64(now.Sub(l.origin))}}
}

func (o openSpan) end() {
	if o.log == nil {
		return
	}
	d := time.Since(o.start)
	o.s.End = o.s.Start + int64(d)
	o.log.add(o.s, d)
}

func (l *spanLog) add(s span, d time.Duration) {
	l.mu.Lock()
	s.Phase = l.phase
	l.sum[spanKey{s.Phase, s.Name}] += d
	l.count[spanKey{s.Phase, s.Name}]++
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// mean is the mean duration of the named spans that ended in a phase.
func (l *spanLog) mean(phase, name string) time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := spanKey{phase, name}
	if l.count[k] == 0 {
		return 0
	}
	return l.sum[k] / time.Duration(l.count[k])
}

// setPhase names the load phase that spans ending from now on belong to;
// aggregates are kept per phase.
func (l *spanLog) setPhase(name string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.phase = name
	l.mu.Unlock()
}

// write stores the spans as JSON for a trace viewer or a script.
func (l *spanLog) write(path string, meta map[string]any) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	meta["dropped"] = l.dropped
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedClient is one client goroutine's view of a traced deployment:
// its own Adapter whose handler wraps HandleRequest in a child span of
// the ServeHTTP span around it.
type tracedClient struct {
	log     *spanLog
	adapter httpd.Adapter
	cur     openSpan // the ServeHTTP span in flight
}

func newTracedClient(log *spanLog, handle httpd.HandlerFunc) *tracedClient {
	c := &tracedClient{log: log}
	c.adapter.Handler = func(req *httpd.Request) *httpd.Response {
		sp := log.begin("core.HandleRequest", c.cur.s.ID, c.cur.s.Req)
		resp := handle(req)
		sp.end()
		return resp
	}
	return c
}

func (c *tracedClient) ServeHTTP(w http.ResponseWriter, hr *http.Request) {
	c.cur = c.log.begin("httpd.ServeHTTP", 0, 0)
	c.cur.s.Req = c.cur.s.ID
	c.adapter.ServeHTTP(w, hr)
	c.cur.end()
}
