package bench

import (
	"fmt"
	"time"

	"warp/internal/core"
	"warp/internal/httpd"
	"warp/internal/store"
	"warp/internal/workload"
)

// This file measures what durability costs (docs/persistence.md): the
// same request path with the WAL off (in-memory deployment), with the
// default windowed group commit, and with an fsync-awaited append.

// DurableDeployment builds the fixture on an in-memory (dir empty) or
// persistent deployment, ready to serve write requests.
func DurableDeployment(dir string, opts store.Options) (*core.Warp, error) {
	cfg := core.Config{Seed: 99, Durability: opts}
	var w *core.Warp
	var err error
	if dir == "" {
		w = core.New(cfg)
	} else if w, err = core.Open(dir, cfg); err != nil {
		return nil, err
	}
	if err := install(w, pageHandler(0)); err != nil {
		return nil, err
	}
	return w, nil
}

// ServeWrites drives n logged write requests (one INSERT plus one
// SELECT each, the §8.5 editing-path shape) and returns the total wall
// time. ids must not collide across calls on one deployment.
func ServeWrites(w *core.Warp, n, idBase int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		id := idBase + i
		resp := w.HandleRequest(httpd.NewRequest("GET",
			fmt.Sprintf("/page?owner=u%d&id=%d&body=note-%d", id%8, id, id)))
		if resp.Status != 200 {
			return 0, fmt.Errorf("bench: write request %d failed: %d", id, resp.Status)
		}
	}
	return time.Since(start), nil
}

// DurableWorkloadOverhead runs the paper's wiki workload generator
// (§8.2: all users log in, read, and edit) twice — in memory and against
// a persistent store in dir — and returns both original-execution times.
// The ratio is the WAL's end-to-end overhead on the paper's workload.
func DurableWorkloadOverhead(users int, dir string, opts store.Options) (memory, durable time.Duration, err error) {
	mem, err := workload.Run(workload.Config{Users: users, Seed: 78})
	if err != nil {
		return 0, 0, err
	}
	dur, err := workload.Run(workload.Config{Users: users, Seed: 78, DataDir: dir, Durability: opts})
	if err != nil {
		return 0, 0, err
	}
	defer dur.Env.W.Close()
	return mem.OriginalExecTime, dur.OriginalExecTime, nil
}
