// Run, query, and page-visit re-execution: the repair controller's
// replay layer. These handlers run on the repair goroutine, beside live
// requests; shared session state is guarded by session.mu, database
// access by ttdb's per-table locks, and graph access by the graph's own
// lock.
package core

import (
	"errors"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/merge"
	"warp/internal/sqldb"
	"warp/internal/ttdb"
)

// book adds to one layer's total the time since t0 that calls nested
// under it have not booked already — they advance *booked past before —
// and books it in turn. A caller finds its own share from this call-local
// tally, so the layers' shares partition the repair's wall time.
func (rs *session) book(layer *atomic.Int64, t0 time.Time, before time.Duration, booked *time.Duration) {
	d := time.Since(t0) - (*booked - before)
	layer.Add(int64(d))
	*booked += d
}

//
// Query re-checking and re-execution (§4)
//

func (rs *session) processQuery(it *workItem) error {
	act := rs.w.Graph.Get(it.action)
	if act == nil {
		return nil
	}
	payload := act.Payload.(*QueryPayload)
	if payload.Superseded.Load() {
		return nil
	}
	// If the owning run is itself queued, its re-execution covers this
	// query.
	if rs.sched.isPending(runKeyOf(payload.RunAction)) {
		return nil
	}
	rec := payload.Rec

	// The write branch below overwrites *rec; the copy keeps the old
	// outcome (a recorded Result is never written, so sharing it is safe).
	old := *rec
	// A read's record is not written here: a visit replay may be serving
	// it to the run that issued it (serveRecorded). A merged write's
	// parameters reach its record with the re-executed record below.
	params := rs.mergeLiveText(rec, rec.Params)
	rs.tracef("qcheck t=%d kind=%s sql=%.60s", rec.Time, rec.Kind, rec.SQL)
	cs, err := rs.w.DB.Prepare(rec.SQL)
	if err != nil {
		return fmt.Errorf("warp: re-executing %q: %w", rec.SQL, err)
	}
	_, newRec, n, err := rs.reExec(cs, params, rec.Time, origForReExec(rec), new(time.Duration))
	rs.markQuery(act.ID, n)
	if err != nil && newRec == nil {
		return fmt.Errorf("warp: re-executing %q: %w", rec.SQL, err)
	}
	if rec.IsWrite() {
		// Re-applied write: the re-executed record replaces the original
		// *in place*, so the query action and the owning run record (which
		// share the pointer) both see the repaired-timeline state, and the
		// action's identity is stable, which bounds reprocessing. Newly
		// touched partitions are indexed onto the same action.
		*rec = *newRec
		var ins, outs []history.Dep
		for _, p := range rec.ReadPartitions {
			ins = append(ins, history.Dep{Node: rs.w.partNode(p), Time: rec.Time})
		}
		for _, p := range rec.WritePartitions {
			outs = append(outs, history.Dep{Node: rs.w.partNode(p), Time: rec.Time})
		}
		rs.w.Graph.AddDeps(act.ID, ins, outs)
	}
	if !newRec.SameOutcome(&old) {
		// The query's observable result changed: the application run that
		// issued it may behave differently (§4, §7).
		rs.passChanges.Add(1)
		if runAct := rs.w.Graph.Get(payload.RunAction); runAct != nil {
			rs.enqueueRun(runAct)
		}
	}
	return nil
}

// mergeLiveText reconciles a live write logged during this repair with
// a concurrent repair of the same row (docs/repair.md "Online repair").
// When the record is a mergeable UPDATE — one row, one text column —
// and the repair generation holds a different value for that row than
// the one the live writer overwrote, the two edits are three-way merged
// (the live write's pre-image as base, the repaired value as theirs,
// the live parameter as ours) and the merged text replaces the write's
// parameter. The merge is computed once and memoized per write
// (session.mergedLive): the owning run's replay re-derives the raw
// request parameters on every pass, so without the memo the merged and
// raw values would alternate and the fixpoint could not converge. A
// conflicting merge keeps the live write unchanged: last-writer-wins,
// the same outcome exclusive repair would produce by replaying the
// write after the repaired state. Records from before the session never
// merge, so repair of historical timelines is untouched.
func (rs *session) mergeLiveText(orig *ttdb.Record, params []sqldb.Value) []sqldb.Value {
	if orig == nil || orig.Time <= rs.liveSince {
		return params
	}
	info, ok := rs.w.DB.MergeableUpdate(orig)
	if !ok || info.ParamIdx >= len(params) || params[info.ParamIdx].Kind != sqldb.KindText {
		return params
	}
	key := fmt.Sprintf("%s\x00%s\x00%d", orig.Table, orig.WriteRowIDs[0].Key(), orig.Time)
	rs.mu.Lock()
	merged, seen := rs.mergedLive[key]
	rs.mu.Unlock()
	if !seen {
		if !orig.HasPreImage {
			return params
		}
		theirs, ok := rs.w.DB.RepairValueBefore(info, orig.WriteRowIDs[0], orig.Time)
		if !ok {
			return params
		}
		base, ours := orig.PreImage, params[info.ParamIdx].Str
		if theirs == base || theirs == ours {
			// The repair did not change the row the live writer saw (or
			// both sides agree): the write as recorded is already correct.
			return params
		}
		var clean bool
		merged, clean = merge.Merge(base, theirs, ours)
		if !clean {
			mergeConflicts.Inc()
			rs.tracef("merge conflict t=%d table=%s row kept live value", orig.Time, orig.Table)
			return params
		}
		rs.mu.Lock()
		rs.mergedLive[key] = merged
		rs.mu.Unlock()
		liveWritesMerged.Inc()
		rs.tracef("merged live write t=%d table=%s", orig.Time, orig.Table)
	}
	out := append([]sqldb.Value{}, params...)
	out[info.ParamIdx] = sqldb.Text(merged)
	return out
}

// reExec re-executes one statement at time t in the repair generation
// and files the dirt of what it changed. It returns the dirt number
// current when the execution began, read before it (settledLocked).
func (rs *session) reExec(cs *sqldb.CachedStmt, params []sqldb.Value, t int64, orig *ttdb.Record, booked *time.Duration) (*sqldb.Result, *ttdb.Record, int64, error) {
	n := rs.dirtSeq.Load()
	t0 := time.Now()
	res, rec, err := rs.w.DB.ReExecPrepared(cs, params, t, orig)
	rs.book(&rs.tDB, t0, *booked, booked)
	var ce *ttdb.ChangedError
	switch {
	case rec != nil && rec.IsWrite():
		rs.addDirt(rec.WritePartitions, t)
	case errors.As(err, &ce):
		rs.addDirt(ce.Changed, t)
	}
	return res, rec, n, err
}

// serveRecorded serves a query a re-executed run re-issues from its
// record orig, without entering the database, when the query would do and
// return what it recorded: it is a read or a write (INSERT, UPDATE,
// DELETE) of a table that recorded a result and no error, params equal
// the recorded ones kind for kind and value for value, it was logged no
// later than this session began (liveSince, as mergeLiveText counts it:
// a live query saw the current generation, not this one), and nothing it
// depends on changed (recordClean). A served write mutates nothing, so
// it files no dirt: the versions it recorded are the ones it would write
// again, into the row IDs it recorded. The copy runs in this session's generation and shares orig's
// Result, which is never written (ttdb.Record). The dirt number is read
// before the check, so a change filed after it leaves the query
// unsettled (settledLocked) exactly as if it had executed then. It
// returns nil when the query must execute.
func (rs *session) serveRecorded(orig *ttdb.Record, params []sqldb.Value) (*ttdb.Record, int64) {
	if orig == nil || (orig.Kind != ttdb.KindRead && !orig.IsWrite()) || orig.Table == "" ||
		orig.ErrText != "" || orig.Result == nil || orig.Time > rs.liveSince || !slices.Equal(orig.Params, params) {
		return nil, 0
	}
	n := rs.dirtSeq.Load()
	if !rs.recordClean(orig) {
		return nil, 0
	}
	rec := *orig
	rec.Gen = rs.gen
	return &rec, n
}

// origForReExec passes the original record for write re-execution (two-
// phase re-execution needs the original write set); reads re-execute
// standalone.
func origForReExec(rec *ttdb.Record) *ttdb.Record {
	if rec.IsWrite() {
		return rec
	}
	return nil
}

//
// Run re-execution (§3.3)
//

func (rs *session) processRun(it *workItem) error {
	act := rs.w.Graph.Get(it.action)
	if act == nil {
		return nil
	}
	payload := act.Payload.(*RunPayload)
	if payload.Superseded.Load() {
		return nil
	}
	// The recorded request is immutable (httpd.Request), so it re-executes
	// as it is.
	_, err := rs.executeRun(act, payload.Rec.Req, new(time.Duration))
	return err
}

// latestRun returns the most recently recorded run of an HTTP exchange —
// the run that served it, or after a repair its last re-execution — or
// nil.
func (w *Warp) latestRun(e history.Exchange) *history.Action {
	runs := w.Graph.ExchangeActions(e)
	if len(runs) == 0 {
		return nil
	}
	return runs[len(runs)-1]
}

// origRunFor resolves the original-timeline run action for an HTTP
// exchange, memoizing the first sighting (before repair appends the
// exchange's re-execution behind it).
func (rs *session) origRunFor(e history.Exchange) *history.Action {
	rs.mu.Lock()
	id, ok := rs.origRuns[e]
	rs.mu.Unlock()
	if ok {
		return rs.w.Graph.Get(id)
	}
	run := rs.w.latestRun(e)
	if run == nil {
		return nil
	}
	rs.mu.Lock()
	rs.origRuns[e] = run.ID
	rs.mu.Unlock()
	return run
}

// runClean reports whether a recorded run would re-execute identically:
// same code versions and every query clean (recordClean).
func (rs *session) runClean(payload *RunPayload) bool {
	if payload.Superseded.Load() {
		return false
	}
	for _, f := range payload.Rec.FilesLoaded {
		if rs.w.Runtime.FileVersion(f) != payload.FileVersions[f] {
			return false
		}
	}
	for _, q := range payload.Rec.Queries {
		if !rs.recordClean(q) {
			return false
		}
	}
	return true
}

// executeRun re-executes one application run in the repair generation,
// re-matching its queries, undoing writes it no longer performs, and
// cascading to the browser when its response changed. Returns the new
// response.
func (rs *session) executeRun(origAct *history.Action, req *httpd.Request, booked *time.Duration) (*httpd.Response, error) {
	origPayload := origAct.Payload.(*RunPayload)
	orig := origPayload.Rec
	node := origAct.Exchange
	// Remember the original mapping before it is overwritten.
	rs.mu.Lock()
	if _, ok := rs.origRuns[node]; !ok {
		rs.origRuns[node] = origAct.ID
	}
	prev := rs.served[node]
	rs.mu.Unlock()
	// Every re-execution matches against the original run, so one this
	// session already made is undone here, or its writes would outlive it.
	if prev != nil && prev.run != 0 && prev.run != origAct.ID {
		rs.undoRun(rs.w.Graph.Get(prev.run).Payload.(*RunPayload), req.ClientID, req.VisitID)
	}

	file, ok := rs.w.Runtime.RouteOf(req.Path)
	if !ok {
		return httpd.NotFound("no route for " + req.Path), nil
	}

	matcher := newQueryMatcher(orig.Queries)
	lastTime := origAct.Time
	ns := make([]int64, 0, len(orig.Queries)) // per recorded query, for noteRun
	qf := func(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error) {
		cs, err := rs.w.DB.Prepare(sql)
		if err != nil {
			return nil, nil, err
		}
		// Match against the original run's queries by normalized SQL text
		// (records store the parsed statement's canonical form, which the
		// cached handle carries without re-rendering).
		origRec := matcher.match(cs.Canonical())
		var t int64
		if origRec != nil {
			t = origRec.Time
			// A replayed live write re-derives its raw request parameters;
			// re-apply (or compute) the three-way merge with the repaired
			// row so the run-level replay preserves both sides too.
			params = rs.mergeLiveText(origRec, params)
		} else {
			// A brand-new query: give it a fresh slot just after the
			// previous query of this run (the clock strides leave room).
			lastTime++
			t = lastTime
		}
		if rec, n := rs.serveRecorded(origRec, params); rec != nil {
			lastTime = t
			ns = append(ns, n)
			return rec.Result, rec, nil
		}
		res, newRec, n, err := rs.reExec(cs, params, t, origRec, booked)
		if newRec != nil {
			lastTime = newRec.Time
			ns = append(ns, n)
			if newRec.IsWrite() {
				rs.tracef("  run-query write t=%d sql=%.60s", t, sql)
			}
		}
		return res, newRec, err
	}

	t0, before := time.Now(), *booked
	newRec, err := rs.w.Runtime.Run(file, req, qf, orig)
	rs.book(&rs.tApp, t0, before, booked)
	if err != nil {
		return nil, err
	}
	rs.markRun(origAct.ID)

	// Undo the effects of original queries the new code no longer issues
	// (e.g. the attack's writes, §2.2).
	for _, rec := range matcher.unconsumedWrites() {
		if err := rs.rollbackWrite(rec, booked); err != nil {
			return nil, err
		}
	}

	// The original run and its queries no longer describe the timeline.
	rs.retire(origPayload)
	run := rs.w.recordRun(newRec, true)
	rs.noteRun(run, ns)

	// Cascade to the browser if the client-visible response changed (§5).
	if orig.Resp != nil && newRec.Resp != nil && !orig.Resp.Equal(newRec.Resp) {
		rs.tracef("run %s %s changed response (visit %s/%d)", req.Method, req.Path, orig.Req.ClientID, orig.Req.VisitID)
		rs.cascadeToBrowser(orig.Req)
	}
	rs.mu.Lock()
	rs.served[node] = &servedEntry{req: req, resp: newRec.Resp, run: run}
	rs.mu.Unlock()
	return newRec.Resp, nil
}

// cascadeToBrowser queues the page visit that received a changed response,
// or queues a conflict when the client has no extension log (§2.3).
func (rs *session) cascadeToBrowser(req *httpd.Request) {
	if req.ClientID == "" {
		rs.addConflict(browser.Conflict{
			Kind:   browser.ConflictNoLog,
			Client: req.ClientID,
			Detail: fmt.Sprintf("response to %s %s changed but the client has no extension log", req.Method, req.Path),
		})
		return
	}
	rs.w.mu.Lock()
	vlog := rs.w.visitByID[req.ClientID][req.VisitID]
	rs.w.mu.Unlock()
	if vlog == nil {
		rs.addConflict(browser.Conflict{
			Kind:    browser.ConflictNoLog,
			Client:  req.ClientID,
			VisitID: req.VisitID,
			Detail:  "changed response for a visit with no uploaded log",
		})
		return
	}
	rs.enqueueVisit(vlog)
}

// rollbackWrite undoes one recorded write query.
func (rs *session) rollbackWrite(rec *ttdb.Record, booked *time.Duration) error {
	if len(rec.WriteRowIDs) == 0 {
		rs.addDirt(rec.WritePartitions, rec.Time)
		return nil
	}
	rs.tracef("rollback write t=%d table=%s rows=%d sql=%.60s", rec.Time, rec.Table, len(rec.WriteRowIDs), rec.SQL)
	t0 := time.Now()
	sp := rs.obsTrace.Begin("rollback")
	dirt, err := rs.w.DB.RollbackRows(rec.Table, rec.WriteRowIDs, rec.Time)
	sp.End()
	rs.book(&rs.tDB, t0, *booked, booked)
	if err != nil {
		rs.addDirt(dirt, rec.Time) // the rows it reverted before failing
		return err
	}
	rs.addDirt(append(dirt, rec.WritePartitions...), rec.Time)
	return nil
}

// cancelExchange undoes the application run behind one HTTP exchange.
func (rs *session) cancelExchange(clientID string, visitID, requestID int64) {
	rs.tracef("cancel exchange %s/%d/%d", clientID, visitID, requestID)
	act := rs.origRunFor(history.Exchange{Client: clientID, Visit: visitID, Request: requestID})
	if act == nil {
		return
	}
	rs.cancelRun(act.Payload.(*RunPayload), clientID, visitID)
}

// cancelRun undoes one recorded application run and counts it cancelled.
// Shared by exchange cancellation (UndoVisit, dropped replay requests)
// and partition cancellation (UndoPartition).
func (rs *session) cancelRun(payload *RunPayload, clientID string, visitID int64) {
	if rs.undoRun(payload, clientID, visitID) {
		rs.mu.Lock()
		rs.rep.RunsCancelled++
		rs.mu.Unlock()
	}
}

// undoRun rolls back a run's writes and takes the run and its queries
// off the repaired timeline; false when it was off already.
func (rs *session) undoRun(payload *RunPayload, clientID string, visitID int64) bool {
	if payload.Superseded.Load() {
		return false
	}
	for _, q := range payload.Rec.Queries {
		if q.IsWrite() {
			if err := rs.rollbackWrite(q, new(time.Duration)); err != nil {
				// Rollback beyond the GC horizon is the only failure here;
				// surface it as a conflict rather than wedging repair.
				rs.addConflict(browser.Conflict{
					Kind: browser.ConflictNoLog, Client: clientID, VisitID: visitID,
					Detail: fmt.Sprintf("cannot undo %q: %v", q.SQL, err),
				})
			}
		}
	}
	rs.retire(payload)
	return true
}

// retire takes a run and its queries off the repaired timeline.
func (rs *session) retire(payload *RunPayload) {
	payload.Superseded.Store(true)
	for _, qid := range payload.QueryActions {
		if qa := rs.w.Graph.Get(qid); qa != nil {
			qa.Payload.(*QueryPayload).Superseded.Store(true)
		}
	}
}

// cancelVisitTree deep-cancels a visit that no longer happens in the
// repaired timeline, including the visits it spawned.
func (rs *session) cancelVisitTree(log *browser.VisitLog) {
	rs.tracef("cancel visit tree %s/%d url=%s", log.ClientID, log.VisitID, log.URL)
	for _, tr := range log.Snapshot().Requests {
		rs.cancelExchange(log.ClientID, log.VisitID, tr.RequestID)
	}
	rs.w.mu.Lock()
	children := append([]*browser.VisitLog{}, rs.w.childVisits(log.ClientID, log.VisitID)...)
	rs.w.mu.Unlock()
	for _, c := range children {
		rs.cancelVisitTree(c)
	}
}

//
// Browser re-execution (§5.3)
//

// repairTransport serves HTTP requests from replayed browsers: it prunes
// unchanged requests and re-executes affected runs in the repair
// generation.
func (rs *session) repairTransport(req *httpd.Request, booked *time.Duration) *httpd.Response {
	node := exchangeOf(req)
	rs.mu.Lock()
	e, ok := rs.served[node]
	rs.mu.Unlock()
	if ok && e.req.Equal(req) {
		return e.resp
	}
	origAct := rs.origRunFor(node)
	if origAct == nil {
		// A request with no original counterpart: fresh execution.
		return rs.freshRun(req, booked)
	}
	payload := origAct.Payload.(*RunPayload)
	if req.Equal(payload.Rec.Req) && rs.runClean(payload) {
		// Identical request, unaffected run: reuse the original response
		// (§5.3 pruning).
		return payload.Rec.Resp
	}
	resp, err := rs.executeRun(origAct, req, booked)
	if err != nil {
		return httpd.ServerError(err.Error())
	}
	return resp
}

// freshRun executes a request that never happened in the original
// timeline (e.g. a patched page newly navigating somewhere).
func (rs *session) freshRun(req *httpd.Request, booked *time.Duration) *httpd.Response {
	file, ok := rs.w.Runtime.RouteOf(req.Path)
	if !ok {
		return httpd.NotFound("no route for " + req.Path)
	}
	lastTime := rs.w.Clock.Now()
	var ns []int64 // per recorded query, for noteRun
	qf := func(sql string, params []sqldb.Value) (*sqldb.Result, *ttdb.Record, error) {
		lastTime++
		cs, err := rs.w.DB.Prepare(sql)
		if err != nil {
			return nil, nil, err
		}
		res, rec, n, err := rs.reExec(cs, params, lastTime, nil, booked)
		if rec != nil {
			ns = append(ns, n)
		}
		return res, rec, err
	}
	t0, before := time.Now(), *booked
	rec, err := rs.w.Runtime.Run(file, req, qf, nil)
	rs.book(&rs.tApp, t0, before, booked)
	if err != nil {
		return httpd.ServerError(err.Error())
	}
	rs.markRun(history.ActionID(-rs.nextSeq())) // fresh runs get synthetic ids
	rs.noteRun(rs.w.recordRun(rec, true), ns)
	rs.mu.Lock()
	rs.served[exchangeOf(req)] = &servedEntry{req: req, resp: rec.Resp}
	rs.mu.Unlock()
	return rec.Resp
}

func (rs *session) processVisit(it *workItem) error {
	rs.w.mu.Lock()
	vlog := rs.w.visitByID[it.client][it.visit]
	rs.w.mu.Unlock()
	if vlog == nil {
		return nil
	}
	vlog = vlog.Snapshot()
	key := fmt.Sprintf("v:%s/%d", it.client, it.visit)
	rs.mu.Lock()
	rs.activeVisit[key] = true
	if !rs.doneVisits[key] {
		rs.doneVisits[key] = true
		rs.rep.PageVisitsReplayed++
	}
	// The clone's cookie jar: the diverged replay jar if the client's
	// timeline forked earlier, else the jar recorded at visit start (§5.3).
	jar := rs.jarOverride[it.client]
	rs.mu.Unlock()
	defer func() {
		rs.mu.Lock()
		delete(rs.activeVisit, key)
		rs.mu.Unlock()
	}()
	if jar == nil {
		jar = cloneJar(vlog.Cookies)
	} else {
		jar = cloneJar(jar)
	}

	// The original main response body, for the UI-conflict hook.
	origBody := ""
	if len(vlog.Requests) > 0 {
		if act := rs.origRunFor(history.Exchange{Client: it.client, Visit: it.visit, Request: vlog.Requests[0].RequestID}); act != nil {
			if resp := act.Payload.(*RunPayload).Rec.Resp; resp != nil {
				origBody = resp.Body
			}
		}
	}

	// A parent's replay may have re-derived this visit's main request
	// (e.g. with three-way-merged form content); a stored override from an
	// earlier replay of the parent also applies to standalone re-replays.
	if !it.hasNav {
		rs.mu.Lock()
		ov, ok := rs.navOverrides[key]
		rs.mu.Unlock()
		if ok {
			it = &workItem{
				kind: it.kind, time: it.time, client: it.client, visit: it.visit,
				navMethod: ov.navMethod, navURL: ov.navURL, navForm: ov.navForm, hasNav: true,
			}
		}
	}
	var booked time.Duration // by the requests this visit's replay serves
	transport := func(req *httpd.Request) *httpd.Response { return rs.repairTransport(req, &booked) }
	var mainResp *httpd.Response
	if it.hasNav {
		req := rs.buildRequest(it.navMethod, it.navURL, it.navForm, it.client, it.visit, mainRequestID(vlog), jar)
		mainResp = transport(req)
		applyCookies(jar, mainResp)
		for i := 0; i < 4 && mainResp.Status == 303 && mainResp.Headers["Location"] != ""; i++ {
			req = rs.buildRequest("GET", mainResp.Headers["Location"], url.Values{}, it.client, it.visit, 0, jar)
			mainResp = transport(req)
			applyCookies(jar, mainResp)
		}
	}

	t0, before := time.Now(), booked
	out := browser.ReplayVisit(vlog, mainResp, origBody, jar, transport, rs.cfg)
	// Nested serve time is the DB's and the App's, the rest the browser's.
	rs.book(&rs.tBrowser, t0, before, &booked)

	rs.tracef("replayed visit %s/%d url=%s navs=%d conflicts=%d unmatched=%d", it.client, it.visit, vlog.URL, len(out.Navigations), len(out.Conflicts), len(out.UnmatchedOriginals))
	rs.setReplayConflicts(key, out.Conflicts)
	if !rs.cfg.HasLog {
		// Without the extension WARP cannot verify or undo browser-side
		// activity; the conflict above is all it can report (§2.3).
		return nil
	}

	// Original requests the replay did not re-issue are undone: this is
	// how an XSS payload's HTTP requests disappear (§2.2).
	for _, tr := range out.UnmatchedOriginals {
		rs.cancelExchange(it.client, it.visit, tr.RequestID)
	}

	// Match navigations to the original child visits.
	rs.w.mu.Lock()
	children := append([]*browser.VisitLog{}, rs.w.childVisits(it.client, it.visit)...)
	rs.w.mu.Unlock()
	usedChild := make(map[int64]bool)
	for _, nav := range out.Navigations {
		child := matchChild(children, usedChild, nav)
		if child == nil {
			// A navigation that never happened originally: execute it fresh.
			req := rs.buildRequest(nav.Method, nav.URL, nav.Form, it.client, rs.freshVisitID(), 1, out.CookiesAfter)
			resp := transport(req)
			applyCookies(out.CookiesAfter, resp)
			continue
		}
		usedChild[child.VisitID] = true
		req := rs.buildRequest(nav.Method, nav.URL, nav.Form, it.client, child.VisitID, mainRequestID(child), out.CookiesAfter)
		origAct := rs.origRunFor(exchangeOf(req))
		prunable := false
		if origAct != nil {
			p := origAct.Payload.(*RunPayload)
			prunable = req.Equal(p.Rec.Req) && rs.runClean(p) &&
				jarEqual(child.Cookies, out.CookiesAfter)
		}
		if prunable {
			rs.tracef("  nav %s %s -> child %d pruned", nav.Method, nav.URL, child.VisitID)
			continue
		}
		rs.tracef("  nav %s %s -> child %d enqueued", nav.Method, nav.URL, child.VisitID)
		item := &workItem{
			kind: workVisitReplay, time: child.Time,
			client: it.client, visit: child.VisitID,
			navMethod: nav.Method, navURL: nav.URL, navForm: nav.Form, hasNav: true,
		}
		rs.mu.Lock()
		rs.navOverrides[fmt.Sprintf("v:%s/%d", it.client, child.VisitID)] = item
		rs.mu.Unlock()
		rs.sched.push(item)
	}
	// Original children the replay no longer navigated to never happen in
	// the repaired timeline: undo their whole subtrees.
	for _, child := range children {
		if !usedChild[child.VisitID] {
			rs.cancelVisitTree(child)
		}
	}

	// Cookie divergence: if the replayed jar no longer matches the
	// original timeline, the client's later visits re-execute with the
	// new cookies (§5.3, and the CSRF recovery path of §8.2).
	rs.trackCookieDivergence(it.client, it.visit, out.CookiesAfter)
	return nil
}

// trackCookieDivergence compares the replayed jar against the recorded jar
// of the client's next visit and queues that visit when they differ. At
// the end of the client's timeline the comparison is against the jar the
// original execution ended with; a diverged final jar is queued for
// cookie invalidation (§5.3).
func (rs *session) trackCookieDivergence(client string, visitID int64, after map[string]string) {
	rs.w.mu.Lock()
	logs := rs.w.visitsOfClient(client)
	var cur, next *browser.VisitLog
	for _, v := range logs {
		if v.VisitID == visitID {
			cur = v
		}
		if v.VisitID > visitID {
			next = v
			break
		}
	}
	rs.w.mu.Unlock()
	if next == nil {
		if cur != nil && jarEqual(rs.origJarAfter(cur), after) {
			rs.setJarOverride(client, nil)
		} else {
			rs.setJarOverride(client, after)
		}
		return
	}
	if jarEqual(next.Cookies, after) {
		rs.setJarOverride(client, nil)
		return
	}
	rs.tracef("cookie divergence for %s after visit %d; queueing visit %d", client, visitID, next.VisitID)
	rs.setJarOverride(client, after)
	rs.enqueueVisit(next)
}

// setJarOverride installs (or, with a nil jar, clears) a client's diverged
// replay cookie jar.
func (rs *session) setJarOverride(client string, jar map[string]string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if jar == nil {
		delete(rs.jarOverride, client)
		return
	}
	rs.jarOverride[client] = jar
}

// origJarAfter reconstructs the cookie jar the client held after a visit
// in the original timeline, from the visit's starting jar and its
// responses' cookie changes.
func (rs *session) origJarAfter(vlog *browser.VisitLog) map[string]string {
	jar := cloneJar(vlog.Cookies)
	for _, tr := range vlog.Snapshot().Requests {
		act := rs.origRunFor(history.Exchange{Client: vlog.ClientID, Visit: vlog.VisitID, Request: tr.RequestID})
		if act == nil {
			continue
		}
		if resp := act.Payload.(*RunPayload).Rec.Resp; resp != nil {
			applyCookies(jar, resp)
		}
	}
	return jar
}

// buildRequest assembles a replay-path HTTP request.
func (rs *session) buildRequest(method, rawURL string, form url.Values, client string, visit, reqID int64, jar map[string]string) *httpd.Request {
	req := httpd.NewRequest(method, rawURL)
	if form != nil {
		req.Form = form
	}
	for k, v := range jar {
		req.Cookies[k] = v
	}
	req.ClientID = client
	req.VisitID = visit
	req.RequestID = reqID
	return req
}

// freshVisitID allocates IDs for navigations that create brand-new visits
// during repair.
func (rs *session) freshVisitID() int64 {
	return 1<<40 + rs.nextSeq()
}

// mainRequestID returns the request ID of a visit's main request.
func mainRequestID(v *browser.VisitLog) int64 {
	if reqs := v.Snapshot().Requests; len(reqs) > 0 {
		return reqs[0].RequestID
	}
	return 1
}

// matchChild finds the first unconsumed child visit matching a navigation
// by method and path.
func matchChild(children []*browser.VisitLog, used map[int64]bool, nav browser.Navigation) *browser.VisitLog {
	navPath, _ := httpd.SplitURL(nav.URL)
	for _, c := range children {
		if used[c.VisitID] {
			continue
		}
		cPath, _ := httpd.SplitURL(c.URL)
		if c.Method == nav.Method && cPath == navPath && c.IsFrame == nav.IsFrame {
			return c
		}
	}
	// Fall back to the first unconsumed child of the same frame-ness.
	for _, c := range children {
		if !used[c.VisitID] && c.IsFrame == nav.IsFrame {
			return c
		}
	}
	return nil
}

func cloneJar(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func jarEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func applyCookies(jar map[string]string, resp *httpd.Response) {
	for k, v := range resp.SetCookies {
		jar[k] = v
	}
	for _, k := range resp.ClearCookies {
		delete(jar, k)
	}
}

//
// Query matching for run re-execution
//

// queryMatcher pairs queries issued by a re-executed run with the original
// run's queries, by SQL text, in order (§3.3's in-order matching applied
// to queries).
type queryMatcher struct {
	bySQL map[string][]*ttdb.Record
	used  map[*ttdb.Record]bool
}

func newQueryMatcher(orig []*ttdb.Record) *queryMatcher {
	m := &queryMatcher{bySQL: make(map[string][]*ttdb.Record), used: make(map[*ttdb.Record]bool)}
	for _, q := range orig {
		m.bySQL[q.SQL] = append(m.bySQL[q.SQL], q)
	}
	return m
}

// match consumes and returns the next original query with the same SQL
// text, or nil.
func (m *queryMatcher) match(sql string) *ttdb.Record {
	list := m.bySQL[sql]
	for _, q := range list {
		if !m.used[q] {
			m.used[q] = true
			return q
		}
	}
	return nil
}

// unconsumedWrites returns original write queries the new execution did
// not re-issue.
func (m *queryMatcher) unconsumedWrites() []*ttdb.Record {
	var out []*ttdb.Record
	for _, list := range m.bySQL {
		for _, q := range list {
			if !m.used[q] && q.IsWrite() {
				out = append(out, q)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
