// Binary codecs for the core's durable objects: history actions with
// their run/query payloads, HTTP requests and responses, browser visit
// logs, conflicts, and repair intents. Used both for WAL records and for
// snapshot encoding (docs/persistence.md).
//
// The run/query aliasing invariant matters here: a QueryPayload's Rec
// pointer is the same object as the owning run's Rec.Queries[i], and
// repair mutates it in place. Query actions therefore encode a
// (run action, query index) reference rather than a copy, and decoding
// restores the shared pointer. Only a query whose owning run has left
// the graph (GC) encodes its record inline.
package core

import (
	"fmt"
	"net/url"
	"slices"
	"sort"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
	"warp/internal/store"
	"warp/internal/ttdb"
)

// Action payload encodings.
const (
	payloadNone        byte = 0
	payloadRun         byte = 1
	payloadQueryRef    byte = 2
	payloadQueryInline byte = 3
	payloadPatch       byte = 4
)

// encodeDeps writes an action's edges by node name — the on-disk form;
// handles are per-process. exchange is the name ExchangeNode edges take.
func encodeDeps(enc *store.Encoder, g *history.Graph, deps []history.Dep, exchange string) {
	enc.Uvarint(uint64(len(deps)))
	for _, d := range deps {
		if d.Node == history.ExchangeNode {
			enc.String(exchange)
		} else {
			enc.String(g.NodeName(d.Node))
		}
		enc.Int(d.Time)
	}
}

// decodeDeps interns the edges' node names into g; an "http:" name becomes
// an ExchangeNode edge and sets a's exchange.
func decodeDeps(dec *store.Decoder, g *history.Graph, a *history.Action) []history.Dep {
	n := dec.Count()
	out := make([]history.Dep, 0, n)
	for i := 0; i < n; i++ {
		name, t := dec.String(), dec.Int()
		if e, ok := history.ParseExchange(name); ok {
			a.Exchange = e
			out = append(out, history.Dep{Node: history.ExchangeNode, Time: t})
		} else if dec.Err() == nil {
			out = append(out, history.Dep{Node: g.Intern(name), Time: t})
		}
	}
	return out
}

func encodeStringMap(enc *store.Encoder, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		enc.String(m[k])
	}
}

func decodeStringMap(dec *store.Decoder) map[string]string {
	n := dec.Count()
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := dec.String()
		m[k] = dec.String()
	}
	return m
}

func encodeURLValues(enc *store.Encoder, v url.Values) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		vals := v[k]
		enc.Uvarint(uint64(len(vals)))
		for _, s := range vals {
			enc.String(s)
		}
	}
}

func decodeURLValues(dec *store.Decoder) url.Values {
	n := dec.Count()
	v := make(url.Values, n)
	for i := 0; i < n; i++ {
		k := dec.String()
		nv := dec.Count()
		vals := make([]string, 0, nv)
		for j := 0; j < nv; j++ {
			vals = append(vals, dec.String())
		}
		v[k] = vals
	}
	return v
}

func encodeRequest(enc *store.Encoder, r *httpd.Request) {
	if r == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.String(r.Method)
	enc.String(r.Path)
	encodeURLValues(enc, r.Query)
	encodeURLValues(enc, r.Form)
	encodeStringMap(enc, r.Cookies)
	encodeStringMap(enc, r.Headers)
	enc.String(r.ClientID)
	enc.Int(r.VisitID)
	enc.Int(r.RequestID)
}

func decodeRequest(dec *store.Decoder) *httpd.Request {
	if !dec.Bool() {
		return nil
	}
	return &httpd.Request{
		Method:    dec.String(),
		Path:      dec.String(),
		Query:     decodeURLValues(dec),
		Form:      decodeURLValues(dec),
		Cookies:   decodeStringMap(dec),
		Headers:   decodeStringMap(dec),
		ClientID:  dec.String(),
		VisitID:   dec.Int(),
		RequestID: dec.Int(),
	}
}

func encodeResponse(enc *store.Encoder, r *httpd.Response) {
	if r == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.Int(int64(r.Status))
	enc.String(r.Body)
	encodeStringMap(enc, r.Headers)
	encodeStringMap(enc, r.SetCookies)
	enc.Uvarint(uint64(len(r.ClearCookies)))
	for _, c := range r.ClearCookies {
		enc.String(c)
	}
}

func decodeResponse(dec *store.Decoder) *httpd.Response {
	if !dec.Bool() {
		return nil
	}
	r := &httpd.Response{
		Status:     int(dec.Int()),
		Body:       dec.String(),
		Headers:    decodeStringMap(dec),
		SetCookies: decodeStringMap(dec),
	}
	n := dec.Count()
	for i := 0; i < n; i++ {
		r.ClearCookies = append(r.ClearCookies, dec.String())
	}
	return r
}

func encodeRunRecord(enc *store.Encoder, r *app.RunRecord) {
	enc.Int(r.RunID)
	enc.Int(r.Time)
	enc.String(r.File)
	encodeRequest(enc, r.Req)
	encodeResponse(enc, r.Resp)
	enc.Uvarint(uint64(len(r.FilesLoaded)))
	for _, f := range r.FilesLoaded {
		enc.String(f)
	}
	enc.Uvarint(uint64(len(r.Queries)))
	for _, q := range r.Queries {
		ttdb.EncodeRecord(enc, q)
	}
	enc.Uvarint(uint64(len(r.NonDet)))
	for _, nd := range r.NonDet {
		enc.String(nd.Site)
		enc.String(nd.Value)
	}
	enc.Bool(r.Failed)
}

func decodeRunRecord(dec *store.Decoder) *app.RunRecord {
	r := &app.RunRecord{
		RunID: dec.Int(),
		Time:  dec.Int(),
		File:  dec.String(),
		Req:   decodeRequest(dec),
		Resp:  decodeResponse(dec),
	}
	n := dec.Count()
	for i := 0; i < n; i++ {
		r.FilesLoaded = append(r.FilesLoaded, dec.String())
	}
	n = dec.Count()
	for i := 0; i < n; i++ {
		r.Queries = append(r.Queries, ttdb.DecodeRecord(dec))
	}
	n = dec.Count()
	for i := 0; i < n; i++ {
		r.NonDet = append(r.NonDet, app.NonDetCall{Site: dec.String(), Value: dec.String()})
	}
	r.Failed = dec.Bool()
	return r
}

// encodeAction serializes one history action with its payload. snapshot
// selects the mode: snapshot encoding validates query-to-run references
// against the graph and carries each run's query-action list; WAL
// encoding at append time runs inside the graph's critical section, where
// the owning run is the head of the same batch, and leaves the list empty
// — the query records that follow re-link it on replay (applyWAL), so a
// batch torn by a crash recovers exactly the queries that reached disk.
func encodeAction(enc *store.Encoder, a *history.Action, g *history.Graph, snapshot bool) {
	enc.Int(int64(a.ID))
	enc.Byte(byte(a.Kind))
	enc.Int(a.Time)
	exchange := ""
	if a.Exchange != (history.Exchange{}) {
		exchange = a.Exchange.Name()
	}
	encodeDeps(enc, g, a.Inputs, exchange)
	encodeDeps(enc, g, a.Outputs, exchange)

	switch p := a.Payload.(type) {
	case *RunPayload:
		enc.Byte(payloadRun)
		encodeRunRecord(enc, p.Rec)
		files := append([]string{}, p.Rec.FilesLoaded...)
		sort.Strings(files)
		enc.Uvarint(uint64(len(files)))
		for _, f := range files {
			enc.String(f)
			enc.Int(int64(p.FileVersions[f]))
		}
		if snapshot {
			enc.Uvarint(uint64(len(p.QueryActions)))
			for _, id := range p.QueryActions {
				enc.Int(int64(id))
			}
		} else {
			enc.Uvarint(0)
		}
		enc.Bool(p.Superseded.Load())
		enc.Bool(p.Repaired)
	case *QueryPayload:
		// The record aliases the owning run's Rec.Queries[idx]; the
		// reference is valid only while that run is in the graph with this
		// payload attached (always, for the head of an append batch).
		idx, rp := -1, p.run
		if snapshot && rp != nil {
			if ra := g.Get(p.RunAction); ra == nil || ra.Payload != any(rp) {
				rp = nil
			}
		}
		if rp != nil {
			idx = slices.Index(rp.QueryActions, a.ID)
		}
		if idx >= 0 {
			enc.Byte(payloadQueryRef)
			enc.Int(int64(p.RunAction))
			enc.Uvarint(uint64(idx))
		} else {
			enc.Byte(payloadQueryInline)
			enc.Int(int64(p.RunAction))
			ttdb.EncodeRecord(enc, p.Rec)
		}
		enc.Bool(p.Superseded.Load())
		enc.Bool(p.Repaired)
	case string:
		enc.Byte(payloadPatch)
		enc.String(p)
	default:
		enc.Byte(payloadNone)
	}
}

// decodeAction rebuilds one action. Query references resolve against g,
// which must already contain the owning run (actions decode in append
// order, and runs always precede their queries). The returned
// QueryPayload, if any, still needs linking into the owning run's
// QueryActions when replaying WAL appends.
func decodeAction(dec *store.Decoder, g *history.Graph) (*history.Action, *QueryPayload, error) {
	a := &history.Action{
		ID:   history.ActionID(dec.Int()),
		Kind: history.Kind(dec.Byte()),
		Time: dec.Int(),
	}
	a.Inputs = decodeDeps(dec, g, a)
	a.Outputs = decodeDeps(dec, g, a)
	var qp *QueryPayload
	switch tag := dec.Byte(); tag {
	case payloadRun:
		p := &RunPayload{Rec: decodeRunRecord(dec), FileVersions: make(map[string]int)}
		n := dec.Count()
		for i := 0; i < n; i++ {
			f := dec.String()
			p.FileVersions[f] = int(dec.Int())
		}
		n = dec.Count()
		for i := 0; i < n; i++ {
			p.QueryActions = append(p.QueryActions, history.ActionID(dec.Int()))
		}
		p.Superseded.Store(dec.Bool())
		p.Repaired = dec.Bool()
		a.Payload = p
	case payloadQueryRef:
		qp = &QueryPayload{RunAction: history.ActionID(dec.Int())}
		idx := dec.Uvarint()
		qp.Superseded.Store(dec.Bool())
		qp.Repaired = dec.Bool()
		if dec.Err() == nil {
			ra := g.Get(qp.RunAction)
			if ra == nil {
				return nil, nil, fmt.Errorf("core: query action %d references missing run %d", a.ID, qp.RunAction)
			}
			rp, ok := ra.Payload.(*RunPayload)
			if !ok || idx >= uint64(len(rp.Rec.Queries)) {
				return nil, nil, fmt.Errorf("core: query action %d references run %d query %d out of range", a.ID, qp.RunAction, idx)
			}
			qp.Rec = rp.Rec.Queries[idx] // restore the shared pointer
			qp.run = rp
		}
		a.Payload = qp
	case payloadQueryInline:
		qp = &QueryPayload{RunAction: history.ActionID(dec.Int()), Rec: ttdb.DecodeRecord(dec)}
		qp.Superseded.Store(dec.Bool())
		qp.Repaired = dec.Bool()
		a.Payload = qp
	case payloadPatch:
		a.Payload = dec.String()
	case payloadNone:
	default:
		return nil, nil, fmt.Errorf("core: unknown action payload tag %d", tag)
	}
	if err := dec.Err(); err != nil {
		return nil, nil, err
	}
	return a, qp, nil
}

func encodeVisitLog(enc *store.Encoder, v *browser.VisitLog) {
	// The live browser grows Events/Requests in place; a background
	// (fault-fence) checkpoint can encode the shared log mid-page-load.
	v.Lock()
	defer v.Unlock()
	enc.String(v.ClientID)
	enc.Int(v.VisitID)
	enc.Int(v.ParentVisit)
	enc.Bool(v.IsFrame)
	enc.String(v.URL)
	enc.String(v.Method)
	enc.String(v.FormEncoded)
	encodeStringMap(enc, v.Cookies)
	enc.Int(v.Time)
	enc.String(v.AttackerHTML)
	enc.Uvarint(uint64(len(v.Events)))
	for _, e := range v.Events {
		enc.Byte(byte(e.Kind))
		enc.String(e.XPath)
		enc.String(e.Base)
		enc.String(e.Value)
	}
	enc.Uvarint(uint64(len(v.Requests)))
	for _, r := range v.Requests {
		enc.Int(r.RequestID)
		enc.String(r.Method)
		enc.String(r.URL)
		enc.String(r.FormEncoded)
		enc.Uvarint(r.ReqFP)
		enc.Uvarint(r.RespFP)
	}
	enc.Bool(v.Blocked)
}

func decodeVisitLog(dec *store.Decoder) *browser.VisitLog {
	v := &browser.VisitLog{
		ClientID:    dec.String(),
		VisitID:     dec.Int(),
		ParentVisit: dec.Int(),
		IsFrame:     dec.Bool(),
		URL:         dec.String(),
		Method:      dec.String(),
		FormEncoded: dec.String(),
		Cookies:     decodeStringMap(dec),
		Time:        dec.Int(),
	}
	v.AttackerHTML = dec.String()
	n := dec.Count()
	for i := 0; i < n; i++ {
		v.Events = append(v.Events, browser.Event{
			Kind:  browser.EventKind(dec.Byte()),
			XPath: dec.String(),
			Base:  dec.String(),
			Value: dec.String(),
		})
	}
	n = dec.Count()
	for i := 0; i < n; i++ {
		v.Requests = append(v.Requests, browser.RequestTrace{
			RequestID:   dec.Int(),
			Method:      dec.String(),
			URL:         dec.String(),
			FormEncoded: dec.String(),
			ReqFP:       dec.Uvarint(),
			RespFP:      dec.Uvarint(),
		})
	}
	v.Blocked = dec.Bool()
	return v
}

func encodeConflict(enc *store.Encoder, c browser.Conflict) {
	enc.Byte(byte(c.Kind))
	enc.String(c.Client)
	enc.Int(c.VisitID)
	enc.String(c.Detail)
}

func decodeConflict(dec *store.Decoder) browser.Conflict {
	return browser.Conflict{
		Kind:    browser.ConflictKind(dec.Byte()),
		Client:  dec.String(),
		VisitID: dec.Int(),
		Detail:  dec.String(),
	}
}

func encodeIntent(enc *store.Encoder, it *RepairIntent) {
	enc.Byte(byte(it.Kind))
	enc.String(it.File)
	enc.String(it.Note)
	enc.Int(it.Since)
	enc.String(it.Client)
	enc.Int(it.Visit)
	enc.Bool(it.Admin)
	enc.Bool(it.Dequeue)
	enc.String(it.Partition)
	enc.Int(it.From)
}

func decodeIntent(dec *store.Decoder) RepairIntent {
	return RepairIntent{
		Kind:      IntentKind(dec.Byte()),
		File:      dec.String(),
		Note:      dec.String(),
		Since:     dec.Int(),
		Client:    dec.String(),
		Visit:     dec.Int(),
		Admin:     dec.Bool(),
		Dequeue:   dec.Bool(),
		Partition: dec.String(),
		From:      dec.Int(),
	}
}
