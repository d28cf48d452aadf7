// Package browser implements WARP's client browser simulator, the WARP
// browser extension, and the server-side re-execution browser (paper §5).
//
// The browser stands in for Firefox in the paper's prototype. It fetches
// pages through an injected transport (in-process calls into the WARP
// server), maintains a cookie jar, parses responses into DOM trees
// (internal/dom), executes page-embedded scripts, and hosts user
// interaction.
//
// The WARP extension behavior is built in: every HTTP request carries a
// ⟨client ID, visit ID, request ID⟩ tuple (§5.1), and every DOM-level user
// event — clicks, keyboard input into fields, form submissions — is
// recorded with the XPath of its target (§5.2) and uploaded to the server.
//
// Page scripts use a small command language ("warpjs") that stands in for
// JavaScript: scripts can issue GET and POST requests and perform
// read-modify-write page edits, which is exactly the capability the
// paper's XSS payloads need. Attack pages inject warpjs the way real
// attacks inject JavaScript; when a retroactive patch removes the
// injection, re-executing the page simply finds no script to run.
package browser

import (
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"strings"
	"sync"

	"warp/internal/dom"
	"warp/internal/httpd"
)

// Transport delivers one HTTP request to the server and returns its
// response. WARP's core wires this to the logging HTTP server.
type Transport func(*httpd.Request) *httpd.Response

// EventKind classifies recorded DOM-level events.
type EventKind uint8

// Event kinds.
const (
	EventInput  EventKind = iota // keyboard input into a text field
	EventClick                   // click on a link
	EventSubmit                  // form submission
	EventCheck                   // toggle a checkbox
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventInput:
		return "input"
	case EventClick:
		return "click"
	case EventSubmit:
		return "submit"
	case EventCheck:
		return "check"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one recorded DOM-level user event (§5.2).
type Event struct {
	Kind  EventKind
	XPath string // target element
	Base  string // EventInput: field value before the user's edit
	Value string // EventInput: field value after; EventCheck: "on"/"off"
}

// RequestTrace records one HTTP request issued during a page visit.
type RequestTrace struct {
	RequestID   int64
	Method      string
	URL         string
	FormEncoded string
	ReqFP       uint64 // request fingerprint
	RespFP      uint64 // response fingerprint
}

// VisitLog is the per-page-visit log the extension uploads to the server
// (§5.2): the page's identity, its frame relationship, recorded events,
// and the requests the page issued.
type VisitLog struct {
	ClientID    string
	VisitID     int64
	ParentVisit int64 // 0 when the visit did not originate from another page
	IsFrame     bool  // loaded as a sub-frame (iframe)
	URL         string
	Method      string
	FormEncoded string // main request form body, for standalone replay
	// Cookies is the browser's cookie jar when the visit started; the
	// server-side re-execution browser loads it when replaying the visit
	// standalone (§5.3).
	Cookies map[string]string
	// Time is the server's logical time when the log was uploaded; the
	// repair controller orders visit replays by it. Assigned server-side.
	Time int64
	// AttackerHTML is set for pages not served by the WARP-managed server
	// (the attacker's own site): the browser records the page content so
	// the visit can be re-executed. Server-hosted pages leave this empty.
	AttackerHTML string
	Events       []Event
	Requests     []RequestTrace
	Blocked      bool // frame load was refused (X-Frame-Options)

	// mu guards Events and Requests, which the browser grows in place
	// after the log was uploaded (the in-process §5.2 model: the server
	// holds the shared object and re-reads it on periodic re-sync). The
	// persistence layer's background checkpoints can encode the log
	// concurrently with a page load, so growth and encode serialize
	// through Lock/Unlock.
	mu sync.Mutex
}

// Lock takes the log's growth lock; see the mu field.
func (v *VisitLog) Lock() { v.mu.Lock() }

// Unlock releases the log's growth lock.
func (v *VisitLog) Unlock() { v.mu.Unlock() }

// ReplaceWith copies src's contents into v in place, preserving v's
// pointer identity (and lock): recovery's visit-log upsert refreshes
// the object the per-client stores already hold. src must not be
// shared with a live browser.
func (v *VisitLog) ReplaceWith(src *VisitLog) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ClientID = src.ClientID
	v.VisitID = src.VisitID
	v.ParentVisit = src.ParentVisit
	v.IsFrame = src.IsFrame
	v.URL = src.URL
	v.Method = src.Method
	v.FormEncoded = src.FormEncoded
	v.Cookies = src.Cookies
	v.Time = src.Time
	v.AttackerHTML = src.AttackerHTML
	v.Events = src.Events
	v.Requests = src.Requests
	v.Blocked = src.Blocked
}

// Snapshot returns a copy of the log as recorded so far. A repair reads
// the snapshot: the live browser may go on growing v while a visit of
// the same client replays.
func (v *VisitLog) Snapshot() *VisitLog {
	v.mu.Lock()
	defer v.mu.Unlock()
	return &VisitLog{
		ClientID: v.ClientID, VisitID: v.VisitID, ParentVisit: v.ParentVisit,
		IsFrame: v.IsFrame, URL: v.URL, Method: v.Method, FormEncoded: v.FormEncoded,
		Cookies: v.Cookies, Time: v.Time, AttackerHTML: v.AttackerHTML,
		Events: slices.Clip(v.Events), Requests: slices.Clip(v.Requests), Blocked: v.Blocked,
	}
}

// ApproxLogBytes estimates the uploaded log size (Table 6 accounting).
func (v *VisitLog) ApproxLogBytes() int {
	n := len(v.ClientID) + len(v.URL) + len(v.Method) + len(v.FormEncoded) + len(v.AttackerHTML) + 24
	for _, e := range v.Events {
		n += 1 + len(e.XPath) + len(e.Base) + len(e.Value)
	}
	for _, r := range v.Requests {
		n += 16 + len(r.Method) + len(r.URL) + len(r.FormEncoded) + 16
	}
	return n
}

// Browser is one simulated client browser.
type Browser struct {
	ClientID string
	// HasExtension controls whether the WARP extension is active: without
	// it, no IDs are attached and no logs are uploaded (§2.3, Table 4's
	// "no extension" configuration).
	HasExtension bool

	transport Transport
	upload    func(*VisitLog)
	cookies   map[string]string
	visitSeq  int64
}

// New creates a browser. upload receives visit logs as they are created
// (the extension's log upload, §5.2); it may be nil. rng names the source
// used to draw the client ID — "a long random value" (§5.1).
func New(transport Transport, upload func(*VisitLog), rng *rand.Rand) *Browser {
	return &Browser{
		ClientID:     fmt.Sprintf("client-%016x", rng.Uint64()),
		HasExtension: true,
		transport:    transport,
		upload:       upload,
		cookies:      map[string]string{},
	}
}

// Cookies returns a copy of the browser's cookie jar.
func (b *Browser) Cookies() map[string]string {
	out := make(map[string]string, len(b.cookies))
	for k, v := range b.cookies {
		out[k] = v
	}
	return out
}

// SetCookie sets a cookie directly (used by tests and by cookie
// invalidation, §5.3).
func (b *Browser) SetCookie(name, value string) { b.cookies[name] = value }

// ClearCookie removes a cookie.
func (b *Browser) ClearCookie(name string) { delete(b.cookies, name) }

// Page is one open page in a browser frame.
type Page struct {
	Browser *Browser
	Log     *VisitLog
	DOM     *dom.Node
	URL     string
	Blocked bool

	frames []*Page
	reqSeq int64

	// replayOrig is set on server-side re-execution pages: the original
	// visit log, used to match re-issued requests to their original
	// request IDs (§5.3).
	replayOrig    *VisitLog
	replayMatched map[int]bool
}

// roundTrip sends a request with cookies and extension headers, applies
// cookie changes, and traces the exchange in the visit log.
func (p *Page) roundTrip(method, rawURL string, form url.Values) (*httpd.Response, *httpd.Request) {
	req := httpd.NewRequest(method, rawURL)
	if form != nil {
		req.Form = form
	}
	for k, v := range p.Browser.cookies {
		req.Cookies[k] = v
	}
	p.reqSeq++
	requestID := p.reqSeq
	if p.replayOrig != nil {
		// Re-execution extension: match this request to an original one so
		// it carries the same request ID (§5.3, §6).
		if rid, ok := p.matchOriginalRequest(method, rawURL, form); ok {
			requestID = rid
		} else {
			requestID = int64(len(p.replayOrig.Requests)) + p.reqSeq
		}
	}
	if p.Browser.HasExtension {
		req.ClientID = p.Browser.ClientID
		req.VisitID = p.Log.VisitID
		req.RequestID = requestID
		req.Headers[httpd.HeaderClientID] = req.ClientID
		req.Headers[httpd.HeaderVisitID] = fmt.Sprintf("%d", req.VisitID)
		req.Headers[httpd.HeaderRequestID] = fmt.Sprintf("%d", req.RequestID)
	}
	resp := p.Browser.transport(req)
	if resp == nil {
		resp = httpd.ServerError("no response")
	}
	for k, v := range resp.SetCookies {
		p.Browser.cookies[k] = v
	}
	for _, k := range resp.ClearCookies {
		delete(p.Browser.cookies, k)
	}
	p.Log.Lock()
	p.Log.Requests = append(p.Log.Requests, RequestTrace{
		RequestID:   requestID,
		Method:      method,
		URL:         rawURL,
		FormEncoded: form.Encode(),
		ReqFP:       req.Fingerprint(),
		RespFP:      resp.Fingerprint(),
	})
	p.Log.Unlock()
	return resp, req
}

// matchOriginalRequest finds the first unconsumed original request with
// the same method, URL, and form body, returning its request ID.
func (p *Page) matchOriginalRequest(method, rawURL string, form url.Values) (int64, bool) {
	if p.replayMatched == nil {
		p.replayMatched = make(map[int]bool)
	}
	enc := form.Encode()
	for i, tr := range p.replayOrig.Requests {
		if p.replayMatched[i] {
			continue
		}
		if tr.Method == method && tr.URL == rawURL && tr.FormEncoded == enc {
			p.replayMatched[i] = true
			return tr.RequestID, true
		}
	}
	return 0, false
}

// newVisit allocates a visit and its log.
func (b *Browser) newVisit(parent int64, isFrame bool, method, rawURL string, form url.Values) *Page {
	b.visitSeq++
	log := &VisitLog{
		ClientID:    b.ClientID,
		VisitID:     b.visitSeq,
		ParentVisit: parent,
		IsFrame:     isFrame,
		URL:         rawURL,
		Method:      method,
		FormEncoded: form.Encode(),
		Cookies:     b.Cookies(),
	}
	p := &Page{Browser: b, Log: log}
	if b.HasExtension && b.upload != nil {
		b.upload(log)
	}
	return p
}

// Open navigates a fresh frame (tab) to a URL, executing any page scripts,
// and returns the open page.
func (b *Browser) Open(rawURL string) *Page {
	return b.navigate(0, false, "GET", rawURL, url.Values{})
}

// navigate performs a main-frame or sub-frame page load.
func (b *Browser) navigate(parent int64, isFrame bool, method, rawURL string, form url.Values) *Page {
	p := b.newVisit(parent, isFrame, method, rawURL, form)
	resp, _ := p.roundTrip(method, rawURL, form)
	p.loadResponse(resp, isFrame)
	return p
}

// loadResponse renders a response into the page: redirect following,
// frame-blocking, DOM parsing, script execution, and sub-frame loading.
func (p *Page) loadResponse(resp *httpd.Response, isFrame bool) {
	// Follow one level of redirects (e.g. post-login), as browsers do.
	for i := 0; i < 4 && resp.Status == 303; i++ {
		loc := resp.Headers["Location"]
		if loc == "" {
			break
		}
		p.URL = loc
		resp, _ = p.roundTrip("GET", loc, url.Values{})
	}
	if isFrame && strings.EqualFold(resp.Headers["X-Frame-Options"], "DENY") {
		// The clickjacking defense (Table 2): the browser refuses to render
		// the document inside a frame.
		p.Blocked = true
		p.Log.Lock()
		p.Log.Blocked = true
		p.Log.Unlock()
		p.DOM = dom.NewDocument()
		return
	}
	p.DOM = dom.Parse(resp.Body)
	p.runScripts()
	p.loadFrames()
}

// loadFrames loads iframe sub-documents as dependent page visits.
func (p *Page) loadFrames() {
	for _, f := range p.DOM.ElementsByTag("iframe") {
		src, ok := f.Attr("src")
		if !ok || src == "" {
			continue
		}
		sub := p.Browser.navigate(p.Log.VisitID, true, "GET", src, url.Values{})
		p.frames = append(p.frames, sub)
	}
}

// Frames returns sub-frame pages loaded by this page.
func (p *Page) Frames() []*Page { return p.frames }

// OpenAttackerPage opens a page that is NOT served by the WARP-managed
// server — the attacker's own web site. The browser records the page
// content in the visit log so the visit can be re-executed during repair
// (the attacker's site is outside WARP's control and assumed unchanged).
// Scripts on the page run with the browser's cookies for the WARP site,
// which is precisely what CSRF and clickjacking attacks exploit.
func (b *Browser) OpenAttackerPage(pageURL, html string) *Page {
	p := b.newVisit(0, false, "GET", pageURL, url.Values{})
	p.Log.AttackerHTML = html
	p.URL = pageURL
	p.DOM = dom.Parse(html)
	p.runScripts()
	p.loadFrames()
	return p
}

//
// User interaction (recorded as DOM-level events, §5.2)
//

// record appends an event to the visit log.
func (p *Page) record(e Event) {
	if p.Browser.HasExtension {
		p.Log.Lock()
		p.Log.Events = append(p.Log.Events, e)
		p.Log.Unlock()
	}
}

// TypeInto simulates the user editing a text field (input or textarea)
// identified by name. The event records the field's prior value and the
// user's final text, which is what three-way merge needs during replay
// (§5.3).
func (p *Page) TypeInto(fieldName, text string) error {
	if p.Blocked || p.DOM == nil {
		return fmt.Errorf("browser: page not rendered")
	}
	field := p.DOM.ByName(fieldName)
	if field == nil {
		return fmt.Errorf("browser: no field %q", fieldName)
	}
	base := fieldValue(field)
	setFieldValue(field, text)
	p.record(Event{Kind: EventInput, XPath: dom.PathOf(field), Base: base, Value: text})
	return nil
}

// Check sets a checkbox identified by name.
func (p *Page) Check(fieldName string, on bool) error {
	if p.Blocked || p.DOM == nil {
		return fmt.Errorf("browser: page not rendered")
	}
	field := p.DOM.ByName(fieldName)
	if field == nil {
		return fmt.Errorf("browser: no field %q", fieldName)
	}
	val := "off"
	if on {
		field.SetAttr("checked", "checked")
		val = "on"
	}
	p.record(Event{Kind: EventCheck, XPath: dom.PathOf(field), Value: val})
	return nil
}

// ClickLink simulates clicking the first link whose text contains label.
// The navigation creates a new page visit that depends on this one (§5.1).
func (p *Page) ClickLink(label string) (*Page, error) {
	if p.Blocked || p.DOM == nil {
		return nil, fmt.Errorf("browser: page not rendered")
	}
	var target *dom.Node
	for _, a := range p.DOM.ElementsByTag("a") {
		if strings.Contains(a.InnerText(), label) {
			target = a
			break
		}
	}
	if target == nil {
		return nil, fmt.Errorf("browser: no link %q", label)
	}
	p.record(Event{Kind: EventClick, XPath: dom.PathOf(target)})
	href := target.AttrOr("href", "")
	return p.Browser.navigate(p.Log.VisitID, false, "GET", href, url.Values{}), nil
}

// Submit simulates submitting the index-th form on the page (0-based).
// Field values come from the DOM, including values changed by TypeInto.
func (p *Page) Submit(index int) (*Page, error) {
	if p.Blocked || p.DOM == nil {
		return nil, fmt.Errorf("browser: page not rendered")
	}
	forms := p.DOM.ElementsByTag("form")
	if index < 0 || index >= len(forms) {
		return nil, fmt.Errorf("browser: no form %d", index)
	}
	form := forms[index]
	p.record(Event{Kind: EventSubmit, XPath: dom.PathOf(form)})
	method, action, vals := formSubmission(form)
	if strings.EqualFold(method, "GET") {
		u := action
		if enc := vals.Encode(); enc != "" {
			u = action + "?" + enc
		}
		return p.Browser.navigate(p.Log.VisitID, false, "GET", u, url.Values{}), nil
	}
	return p.Browser.navigate(p.Log.VisitID, false, "POST", action, vals), nil
}

// formSubmission extracts method, action, and field values from a form.
func formSubmission(form *dom.Node) (string, string, url.Values) {
	method := strings.ToUpper(form.AttrOr("method", "GET"))
	action := form.AttrOr("action", "")
	vals := url.Values{}
	fv := form.FormValues()
	for _, k := range dom.SortedKeys(fv) {
		vals.Set(k, fv[k])
	}
	return method, action, vals
}

// fieldValue reads a form control's current value.
func fieldValue(n *dom.Node) string {
	if n.Tag == "textarea" {
		return n.InnerText()
	}
	return n.AttrOr("value", "")
}

// setFieldValue writes a form control's value.
func setFieldValue(n *dom.Node, v string) {
	if n.Tag == "textarea" {
		n.SetText(v)
		return
	}
	n.SetAttr("value", v)
}
