// Package httpd provides the HTTP request/response model shared by WARP's
// browser simulator, HTTP server manager, and application runtime.
//
// WARP's components exchange requests in-process for determinism and
// speed — the paper's Apache + mod_php pipeline becomes direct calls — but
// the same types adapt to net/http so the wiki can be served to a real
// browser (cmd/warp-server).
//
// The WARP browser extension's ⟨client ID, visit ID, request ID⟩ headers
// (paper §5.1) are first-class fields here, as are cookies, which WARP
// tracks as a dependency channel between page visits.
package httpd

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"sort"
	"strings"
)

// WARP extension header names, as sent by the browser extension (§5.1).
const (
	HeaderClientID  = "X-Warp-Client-Id"
	HeaderVisitID   = "X-Warp-Visit-Id"
	HeaderRequestID = "X-Warp-Request-Id"
)

// Request is one HTTP request as seen by the server.
type Request struct {
	Method  string // GET or POST
	Path    string // e.g. "/index.php"
	Query   url.Values
	Form    url.Values // POST form fields
	Cookies map[string]string
	Headers map[string]string

	// WARP browser extension identifiers (§5.1). ClientID is empty for
	// clients without the extension.
	ClientID  string
	VisitID   int64
	RequestID int64
}

// NewRequest builds a GET request for a raw URL ("/path?k=v").
func NewRequest(method, rawURL string) *Request {
	path, q := SplitURL(rawURL)
	return &Request{
		Method:  method,
		Path:    path,
		Query:   q,
		Form:    url.Values{},
		Cookies: map[string]string{},
		Headers: map[string]string{},
	}
}

// SplitURL splits "/path?query" into path and parsed query values.
func SplitURL(raw string) (string, url.Values) {
	path := raw
	q := url.Values{}
	if i := strings.IndexByte(raw, '?'); i >= 0 {
		path = raw[:i]
		if vals, err := url.ParseQuery(raw[i+1:]); err == nil {
			q = vals
		}
	}
	return path, q
}

// URLString reassembles the request target.
func (r *Request) URLString() string {
	if len(r.Query) == 0 {
		return r.Path
	}
	return r.Path + "?" + r.Query.Encode()
}

// Param returns a parameter by name, checking the query string first and
// then the form body, like PHP's $_REQUEST.
func (r *Request) Param(name string) string {
	if v := r.Query.Get(name); v != "" {
		return v
	}
	return r.Form.Get(name)
}

// Cookie returns a cookie value, or "".
func (r *Request) Cookie(name string) string { return r.Cookies[name] }

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	c := &Request{
		Method:    r.Method,
		Path:      r.Path,
		Query:     url.Values{},
		Form:      url.Values{},
		Cookies:   map[string]string{},
		Headers:   map[string]string{},
		ClientID:  r.ClientID,
		VisitID:   r.VisitID,
		RequestID: r.RequestID,
	}
	for k, vs := range r.Query {
		c.Query[k] = append([]string{}, vs...)
	}
	for k, vs := range r.Form {
		c.Form[k] = append([]string{}, vs...)
	}
	for k, v := range r.Cookies {
		c.Cookies[k] = v
	}
	for k, v := range r.Headers {
		c.Headers[k] = v
	}
	return c
}

// Fingerprint hashes the parts of the request the server's behavior
// depends on. The repair controller compares fingerprints to decide
// whether a replayed browser issued the same request as the original
// execution (§5.3).
func (r *Request) Fingerprint() uint64 {
	h := fnv.New64a()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	write(r.Method)
	write(r.Path)
	write(r.Query.Encode())
	write(r.Form.Encode())
	keys := make([]string, 0, len(r.Cookies))
	for k := range r.Cookies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		write(k)
		write(r.Cookies[k])
	}
	return h.Sum64()
}

// ApproxBytes estimates the logged size of the request (Table 6
// accounting).
func (r *Request) ApproxBytes() int {
	n := len(r.Method) + len(r.Path) + encodedLen(r.Query) + encodedLen(r.Form) + len(r.ClientID) + 16
	for k, v := range r.Cookies {
		n += len(k) + len(v)
	}
	for k, v := range r.Headers {
		n += len(k) + len(v)
	}
	return n
}

// encodedLen is len(v.Encode()) without building the string: every
// key=value pair query-escaped, pairs joined by "&". The order Encode
// sorts into does not change the length.
func encodedLen(v url.Values) int {
	n, pairs := 0, 0
	for k, vals := range v {
		n += len(vals) * (escapedLen(k) + 1)
		for _, s := range vals {
			n += escapedLen(s)
		}
		pairs += len(vals)
	}
	if pairs > 1 {
		n += pairs - 1
	}
	return n
}

// escapedLen is len(url.QueryEscape(s)): unreserved bytes and the space
// (which becomes "+") take one byte, everything else a %XX triple.
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("-_.~ ", c) >= 0) {
			n += 2
		}
	}
	return n
}

// Response is one HTTP response.
type Response struct {
	Status  int
	Body    string
	Headers map[string]string
	// SetCookies are cookies to set; ClearCookies are cookie names to
	// delete. WARP watches these to track the cookie dependency channel
	// (§5.3).
	SetCookies   map[string]string
	ClearCookies []string
}

// NewResponse returns an empty 200 response.
func NewResponse() *Response {
	return &Response{Status: 200, Headers: map[string]string{}, SetCookies: map[string]string{}}
}

// HTML builds a 200 text/html response.
func HTML(body string) *Response {
	r := NewResponse()
	r.Headers["Content-Type"] = "text/html"
	r.Body = body
	return r
}

// Redirect builds a 303 redirect.
func Redirect(location string) *Response {
	r := NewResponse()
	r.Status = 303
	r.Headers["Location"] = location
	return r
}

// NotFound builds a 404 response.
func NotFound(msg string) *Response {
	r := NewResponse()
	r.Status = 404
	r.Body = msg
	return r
}

// ServerError builds a 500 response.
func ServerError(msg string) *Response {
	r := NewResponse()
	r.Status = 500
	r.Body = msg
	return r
}

// SetCookie records a Set-Cookie on the response.
func (r *Response) SetCookie(name, value string) {
	r.SetCookies[name] = value
}

// ClearCookie records a cookie deletion on the response.
func (r *Response) ClearCookie(name string) {
	r.ClearCookies = append(r.ClearCookies, name)
}

// Fingerprint hashes the response's observable content: status, body,
// headers, and cookie changes. Used for the "did the HTTP response change"
// test that drives browser re-execution (§5).
func (r *Response) Fingerprint() uint64 {
	h := fnv.New64a()
	write := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	write(fmt.Sprintf("%d", r.Status))
	write(r.Body)
	hk := make([]string, 0, len(r.Headers))
	for k := range r.Headers {
		hk = append(hk, k)
	}
	sort.Strings(hk)
	for _, k := range hk {
		write(k)
		write(r.Headers[k])
	}
	ck := make([]string, 0, len(r.SetCookies))
	for k := range r.SetCookies {
		ck = append(ck, k)
	}
	sort.Strings(ck)
	for _, k := range ck {
		write(k)
		write(r.SetCookies[k])
	}
	cc := append([]string{}, r.ClearCookies...)
	sort.Strings(cc)
	for _, k := range cc {
		write("clear:" + k)
	}
	return h.Sum64()
}

// ApproxBytes estimates the logged size of the response.
func (r *Response) ApproxBytes() int {
	n := len(r.Body) + 8
	for k, v := range r.Headers {
		n += len(k) + len(v)
	}
	for k, v := range r.SetCookies {
		n += len(k) + len(v)
	}
	for _, k := range r.ClearCookies {
		n += len(k)
	}
	return n
}

// Clone returns a deep copy of the response.
func (r *Response) Clone() *Response {
	c := &Response{Status: r.Status, Body: r.Body, Headers: map[string]string{}, SetCookies: map[string]string{}}
	for k, v := range r.Headers {
		c.Headers[k] = v
	}
	for k, v := range r.SetCookies {
		c.SetCookies[k] = v
	}
	c.ClearCookies = append(c.ClearCookies, r.ClearCookies...)
	return c
}
