package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strings"

	"warp/benchmarks/gen"
)

// prepared is a generated request made ready to issue: URL parsed,
// headers (session cookie, content type) built. Preparation happens
// outside every timed region; the per-issue cost left on the load side
// is one http.Request and one body reader.
type prepared struct {
	spec   *gen.Request
	url    *url.URL
	header http.Header
}

// pop is a prepared op.
type pop struct {
	op     *gen.Op
	serial int // index in its stream
	reqs   []prepared
}

// prepare readies a stream for a deployment, whose sessions supply the
// cookies.
func prepare(ops []gen.Op, cookies []string) ([]pop, error) {
	out := make([]pop, len(ops))
	for i := range ops {
		op := &ops[i]
		out[i] = pop{op: op, serial: i, reqs: make([]prepared, len(op.Reqs))}
		for j := range op.Reqs {
			rq := &op.Reqs[j]
			u, err := url.ParseRequestURI(rq.URL)
			if err != nil {
				return nil, err
			}
			h := http.Header{}
			if rq.Session >= 0 {
				h.Set("Cookie", cookies[rq.Session])
			}
			if rq.Method == "POST" {
				h.Set("Content-Type", "application/x-www-form-urlencoded")
			}
			out[i].reqs[j] = prepared{spec: rq, url: u, header: h}
		}
	}
	return out, nil
}

// respWriter is the in-process http.ResponseWriter: requests enter
// through httpd.Adapter.ServeHTTP with no socket in between. One per
// client goroutine, reused across requests.
type respWriter struct {
	h      http.Header
	status int
	body   []byte
}

func newRespWriter() *respWriter { return &respWriter{h: http.Header{}} }

func (r *respWriter) Header() http.Header { return r.h }
func (r *respWriter) WriteHeader(s int)   { r.status = s }
func (r *respWriter) Write(b []byte) (int, error) {
	r.body = append(r.body, b...)
	return len(b), nil
}

// issue sends one prepared request through a handler.
func issue(h http.Handler, rw *respWriter, p *prepared) {
	for k := range rw.h {
		delete(rw.h, k)
	}
	rw.status, rw.body = 200, rw.body[:0]
	hr := &http.Request{Method: p.spec.Method, URL: p.url, Header: p.header,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	if p.spec.Method == "POST" {
		hr.Body = io.NopCloser(strings.NewReader(p.spec.Form))
		hr.ContentLength = int64(len(p.spec.Form))
	}
	h.ServeHTTP(rw, hr)
}

// accepted reports whether a response is a correct answer to its request:
// an expected status, and for a 200 the expected content.
func accepted(rq *gen.Request, rw *respWriter) bool {
	if rw.status != rq.Status && (rq.Alt == 0 || rw.status != rq.Alt) {
		return false
	}
	return rw.status != 200 || rq.Expect == "" || bytes.Contains(rw.body, []byte(rq.Expect))
}
