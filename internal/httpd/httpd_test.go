package httpd

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

func TestSplitURLAndParams(t *testing.T) {
	req := NewRequest("GET", "/edit.php?title=Main&x=1")
	if req.Path != "/edit.php" {
		t.Fatalf("path = %q", req.Path)
	}
	if req.Param("title") != "Main" || req.Param("x") != "1" {
		t.Fatalf("params: %v", req.Query)
	}
	req.Form.Set("title", "FromForm")
	// Query wins over form.
	if req.Param("title") != "Main" {
		t.Fatal("query should take precedence")
	}
	req2 := NewRequest("POST", "/save")
	req2.Form.Set("body", "x")
	if req2.Param("body") != "x" {
		t.Fatal("form fallback broken")
	}
	if req.URLString() == "" || !strings.HasPrefix(req.URLString(), "/edit.php?") {
		t.Fatalf("url string: %q", req.URLString())
	}
}

func TestRequestFingerprintSensitivity(t *testing.T) {
	base := NewRequest("GET", "/a?x=1")
	base.Cookies["sid"] = "s1"
	same := base.Clone()
	if base.Fingerprint() != same.Fingerprint() {
		t.Fatal("clone must fingerprint equal")
	}
	for _, mutate := range []func(r *Request){
		func(r *Request) { r.Method = "POST" },
		func(r *Request) { r.Path = "/b" },
		func(r *Request) { r.Query.Set("x", "2") },
		func(r *Request) { r.Form.Set("y", "3") },
		func(r *Request) { r.Cookies["sid"] = "s2" },
	} {
		m := base.Clone()
		mutate(m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Fatalf("mutation not reflected in fingerprint: %+v", m)
		}
	}
	// Extension IDs must NOT affect the fingerprint: the same request
	// replayed with matched IDs compares equal.
	m := base.Clone()
	m.ClientID, m.VisitID, m.RequestID = "c", 9, 9
	if m.Fingerprint() != base.Fingerprint() {
		t.Fatal("warp IDs must not affect request fingerprints")
	}
}

func TestResponseFingerprintSensitivity(t *testing.T) {
	base := HTML("<p>hi</p>")
	if base.Fingerprint() != HTML("<p>hi</p>").Fingerprint() {
		t.Fatal("equal responses must fingerprint equal")
	}
	for _, mutate := range []func(r *Response){
		func(r *Response) { r.Status = 404 },
		func(r *Response) { r.Body = "other" },
		func(r *Response) { r.Headers["X-Frame-Options"] = "DENY" },
		func(r *Response) { r.SetCookie("sid", "x") },
		func(r *Response) { r.ClearCookie("sid") },
	} {
		m := HTML("<p>hi</p>")
		mutate(m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Fatalf("mutation not reflected: %+v", m)
		}
	}
}

func TestResponseHelpers(t *testing.T) {
	r := Redirect("/next")
	if r.Status != 303 || r.Headers["Location"] != "/next" {
		t.Fatalf("redirect: %+v", r)
	}
	if NotFound("x").Status != 404 || ServerError("y").Status != 500 {
		t.Fatal("status helpers broken")
	}
	c := r.Clone()
	c.Headers["Location"] = "/other"
	if r.Headers["Location"] != "/next" {
		t.Fatal("clone shares headers")
	}
}

func TestAdapterRoundTrip(t *testing.T) {
	var got *Request
	ad := &Adapter{Handler: func(req *Request) *Response {
		got = req
		resp := HTML("<p>served</p>")
		resp.SetCookie("sid", "abc")
		resp.ClearCookie("old")
		return resp
	}}
	srv := httptest.NewServer(ad)
	defer srv.Close()

	hreq, _ := http.NewRequest("POST", srv.URL+"/edit.php?title=Main", strings.NewReader(url.Values{"content": {"hello"}}.Encode()))
	hreq.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	hreq.Header.Set(HeaderClientID, "client-1")
	hreq.Header.Set(HeaderVisitID, "7")
	hreq.Header.Set(HeaderRequestID, "3")
	hreq.AddCookie(&http.Cookie{Name: "sid", Value: "old-sid"})
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if got == nil || got.Path != "/edit.php" || got.Param("title") != "Main" {
		t.Fatalf("request not adapted: %+v", got)
	}
	if got.Form.Get("content") != "hello" {
		t.Fatalf("form not parsed: %v", got.Form)
	}
	if got.ClientID != "client-1" || got.VisitID != 7 || got.RequestID != 3 {
		t.Fatalf("warp headers not adapted: %+v", got)
	}
	if got.Cookie("sid") != "old-sid" {
		t.Fatalf("cookie not adapted: %v", got.Cookies)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	found := false
	for _, c := range resp.Cookies() {
		if c.Name == "sid" && c.Value == "abc" {
			found = true
		}
	}
	if !found {
		t.Fatalf("set-cookie not adapted: %v", resp.Cookies())
	}
}

// approxBytesByEncode is Request.ApproxBytes as it was when it measured
// the query and the form by URL-encoding them; the figure feeds the
// Table 6 log-size accounting and must not move.
func approxBytesByEncode(r *Request) int {
	n := len(r.Method) + len(r.Path) + len(r.Query.Encode()) + len(r.Form.Encode()) + len(r.ClientID) + 16
	for k, v := range r.Cookies {
		n += len(k) + len(v)
	}
	for k, v := range r.Headers {
		n += len(k) + len(v)
	}
	return n
}

func TestApproxBytesMatchesEncodedFormula(t *testing.T) {
	every := make([]byte, 256)
	for i := range every {
		every[i] = byte(i)
	}
	cases := []url.Values{
		nil,
		{},
		{"title": {"Main"}},
		{"empty": {}},
		{"blank": {""}},
		{"multi": {"a", "b", ""}, "other": {"x y"}},
		{"k&=? /": {"v&=? /+%", "ü→✓"}, "": {"no key"}},
		{"a-b_c.d~e": {"A-Z_0.9~"}, "sp ace": {" ", "  "}},
		{string(every): {string(every)}},
	}
	for _, q := range cases {
		for _, f := range cases {
			r := NewRequest("POST", "/edit.php")
			r.Query, r.Form, r.ClientID = q, f, "client-1"
			r.Cookies["sid"], r.Headers["X"] = "abc", "y"
			if got, want := r.ApproxBytes(), approxBytesByEncode(r); got != want {
				t.Fatalf("query %q form %q: ApproxBytes = %d, the encoded formula gives %d", q, f, got, want)
			}
		}
	}
}
