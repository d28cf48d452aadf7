package httpd

import (
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
)

// cloneRequest deep-copies a request, so a test can vary one field.
func cloneRequest(r *Request) *Request {
	c := *r
	c.Query, c.Form = cloneValues(r.Query), cloneValues(r.Form)
	c.Cookies, c.Headers = maps.Clone(r.Cookies), maps.Clone(r.Headers)
	return &c
}

func cloneValues(v url.Values) url.Values {
	c := url.Values{}
	for k, vs := range v {
		c[k] = slices.Clone(vs)
	}
	return c
}

func cloneResponse(r *Response) *Response {
	c := *r
	c.Headers, c.SetCookies = maps.Clone(r.Headers), maps.Clone(r.SetCookies)
	c.ClearCookies = slices.Clone(r.ClearCookies)
	return &c
}

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
	same := cloneRequest(base)
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
		m := cloneRequest(base)
		mutate(m)
		if m.Fingerprint() == base.Fingerprint() {
			t.Fatalf("mutation not reflected in fingerprint: %+v", m)
		}
	}
	// Extension IDs must NOT affect the fingerprint: the same request
	// replayed with matched IDs compares equal.
	m := cloneRequest(base)
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

// checkEqualAgrees requires Equal to hold, both ways round, exactly when
// the fingerprints are equal, and counts the pairs of each verdict.
func checkEqualAgrees(t *testing.T, label string, eq, eqBack bool, fpA, fpB uint64, verdicts map[bool]int) {
	t.Helper()
	if eq != eqBack {
		t.Fatalf("%s: Equal is not symmetric (%v one way, %v the other)", label, eq, eqBack)
	}
	if eq != (fpA == fpB) {
		t.Fatalf("%s: Equal = %v but the fingerprints are %x and %x", label, eq, fpA, fpB)
	}
	verdicts[eq]++
}

// TestRequestEqualAgreesWithFingerprint: repair compares requests with
// Equal, the browser's visit log with Fingerprint; the two must never
// disagree. Seeded random requests, each paired with a copy that differs
// in one way or in none.
func TestRequestEqualAgreesWithFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	word := func() string { return []string{"a", "b", "c", "x y", "&=", ""}[rng.Intn(6)] }
	values := func() url.Values {
		v := url.Values{}
		for i := rng.Intn(4); i > 0; i-- {
			k := "k" + word()
			v[k] = append(v[k], word())
		}
		return v
	}
	// Each mutation gets a request and its copy; most change the copy
	// alone, a few set the two apart on purpose.
	mutations := []struct {
		name string
		f    func(a, b *Request)
	}{
		{"identical", func(a, b *Request) {}},
		{"method", func(a, b *Request) { b.Method = "PUT" }},
		{"path", func(a, b *Request) { b.Path += "x" }},
		{"query value", func(a, b *Request) { a.Query.Set("kq", "v1"); b.Query.Set("kq", "v2") }},
		{"query added", func(a, b *Request) { b.Query.Add("added", word()) }},
		{"form value", func(a, b *Request) { b.Form.Add("kf", word()) }},
		{"query vs form", func(a, b *Request) { a.Form.Add("moved", "1"); b.Query.Add("moved", "1") }},
		{"multi-value order", func(a, b *Request) { a.Query["multi"] = []string{"2", "1"}; b.Query["multi"] = []string{"1", "2"} }},
		{"empty value list", func(a, b *Request) { b.Query["empty"] = []string{} }},
		{"empty form list", func(a, b *Request) { b.Form["empty"] = nil }},
		{"cookie value", func(a, b *Request) { b.Cookies["sid"] += "'" }},
		{"cookie added", func(a, b *Request) { b.Cookies["new"] = "" }},
		{"header", func(a, b *Request) { b.Headers["X-Other"] = word() }},
		{"extension ids", func(a, b *Request) { b.ClientID, b.VisitID, b.RequestID = "c9", 9, 9 }},
	}
	verdicts := map[bool]int{}
	for i := 0; i < 400; i++ {
		a := NewRequest([]string{"GET", "POST"}[rng.Intn(2)], "/p"+word())
		a.Query, a.Form = values(), values()
		for j := rng.Intn(3); j > 0; j-- {
			a.Cookies["c"+word()] = word()
		}
		a.Cookies["sid"] = word()
		m := mutations[rng.Intn(len(mutations))]
		b := cloneRequest(a)
		m.f(a, b)
		label := fmt.Sprintf("pair %d (%s)", i, m.name)
		checkEqualAgrees(t, label, a.Equal(b), b.Equal(a), a.Fingerprint(), b.Fingerprint(), verdicts)
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the generator gave only one verdict: %v", verdicts)
	}
}

// TestResponseEqualAgreesWithFingerprint is the response side: status,
// body, headers, cookies set, and cookies cleared (a multiset: order
// does not count, repeats do).
func TestResponseEqualAgreesWithFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	word := func() string { return []string{"a", "b", "DENY", "<p>hi</p>", ""}[rng.Intn(5)] }
	mutations := []struct {
		name string
		f    func(r *Response)
	}{
		{"identical", func(r *Response) {}},
		{"status", func(r *Response) { r.Status++ }},
		{"body", func(r *Response) { r.Body += "." }},
		{"header value", func(r *Response) { r.Headers["Content-Type"] += ";x" }},
		{"header added", func(r *Response) { r.Headers["X-Frame-Options"] = "DENY" }},
		{"set-cookie", func(r *Response) { r.SetCookie("sid", r.SetCookies["sid"]+"'") }},
		{"clear-cookie added", func(r *Response) { r.ClearCookie("old") }},
		{"clear-cookies permuted", func(r *Response) { slices.Reverse(r.ClearCookies) }},
		{"clear-cookie repeated", func(r *Response) {
			if len(r.ClearCookies) > 0 {
				r.ClearCookies[0] = r.ClearCookies[len(r.ClearCookies)-1]
			}
		}},
		{"empty maps", func(r *Response) {
			if len(r.SetCookies) == 0 {
				r.SetCookies = nil
			}
		}},
	}
	verdicts := map[bool]int{}
	for i := 0; i < 400; i++ {
		a := HTML(word())
		a.Status = []int{200, 303, 404}[rng.Intn(3)]
		for j := rng.Intn(3); j > 0; j-- {
			a.Headers["X-"+word()] = word()
		}
		for j := rng.Intn(3); j > 0; j-- {
			a.SetCookie("c"+word(), word())
		}
		for j := rng.Intn(4); j > 0; j-- {
			a.ClearCookie("c" + word())
		}
		m := mutations[rng.Intn(len(mutations))]
		b := cloneResponse(a)
		m.f(b)
		label := fmt.Sprintf("pair %d (%s)", i, m.name)
		checkEqualAgrees(t, label, a.Equal(b), b.Equal(a), a.Fingerprint(), b.Fingerprint(), verdicts)
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the generator gave only one verdict: %v", verdicts)
	}
}
