// Package gen is warpload's deterministic request generator. Everything
// the load driver sends is produced here from a seed — page and post
// choice (zipf), the operation mix, and session assignment — so that
// equal seeds give byte-equal request lists and the program under test
// sees only requests. The generator knows the applications' URLs and
// what a correct response looks like; it knows nothing about how the
// requests are issued or timed.
package gen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"
)

// ZipfS is the skew of every popularity distribution: hot pages and
// posts contend, cold ones spread over the partition space.
const ZipfS = 1.1

// Request is one HTTP request and what a correct response to it is.
type Request struct {
	Method string
	URL    string // path and query
	Form   string // urlencoded POST body
	// Session indexes the logged-in session whose cookie the request
	// carries; -1 sends none.
	Session int
	// Status is the expected response status; Alt, when non-zero, is a
	// second acceptable status (a duplicate vote, a view the attack broke).
	Status, Alt int
	// Expect must appear in the body of an accepted 200 response.
	Expect string
}

// Op is one user operation: a single request, or the GET+POST of a form
// visit issued back to back by one client.
type Op struct {
	Kind string // read, edit, post, photo, comment, vote, grant, digest, editpost, move
	Key  int    // page, post or photo index
	User int    // session or user index
	Reqs []Request
}

// Encode renders an op list canonically; equal lists encode byte-equal.
func Encode(ops []Op) []byte {
	b, err := json.Marshal(ops)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

// picker draws zipf-distributed indexes through a seeded permutation, so
// hotness is not correlated with index order (row order, page ids).
type picker struct {
	z    *rand.Zipf
	perm []int
}

// Salts keep the hotness permutations of different key spaces apart.
const (
	saltPages  = 0x7061676573
	saltPosts  = 0x706f737473
	saltPhotos = 0x70686f746f
)

// hotOrder is the seed's hotness permutation of a key space: element k
// is the index of the k-th hottest key.
func hotOrder(seed, salt int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ salt)).Perm(n)
}

func newPicker(r *rand.Rand, seed, salt int64, n int) *picker {
	return &picker{z: rand.NewZipf(r, ZipfS, 1, uint64(n-1)), perm: hotOrder(seed, salt, n)}
}

func (p *picker) next() int { return p.perm[p.z.Uint64()] }

func fill(prefix string, size int) string {
	const filler = "lorem ipsum dolor sit amet consectetur adipiscing elit "
	var b strings.Builder
	b.WriteString(prefix)
	for b.Len() < size {
		b.WriteString(filler)
	}
	return b.String()[:size]
}

// PageBody is the seeded content of wiki page i: a marker a reader must
// be shown, padded to about 500 bytes.
func PageBody(i int) string { return fill(PageMarker(i)+" ", 500) }

// PageMarker is the substring identifying page i's seeded content.
func PageMarker(i int) string { return fmt.Sprintf("marker-%d-body", i) }

// EditBody is the fixed-size content edit number serial saves to a page.
func EditBody(serial int, title string) string {
	return fill(fmt.Sprintf("edit-%07d of %s ", serial, title), 500)
}

// WikiSpec describes a GoWiki request stream.
type WikiSpec struct {
	Titles []string
	// Markers, when set, gives per title the substring a read must show.
	// Streams that also edit leave it nil: reads then expect the heading.
	Markers  []string
	Sessions int
	// ReadFrac is the share of ops that are page reads; the rest are full
	// edit visits (GET the form, POST the new content).
	ReadFrac float64
}

// WikiRead builds the read of one page by one session.
func WikiRead(title, expect string, session int) Op {
	if expect == "" {
		expect = "<h1>" + title + "</h1>"
	}
	return Op{Kind: "read", User: session, Reqs: []Request{{
		Method: "GET", URL: "/index.php?title=" + url.QueryEscape(title),
		Session: session, Status: 200, Expect: expect,
	}}}
}

// WikiEdit builds the edit visit of one page: the form, then the save.
func WikiEdit(title, content string, session int) Op {
	form := url.Values{"title": {title}, "content": {content}}.Encode()
	return Op{Kind: "edit", User: session, Reqs: []Request{
		{Method: "GET", URL: "/edit.php?title=" + url.QueryEscape(title),
			Session: session, Status: 200, Expect: "<textarea"},
		{Method: "POST", URL: "/edit.php", Form: form, Session: session, Status: 303},
	}}
}

// Wiki generates n wiki ops. Edit number i (its position in the list)
// saves EditBody(i, title), so a page's final content names the op that
// wrote it.
func Wiki(seed int64, n int, spec WikiSpec) []Op {
	r := rand.New(rand.NewSource(seed))
	pick := newPicker(r, seed, saltPages, len(spec.Titles))
	ops := make([]Op, n)
	for i := range ops {
		p, s := pick.next(), r.Intn(spec.Sessions)
		var op Op
		if r.Float64() < spec.ReadFrac {
			marker := ""
			if spec.Markers != nil {
				marker = spec.Markers[p]
			}
			op = WikiRead(spec.Titles[p], marker, s)
		} else {
			op = WikiEdit(spec.Titles[p], EditBody(i, spec.Titles[p]), s)
		}
		op.Key = p
		ops[i] = op
	}
	return ops
}

// MixedSpec describes a GoBlog + GoGallery request stream.
type MixedSpec struct {
	Posts, Photos, Users int
}

// HotPosts returns the k hottest posts of a seed's Mixed stream, hottest
// first.
func HotPosts(seed int64, spec MixedSpec, k int) []int {
	return hotOrder(seed, saltPosts, spec.Posts)[:k]
}

// SeedGrants is how many users each photo is granted to at set-up.
const SeedGrants = 8

// SeedGrantee is the j-th user (j < SeedGrants) seeded with view
// permission on a photo.
func SeedGrantee(photo, j, users int) int { return (photo*7 + j*9) % users }

// UserName is the name of blog/gallery user i.
func UserName(i int) string { return fmt.Sprintf("u%d", i) }

func postForm(path string, v url.Values, status, alt int, expect string) []Request {
	return []Request{{Method: "POST", URL: path, Form: v.Encode(), Session: -1, Status: status, Alt: alt, Expect: expect}}
}

// PostView builds a view of one post.
func PostView(post int) Op {
	return Op{Kind: "post", Key: post, Reqs: []Request{{Method: "GET", URL: fmt.Sprintf("/post.php?id=%d", post),
		Session: -1, Status: 200, Expect: fmt.Sprintf("<h1>Post-%d</h1>", post)}}}
}

// PhotoView builds a view of one photo by a user. alt is a second
// acceptable status (403 for views the permission-wiping bug breaks).
func PhotoView(photo, user, alt int) Op {
	return Op{Kind: "photo", Key: photo, User: user, Reqs: []Request{{Method: "GET",
		URL:     fmt.Sprintf("/photo.php?id=%d&u=%s", photo, UserName(user)),
		Session: -1, Status: 200, Alt: alt, Expect: fmt.Sprintf("<h1>photo-%d</h1>", photo)}}}
}

// Comment builds a comment on a post.
func Comment(post, user int, text string) Op {
	v := url.Values{"id": {fmt.Sprint(post)}, "u": {UserName(user)}, "text": {text}}
	return Op{Kind: "comment", Key: post, User: user, Reqs: postForm("/comment.php", v, 303, 0, "")}
}

// Vote builds a vote on a post. A second vote by the same user is
// answered politely (200) instead of redirecting.
func Vote(post, user, val int) Op {
	v := url.Values{"id": {fmt.Sprint(post)}, "u": {UserName(user)}, "val": {fmt.Sprint(val)}}
	return Op{Kind: "vote", Key: post, User: user, Reqs: postForm("/vote.php", v, 303, 200, "already voted")}
}

// EditPost builds a save of a post through the buggy editpost.php, which
// wipes the post's votes.
func EditPost(post, rev int) Op {
	v := url.Values{"id": {fmt.Sprint(post)}, "body": {fill(fmt.Sprintf("rev-%d ", rev), 200)}}
	return Op{Kind: "editpost", Key: post, Reqs: postForm("/editpost.php", v, 303, 0, "")}
}

// MovePhoto builds the buggy album move that wipes a photo's permissions.
func MovePhoto(photo, album int) Op {
	v := url.Values{"id": {fmt.Sprint(photo)}, "album": {fmt.Sprint(album)}}
	return Op{Kind: "move", Key: photo, Reqs: postForm("/movephoto.php", v, 200, 0, "moved")}
}

// Mixed generates n blog/gallery ops: 70% views (posts and photos
// alike), 15% comments, 8% votes and grants (UNIQUE inserts, duplicates
// answered politely), 7% digests (aggregate, then insert or update of the post's digest row).
func Mixed(seed int64, n int, spec MixedSpec) []Op {
	r := rand.New(rand.NewSource(seed))
	posts, photos := newPicker(r, seed, saltPosts, spec.Posts), newPicker(r, seed, saltPhotos, spec.Photos)
	ops := make([]Op, n)
	for i := range ops {
		u := r.Intn(spec.Users)
		var op Op
		switch x := r.Float64(); {
		case x < 0.35:
			op = PostView(posts.next())
		case x < 0.70:
			ph := photos.next()
			op = PhotoView(ph, SeedGrantee(ph, r.Intn(SeedGrants), spec.Users), 0)
		case x < 0.85:
			op = Comment(posts.next(), u, fmt.Sprintf("comment %d by %s", i, UserName(u)))
		case x < 0.89:
			op = Vote(posts.next(), u, 1+r.Intn(5))
		case x < 0.93:
			ph := photos.next()
			v := url.Values{"id": {fmt.Sprint(ph)}, "user": {UserName(u)}}
			op = Op{Kind: "grant", Key: ph, Reqs: postForm("/grant.php", v, 200, 0, "granted")}
		default:
			p := posts.next()
			op = Op{Kind: "digest", Key: p, Reqs: postForm("/digest.php", url.Values{"id": {fmt.Sprint(p)}}, 200, 0, "digest updated")}
		}
		if op.Kind != "photo" {
			op.User = u
		}
		ops[i] = op
	}
	return ops
}

// Insert returns ops with extra inserted before position at.
func Insert(ops []Op, at int, extra []Op) []Op {
	out := make([]Op, 0, len(ops)+len(extra))
	out = append(out, ops[:at]...)
	out = append(out, extra...)
	return append(out, ops[at:]...)
}

// Splice inserts an attack into a stream at position at, and after it
// one victim op every `every` positions: a fixed number of dependents of
// the attack, whatever the seed. It returns the new list and the
// attack's index in it.
func Splice(ops []Op, attack Op, victim func(k int) Op, at, every int) ([]Op, int) {
	out := make([]Op, 0, len(ops)+2+len(ops)/every)
	k, idx := 0, -1
	for i, op := range ops {
		if i == at {
			idx = len(out)
			out = append(out, attack)
		}
		if i > at && (i-at)%every == 0 {
			out = append(out, victim(k))
			k++
		}
		out = append(out, op)
	}
	return out, idx
}
