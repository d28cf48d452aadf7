package gen

import (
	"bytes"
	"fmt"
	"testing"
)

func wikiSpec(readFrac float64) WikiSpec {
	titles := make([]string, 200)
	for i := range titles {
		titles[i] = fmt.Sprintf("P%d", i)
	}
	return WikiSpec{Titles: titles, Sessions: 16, ReadFrac: readFrac}
}

var mixedSpec = MixedSpec{Posts: 100, Photos: 100, Users: 32}

func TestEqualSeedsGiveByteEqualLists(t *testing.T) {
	streams := map[string]func(seed int64) []Op{
		"wiki-read":  func(s int64) []Op { return Wiki(s, 500, wikiSpec(1)) },
		"wiki-mixed": func(s int64) []Op { return Wiki(s, 500, wikiSpec(0.5)) },
		"mixed":      func(s int64) []Op { return Mixed(s, 500, mixedSpec) },
	}
	for name, f := range streams {
		a, b, c := Encode(f(7)), Encode(f(7)), Encode(f(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: equal seeds gave different request lists", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request list", name)
		}
	}
}

func TestWikiSkewAndMix(t *testing.T) {
	ops := Wiki(1, 20000, wikiSpec(0.8))
	hits := map[int]int{}
	reads := 0
	for _, op := range ops {
		hits[op.Key]++
		if op.Kind == "read" {
			reads++
			if len(op.Reqs) != 1 {
				t.Fatalf("read has %d requests", len(op.Reqs))
			}
		} else if len(op.Reqs) != 2 || op.Reqs[0].Session != op.Reqs[1].Session {
			t.Fatalf("edit visit malformed: %+v", op)
		}
	}
	if f := float64(reads) / float64(len(ops)); f < 0.78 || f > 0.82 {
		t.Errorf("read share %.3f, want about 0.8", f)
	}
	max := 0
	for _, n := range hits {
		if n > max {
			max = n
		}
	}
	// zipf(1.1) over 200 keys puts well over a tenth of the draws on the
	// hottest key; uniform would put 1/200 there.
	if max < len(ops)/10 {
		t.Errorf("hottest page drew %d of %d: no skew", max, len(ops))
	}
}

func TestMixedShares(t *testing.T) {
	ops := Mixed(3, 40000, MixedSpec{Posts: 100, Photos: 100, Users: 32})
	n := map[string]int{}
	for _, op := range ops {
		n[op.Kind]++
	}
	want := map[string]float64{"post": .35, "photo": .35, "comment": .15, "vote": .04, "grant": .04, "digest": .07}
	for kind, share := range want {
		got := float64(n[kind]) / float64(len(ops))
		if got < share-0.01 || got > share+0.01 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, share)
		}
	}
	// HotPosts names the keys the stream actually favours.
	hits := map[int]int{}
	for _, op := range ops {
		if op.Kind == "post" {
			hits[op.Key]++
		}
	}
	hot := HotPosts(3, MixedSpec{Posts: 100, Photos: 100, Users: 32}, 2)
	for key, k := range hits {
		if key != hot[0] && k > hits[hot[0]] {
			t.Errorf("post %d drew %d views, more than the hottest post %d (%d)", key, k, hot[0], hits[hot[0]])
		}
	}
}

func TestSpliceFixesDependents(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		ops := Wiki(seed, 1000, wikiSpec(1))
		out, at := Splice(ops, WikiEdit("Target", "x", 0), func(k int) Op { return WikiRead("Target", "", k) }, 100, 50)
		if out[at].Kind != "edit" || at != 100 {
			t.Fatalf("attack at %d is %q", at, out[at].Kind)
		}
		if got := len(out) - len(ops) - 1; got != 17 {
			t.Errorf("seed %d: %d victims, want 17", seed, got)
		}
		in := Insert(ops, 3, []Op{PostView(1), PostView(2)})
		if len(in) != len(ops)+2 || in[3].Kind != "post" || in[4].Kind != "post" || in[5].Key != ops[3].Key {
			t.Errorf("Insert misplaced its ops")
		}
	}
}
