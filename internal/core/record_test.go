package core

import (
	"fmt"
	"sync"
	"testing"

	"warp/internal/app"
	"warp/internal/browser"
	"warp/internal/history"
	"warp/internal/httpd"
)

// TestRecordIndexesShrinkWithGC is the record path's leak regression:
// whatever a request leaves behind must be collected with the history it
// belongs to. Three rounds of (serve a burst, GC up to the last few
// requests) must each end at the same size — live actions, index
// postings (exchange keys included: a lookup builds that index before
// and after every GC), and interned nodes, which are per distinct name,
// not per request — and a deployment recovered after a crash must come
// back at that size too, not with per-request indexes rebuilt in full.
func TestRecordIndexesShrinkWithGC(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			w := buildWarp(t, dir, 7)
			browsers := []*browser.Browser{w.NewBrowser(), w.NewBrowser()}
			const burst, keep = 200, 6
			type size struct{ actions, nodes, postings int }
			var first size
			lookup := func(w *Warp) { w.Graph.ExchangeActions(history.Exchange{Client: "srv", Request: 1}) }
			for round := 0; round < 3; round++ {
				var horizon int64
				for i := 0; i < burst; i++ {
					if i == burst-keep {
						horizon = w.Clock.Now() + 1
					}
					author := fmt.Sprintf("u%d", i%5)
					switch i % 3 {
					case 0: // an extension client posting
						browsers[i%2].Open("/?author=" + author + "&msg=m")
					case 1: // an extension client reading
						browsers[i%2].Open("/")
					default: // an extensionless client
						w.HandleRequest(httpd.NewRequest("GET", "/?author="+author+"&msg=x"))
					}
				}
				lookup(w)
				full, _, fullPostings := w.Graph.Stats()
				if err := w.GC(horizon); err != nil {
					t.Fatal(err)
				}
				lookup(w)
				var got size
				got.actions, got.nodes, got.postings = w.Graph.Stats()
				if got.actions == 0 || got.actions >= full/4 || got.postings >= fullPostings/4 {
					t.Fatalf("round %d: GC left %d of %d actions, %d of %d postings", round, got.actions, full, got.postings, fullPostings)
				}
				if round == 0 {
					first = got
				} else if got != first {
					t.Fatalf("round %d ends at %+v, round 0 ended at %+v: something a request records is not collected", round, got, first)
				}
			}
			if !durable {
				return
			}
			w.Crash()
			w2, err := Open(dir, Config{Seed: 7, Durability: testDurability()})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Crash()
			lookup(w2)
			actions, _, postings := w2.Graph.Stats()
			wantActions, _, wantPostings := w.Graph.Stats()
			if actions != wantActions || postings != wantPostings {
				t.Fatalf("recovered graph holds %d actions / %d postings, the live one %d / %d", actions, postings, wantActions, wantPostings)
			}
		})
	}
}

// TestRecordRaceWithGCAndRepair is the -race stress of the record path:
// requests publishing batches into the graph while Warp.GC rebuilds its
// indexes and a repair reads them (readers, writers, the exchange index,
// per-table node lists).
func TestRecordRaceWithGCAndRepair(t *testing.T) {
	w := New(Config{Seed: 11})
	installGuestbook(t, w, false)
	attacker := w.NewBrowser()
	attacker.Open("/?author=mallory&msg=%3Cscript%3Ewarpjs%3A%20get%20%2Fsteal%3C%2Fscript%3E")
	for i := 0; i < 20; i++ {
		w.NewBrowser().Open(fmt.Sprintf("/?author=u%d&msg=hello", i%4))
	}

	// Bounded, read-mostly traffic: every guestbook page reads the whole
	// table, so an unbounded writer would feed the repairs new work
	// faster than they retire it.
	var clients, collector sync.WaitGroup
	for c := 0; c < 3; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			b := w.NewBrowser()
			for i := 0; i < 120; i++ {
				switch {
				case i%12 == 0:
					b.Open(fmt.Sprintf("/?author=live%d&msg=m%d", c, i))
				case i%2 == 0:
					b.Open("/")
				default:
					w.HandleRequest(httpd.NewRequest("GET", "/"))
				}
			}
		}(c)
	}
	stop := make(chan struct{})
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Refused while a repair runs (ttdb), collecting otherwise; the
			// horizon trails the clock so the repair keeps history to read.
			_ = w.GC(w.Clock.Now() - 400)
			w.Graph.Stats()
		}
	}()
	for i := 0; i < 3; i++ {
		rep, err := w.RetroPatch("guestbook.php", app.Version{Entry: guestbookHandler(i%2 == 0), Note: "sanitize"})
		if err != nil {
			t.Fatalf("repair %d: %v", i, err)
		}
		if rep.Aborted {
			t.Fatalf("repair %d aborted", i)
		}
	}
	clients.Wait()
	close(stop)
	collector.Wait()
}
