// Package taint implements the baseline WARP is compared against in the
// paper's §8.4 (Table 5): Akkuş & Goel's taint-tracking data-recovery
// system for web applications (DSN 2010).
//
// That system recovers from data-corruption bugs by offline dependency
// analysis: the administrator identifies the HTTP request that triggered
// the bug, the analyzer computes which database state the request could
// have influenced under a chosen dependency policy, and the administrator
// rolls the flagged state back by hand. Coarse policies flag too much
// (false positives — legitimate data lost); narrow policies flag too
// little (false negatives — corruption left behind). Table white-listing
// trims false positives at the cost of administrator effort.
//
// The implementation here runs the same analysis over WARP's recorded
// action history graph: requests with their query read partitions and
// write row sets. The policies mirror the behavioral classes of the
// original system rather than its exact rule set.
package taint

import (
	"fmt"

	"warp/internal/core"
	"warp/internal/history"
	"warp/internal/ttdb"
)

// RowKey names one application row: a table and the Key() of its row ID.
type RowKey struct {
	Table string
	Key   string
}

// String renders the key.
func (k RowKey) String() string { return k.Table + "/" + k.Key }

// Policy selects a dependency analysis policy.
type Policy uint8

// Policies, from narrowest to broadest.
const (
	// PolicyDirect flags only the rows written by the flagged request
	// itself. It misses derived corruption (false negatives).
	PolicyDirect Policy = iota
	// PolicyFlow propagates taint: any later request that read a
	// partition containing tainted rows becomes tainted, and everything it
	// wrote is flagged. No false negatives, many false positives.
	PolicyFlow
	// PolicyFlowWhitelist is PolicyFlow with administrator-supplied table
	// white-listing: reads from white-listed tables do not propagate
	// taint.
	PolicyFlowWhitelist
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDirect:
		return "direct"
	case PolicyFlow:
		return "flow"
	case PolicyFlowWhitelist:
		return "flow+whitelist"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Analysis is the outcome of one offline dependency analysis.
type Analysis struct {
	Policy          Policy
	TaintedRows     map[RowKey]bool
	TaintedRequests int
	FalsePositives  int // flagged rows that were not actually corrupted
	FalseNegatives  int // corrupted rows the analysis missed
}

// Analyze runs the offline dependency analysis on a deployment's recorded
// history. buggyRun is the run action the administrator identified as the
// bug trigger; whitelist lists tables whose reads do not propagate taint
// (PolicyFlowWhitelist only); corrupted is the ground-truth set of
// corrupted rows, used for the FP/FN accounting.
func Analyze(w *core.Warp, buggyRun history.ActionID, pol Policy, whitelist map[string]bool, corrupted map[RowKey]bool) (*Analysis, error) {
	act := w.Graph.Get(buggyRun)
	if act == nil || act.Kind != history.KindAppRun {
		return nil, fmt.Errorf("taint: action %d is not an application run", buggyRun)
	}
	a := &Analysis{Policy: pol, TaintedRows: make(map[RowKey]bool)}

	taintedParts := ttdb.NewPartitionSet()
	taintRunWrites := func(run *history.Action) {
		payload, ok := run.Payload.(*core.RunPayload)
		if !ok {
			return
		}
		for _, q := range payload.Rec.Queries {
			if !q.IsWrite() {
				continue
			}
			for _, id := range q.WriteRowIDs {
				a.TaintedRows[RowKey{Table: q.Table, Key: id.Key()}] = true
			}
			taintedParts.AddAll(q.WritePartitions)
		}
	}
	taintRunWrites(act)
	a.TaintedRequests = 1

	if pol != PolicyDirect {
		// Propagate forward in time over all later runs.
		for _, run := range w.Graph.ByKind(history.KindAppRun) {
			if run.Time <= act.Time || run.ID == act.ID {
				continue
			}
			payload, ok := run.Payload.(*core.RunPayload)
			if !ok || payload.Repaired {
				continue
			}
			tainted := false
			for _, q := range payload.Rec.Queries {
				if q.Kind == ttdb.KindInsert {
					// An INSERT's recorded read set is its uniqueness
					// footprint (WARP's §6 bookkeeping), not a data flow;
					// the taint baseline tracks only genuine reads.
					continue
				}
				reads := q.ReadPartitions
				if pol == PolicyFlowWhitelist {
					reads = dropWhitelisted(reads, whitelist)
				}
				if taintedParts.OverlapsAny(reads) {
					tainted = true
					break
				}
			}
			if tainted {
				a.TaintedRequests++
				taintRunWrites(run)
			}
		}
	}

	for k := range a.TaintedRows {
		if !corrupted[k] {
			a.FalsePositives++
		}
	}
	for k := range corrupted {
		if !a.TaintedRows[k] {
			a.FalseNegatives++
		}
	}
	return a, nil
}

func dropWhitelisted(parts []ttdb.Partition, whitelist map[string]bool) []ttdb.Partition {
	if len(whitelist) == 0 {
		return parts
	}
	out := parts[:0:0]
	for _, p := range parts {
		if !whitelist[p.Table] {
			out = append(out, p)
		}
	}
	return out
}
