package main

import (
	"github.com/pbitree/pbitree/internal/trace"
)

// phaseTally accumulates engine span trees: self time and self pages per
// phase, the counters of the join roots, and the invariant that phase
// self times add up to each join's wall time.
type phaseTally struct {
	selfNS, pages map[string]int64
	// rootWallNS sums join wall times; selfSumNS sums every phase self
	// time under them. Their ratio is core.phase_sum_ratio.
	rootWallNS, selfSumNS int64

	reads, writes, seq, hits, misses, evictions, predicted int64
}

func newPhaseTally() *phaseTally {
	return &phaseTally{selfNS: map[string]int64{}, pages: map[string]int64{}}
}

// addJoin adds one engine join tree (its root is the "join" span).
func (t *phaseTally) addJoin(root *trace.WireSpan) {
	if root == nil {
		return
	}
	t.rootWallNS += root.WallNS
	root.Walk(func(sp *trace.WireSpan, _ int) {
		self := sp.SelfWallNS()
		t.selfNS[sp.Name] += self
		t.selfSumNS += self
		pages := sp.Pages()
		for _, c := range sp.Children {
			pages -= c.Pages()
		}
		t.pages[sp.Name] += pages
	})
	t.reads += root.Reads
	t.writes += root.Writes
	t.seq += root.SeqReads + root.SeqWrites
	t.hits += root.PoolHits
	t.misses += root.PoolMisses
	t.evictions += root.PoolEvictions
	t.predicted += root.PredictedIO
}

// record stores the tally's per-layer metrics into m, per operation over
// ops operations (passes or requests).
func (t *phaseTally) record(m map[string]float64, ops int) {
	per := func(v int64) float64 { return ratio(float64(v), float64(ops)) }
	for _, p := range enginePhases {
		m["core.phase."+p+".self_ms"] = per(t.selfNS[p]) / 1e6
		m["core.phase."+p+".pages"] = per(t.pages[p])
	}
	m["core.phase_sum_ratio"] = ratio(float64(t.selfSumNS), float64(t.rootWallNS))
	m["buffer.hit_ratio"] = ratio(float64(t.hits), float64(t.hits+t.misses))
	m["buffer.evictions"] = per(t.evictions)
	m["storage.reads"] = per(t.reads)
	m["storage.writes"] = per(t.writes)
	m["storage.seq_share"] = ratio(float64(t.seq), float64(t.reads+t.writes))
	m["containment.io_actual_over_predicted"] = ratio(float64(t.reads+t.writes), float64(t.predicted))
}

// unknownPhases lists phase names the tally saw that enginePhases lacks,
// so a renamed or new engine phase shows instead of vanishing.
func (t *phaseTally) unknownPhases() []string {
	known := map[string]bool{}
	for _, p := range enginePhases {
		known[p] = true
	}
	var out []string
	for p := range t.selfNS {
		if !known[p] {
			out = append(out, p)
		}
	}
	return out
}

// engineJoins returns the engine join trees under a routed or node span
// tree: every "join" span that is not itself under a "join" span and is
// not the router's own root.
func engineJoins(sp *trace.WireSpan) []*trace.WireSpan {
	if sp == nil {
		return nil
	}
	if sp.Name == "join" && sp.Node == "" {
		return []*trace.WireSpan{sp}
	}
	var out []*trace.WireSpan
	for _, c := range sp.Children {
		out = append(out, engineJoins(c)...)
	}
	return out
}

// routedBreakdown splits one routed request's client latency along its
// blocking path: the client-side gap, the router's own time, its merge,
// and on the slowest node the time outside the engine and in it. The rest
// — fan-out scheduling around the slowest node — is unattributed.
type routedBreakdown struct {
	gapNS, routerSelfNS, mergeNS, nodeNS, outsideNS, engineNS, unattributedNS int64
	skew                                                                      float64
}

func breakdownRouted(clientNS int64, root *trace.WireSpan) (routedBreakdown, bool) {
	var b routedBreakdown
	var fanout *trace.WireSpan
	for _, c := range root.Children {
		switch c.Name {
		case "fanout":
			fanout = c
		case "merge":
			b.mergeNS += c.WallNS
		}
	}
	if fanout == nil {
		return b, false
	}
	var slowest *trace.WireSpan
	fastest := int64(-1)
	for _, n := range fanout.Children {
		if n.Name != "node" {
			continue
		}
		if slowest == nil || n.WallNS > slowest.WallNS {
			slowest = n
		}
		if fastest < 0 || n.WallNS < fastest {
			fastest = n.WallNS
		}
	}
	if slowest == nil {
		return b, false
	}
	b.gapNS = clientNS - root.WallNS
	b.routerSelfNS = root.WallNS - fanout.WallNS - b.mergeNS
	b.nodeNS = slowest.WallNS
	for _, j := range engineJoins(slowest) {
		b.engineNS += j.WallNS
	}
	b.outsideNS = b.nodeNS - b.engineNS
	b.unattributedNS = clientNS - (b.gapNS + b.routerSelfNS + b.mergeNS + b.outsideNS + b.engineNS)
	b.skew = ratio(float64(slowest.WallNS), float64(fastest))
	return b, true
}
