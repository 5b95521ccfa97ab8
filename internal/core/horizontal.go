package core

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the horizontal partitioning algorithms of section
// 3.2: SHCJ (Algorithm 2), MHCJ (Algorithm 3) and MHCJ+Rollup (Algorithm 4).
// They turn the containment θ-join into equijoins on F(D.Code, h) and
// require neither sorted inputs nor indexes.

// SHCJ evaluates the single-height containment join (Algorithm 2): all
// records of a must be at PBiTree height h; the join becomes the equijoin
// A ⋈_{A.Code = F(D.Code, h)} D.
func SHCJ(ctx *Context, a, d *relation.Relation, h int, sink Sink) error {
	if h <= 0 {
		return fmt.Errorf("core: SHCJ needs the ancestor height, got %d", h)
	}
	return equiJoin(ctx, a, d, h, nil, ctx.Wrap(sink), 0)
}

// SHCJAuto runs SHCJ after reading the (single) ancestor height from the
// first record of a. The caller guarantees a is single-height; an empty a
// joins to nothing.
func SHCJAuto(ctx *Context, a, d *relation.Relation, sink Sink) error {
	s := a.Scan()
	if !s.Next() {
		err := s.Err()
		s.Close()
		return err
	}
	h := s.Rec().Code.Height()
	s.Close()
	return SHCJ(ctx, a, d, h, sink)
}

// MHCJ evaluates the multiple-height containment join (Algorithm 3): it
// splits a into per-height partition files in one scan, then runs SHCJ of
// each partition against d. The per-partition results are disjoint, so
// they stream straight to sink.
func MHCJ(ctx *Context, a, d *relation.Relation, sink Sink) error {
	return mhcj(ctx, a, d, ctx.Wrap(sink))
}

func mhcj(ctx *Context, a, d *relation.Relation, sink Sink) error {
	psp := ctx.Trace.Start("partition")
	parts, heights, err := partitionByHeight(ctx, a)
	if psp != nil {
		psp.Detail = fmt.Sprintf("heights=%d", len(heights))
	}
	ctx.Trace.End(psp)
	if err != nil {
		return err
	}
	defer func() {
		for _, p := range parts {
			if p != nil {
				p.Free() //nolint:errcheck // cleanup
			}
		}
	}()
	// The per-height equijoins share no state (heights partition A, and a
	// pair's height is its ancestor's height), so with a parallel degree
	// they fan out across worker pools, emitting through one serialized
	// sink into the parent's chain. The deferred free above covers every
	// partition regardless of which worker joined it.
	if degree := ctx.parallelDegree(len(heights)); degree > 1 {
		shared := &lockedSink{sink: sink}
		return ctx.runParallel(degree, len(heights), "equijoin",
			func(i int) string { return fmt.Sprintf("h=%d", heights[i]) },
			func(child *Context, i int) error {
				h := heights[i]
				return equiJoin(child,
					parts[h].WithPool(child.Pool), d.WithPool(child.Pool),
					h, nil, child.Wrap(shared), 0)
			})
	}
	for _, h := range heights {
		sp := ctx.Trace.StartDetail("equijoin", fmt.Sprintf("h=%d", h))
		err := equiJoin(ctx, parts[h], d, h, nil, sink, 0)
		ctx.Trace.End(sp)
		if err != nil {
			return err
		}
		if err := parts[h].Free(); err != nil {
			return err
		}
		parts[h] = nil
	}
	return nil
}

// partitionByHeight splits rel into one relation per distinct record
// height, opened lazily during a single scan. Each partition holds one
// output frame, so when the distinct heights exceed the frame budget the
// scan runs in waves — up to b-2 new heights per pass, extra passes
// charged like any other read (only relevant for tiny pools; the paper's
// experiments keep one frame per height). Returns the partitions indexed
// by height plus the heights present in ascending order.
func partitionByHeight(ctx *Context, rel *relation.Relation) (map[int]*relation.Relation, []int, error) {
	parts := make(map[int]*relation.Relation)
	done := make(map[int]bool)
	// On error, partitions created so far would otherwise leak: the caller
	// only sees (and frees) a successfully returned map.
	freeParts := func() {
		for _, p := range parts {
			p.Free() //nolint:errcheck // cleanup after earlier error
		}
	}
	var s relation.BatchScanner
	for {
		apps := make(map[int]*relation.Appender)
		closeApps := func() error {
			var first error
			for _, ap := range apps {
				if err := ap.Close(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		deferred := false
		s.Reset(rel)
		for s.Next() {
			codes, aux := s.Codes(), s.Aux()
			for i, c := range codes {
				h := bits.TrailingZeros64(c)
				if done[h] {
					continue
				}
				ap, ok := apps[h]
				if !ok {
					if len(apps)+2 > ctx.b() {
						deferred = true // another wave picks this height up
						continue
					}
					parts[h] = relation.New(ctx.Pool, ctx.tmp(fmt.Sprintf("mhcj.h%d", h)))
					parts[h].SetCompress(rel.Compressed())
					ap = parts[h].NewAppender()
					apps[h] = ap
					ctx.stats().Partitions++
				}
				if err := ap.Append(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}); err != nil {
					closeApps() //nolint:errcheck // first error wins
					freeParts()
					return nil, nil, err
				}
			}
		}
		if err := s.Err(); err != nil {
			closeApps() //nolint:errcheck // first error wins
			freeParts()
			return nil, nil, err
		}
		if err := closeApps(); err != nil {
			freeParts()
			return nil, nil, err
		}
		for h := range apps {
			done[h] = true
		}
		if !deferred {
			break
		}
	}
	heights := make([]int, 0, len(parts))
	for h := range parts {
		heights = append(heights, h)
	}
	// Ascending heights; order does not affect the result set.
	sort.Ints(heights)
	return parts, heights, nil
}

// verifySink post-filters rollup matches: the rolled ancestor record
// carries the original code in Aux; only pairs where the original node is
// a proper ancestor survive (Algorithm 4's pipelined check). False hits
// are counted for Table 2(f).
type verifySink struct {
	sink  Sink
	stats *Stats
}

func (s verifySink) Emit(a, d relation.Rec) error {
	orig := pbicode.Code(a.Aux)
	if !pbicode.IsAncestor(orig, d.Code) {
		s.stats.FalseHits++
		return nil
	}
	return s.sink.Emit(relation.Rec{Code: orig, Aux: a.Aux}, d)
}

// rollPrep returns the on-the-fly rollup transform for target height h:
// records below h map to their height-h ancestor, Aux keeps the original
// code for verification. Records at or above h pass through (with Aux set
// to their own code so the verification filter is uniform).
func rollPrep(h int) aPrep {
	return func(r relation.Rec) relation.Rec {
		out := relation.Rec{Code: r.Code, Aux: uint64(r.Code)}
		if r.Code.Height() < h {
			out.Code = pbicode.F(r.Code, h)
		}
		return out
	}
}

// MHCJRollup evaluates MHCJ with the rollup technique (Algorithm 4): every
// ancestor below the target height h is replaced by its ancestor at h
// (keeping the original code for the pipelined verification filter), which
// collapses the horizontal partitions below h into one. The equijoin then
// over-matches and the filter drops false hits.
//
// targetH <= 0 picks the paper's "simple strategy": roll everything up to
// the highest ancestor height, leaving a single SHCJ whose rollup happens
// on the fly during the join's own scan of a — the 3(‖A‖+‖D‖) case. The
// target comes from ctx.MaxAncestorHeight when set (catalog statistics);
// otherwise a pre-scan discovers it at the cost of one read of a.
func MHCJRollup(ctx *Context, a, d *relation.Relation, targetH int, sink Sink) error {
	return mhcjRollup(ctx, a, d, targetH, ctx.Wrap(sink))
}

// mhcjRollup is MHCJRollup against an already-wrapped sink, so that
// composite algorithms (VPJ's fallbacks) do not double-count pairs.
func mhcjRollup(ctx *Context, a, d *relation.Relation, targetH int, sink Sink) error {
	knownMax := ctx.MaxAncestorHeight
	if targetH <= 0 || knownMax == 0 {
		if knownMax == 0 {
			hsp := ctx.Trace.Start("height-scan")
			hist, err := HeightHistogram(a)
			ctx.Trace.End(hsp)
			if err != nil {
				return err
			}
			knownMax = maxHeight(hist)
			if knownMax < 0 { // empty ancestor set
				return nil
			}
			if targetH <= 0 {
				// Rolling to the maximum height is the paper's simple
				// strategy, but a single near-root outlier then collapses
				// every ancestor onto one join key and the equijoin
				// degenerates toward a cross product. Target the 99th
				// height percentile instead: concentrated sets (tag sets
				// span a few heights) still roll to their top, while
				// outliers keep their own exact partitions.
				targetH = quantileHeight(hist, 0.99)
			}
		}
		if targetH <= 0 {
			targetH = knownMax // catalog value, trusted concentrated
		}
	}
	vs := verifySink{sink: sink, stats: ctx.stats()}
	if targetH >= knownMax {
		// Simple strategy: everything rolls to one height; a single
		// equijoin with on-the-fly rollup.
		sp := ctx.Trace.StartDetail("equijoin", fmt.Sprintf("rollup h=%d", targetH))
		err := equiJoin(ctx, a, d, targetH, rollPrep(targetH), vs, 0)
		ctx.Trace.End(sp)
		return err
	}
	// General case: heights above targetH survive the rollup. Split the
	// scan: records at or below targetH roll into one equijoin input;
	// the (few) higher records go to a side file joined in a single
	// multi-height pass over D.
	ssp := ctx.Trace.StartDetail("rollup-split", fmt.Sprintf("h=%d", targetH))
	rolled := relation.New(ctx.Pool, ctx.tmp("rollup"))
	high := relation.New(ctx.Pool, ctx.tmp("rollup.high"))
	rolled.SetCompress(a.Compressed())
	high.SetCompress(a.Compressed())
	// Freed on every exit, including split-scan errors below; the error
	// paths close both appenders first so Free can discard the tail pages.
	defer rolled.Free() //nolint:errcheck // cleanup
	defer high.Free()   //nolint:errcheck // cleanup
	rApp, hApp := rolled.NewAppender(), high.NewAppender()
	if err := rollupSplit(ctx, a, targetH, rApp, hApp); err != nil {
		rApp.Close() //nolint:errcheck // first error wins
		hApp.Close() //nolint:errcheck // first error wins
		return err
	}
	errR, errH := rApp.Close(), hApp.Close()
	if errR != nil {
		return errR
	}
	if errH != nil {
		return errH
	}
	ctx.Trace.End(ssp)
	if rolled.NumRecords() > 0 {
		sp := ctx.Trace.StartDetail("equijoin", fmt.Sprintf("rollup h=%d", targetH))
		err := equiJoin(ctx, rolled, d, targetH, nil, vs, 0)
		ctx.Trace.End(sp)
		if err != nil {
			return err
		}
	}
	if high.NumRecords() == 0 {
		return nil
	}
	if high.NumRecords() <= int64(ctx.memRecs(ctx.b()-2)) {
		sp := ctx.Trace.Start("multi-probe")
		err := multiHeightProbeJoin(ctx, high, d, sink)
		ctx.Trace.End(sp)
		return err
	}
	// A heavy above-target tail (the target was a quantile, so this means
	// an extreme distribution): per-height equijoins as in plain MHCJ.
	return mhcj(ctx, high, d, vs)
}

// rollupSplit scans a once, routing records above targetH (with Aux set
// to their own code) to hApp and everything else, rolled up with the
// branch-free F constants, to rApp. Aux of the input is not read: like
// rollPrep, the output Aux carries the original code for the
// verification filter.
func rollupSplit(ctx *Context, a *relation.Relation, targetH int, rApp, hApp *relation.Appender) error {
	mask, bit, low := fMask(targetH)
	s := a.BatchScan()
	for s.Next() {
		for _, c := range s.Codes() {
			var err error
			if bits.TrailingZeros64(c) > targetH {
				err = hApp.Append(relation.Rec{Code: pbicode.Code(c), Aux: c})
			} else {
				rolled := c
				if c&low != 0 { // height below target: roll up
					rolled = c&mask | bit
				}
				err = rApp.Append(relation.Rec{Code: pbicode.Code(rolled), Aux: c})
			}
			if err != nil {
				return err
			}
		}
	}
	return s.Err()
}

// multiHeightProbeJoin joins a memory-resident multi-height ancestor set
// against d in one scan: a hash table keyed by ancestor code, probed with
// F(d, h) for each distinct ancestor height — the ancestor-enumeration
// join only PBiTree codes make possible (each probe key is computed from
// the descendant's code alone). Results are exact; no verification needed.
func multiHeightProbeJoin(ctx *Context, a, d *relation.Relation, sink Sink) error {
	table := newFlatTable(a.NumRecords())
	heightSet := make(map[int]struct{})
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			table.add(c, relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
			heightSet[bits.TrailingZeros64(c)] = struct{}{}
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	masks := make([][3]uint64, 0, len(heightSet))
	for h := range heightSet {
		m, b, low := fMask(h)
		masks = append(masks, [3]uint64{m, b, low})
	}
	ds := d.BatchScan()
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		for i, c := range codes {
			for _, mb := range masks {
				if c&mb[2] == 0 {
					continue // descendant at or above this ancestor height
				}
				idx := table.probe(c&mb[0] | mb[1])
				if idx == 0 {
					continue
				}
				dr := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
				for ; idx != 0; idx = table.next[idx-1] {
					if err := sink.Emit(table.recs[idx-1], dr); err != nil {
						return err
					}
				}
			}
		}
	}
	return ds.Err()
}
