package containment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/core"
	"github.com/pbitree/pbitree/internal/extsort"
)

// PlanEntry is one candidate algorithm with its predicted cost.
type PlanEntry struct {
	Algorithm   string
	PredictedIO int64
	Chosen      bool
}

// Explain returns the optimizer's view of a join without running it: every
// applicable algorithm with its §3.4 page I/O prediction, cheapest first,
// with the cost-based choice marked. Table 1's rule-based choice may
// differ; Result.Algorithm reports what actually ran.
func (e *Engine) Explain(a, d *Relation, spec Spec) []PlanEntry {
	opts := JoinOptions{Spec: spec}
	ctx := &core.Context{Pool: e.pool, TreeHeight: e.cfg.TreeHeight}
	in := core.Gather(ctx, effectiveSpec(&opts, a, d), a.rel, d.rel)
	candidates := []core.Algorithm{
		core.AlgMHCJRollup, core.AlgVPJ, core.AlgStackTree,
		core.AlgMPMGJN, core.AlgADBPlus, core.AlgINLJN, core.AlgNestedLoop,
	}
	if a.singleHeight || spec.SingleHeightA {
		candidates = append(candidates, core.AlgSHCJ)
	}
	chosen := core.ChooseByCost(ctx, effectiveSpec(&opts, a, d), a.rel, d.rel)
	out := make([]PlanEntry, 0, len(candidates))
	for _, alg := range candidates {
		out = append(out, PlanEntry{
			Algorithm:   alg.String(),
			PredictedIO: core.EstimateIO(alg, in),
			Chosen:      alg == chosen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PredictedIO < out[j].PredictedIO })
	return out
}

// ExplainString renders Explain as a small table.
func (e *Engine) ExplainString(a, d *Relation, spec Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "|A|=%d (%d pages)  |D|=%d (%d pages)  b=%d\n",
		a.Len(), a.Pages(), d.Len(), d.Pages(), e.pool.Size())
	for _, p := range e.Explain(a, d, spec) {
		mark := " "
		if p.Chosen {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%s %-14s predicted %d page I/O\n", mark, p.Algorithm, p.PredictedIO)
	}
	return sb.String()
}

// This file adds persistent per-relation access paths: a document-order
// sorted copy, a B+-tree on region Start, and an interval tree over
// regions. With them, the framework's Table 1 rows that assume "sorted" or
// "indexed" inputs run without the on-the-fly preparation cost the
// unsorted/unindexed setting pays — the situation of base relations in a
// stored XML database, as opposed to intermediate results.

// Sort replaces the relation's storage order with document order (region
// Start ascending, ancestors first on ties). Subsequent joins treat it as
// sorted input: the merge joins skip their on-the-fly sorts. The external
// sort I/O is charged when Sort runs.
func (e *Engine) Sort(r *Relation) error {
	if r.sorted {
		return nil
	}
	// Keep the relation's name: the sorted copy replaces it (catalog
	// identity must survive).
	sorted, err := extsort.SortParallel(e.pool, r.rel, extsort.ByStartEndDesc, e.pool.Size(), r.rel.Name(), nil,
		extsort.ParallelOpts{Degree: e.cfg.Parallel})
	if err != nil {
		return err
	}
	sorted.Rename(r.rel.Name()) // sort intermediates carry suffixes
	if err := r.rel.Free(); err != nil {
		return err
	}
	r.rel = sorted
	r.sorted = true
	return nil
}

// BuildStartIndex builds and attaches a persistent B+-tree on the
// relation's region Starts (the index INLJN probes descendant sets with,
// and ADB+ skips through). Build cost (sort + bulk-load) is charged now.
func (e *Engine) BuildStartIndex(r *Relation) error {
	if r.startIdx != nil {
		return nil
	}
	ctx := &core.Context{Pool: e.pool, TreeHeight: e.cfg.TreeHeight}
	idx, err := core.BuildStartIndex(ctx, r.rel, r.rel.Name()+".idx")
	if err != nil {
		return err
	}
	r.startIdx = idx
	return nil
}

// BuildIntervalIndex builds and attaches a persistent interval tree over
// the relation's regions (the index INLJN probes ancestor sets with).
func (e *Engine) BuildIntervalIndex(r *Relation) error {
	if r.intervalIdx != nil {
		return nil
	}
	ctx := &core.Context{Pool: e.pool, TreeHeight: e.cfg.TreeHeight}
	idx, err := core.BuildIntervalIndex(ctx, r.rel)
	if err != nil {
		return err
	}
	r.intervalIdx = idx
	return nil
}

// Sorted reports whether the relation is stored in document order.
func (r *Relation) Sorted() bool { return r.sorted }

// Indexed reports whether the relation has any persistent index.
func (r *Relation) Indexed() bool { return r.startIdx != nil || r.intervalIdx != nil }

// effectiveSpec folds the relations' physical properties into the
// caller-declared spec.
func effectiveSpec(opts *JoinOptions, a, d *Relation) core.InputSpec {
	return core.InputSpec{
		SortedA:       opts.Spec.SortedA || a.sorted,
		SortedD:       opts.Spec.SortedD || d.sorted,
		IndexedA:      opts.Spec.IndexedA || a.Indexed(),
		IndexedD:      opts.Spec.IndexedD || d.startIdx != nil,
		SingleHeightA: opts.Spec.SingleHeightA || a.singleHeight,
	}
}

// JoinRegionNative runs the *native region-coded* stack-tree join over
// (Start, End)-layout copies of a and d — the baseline of ablation A2,
// reproducing the paper's internal comparison of original region-based
// algorithms against their PBiTree adaptations. The layout conversion is
// excluded from the reported cost (a region-coding system stores this
// layout to begin with); the join starts cache-cold like the harness's
// other measurements.
func (e *Engine) JoinRegionNative(a, d *Relation) (*Result, error) {
	stats := &core.Stats{}
	ctx := &core.Context{Pool: e.pool, TreeHeight: e.cfg.TreeHeight, Stats: stats}
	ra, err := core.ToRegionRelation(ctx, a.rel, a.rel.Name()+".region")
	if err != nil {
		return nil, err
	}
	defer ra.Free() //nolint:errcheck // cleanup
	rd, err := core.ToRegionRelation(ctx, d.rel, d.rel.Name()+".region")
	if err != nil {
		return nil, err
	}
	defer rd.Free() //nolint:errcheck // cleanup
	if err := e.DropCache(); err != nil {
		return nil, err
	}
	before := e.disk.Stats()
	start := time.Now()
	if err := core.StackTreeRegionOnTheFly(ctx, ra, rd, &core.CountSink{}); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	io := e.disk.Stats().Sub(before)
	return &Result{
		Algorithm: "STACKTREE-REGION",
		Count:     stats.Pairs,
		IO: IOStats{
			Reads: io.Reads, Writes: io.Writes,
			SeqReads: io.SeqReads, SeqWrites: io.SeqWrites,
			VirtualTime: io.VirtualIO, WallTime: wall,
		},
	}, nil
}

// runIndexed dispatches the index-using algorithms onto persistent
// indexes when present, falling back to on-the-fly builds otherwise.
// It reports whether it handled the algorithm.
func (e *Engine) runIndexed(ctx *core.Context, alg core.Algorithm, a, d *Relation, sink core.Sink) (bool, error) {
	switch alg {
	case core.AlgINLJN:
		// Prefer the cheaper probe direction among available indexes,
		// mirroring core.INLJN's smaller-outer heuristic.
		aFirst := a.rel.NumPages() <= d.rel.NumPages()
		if aFirst && d.startIdx != nil {
			return true, core.INLJNProbeDescendants(ctx, a.rel, d.startIdx, ctx.Wrap(sink))
		}
		if a.intervalIdx != nil {
			return true, core.INLJNProbeAncestors(ctx, a.intervalIdx, d.rel, ctx.Wrap(sink))
		}
		if d.startIdx != nil {
			return true, core.INLJNProbeDescendants(ctx, a.rel, d.startIdx, ctx.Wrap(sink))
		}
		return false, nil
	case core.AlgADBPlus:
		if a.startIdx != nil && d.startIdx != nil {
			return true, core.ADBPlus(ctx, a.startIdx, d.startIdx, sink)
		}
		return false, nil
	default:
		return false, nil
	}
}
