package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// loadFmt creates a relation from codes in the requested page format.
// load always builds fixed-width pages; the kernel equivalence matrix
// needs both layouts.
func loadFmt(t *testing.T, ctx *Context, name string, codes []pbicode.Code, compress bool) *relation.Relation {
	t.Helper()
	rel := relation.New(ctx.Pool, name)
	rel.SetCompress(compress)
	app := rel.NewAppender()
	for i, c := range codes {
		if err := app.Append(relation.Rec{Code: c, Aux: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	return rel
}

// regionJoin adapts the native region path to joinFunc shape: convert
// both inputs (inheriting their page format), run the original
// stack-tree over stored regions, and decode emissions back to element
// codes so results compare against the PBiTree-coded algorithms.
func regionJoin(ctx *Context, a, d *relation.Relation, sink Sink) error {
	ra, err := ToRegionRelation(ctx, a, "RA")
	if err != nil {
		return err
	}
	defer ra.Free() //nolint:errcheck // cleanup
	rd, err := ToRegionRelation(ctx, d, "RD")
	if err != nil {
		return err
	}
	defer rd.Free() //nolint:errcheck // cleanup
	return StackTreeRegionOnTheFly(ctx, ra, rd, sinkFunc(func(ar, dr relation.Rec) error {
		return sink.Emit(
			relation.Rec{Code: pbicode.FromRegion(pbicode.Region{Start: uint64(ar.Code), End: ar.Aux})},
			relation.Rec{Code: pbicode.FromRegion(pbicode.Region{Start: uint64(dr.Code), End: dr.Aux})},
		)
	}))
}

// kernelCase is one algorithm in the slab-kernel equivalence matrix.
// aFixed pins the ancestor side to a single node height when >= 0 (SHCJ's
// required input shape); -1 draws multi-height codes.
type kernelCase struct {
	name   string
	fn     joinFunc
	aFixed int
}

// kernelCases lists every join built on the slab kernels: equijoins and
// hash partitioning (MHCJ, rollup, SHCJ), VPJ's subtree routing, the
// region conversion, and the sort-backed baseline whose inputs flow
// through extsort (which must preserve the compressed page format across
// runs and merges).
func kernelCases() []kernelCase {
	return []kernelCase{
		{"MHCJ", MHCJ, -1},
		{"MHCJRollup", func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 0, s) }, -1},
		{"VPJ", VPJ, -1},
		{"SHCJ", SHCJAuto, 5},
		{"Region", regionJoin, -1},
		{"StackTree", StackTreeOnTheFly, -1},
	}
}

// runKernel evaluates fn over fresh relations in the given page format
// and parallel degree, returning the emitted pairs.
func runKernel(t *testing.T, label string, fn joinFunc, b, h, degree int, compress bool, aCodes, dCodes []pbicode.Code) []Pair {
	t.Helper()
	ctx := newCtx(t, b, h)
	ctx.Parallel = degree
	a := loadFmt(t, ctx, "A", aCodes, compress)
	d := loadFmt(t, ctx, "D", dCodes, compress)
	var sink PairSink
	if err := fn(ctx, a, d, &sink); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if ctx.Stats.Pairs != int64(len(sink.Pairs)) {
		t.Fatalf("%s: Stats.Pairs = %d, emitted %d", label, ctx.Stats.Pairs, len(sink.Pairs))
	}
	if got := ctx.Pool.PinnedFrames(); got != 0 {
		t.Fatalf("%s: leaked %d pins", label, got)
	}
	return sink.Pairs
}

// TestKernelsMatchOracleRandom is the core slab-kernel equivalence
// property: for random inputs in both page formats, every kernelCases
// join emits exactly the oracle's result set. b=4 forces the grace/block
// equijoin paths (memory budget of ~30 records); b=64 keeps the
// in-memory hash builds.
func TestKernelsMatchOracleRandom(t *testing.T) {
	const h = 12
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		na, nd := 300+rng.Intn(400), 300+rng.Intn(500)
		dCodes := randCodes(rng, nd, h, -1)
		for _, tc := range kernelCases() {
			aCodes := randCodes(rng, na, h, tc.aFixed)
			want := oracle(aCodes, dCodes)
			for _, compress := range []bool{false, true} {
				for _, b := range []int{4, 64} {
					label := fmt.Sprintf("%s(b=%d compress=%v)", tc.name, b, compress)
					samePairs(t, label, runKernel(t, label, tc.fn, b, h, 0, compress, aCodes, dCodes), want)
				}
			}
		}
	}
}

// TestKernelsMatchOracleParallel crosses the slab kernels with the
// parallel fan-out at degrees 1, 2, and 8 in both page formats: temp
// partitions the workers scan must carry the input's format, and every
// degree must emit exactly the oracle's result set.
func TestKernelsMatchOracleParallel(t *testing.T) {
	const h = 12
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		na, nd := 500+rng.Intn(400), 500+rng.Intn(500)
		dCodes := randCodes(rng, nd, h, -1)
		for _, tc := range kernelCases() {
			aCodes := randCodes(rng, na, h, tc.aFixed)
			want := oracle(aCodes, dCodes)
			for _, compress := range []bool{false, true} {
				for _, degree := range []int{1, 2, 8} {
					label := fmt.Sprintf("%s(parallel=%d compress=%v)", tc.name, degree, compress)
					samePairs(t, label, runKernel(t, label, tc.fn, 24, h, degree, compress, aCodes, dCodes), want)
				}
			}
		}
	}
}
