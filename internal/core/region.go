package core

import (
	"github.com/pbitree/pbitree/internal/extsort"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements a *native region-coded* execution path: relations
// whose records store the (Start, End) pair explicitly — Start in the Code
// field, End in Aux — exactly what a region-coding system materializes.
// It exists for ablation A2: the paper compared its PBiTree-adapted
// algorithms (which derive Start/End from the code on the fly, Lemma 3)
// against the original region-based ones and found "almost the same
// performance"; these functions reproduce that comparison. Both layouts
// are 16 bytes per record, so page counts match and any difference is pure
// conversion CPU.

// ToRegionRelation rewrites a PBiTree-coded relation into region layout:
// Code holds Start, Aux holds End. The copy cost is charged like any scan;
// A2 excludes it from the measured joins (a region system would have
// stored this layout to begin with).
func ToRegionRelation(ctx *Context, rel *relation.Relation, name string) (*relation.Relation, error) {
	out := relation.New(ctx.Pool, name)
	out.SetCompress(rel.Compressed())
	app := out.NewAppender()
	fail := func(err error) (*relation.Relation, error) {
		app.Close() //nolint:errcheck // first error wins
		out.Free()  //nolint:errcheck // cleanup after earlier error
		return nil, err
	}
	var starts, ends []uint64
	bs := rel.BatchScan()
	for bs.Next() {
		codes := bs.Codes()
		if cap(starts) < len(codes) {
			starts = make([]uint64, len(codes))
			ends = make([]uint64, len(codes))
		}
		starts, ends = starts[:len(codes)], ends[:len(codes)]
		pbicode.RegionBatch(starts, ends, codes)
		for i := range codes {
			if err := app.Append(relation.Rec{Code: pbicode.Code(starts[i]), Aux: ends[i]}); err != nil {
				return fail(err)
			}
		}
	}
	if err := bs.Err(); err != nil {
		return fail(err)
	}
	if err := app.Close(); err != nil {
		out.Free() //nolint:errcheck // cleanup after earlier error
		return nil, err
	}
	return out, nil
}

// ByStoredRegion orders region-layout records in document order: stored
// Start ascending, stored End descending.
func ByStoredRegion(r relation.Rec) extsort.Key {
	return extsort.Key{uint64(r.Code), ^r.Aux}
}

// regionContains reports whether region record s properly contains region
// record d under closed-interval semantics.
func regionContains(s, d relation.Rec) bool {
	return uint64(s.Code) <= uint64(d.Code) && d.Aux <= s.Aux && s != d
}

// StackTreeRegion is the stack-tree-desc join over region-layout inputs in
// document order: the original algorithm, no PBiTree arithmetic anywhere.
// Emitted records keep the region layout; use pbicode.FromRegion to
// recover element codes.
func StackTreeRegion(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sink = ctx.Wrap(sink)
	as, ds := a.Scan(), d.Scan()
	defer as.Close()
	defer ds.Close()
	var st []relation.Rec
	popBelow := func(start uint64) {
		for len(st) > 0 && st[len(st)-1].Aux < start {
			st = st[:len(st)-1]
		}
	}
	less := func(x, y relation.Rec) bool {
		return ByStoredRegion(x).Less(ByStoredRegion(y))
	}
	hasA, hasD := as.Next(), ds.Next()
	for hasD {
		if hasA && !less(ds.Rec(), as.Rec()) {
			ar := as.Rec()
			popBelow(uint64(ar.Code))
			st = append(st, ar)
			hasA = as.Next()
			continue
		}
		dr := ds.Rec()
		popBelow(uint64(dr.Code))
		for _, s := range st {
			if regionContains(s, dr) {
				if err := sink.Emit(s, dr); err != nil {
					return err
				}
			}
		}
		hasD = ds.Next()
	}
	if err := as.Err(); err != nil {
		return err
	}
	return ds.Err()
}

// StackTreeRegionOnTheFly sorts region-layout inputs (cost charged) and
// runs StackTreeRegion, mirroring StackTreeOnTheFly for the adapted path.
func StackTreeRegionOnTheFly(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sa, err := sortWith(ctx, a, ByStoredRegion, "str.a")
	if err != nil {
		return err
	}
	defer sa.Free() //nolint:errcheck // cleanup
	sd, err := sortWith(ctx, d, ByStoredRegion, "str.d")
	if err != nil {
		return err
	}
	defer sd.Free() //nolint:errcheck // cleanup
	return StackTreeRegion(ctx, sa, sd, sink)
}
