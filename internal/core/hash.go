package core

import (
	"fmt"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the equijoin engine behind the horizontal
// partitioning algorithms: A ⋈ D on A.Code = F(D.Code, h), evaluated as an
// in-memory hash join when a side fits the memory budget and as a Grace
// hash join (partition both sides by a shared hash of the join key, then
// join partition pairs) otherwise — the "highly optimized equijoin
// evaluation techniques" the paper's section 3.2 leans on, with the
// textbook 3(‖A‖+‖D‖) I/O when one partitioning pass suffices.
//
// The ancestor side may be transformed on the fly by a prep function; the
// rollup technique uses this to roll ancestors up to the target height
// during the very scan that feeds the join, so the "simple strategy" of
// the paper costs no extra materialization pass.

// splitmix64 is the 64-bit finalizer used to hash join keys; a salt
// decorrelates recursive partitioning rounds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// aPrep transforms ancestor-side records as they are scanned (identity
// when nil). Rollup sets Code to the rolled-up code and Aux to the
// original code.
type aPrep func(relation.Rec) relation.Rec

// equiJoin evaluates A ⋈_{prep(A).Code = F(D.Code, h)} D into sink. All
// useful matches have ancestor-side height exactly h (callers arrange
// this: SHCJ's A is single-height; rollup preps codes to height h).
// Emission passes the prepped ancestor record through, so rollup callers
// can post-filter via Aux.
func equiJoin(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink, depth int) error {
	memCap := ctx.memRecs(ctx.b() - 2)
	switch {
	case a.NumRecords() <= int64(memCap):
		return hashJoinBuildA(ctx, a, d, h, prep, sink)
	case d.NumRecords() <= int64(memCap):
		return hashJoinBuildD(ctx, a, d, h, prep, sink)
	case depth >= 8:
		// Pathological skew (e.g. one giant duplicate key): stop
		// partitioning and block-join.
		return blockEquiJoin(ctx, a, d, h, prep, sink)
	default:
		return graceJoin(ctx, a, d, h, prep, sink, depth)
	}
}

// hashJoinBuildA builds the table on the ancestor side and streams D page
// slabs, deriving each probe key branch-free.
func hashJoinBuildA(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	sp := ctx.Trace.StartDetail("hash-join", "build=A")
	defer ctx.Trace.End(sp)
	table := newFlatTable(a.NumRecords())
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		if prep == nil {
			for i, c := range codes {
				table.add(c, relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
			}
		} else {
			for i, c := range codes {
				r := prep(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
				table.add(uint64(r.Code), r)
			}
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	ds := d.BatchScan()
	for ds.Next() {
		if err := table.probeD(ds.Codes(), ds.Aux(), h, sink); err != nil {
			return err
		}
	}
	return ds.Err()
}

// hashJoinBuildD builds the table on the descendant side, keyed by the
// FBatch-derived codes of eligible D records, and streams (prepped) A.
func hashJoinBuildD(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	sp := ctx.Trace.StartDetail("hash-join", "build=D")
	defer ctx.Trace.End(sp)
	table := newFlatTable(d.NumRecords())
	_, _, low := fMask(h)
	var fkeys []uint64
	ds := d.BatchScan()
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		fkeys = fBatch(fkeys, codes, h)
		for i, c := range codes {
			if c&low != 0 {
				table.add(fkeys[i], relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
			}
		}
	}
	if err := ds.Err(); err != nil {
		return err
	}
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			ar := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			if prep != nil {
				ar = prep(ar)
			}
			for idx := table.probe(uint64(ar.Code)); idx != 0; idx = table.next[idx-1] {
				if err := sink.Emit(ar, table.recs[idx-1]); err != nil {
					return err
				}
			}
		}
	}
	return as.Err()
}

// graceJoin partitions both inputs by a shared hash of the join key and
// joins partition pairs, recursing on still-oversized pairs. Ancestor
// partitions hold prepped records, so recursion passes a nil prep.
func graceJoin(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink, depth int) error {
	b := ctx.b()
	minPages := a.NumPages()
	if p := d.NumPages(); p < minPages {
		minPages = p
	}
	k := int((minPages + int64(b-3)) / int64(b-2))
	if k < 2 {
		k = 2
	}
	if k > b-1 {
		k = b - 1
	}
	salt := uint64(depth+1) * 0x9e3779b97f4a7c15
	if depth+1 > ctx.stats().MaxRecursion {
		ctx.stats().MaxRecursion = depth + 1
	}

	psp := ctx.Trace.StartDetail("grace-partition", fmt.Sprintf("k=%d depth=%d", k, depth))
	// Ancestor side: every record is kept, keyed by its (prepped) code.
	aParts, err := hashPartition(ctx, a, k, "ha", salt, func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error {
		for i, c := range codes {
			r := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			if prep != nil {
				r = prep(r)
			}
			if err := emit(r, uint64(r.Code)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		ctx.Trace.End(psp)
		return err
	}
	// Descendant side: eligible records (height below h), keyed by their
	// FBatch-derived join code.
	_, _, low := fMask(h)
	var fkeys []uint64
	dParts, err := hashPartition(ctx, d, k, "hd", salt, func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error {
		fkeys = fBatch(fkeys, codes, h)
		for i, c := range codes {
			if c&low == 0 {
				continue
			}
			if err := emit(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}, fkeys[i]); err != nil {
				return err
			}
		}
		return nil
	})
	ctx.Trace.End(psp)
	if err != nil {
		freeAll(aParts)
		return err
	}
	defer freeAll(aParts)
	defer freeAll(dParts)
	for i := 0; i < k; i++ {
		if aParts[i].NumRecords() == 0 || dParts[i].NumRecords() == 0 {
			continue
		}
		if aParts[i].NumRecords() == a.NumRecords() && dParts[i].NumRecords() == d.NumRecords() {
			// The hash achieved nothing: every record shares one join
			// key (an extreme rollup). No salt will split it — block-join
			// immediately instead of burning recursion passes.
			if err := blockEquiJoin(ctx, aParts[i], dParts[i], h, nil, sink); err != nil {
				return err
			}
		} else if err := equiJoin(ctx, aParts[i], dParts[i], h, nil, sink, depth+1); err != nil {
			return err
		}
		if err := aParts[i].Free(); err != nil {
			return err
		}
		if err := dParts[i].Free(); err != nil {
			return err
		}
	}
	return nil
}

// hashPartition splits rel into k partition relations by hash(key) and
// returns them. page is called once per page slab with an emit that
// routes one kept record by its hash key. Appenders are opened lazily so
// empty partitions cost nothing; partitions inherit the input's page
// format.
func hashPartition(ctx *Context, rel *relation.Relation, k int, kind string, salt uint64, page func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error) ([]*relation.Relation, error) {
	parts := make([]*relation.Relation, k)
	apps := make([]*relation.Appender, k)
	for i := range parts {
		parts[i] = relation.New(ctx.Pool, ctx.tmp(kind))
		parts[i].SetCompress(rel.Compressed())
	}
	closeApps := func() error {
		var first error
		for _, ap := range apps {
			if ap != nil {
				if err := ap.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}
	// fail cleans up on any error: the caller never sees the partitions, so
	// they must be freed here or they leak.
	fail := func(err error) ([]*relation.Relation, error) {
		closeApps() //nolint:errcheck // first error wins
		freeAll(parts)
		return nil, err
	}
	emit := func(r relation.Rec, kv uint64) error {
		i := int(splitmix64(kv^salt) % uint64(k))
		if apps[i] == nil {
			apps[i] = parts[i].NewAppender()
			ctx.stats().Partitions++
		}
		return apps[i].Append(r)
	}
	s := rel.BatchScan()
	for s.Next() {
		if err := page(s.Codes(), s.Aux(), emit); err != nil {
			return fail(err)
		}
	}
	if err := s.Err(); err != nil {
		return fail(err)
	}
	if err := closeApps(); err != nil {
		freeAll(parts)
		return nil, err
	}
	return parts, nil
}

// freeAll releases partition relations, ignoring errors (cleanup path).
func freeAll(parts []*relation.Relation) {
	for _, p := range parts {
		if p != nil {
			p.Free() //nolint:errcheck // best-effort cleanup
		}
	}
}

// blockEquiJoin is the terminal fallback: hash chunks of A in memory and
// rescan D per chunk through one resettable batch scanner.
func blockEquiJoin(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	sp := ctx.Trace.Start("block-join")
	defer ctx.Trace.End(sp)
	chunkCap := ctx.memRecs(ctx.b() - 2)
	if chunkCap < 1 {
		chunkCap = 1
	}
	table := newFlatTable(int64(chunkCap))
	var ds relation.BatchScanner
	join := func() error {
		if table.len() == 0 {
			return nil
		}
		ds.Reset(d)
		for ds.Next() {
			if err := table.probeD(ds.Codes(), ds.Aux(), h, sink); err != nil {
				return err
			}
		}
		return ds.Err()
	}
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			r := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			if prep != nil {
				r = prep(r)
			}
			table.add(uint64(r.Code), r)
			if table.len() == chunkCap {
				if err := join(); err != nil {
					return err
				}
				table.reset()
			}
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	return join()
}
