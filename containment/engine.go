package containment

import (
	"context"
	"fmt"
	"time"

	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/core"
	"github.com/pbitree/pbitree/internal/itree"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// Config configures an Engine.
type Config struct {
	// PageSize in bytes; 0 means 4096.
	PageSize int
	// BufferPages is the buffer pool size b; 0 means 1024 frames.
	// The paper's experiments use 500.
	BufferPages int
	// Path stores pages in a file; empty keeps them in memory. Either
	// way, all I/O is counted and charged to the virtual clock.
	Path string
	// DiskCost models the virtual disk; zero values disable the clock.
	DiskCost DiskCost
	// TreeHeight is the PBiTree height of the codes the engine will see.
	// 0 lets Load infer it from the largest loaded code.
	TreeHeight int
	// ReadOnly opens the page file without write access: stored pages are
	// served from the shared file while writes and fresh allocations
	// (temporary join state, spooled intermediates) live in a private
	// in-memory overlay that never reaches disk. Only Open honors it —
	// NewEngine builds a database and rejects the flag. Because read-only
	// engines share no mutable state, any number may be open over one
	// database file at once; that is the foundation of concurrent serving
	// (see internal/qserv).
	ReadOnly bool
	// Parallel is the engine's default intra-query worker degree: how many
	// goroutines a single join may fan its independent partitions out to
	// (MHCJ per-height equijoins, VPJ per-subtree joins, external-sort run
	// generation). 0 or 1 means serial execution, the pre-parallel code
	// path. JoinOptions.Parallel overrides it per query. The engine's
	// external contract is unchanged: one goroutine calls its methods, and
	// a join may use up to Parallel workers internally while it runs. See
	// doc/PARALLEL.md.
	Parallel int
	// Compress stores newly loaded relations in the delta-compressed page
	// format: sorted-ish code sequences pack several times more records
	// per page, cutting every scan's page count. Existing relations keep
	// whatever format they were written in — the two formats coexist in
	// one database, distinguished per page by a header byte.
	Compress bool
}

// DiskCost assigns virtual time per page access (see storage.CostModel).
type DiskCost struct {
	Random     time.Duration
	Sequential time.Duration
}

// DefaultDiskCost is the calibrated 2003-era disk the benchmarks charge:
// 10 ms per random page access, 0.2 ms per sequential one.
var DefaultDiskCost = DiskCost{Random: 10 * time.Millisecond, Sequential: 200 * time.Microsecond}

// Engine evaluates containment joins against a paged storage substrate.
//
// An Engine — together with everything reached through it: its buffer
// pool, its Relations, its scans — is single-threaded at its surface: it
// must be owned by exactly one goroutine (worker) at a time, and no method
// is safe to call concurrently with another. With Config.Parallel > 1 a
// join may fan its independent partitions out across worker goroutines
// internally while it runs, but that parallelism never escapes the call —
// by the time a join method returns, its workers are gone. To serve
// queries in parallel, open one read-only engine per worker over a shared
// database file (Config.ReadOnly with Open) and multiplex requests across
// the workers; internal/qserv implements that pattern behind an HTTP
// server.
type Engine struct {
	disk storage.Disk
	pool *buffer.Pool
	cfg  Config
	// docs is the per-document catalog (SaveDocs / Open); nil when the
	// database predates document tracking or none was supplied.
	docs []DocInfo
	// base / deltas / epoch / checksums describe how Open resolved the
	// database: the base page file, the epoch delta chain layered over it
	// (nil for a self-contained v1 database), the publication sequence
	// number, and whether the base carries a checksum sidecar. SaveEpoch
	// extends the chain; zero values for engines not created by Open.
	base      string
	deltas    []string
	epoch     int64
	checksums bool
}

// Epoch returns the publication sequence number of the opened database: 0
// for a self-contained (version-1) database, the epoch catalog's number
// otherwise.
func (e *Engine) Epoch() int64 { return e.epoch }

// DeltaChain returns the delta files layered over the base page file, in
// application order — empty for a self-contained database.
func (e *Engine) DeltaChain() []string { return append([]string(nil), e.deltas...) }

// BasePath returns the page file the opened database resolves to: the
// database path itself for a version-1 catalog, the epoch catalog's base
// for version 2. Empty for engines not created by Open.
func (e *Engine) BasePath() string { return e.base }

// Relation is a stored element set owned by an Engine.
type Relation struct {
	rel *relation.Relation
	// maxHeight of loaded codes (catalog statistic for rollup).
	maxHeight int
	// singleHeight is true when all codes share one height.
	singleHeight bool
	// sorted is true when the relation is stored in document order
	// (after Engine.Sort).
	sorted bool
	// startIdx / intervalIdx are persistent access paths (see index.go).
	startIdx    *btree.Tree
	intervalIdx *itree.Tree
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.rel.Name() }

// Len returns the number of elements.
func (r *Relation) Len() int64 { return r.rel.NumRecords() }

// Pages returns the number of occupied disk pages, the paper's ‖R‖.
func (r *Relation) Pages() int64 { return r.rel.NumPages() }

// Codes materializes the relation's codes in storage order. The read goes
// through the engine's buffer pool and is charged like any scan; the
// caller is responsible for the result fitting in memory.
func (r *Relation) Codes() ([]pbicode.Code, error) {
	recs, err := r.rel.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]pbicode.Code, len(recs))
	for i, rec := range recs {
		out[i] = rec.Code
	}
	return out, nil
}

// Compressed reports whether the relation appends delta-compressed pages
// (set at load time from Config.Compress, or read back from the catalog).
func (r *Relation) Compressed() bool { return r.rel.Compressed() }

// Layout scans the relation's page headers and returns the physical
// layout summary: pages per format, records, stored payload bytes, and
// the fixed-width page count the same records would need (the scan-page
// savings denominator). It costs a full scan's page fetches.
func (r *Relation) Layout() (relation.LayoutInfo, error) { return r.rel.Layout() }

// NewEngine creates an engine per cfg.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.ReadOnly {
		return nil, fmt.Errorf("containment: ReadOnly applies to Open, not NewEngine (which creates a database)")
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 1024
	}
	cost := storage.CostModel{Random: cfg.DiskCost.Random, Sequential: cfg.DiskCost.Sequential}
	var disk storage.Disk
	if cfg.Path != "" {
		fd, err := storage.OpenFileDisk(cfg.Path, cfg.PageSize, cost)
		if err != nil {
			return nil, err
		}
		disk = fd
	} else {
		disk = storage.NewMemDisk(cfg.PageSize, cost)
	}
	return &Engine{disk: disk, pool: buffer.New(disk, cfg.BufferPages), cfg: cfg}, nil
}

// Close releases the engine's storage.
func (e *Engine) Close() error {
	if err := e.pool.FlushAll(); err != nil {
		e.disk.Close() //nolint:errcheck // first error wins
		return err
	}
	return e.disk.Close()
}

// Load stores a code set as a relation, honoring Config.Compress.
func (e *Engine) Load(name string, codes []pbicode.Code) (*Relation, error) {
	rel := relation.New(e.pool, name)
	rel.SetCompress(e.cfg.Compress)
	app := rel.NewAppender()
	for i, c := range codes {
		if err := app.Append(relation.Rec{Code: c, Aux: uint64(i)}); err != nil {
			app.Close() //nolint:errcheck // first error wins
			return nil, err
		}
	}
	if err := app.Close(); err != nil {
		return nil, err
	}
	r := &Relation{rel: rel, singleHeight: true}
	first := true
	firstH := 0
	need := 0
	for _, c := range codes {
		h := c.Height()
		if h > r.maxHeight {
			r.maxHeight = h
		}
		if first {
			firstH, first = h, false
		} else if h != firstH {
			r.singleHeight = false
		}
		if m := minTreeHeight(c); m > need {
			need = m
		}
	}
	// Grow the engine's PBiTree height to cover every loaded code. A
	// configured height is a floor, not a cap: embedding codes in a
	// taller perfect tree preserves all ancestor relationships, so
	// growing is always safe, while an undersized height would corrupt
	// the vertical partitioning's level arithmetic.
	if need > e.cfg.TreeHeight {
		e.cfg.TreeHeight = need
	}
	if len(codes) == 0 {
		r.singleHeight = false
	}
	return r, nil
}

// minTreeHeight returns the smallest PBiTree height whose code space
// contains c.
func minTreeHeight(c pbicode.Code) int {
	h := 1
	for pbicode.NumNodes(h) < uint64(c) {
		h++
	}
	return h
}

// LoadDoc stores the code set of every element with the given tag.
func (e *Engine) LoadDoc(doc *xmltree.Document, tag string) (*Relation, error) {
	if e.cfg.TreeHeight < doc.Height {
		e.cfg.TreeHeight = doc.Height
	}
	return e.Load(tag, doc.Codes(tag))
}

// JoinOptions configures one join execution.
type JoinOptions struct {
	// Algorithm to run; Auto selects per Table 1 using Spec.
	Algorithm Algorithm
	// Spec describes the inputs for Auto selection and lets the sorted
	// merge joins skip their on-the-fly sorts.
	Spec Spec
	// Collect materializes result pairs into Result.Pairs. Leave false
	// for large joins; Result.Count is always filled.
	Collect bool
	// Emit, when non-nil, receives every result pair as it is produced.
	Emit func(Pair) error
	// BufferPages overrides the engine's pool budget b for this join
	// (must not exceed the pool size; used by the buffer-sweep
	// experiments).
	BufferPages int
	// RollupTarget forces MHCJ+Rollup's target height (0 = the paper's
	// simple strategy: the ancestor set's maximum height).
	RollupTarget int
	// CostBased makes Auto pick by the section 3.4 I/O cost model
	// instead of the Table 1 rules (the paper's section 6 direction).
	CostBased bool
	// Filter, when non-nil, keeps only pairs it accepts: Result.Count,
	// Pairs and Emit see the filtered stream. ParentChild builds the
	// filter for the child axis; arbitrary predicates compose structural
	// conditions beyond pure containment.
	Filter func(Pair) bool
	// VPJRootCut switches VPJ to the paper's literal root-relative cut
	// levels instead of LCA-relative ones (ablation A8 only; degrades on
	// skewed document embeddings).
	VPJRootCut bool
	// Parallel overrides the engine's Config.Parallel worker degree for
	// this join: 0 keeps the engine default, 1 forces serial execution,
	// higher values fan independent partitions out across that many
	// workers (clamped to the memory budget's 3-page-per-worker floor).
	Parallel int
	// TraceID is the originating request's trace ID, threaded through for
	// annotation only: fan-out engines (internal/shard) stamp it into
	// per-shard span details and serving exemplars so distributed traces
	// correlate by the request's ID instead of an internal one. It does
	// not affect execution.
	TraceID string
}

// ParentChild returns a join filter that keeps only pairs where the
// ancestor element is the descendant's direct parent in doc — turning the
// containment (descendant-axis) join into the parent-child (child-axis)
// structural join of Al-Khalifa et al. The containment join computes a
// superset; the filter checks parenthood on the document in O(1) per pair.
func ParentChild(doc *xmltree.Document) func(Pair) bool {
	return func(p Pair) bool {
		d := doc.ByCode(p.D)
		return d != nil && d.Parent != nil && d.Parent.Code == p.A
	}
}

// IOStats reports the physical cost of one join.
type IOStats struct {
	// Reads and Writes are page I/O counts (sequential subsets included).
	Reads, Writes int64
	SeqReads      int64
	SeqWrites     int64
	// VirtualTime is the disk clock's charge for these accesses.
	VirtualTime time.Duration
	// WallTime is the measured host time.
	WallTime time.Duration
	// PoolHits / PoolMisses / PoolEvictions are buffer-pool counters for
	// the same window: page requests served from memory, requests that went
	// to disk, and frames evicted to make room.
	PoolHits      int64
	PoolMisses    int64
	PoolEvictions int64
}

// Total returns total page I/Os.
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// Add accumulates o into s — the one merge helper every aggregation path
// uses (the sharded engine's per-shard result merge, qserv's per-request
// totals) instead of hand-written field sums. Every field adds, including
// WallTime; callers merging executions that overlapped in time (parallel
// shards) should overwrite WallTime with the measured envelope afterwards.
func (s *IOStats) Add(o IOStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.SeqReads += o.SeqReads
	s.SeqWrites += o.SeqWrites
	s.VirtualTime += o.VirtualTime
	s.WallTime += o.WallTime
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.PoolEvictions += o.PoolEvictions
}

// Result reports one join execution.
type Result struct {
	// Algorithm that actually ran (after Auto resolution).
	Algorithm string
	// Count of result pairs.
	Count int64
	// Pairs, when JoinOptions.Collect was set.
	Pairs []Pair
	// FalseHits dropped by the rollup verification filter.
	FalseHits int64
	// Partitions written by partitioning algorithms.
	Partitions int64
	// Replicated ancestor records written by VPJ.
	Replicated int64
	// IndexProbes performed by INLJN / skip seeks by ADB+.
	IndexProbes int64
	// PredictedIO is the section 3.4 cost model's page I/O estimate for
	// the algorithm that ran (compare against IO.Total()).
	PredictedIO int64
	// IO is the physical cost.
	IO IOStats
}

// coreAlg maps the public algorithm enum onto the internal one.
func coreAlg(a Algorithm) core.Algorithm {
	switch a {
	case Auto:
		return core.AlgAuto
	case NestedLoop:
		return core.AlgNestedLoop
	case SHCJ:
		return core.AlgSHCJ
	case MHCJ:
		return core.AlgMHCJ
	case MHCJRollup:
		return core.AlgMHCJRollup
	case VPJ:
		return core.AlgVPJ
	case INLJN:
		return core.AlgINLJN
	case StackTree:
		return core.AlgStackTree
	case StackTreeAnc:
		return core.AlgStackTreeAnc
	case MPMGJN:
		return core.AlgMPMGJN
	case ADBPlus:
		return core.AlgADBPlus
	default:
		return core.Algorithm(-1)
	}
}

// optSink adapts JoinOptions to a core.Sink.
type optSink struct {
	res  *Result
	opts *JoinOptions
	kept int64
}

func (s *optSink) Emit(a, d relation.Rec) error {
	p := Pair{A: a.Code, D: d.Code}
	if s.opts.Filter != nil && !s.opts.Filter(p) {
		return nil
	}
	s.kept++
	if s.opts.Collect {
		s.res.Pairs = append(s.res.Pairs, p)
	}
	if s.opts.Emit != nil {
		return s.opts.Emit(p)
	}
	return nil
}

// Join evaluates a ◁ d.
func (e *Engine) Join(a, d *Relation, opts JoinOptions) (*Result, error) {
	res, _, err := e.join(context.Background(), a, d, opts, false)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// JoinContext is Join with cooperative cancellation: the execution polls
// ctx at page-I/O granularity (and every 1024 emitted pairs) and aborts
// with an error matching ErrCanceled or ErrDeadlineExceeded — classify
// with Classify. Unlike Join, a non-nil partial Result accompanies the
// error: counters and I/O stats reflect the work done up to the abort.
// Temporary join state is released before returning on every error path.
func (e *Engine) JoinContext(ctx context.Context, a, d *Relation, opts JoinOptions) (*Result, error) {
	res, _, err := e.join(ctx, a, d, opts, false)
	return res, err
}

// snapCounters builds the trace snapshot closure over the engine's physical
// counters plus the per-join pair count.
func (e *Engine) snapCounters(stats *core.Stats) func() trace.Counters {
	return func() trace.Counters {
		ds := e.disk.Stats()
		ps := e.pool.Stats()
		return trace.Counters{
			Reads:         ds.Reads,
			Writes:        ds.Writes,
			SeqReads:      ds.SeqReads,
			SeqWrites:     ds.SeqWrites,
			VirtualIO:     ds.VirtualIO,
			PoolHits:      ps.Hits,
			PoolMisses:    ps.Misses,
			PoolEvictions: ps.Evictions,
			Pairs:         stats.Pairs,
		}
	}
}

// join is the shared body of Join and Analyze. When traced is set it runs
// the execution under a trace.Recorder whose root span brackets exactly the
// window measured into Result.IO, and returns the finished span tree.
//
// goCtx carries the caller's cancellation; context.Background() means
// uncancelable. On error the returned Result and Span are still non-nil,
// reflecting the partial execution (counters, I/O, a root span annotated
// "canceled"/"error"), and the engine's temporary join state is released.
func (e *Engine) join(goCtx context.Context, a, d *Relation, opts JoinOptions, traced bool) (*Result, *trace.Span, error) {
	if opts.BufferPages > e.pool.Size() {
		return nil, nil, fmt.Errorf("containment: BufferPages %d exceeds pool size %d", opts.BufferPages, e.pool.Size())
	}
	stats := &core.Stats{}
	par := opts.Parallel
	if par == 0 {
		par = e.cfg.Parallel
	}
	ctx := &core.Context{
		Pool:              e.pool,
		B:                 opts.BufferPages,
		TreeHeight:        e.cfg.TreeHeight,
		MaxAncestorHeight: a.maxHeight,
		VPJRootCut:        opts.VPJRootCut,
		Stats:             stats,
		Parallel:          par,
	}
	if goCtx != nil && goCtx != context.Background() {
		ctx.Ctx = goCtx
	}
	spec := effectiveSpec(&opts, a, d)
	res := &Result{}
	sink := &optSink{res: res, opts: &opts}

	// Resolve Auto up front so the cost prediction names the algorithm
	// that actually runs.
	alg := coreAlg(opts.Algorithm)
	if alg == core.AlgAuto {
		if opts.CostBased {
			alg = core.ChooseByCost(ctx, spec, a.rel, d.rel)
		} else {
			alg = core.Choose(ctx, spec, a.rel, d.rel)
		}
	}
	res.PredictedIO = core.EstimateIO(alg, core.Gather(ctx, spec, a.rel, d.rel))

	// The recorder's root span opens here so its counter window coincides
	// with the before/after bracketing below: the root Total equals
	// Result.IO, and self-attributed phase costs sum to it exactly.
	if traced {
		ctx.Trace = trace.New("join", e.snapCounters(stats))
	}
	poolBefore := e.pool.Stats()
	before := e.disk.Stats()
	start := time.Now()
	// Arm the buffer pool directly (not only inside core.Run) so the
	// forced-rollup and persistent-index dispatch paths below are equally
	// cancelable.
	restore := ctx.ArmPool()
	var err error
	switch {
	case opts.Algorithm == MHCJRollup && opts.RollupTarget > 0:
		err = core.MHCJRollup(ctx, a.rel, d.rel, opts.RollupTarget, sink)
	default:
		// Persistent access paths serve the index algorithms without the
		// on-the-fly build cost; otherwise the framework runs normally
		// (the merge joins already skip sorting via spec.Sorted*).
		var handled bool
		handled, err = e.runIndexed(ctx, alg, a, d, sink)
		if !handled && err == nil {
			alg, err = core.Run(ctx, alg, spec, a.rel, d.rel, sink)
		}
	}
	restore()
	wall := time.Since(start)
	io := e.disk.Stats().Sub(before)
	poolIO := e.pool.Stats().Sub(poolBefore)
	root := ctx.Trace.Finish()

	res.Algorithm = alg.String()
	res.Count = stats.Pairs
	if opts.Filter != nil {
		res.Count = sink.kept
	}
	res.FalseHits = stats.FalseHits
	res.Partitions = stats.Partitions
	res.Replicated = stats.Replicated
	res.IndexProbes = stats.IndexProbes
	res.IO = IOStats{
		Reads:         io.Reads,
		Writes:        io.Writes,
		SeqReads:      io.SeqReads,
		SeqWrites:     io.SeqWrites,
		VirtualTime:   io.VirtualIO,
		WallTime:      wall,
		PoolHits:      poolIO.Hits,
		PoolMisses:    poolIO.Misses,
		PoolEvictions: poolIO.Evictions,
	}
	if err != nil {
		if root != nil {
			root.Detail = failureDetail(err)
		}
		// Abandon this join's temporary state. Well-behaved algorithms
		// free their temps on the way out; on read-only engines this also
		// reclaims the overlay, so a canceled request cannot leak private
		// memory into a long-lived serving engine. Best-effort: the join
		// error is the one worth reporting.
		e.ReleaseTemp() //nolint:errcheck // best-effort cleanup on error
		return res, root, err
	}
	return res, root, nil
}

// JoinDoc loads the two tag sets of doc and joins them: the containment
// query //ancTag//descTag.
func (e *Engine) JoinDoc(doc *xmltree.Document, ancTag, descTag string, opts JoinOptions) (*Result, error) {
	a, err := e.LoadDoc(doc, ancTag)
	if err != nil {
		return nil, err
	}
	d, err := e.LoadDoc(doc, descTag)
	if err != nil {
		return nil, err
	}
	return e.Join(a, d, opts)
}

// Free drops a relation's pages, reclaiming pool frames.
func (e *Engine) Free(r *Relation) error { return r.rel.Free() }

// ResetIOStats zeroes the engine's disk counters (benchmark harness use).
func (e *Engine) ResetIOStats() { e.disk.ResetStats() }

// IOStats returns the disk counters accumulated since the last reset
// (benchmark harness use; Join results carry per-join deltas already).
func (e *Engine) IOStats() IOStats {
	s := e.disk.Stats()
	return IOStats{
		Reads: s.Reads, Writes: s.Writes,
		SeqReads: s.SeqReads, SeqWrites: s.SeqWrites,
		VirtualTime: s.VirtualIO,
	}
}

// DropCache flushes and evicts every resident page so the next join starts
// with a cold buffer pool, the setting the paper's measurements assume.
func (e *Engine) DropCache() error {
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	for id := storage.PageID(0); id < e.disk.NumPages(); id++ {
		if err := e.pool.Evict(id); err != nil {
			return err
		}
	}
	return nil
}

// PoolSize returns the engine's buffer pool size in frames.
func (e *Engine) PoolSize() int { return e.pool.Size() }

// PageSize returns the engine's page size in bytes.
func (e *Engine) PageSize() int { return e.cfg.PageSize }

// TreeHeight returns the engine's current PBiTree height.
func (e *Engine) TreeHeight() int { return e.cfg.TreeHeight }
