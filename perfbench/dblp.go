package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// The dblp-join workload: the paper's own evaluation. One caller runs the
// D1-D10 mix in a closed loop over an engine opened read-only with a pool
// smaller than its inputs; each "pass" is one run of the mix and is the
// workload's operation.
const (
	dblpScale   = 0.5
	dblpBuffer  = 128
	dblpDocName = "dblp.xml"
)

// dblpEnv is one set-up of the workload.
type dblpEnv struct {
	eng      *containment.Engine
	pairs    [][2]*containment.Relation // per query: ancestor, descendant
	ref      []int64                    // reference count per query
	elements int64
	dbBytes  int64
	openTime time.Duration
}

func setupDBLP(dir string, seed int64) (*dblpEnv, setupTimes, error) {
	var st setupTimes
	sw := newStopwatch()
	doc, err := workload.GenerateDBLP(workload.DBLP(dblpScale, seed))
	if err != nil {
		return nil, st, err
	}
	coll := xmltree.NewCollection()
	if err := coll.AddTree(dblpDocName, doc.Root); err != nil {
		return nil, st, err
	}
	st.generate = sw.lap()

	path := filepath.Join(dir, "dblp.db")
	env := &dblpEnv{}
	if env.elements, err = buildDB(path, coll); err != nil {
		return nil, st, err
	}
	if env.dbBytes, err = fileSize(path); err != nil {
		return nil, st, err
	}
	st.build = sw.lap()

	open := time.Now()
	eng, rels, err := containment.Open(containment.Config{
		Path: path, ReadOnly: true, BufferPages: dblpBuffer, DiskCost: containment.DefaultDiskCost,
	})
	if err != nil {
		return nil, st, err
	}
	env.openTime = time.Since(open)
	env.eng = eng
	for _, q := range workload.DBLPQueries() {
		a, d := rels[relPrefix+q.AncTag], rels[relPrefix+q.DescTag]
		if a == nil || d == nil {
			eng.Close()
			return nil, st, fmt.Errorf("%s: relation %s or %s missing", q.ID, q.AncTag, q.DescTag)
		}
		env.pairs = append(env.pairs, [2]*containment.Relation{a, d})
		ac, err := a.Codes()
		if err != nil {
			eng.Close()
			return nil, st, err
		}
		dc, err := d.Codes()
		if err != nil {
			eng.Close()
			return nil, st, err
		}
		n, err := containment.Count(ac, dc)
		if err != nil {
			eng.Close()
			return nil, st, err
		}
		env.ref = append(env.ref, n)
	}
	st.reference = sw.lap()

	if _, err := env.pass(context.Background(), false, nil); err != nil {
		eng.Close()
		return nil, st, fmt.Errorf("warm-up pass: %w", err)
	}
	st.warmup = sw.lap()
	st.total = st.generate + st.build + st.reference + st.warmup + env.openTime.Seconds()
	return env, st, nil
}

// passResult is one pass of the mix.
type passResult struct {
	wall       time.Duration
	joinWall   time.Duration // sum of the joins' own wall times
	pages      int64
	virtual    time.Duration
	wrong      int
	partitions int64
	falseHits  int64
	replicated int64
}

// pass runs the mix once. With analyze it calls AnalyzeContext in place of
// JoinContext and hands each span tree to onSpan.
func (env *dblpEnv) pass(ctx context.Context, analyze bool, onSpan func(*containment.Analysis)) (passResult, error) {
	var pr passResult
	start := time.Now()
	for i, p := range env.pairs {
		if err := env.eng.DropCache(); err != nil {
			return pr, err
		}
		var res *containment.Result
		if analyze {
			an, err := env.eng.AnalyzeContext(ctx, p[0], p[1], containment.JoinOptions{})
			if err != nil {
				return pr, err
			}
			res = an.Result
			onSpan(an)
		} else {
			r, err := env.eng.JoinContext(ctx, p[0], p[1], containment.JoinOptions{})
			if err != nil {
				return pr, err
			}
			res = r
		}
		if err := env.eng.ReleaseTemp(); err != nil {
			return pr, err
		}
		if res.Count != env.ref[i] {
			pr.wrong++
		}
		pr.joinWall += res.IO.WallTime
		pr.pages += res.IO.Total()
		pr.virtual += res.IO.VirtualTime
		pr.partitions += res.Partitions
		pr.falseHits += res.FalseHits
		pr.replicated += res.Replicated
	}
	pr.wall = time.Since(start)
	return pr, nil
}

// digestCheck compares, for every query, an order-independent digest of
// the engine's pair set with that of the in-memory join over the stored
// codes. It runs outside the timed window.
func (env *dblpEnv) digestCheck() (int, error) {
	wrong := 0
	for _, p := range env.pairs {
		res, err := env.eng.Join(p[0], p[1], containment.JoinOptions{Collect: true})
		if err != nil {
			return 0, err
		}
		if err := env.eng.ReleaseTemp(); err != nil {
			return 0, err
		}
		ac, err := p[0].Codes()
		if err != nil {
			return 0, err
		}
		dc, err := p[1].Codes()
		if err != nil {
			return 0, err
		}
		ref, err := containment.Join(ac, dc)
		if err != nil {
			return 0, err
		}
		if pairDigest(res.Pairs) != pairDigest(ref) {
			wrong++
		}
	}
	return wrong, nil
}

// pairDigest is an order-independent digest of a pair set: the count and
// the sum and xor of a mixed hash of each pair.
func pairDigest(pairs []containment.Pair) [3]uint64 {
	var sum, xor uint64
	for _, p := range pairs {
		h := mix64(uint64(p.A)*0x9e3779b97f4a7c15 ^ mix64(uint64(p.D)))
		sum += h
		xor ^= h
	}
	return [3]uint64{uint64(len(pairs)), sum, xor}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func runDBLP(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	var setups []setupTimes
	var env *dblpEnv
	var openTimes []float64
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(opt.work, fmt.Sprintf("setup%d", i))
		if err := mkdir(dir); err != nil {
			return nil, err
		}
		e, st, err := setupDBLP(dir, opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, st)
		openTimes = append(openTimes, ms(e.openTime))
		if env != nil {
			env.eng.Close()
		}
		env = e
	}
	defer env.eng.Close()
	recordSetup(m, setups)
	m["containment.open_ms"] = median(openTimes)
	m["db_bytes_per_element"] = float64(env.dbBytes) / float64(env.elements)
	if err := resetSelfHWM(); err != nil {
		return nil, err
	}

	// The untraced window: all of it, or the first half of a traced run
	// (the baseline for trace.overhead_pct).
	window := opt.window
	if opt.traced {
		window /= 2
	}
	var walls, pages, virtuals []float64
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	self := []string{"self"}
	rss := startRSS(self)
	defer rss.stop()
	cpu, err := startCPU(self)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(window)
	for time.Now().Before(end) {
		pr, err := env.pass(ctx, false, nil)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if pr.wrong > 0 {
			out.wrong++
		}
		walls = append(walls, ms(pr.wall))
		pages = append(pages, float64(pr.pages))
		virtuals = append(virtuals, ms(pr.virtual))
	}
	runtime.ReadMemStats(&mem1)
	passes := float64(len(walls))
	elapsed := time.Since(start).Seconds()
	cpuMS, err := cpu.finish(out)
	if err != nil {
		return nil, err
	}
	m["cpu_ms_per_op"] = ratio(cpuMS, passes)
	if err := rss.finish(m, self); err != nil {
		return nil, err
	}
	m["qps"] = passes / elapsed
	m["page_io_per_op"] = median(pages)
	m["virtual_disk_ms_per_op"] = median(virtuals)
	untracedP50 := median(walls)
	m["lat_p50_ms"] = untracedP50
	// A run has 400-1200 passes, as fast as the host is, across the steps
	// of p98 (500) and p99 (1000): capped at p95, every run reports the
	// same percentile.
	t := tailAtMost(walls, 95)
	m["lat_tail_ms"] = t.Value
	out.note("operation = one D1-D10 pass (%d joins); %d passes; lat_tail_ms = p%g of %d", len(env.pairs), int(passes), t.P, t.N)
	m["runtime.alloc_mb_per_pass"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20) / passes
	m["runtime.gc_per_pass"] = float64(mem1.NumGC-mem0.NumGC) / passes

	if opt.traced {
		if err := dblpTraced(ctx, opt, env, window, untracedP50, out); err != nil {
			return nil, err
		}
	}

	wrong, err := env.digestCheck()
	if err != nil {
		return nil, err
	}
	if wrong > 0 {
		out.note("pair-set digest mismatch on %d queries", wrong)
		out.wrong += wrong
	}
	m["success_ratio"] = ratio(float64(out.attempted-out.failed-out.wrong), float64(out.attempted))
	m["error_rate"] = ratio(float64(out.failed+out.wrong), float64(out.attempted))
	return out, nil
}

// dblpTraced runs the traced half of a traced run: AnalyzeContext passes,
// plus timing Relation.Codes and pbicode.FBatch on each pass's inputs.
func dblpTraced(ctx context.Context, opt options, env *dblpEnv, window time.Duration, untracedP50 float64, out *outcome) error {
	m := out.metrics
	tally := newPhaseTally()
	var dump spanWriter
	var walls, unattributed []float64
	var partitions, falseHits, replicated int64
	var scanNS, scanRecs, fNS, fCodes int64
	var buf []uint64
	end := time.Now().Add(window)
	for time.Now().Before(end) {
		pr, err := env.pass(ctx, true, func(an *containment.Analysis) {
			ws := an.Wire()
			tally.addJoin(ws)
			dump.add(ws)
		})
		if err != nil {
			return err
		}
		out.attempted++
		if pr.wrong > 0 {
			out.wrong++
		}
		walls = append(walls, ms(pr.wall))
		unattributed = append(unattributed, ms(pr.wall-pr.joinWall))
		partitions += pr.partitions
		falseHits += pr.falseHits
		replicated += pr.replicated

		for _, p := range env.pairs {
			for _, r := range p {
				t0 := time.Now()
				codes, err := r.Codes()
				if err != nil {
					return err
				}
				scanNS += int64(time.Since(t0))
				scanRecs += int64(len(codes))
				if cap(buf) < len(codes) {
					buf = make([]uint64, len(codes))
				}
				src := buf[:len(codes)]
				for i, c := range codes {
					src[i] = uint64(c)
				}
				t1 := time.Now()
				pbicode.FBatch(src, src, 1)
				fNS += int64(time.Since(t1))
				fCodes += int64(len(codes))
			}
		}
	}
	passes := len(walls)
	tally.record(m, passes)
	if u := tally.unknownPhases(); len(u) > 0 {
		out.note("engine phases outside the reported vocabulary: %v", u)
	}
	m["core.partitions"] = ratio(float64(partitions), float64(passes))
	m["core.false_hits"] = ratio(float64(falseHits), float64(passes))
	m["core.replicated"] = ratio(float64(replicated), float64(passes))
	m["relation.scan_ns_per_rec"] = ratio(float64(scanNS), float64(scanRecs))
	m["pbicode.f_ns_per_code"] = ratio(float64(fNS), float64(fCodes))
	m["trace.overhead_pct"] = 100 * (median(walls)/untracedP50 - 1)
	m["unattributed_ms_p50"] = median(unattributed)
	return dump.writeTo(spanDump(opt))
}
