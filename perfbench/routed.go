package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/trace"
)

// The xmark-routed workload: a closed loop of 2 connections against
// pbirouter over 2 pbiserve nodes, each serving one shard of an 8-document
// XMark corpus, with zipfian requests over a key space larger than the
// caches. Every process runs with its shipped defaults.
const (
	routedDocs    = 8
	routedShards  = 2
	routedConns   = 2
	routedWarmups = 3000 // requests sent before the window, answers checked
	// routedSetups is how many times a run sets up. One set-up takes ~6 s,
	// most of it the warm-up, so this workload sets up fewer times.
	routedSetups = 3
)

// routedEnv is one set-up of the workload.
type routedEnv struct {
	nodes    []*proc
	router   *proc
	keys     []key
	shardEls []int64
	dbBytes  int64
	openTime time.Duration
}

func (e *routedEnv) stop() {
	if e.router != nil {
		e.router.stop()
	}
	for _, n := range e.nodes {
		n.stop()
	}
}

// procs lists every serving process.
func (e *routedEnv) procs() []*proc { return append([]*proc{e.router}, e.nodes...) }

func setupRouted(ctx context.Context, opt options, dir string, c *http.Client) (env *routedEnv, st setupTimes, err error) {
	sw := newStopwatch()
	roots, err := xmarkDocs(routedDocs, xmarkScale, opt.seed)
	if err != nil {
		return nil, st, err
	}
	coll, err := collect(roots)
	if err != nil {
		return nil, st, err
	}
	cen := census{}
	for _, r := range roots {
		cen.addTree(r)
	}
	st.generate = sw.lap()

	dbPath := filepath.Join(dir, "xmark.db")
	if _, err := buildDB(dbPath, coll); err != nil {
		return nil, st, err
	}
	st.build = sw.lap()

	man, err := shard.Split(dbPath, routedShards, filepath.Join(dir, "shards"))
	if err != nil {
		return nil, st, err
	}
	env = &routedEnv{}
	var shardPaths []string
	for _, ms := range man.Shards {
		p := ms.Path
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, "shards", p)
		}
		shardPaths = append(shardPaths, p)
		env.shardEls = append(env.shardEls, ms.Elements)
		size, err := fileSize(p)
		if err != nil {
			return nil, st, err
		}
		env.dbBytes += size
	}
	st.split = sw.lap()

	open := time.Now()
	eng, rels, err := containment.Open(containment.Config{Path: dbPath, ReadOnly: true})
	if err != nil {
		return nil, st, err
	}
	env.openTime = time.Since(open)
	env.keys, err = keySpace(rels, cen, true)
	eng.Close()
	if err != nil {
		return nil, st, err
	}
	st.reference = sw.lap()

	// A failed set-up returns a nil env, so the cleanup keeps its own
	// reference to what it started.
	started := env
	defer func() {
		if err != nil {
			started.stop()
		}
	}()
	var urls []string
	for _, p := range shardPaths {
		n, err := startProc(opt.bin, dir, "pbiserve", "-db", p)
		if err != nil {
			return nil, st, err
		}
		env.nodes = append(env.nodes, n)
		urls = append(urls, n.url)
	}
	for _, n := range env.nodes {
		if err := waitReady(ctx, c, n, 60*time.Second); err != nil {
			return nil, st, err
		}
	}
	nodes := urls[0]
	for _, u := range urls[1:] {
		nodes += "," + u
	}
	if env.router, err = startProc(opt.bin, dir, "pbirouter", "-nodes", nodes); err != nil {
		return nil, st, err
	}
	if err := waitReady(ctx, c, env.router, 60*time.Second); err != nil {
		return nil, st, err
	}
	stream := newKeyStream(len(env.keys), opt.seed^0x5eed)
	for i := 0; i < routedWarmups; i++ {
		k := env.keys[stream.at(i)]
		ans, err := fetchAnswer(ctx, c, env.router.url+k.path)
		if err != nil {
			return nil, st, fmt.Errorf("warm-up %s: %w", k.path, err)
		}
		if ans.Count != k.ref {
			return nil, st, fmt.Errorf("warm-up %s: count %d, reference %d", k.path, ans.Count, k.ref)
		}
	}
	st.warmup = sw.lap()
	st.total = st.generate + st.build + st.split + st.reference + st.warmup
	return env, st, nil
}

// answer is the part of a /join or /query answer the benchmark checks.
type answer struct {
	Count int64           `json:"count"`
	Spans json.RawMessage `json:"spans"`
	cache string          // X-Cache
	epoch string          // X-Epoch
}

// spanTrees decodes the answer's span export: one tree for /join, a list
// for /query.
func (a *answer) spanTrees() ([]*trace.WireSpan, error) {
	raw := bytes.TrimSpace(a.Spans)
	if len(raw) == 0 {
		return nil, nil
	}
	if raw[0] == '[' {
		var list []*trace.WireSpan
		return list, json.Unmarshal(raw, &list)
	}
	var one trace.WireSpan
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, err
	}
	return []*trace.WireSpan{&one}, nil
}

// fetchAnswer sends one GET and decodes its answer.
func fetchAnswer(ctx context.Context, c *http.Client, url string) (*answer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{url: url, code: resp.StatusCode, body: string(body)}
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	a.cache, a.epoch = resp.Header.Get("X-Cache"), resp.Header.Get("X-Epoch")
	return &a, nil
}

// servedStats samples /stats of every serving process.
func servedStats(ctx context.Context, c *http.Client, router *proc, nodes []*proc) (routerStats, []nodeStats, error) {
	var rs routerStats
	if router != nil {
		if err := getJSON(ctx, c, router.url+"/stats", &rs); err != nil {
			return rs, nil, err
		}
	}
	ns := make([]nodeStats, len(nodes))
	for i, n := range nodes {
		if err := getJSON(ctx, c, n.url+"/stats", &ns[i]); err != nil {
			return rs, nil, err
		}
	}
	return rs, ns, nil
}

// nodeDelta sums the node counters' growth between two samples.
type nodeDelta struct {
	hits, misses, execs, pages, virtualUS, rejected int64
}

func diffNodes(before, after []nodeStats) nodeDelta {
	var d nodeDelta
	for i := range after {
		d.hits += after[i].Cache.Hits - before[i].Cache.Hits
		d.misses += after[i].Cache.Misses - before[i].Cache.Misses
		e1, p1, v1 := after[i].totals()
		e0, p0, v0 := before[i].totals()
		d.execs += e1 - e0
		d.pages += p1 - p0
		d.virtualUS += v1 - v0
		d.rejected += after[i].Rejected - before[i].Rejected
	}
	return d
}

// servedRequest is one checked request of a serving workload.
type servedRequest struct {
	cache string // X-Cache
	spans []*trace.WireSpan
}

// keyRunner sends the zipfian key stream, from request first on, to one
// endpoint and records each request.
type keyRunner struct {
	c      *http.Client
	base   string
	keys   []key
	spans  bool
	mu     sync.Mutex
	stream *keyStream
	first  int

	reqMu sync.Mutex
	reqs  map[int]*servedRequest
}

func (r *keyRunner) keyAt(seq int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stream.at(r.first + seq)
}

// issue sends request seq, records it, and compares the answer's count
// with the key's reference.
func (r *keyRunner) issue(ctx context.Context, seq int) error {
	ki := r.keyAt(seq)
	k := r.keys[ki]
	u := r.base + k.path
	if r.spans {
		u += "&spans=1"
	}
	sr := &servedRequest{}
	ans, err := fetchAnswer(ctx, r.c, u)
	if err == nil {
		sr.cache = ans.cache
		if ans.Count != k.ref {
			err = &wrongAnswer{path: k.path, got: ans.Count, want: k.ref}
		}
		if r.spans {
			var serr error
			if sr.spans, serr = ans.spanTrees(); serr != nil && err == nil {
				err = fmt.Errorf("decode spans of %s: %w", k.path, serr)
			}
		}
	}
	r.reqMu.Lock()
	r.reqs[seq] = sr
	r.reqMu.Unlock()
	return err
}

// wrongAnswer is an answer whose count differs from the reference.
type wrongAnswer struct {
	path      string
	got, want int64
}

func (e *wrongAnswer) Error() string {
	return fmt.Sprintf("%s: count %d, reference %d", e.path, e.got, e.want)
}

// classify counts a window's samples into out and returns the latencies
// of all of them, in ms.
func classify(out *outcome, samples []sample) []float64 {
	var lat []float64
	for _, s := range samples {
		out.attempted++
		switch err := s.Err; {
		case err == nil:
		case isWrong(err):
			out.wrong++
			if out.wrong <= 3 {
				out.note("wrong answer: %v", err)
			}
		default:
			out.failed++
			if out.failed <= 3 {
				out.note("failed request: %v", err)
			}
		}
		lat = append(lat, ms(s.Latency()))
	}
	return lat
}

func isWrong(err error) bool {
	_, ok := err.(*wrongAnswer)
	return ok
}

func runRouted(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	c := loadClient(routedConns)
	admin := loadClient(1)
	var setups []setupTimes
	var env *routedEnv
	var openTimes []float64
	defer func() {
		if env != nil {
			env.stop()
		}
	}()
	for i := 0; i < routedSetups; i++ {
		dir := filepath.Join(opt.work, fmt.Sprintf("setup%d", i))
		if err := mkdir(dir); err != nil {
			return nil, err
		}
		e, st, err := setupRouted(ctx, opt, dir, c)
		if err != nil {
			return nil, err
		}
		if env != nil {
			env.stop()
		}
		env = e
		setups = append(setups, st)
		openTimes = append(openTimes, ms(e.openTime))
	}
	recordSetup(m, setups)
	m["containment.open_ms"] = median(openTimes)
	var els []float64
	var total int64
	for _, n := range env.shardEls {
		els = append(els, float64(n))
		total += n
	}
	m["shard.element_imbalance"] = ratio(maxOf(els), mean(els))
	m["db_bytes_per_element"] = ratio(float64(env.dbBytes), float64(total))
	out.note("key space %d keys (zipf s=%g); router and node caches 1024 entries each; %d elements in %d shards",
		len(env.keys), zipfS, total, len(env.shardEls))

	runner := &keyRunner{c: c, base: env.router.url, keys: env.keys,
		stream: newKeyStream(len(env.keys), opt.seed), reqs: map[int]*servedRequest{}}
	window := opt.window
	if opt.traced {
		window /= 2
	}
	rs0, ns0, err := servedStats(ctx, admin, env.router, env.nodes)
	if err != nil {
		return nil, err
	}
	var pids []string
	for _, p := range env.procs() {
		pids = append(pids, p.pid())
	}
	rss := startRSS(pids)
	defer rss.stop()
	cpu, err := startCPU(pids)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	samples := closedLoop(ctx, routedConns, window, func(ctx context.Context, _, seq int) error {
		return runner.issue(ctx, seq)
	})
	elapsed := time.Since(start).Seconds()
	cpuMS, err := cpu.finish(out)
	if err != nil {
		return nil, err
	}
	if err := rss.finish(m, pids); err != nil {
		return nil, err
	}
	rs1, ns1, err := servedStats(ctx, admin, env.router, env.nodes)
	if err != nil {
		return nil, err
	}
	lat := classify(out, samples)
	ok := out.attempted - out.failed - out.wrong
	nd := diffNodes(ns0, ns1)
	m["qps"] = float64(ok) / elapsed
	m["cpu_ms_per_op"] = ratio(cpuMS, float64(ok))
	m["lat_p50_ms"] = median(lat)
	t := tailOf(lat)
	m["lat_tail_ms"] = t.Value
	out.note("closed loop, %d connections; %d requests; lat_tail_ms = p%g of %d", routedConns, len(samples), t.P, t.N)
	m["page_io_per_op"] = ratio(float64(nd.pages), float64(ok))
	m["virtual_disk_ms_per_op"] = ratio(float64(nd.virtualUS)/1000, float64(ok))
	m["success_ratio"] = ratio(float64(ok), float64(out.attempted))
	m["error_rate"] = ratio(float64(out.failed+out.wrong), float64(out.attempted))
	rhits, rmiss := rs1.Cache.Hits-rs0.Cache.Hits, rs1.Cache.Misses-rs0.Cache.Misses
	m["router.cache_hit_ratio"] = ratio(float64(rhits), float64(rhits+rmiss))
	m["qserv.cache_hit_ratio"] = ratio(float64(nd.hits), float64(nd.hits+nd.misses))
	m["qserv.executions_per_miss"] = ratio(float64(nd.execs), float64(nd.misses))
	fires := rs1.HedgeFires - rs0.HedgeFires
	m["router.hedge_fires"] = float64(fires)
	m["router.hedge_win_ratio"] = ratio(float64(rs1.HedgeWins-rs0.HedgeWins), float64(fires))
	m["router.failovers"] = float64(rs1.Failovers - rs0.Failovers)
	m["qserv.rejected"] = float64(nd.rejected)
	out.note("cache hit ratio: router %.3f, nodes %.3f; node executions %d",
		m["router.cache_hit_ratio"], m["qserv.cache_hit_ratio"], nd.execs)

	if opt.traced {
		// Baseline for the overhead: untraced requests the router did not
		// answer from its cache (traced requests bypass the caches).
		var missLat []float64
		for _, s := range samples {
			if r := runner.reqs[s.Seq]; s.Err == nil && r != nil && r.cache == "miss" {
				missLat = append(missLat, ms(s.Latency()))
			}
		}
		runner.first, runner.spans, runner.reqs = len(samples), true, map[int]*servedRequest{}
		traced := closedLoop(ctx, routedConns, window, func(ctx context.Context, _, seq int) error {
			return runner.issue(ctx, seq)
		})
		tlat := classify(out, traced)
		m["trace.overhead_pct"] = 100 * (median(tlat)/median(missLat) - 1)
		if err := routedLayers(opt, out, traced, runner.reqs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// routedLayers computes the per-layer metrics of a traced window from the
// stitched span trees the router returned.
func routedLayers(opt options, out *outcome, samples []sample, reqs map[int]*servedRequest) error {
	m := out.metrics
	tally := newPhaseTally()
	var dump spanWriter
	var gap, self, merge, node, outside, engine, unattributed, skew []float64
	n := 0
	for _, s := range samples {
		r := reqs[s.Seq]
		if s.Err != nil || r == nil || len(r.spans) != 1 {
			continue
		}
		root := r.spans[0]
		b, ok := breakdownRouted(int64(s.Latency()), root)
		if !ok {
			continue
		}
		n++
		dump.add(root)
		for _, j := range engineJoins(root) {
			tally.addJoin(j)
		}
		gap = append(gap, float64(b.gapNS)/1e6)
		self = append(self, float64(b.routerSelfNS)/1e6)
		merge = append(merge, float64(b.mergeNS)/1e6)
		node = append(node, float64(b.nodeNS)/1e6)
		outside = append(outside, float64(b.outsideNS)/1e6)
		engine = append(engine, float64(b.engineNS)/1e6)
		unattributed = append(unattributed, float64(b.unattributedNS)/1e6)
		skew = append(skew, b.skew)
	}
	tally.record(m, n)
	if u := tally.unknownPhases(); len(u) > 0 {
		out.note("engine phases outside the reported vocabulary: %v", u)
	}
	m["client.gap_ms_p50"] = median(gap)
	m["router.self_ms_p50"] = median(self)
	m["router.merge_ms_p50"] = median(merge)
	m["qserv.node_ms_p50"] = median(node)
	m["qserv.outside_engine_ms_p50"] = median(outside)
	m["qserv.engine_ms_p50"] = median(engine)
	t := tailOf(engine)
	m["qserv.engine_ms_tail"] = t.Value
	m["unattributed_ms_p50"] = median(unattributed)
	m["router.fanout_skew_p50"] = median(skew)
	out.note("traced window: %d requests with span trees; qserv.engine_ms_tail = p%g of %d", n, t.P, t.N)
	return dump.writeTo(spanDump(opt))
}

func maxOf(v []float64) float64 {
	var mx float64
	for i, x := range v {
		if i == 0 || x > mx {
			mx = x
		}
	}
	return mx
}
