package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/xmltree"
)

// The xmark-ingest workload: an open loop at a fixed rate against one
// pbiserve -ingest over a freshly built 2-document XMark database, mixing
// zipfian reads with small update batches. Reads are checked against the
// answer of the epoch that served them.
const (
	ingestDocs = 2
	ingestRate = 100.0 // requests per second
	// writeEvery places one update batch in each block of 100 requests
	// (1%), at a seeded slot among the block's middle half, so batches are
	// 0.5 to 1.5 s apart. A commit that lands while the compaction daemon
	// folds the delta chain aborts the fold; at 5% writes (a batch every
	// 200 ms) folds abort again and again and the chain grows through the
	// window, and at 2% some seeds still abort several folds in a row. One
	// batch a second leaves each fold time to finish, so the chain folds
	// back every few seconds. Independent draws would sometimes put batches
	// back to back; a fixed period would lock in phase with the daemon's
	// 2 s poll, so each seed would see every fold succeed or every fold
	// abort.
	writeEvery    = 100
	ingestConns   = 2
	ingestWarmups = 500
	ingestGrace   = 5 * time.Second
	// freshKeep is how many entries each collection element of a fresh
	// document keeps (items per region, people, auctions, categories):
	// ~100-element documents, so a window's inserts grow the database by
	// a few percent and the workload stays stationary.
	freshKeep = 2
)

// freshCollections are the XMark elements whose children are entries.
var freshCollections = map[string]bool{
	"africa": true, "asia": true, "australia": true, "europe": true, "namerica": true, "samerica": true,
	"people": true, "open_auctions": true, "closed_auctions": true, "categories": true,
}

// refIn returns the key's answer over the forest cen describes.
func (k key) refIn(cen census) int64 {
	if k.chain != nil {
		return cen.pathCount(k.chain)
	}
	return cen.pairCount(k.anc, k.desc)
}

// freshDoc is one small document the workload inserts.
type freshDoc struct {
	xml  string
	cen  census
	refs map[int]int64 // key index -> the document's own answer, when non-zero
}

// ingestEnv is one set-up of the workload.
type ingestEnv struct {
	node     *proc
	keys     []key
	elements int64
	dbBytes  int64
	openTime time.Duration
	sched    []ingestOp
	// fresh are the documents the window's batches may insert, one per
	// scheduled write at most.
	fresh []*freshDoc
}

// newFreshDoc generates the i-th fresh document of a run.
func newFreshDoc(seed int64, i int) (*freshDoc, error) {
	doc, err := workload.GenerateXMark(workload.XMark(0, seed*1000+500+int64(i)))
	if err != nil {
		return nil, err
	}
	var prune func(e *xmltree.Element)
	prune = func(e *xmltree.Element) {
		if freshCollections[e.Tag] && len(e.Children) > freshKeep {
			e.Children = e.Children[:freshKeep]
		}
		for _, c := range e.Children {
			prune(c)
		}
	}
	prune(doc.Root)
	var buf bytes.Buffer
	if err := xmltree.Write(&buf, doc.Root); err != nil {
		return nil, err
	}
	cen := census{}
	cen.addTree(doc.Root)
	return &freshDoc{xml: buf.String(), cen: cen}, nil
}

// freshRef returns fresh document i's own answer to key ki, computing the
// document's answers on first use (after the window).
func (e *ingestEnv) freshRef(i, ki int) int64 {
	fd := e.fresh[i]
	if fd.refs == nil {
		fd.refs = map[int]int64{}
		for kj, k := range e.keys {
			if n := k.refIn(fd.cen); n != 0 {
				fd.refs[kj] = n
			}
		}
	}
	return fd.refs[ki]
}

// schedule lays out the window's sequence of reads and writes from the
// seed.
func schedule(n int, nkeys int, seed int64) []ingestOp {
	rng := rand.New(rand.NewSource(seed ^ 0x1a9e57))
	stream := newKeyStream(nkeys, seed)
	sched := make([]ingestOp, n)
	slot := 0
	for i := range sched {
		if i%writeEvery == 0 {
			slot = writeEvery/4 + rng.Intn(writeEvery/2)
		}
		if i%writeEvery == slot {
			sched[i].write = true
		} else {
			sched[i].key = stream.at(i)
		}
	}
	return sched
}

func setupIngest(ctx context.Context, opt options, dir string, c *http.Client) (env *ingestEnv, st setupTimes, err error) {
	sw := newStopwatch()
	roots, err := xmarkDocs(ingestDocs, xmarkScale, opt.seed)
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

	dbPath := filepath.Join(dir, "ingest.db")
	env = &ingestEnv{}
	if env.elements, err = buildDB(dbPath, coll); err != nil {
		return nil, st, err
	}
	if env.dbBytes, err = fileSize(dbPath); err != nil {
		return nil, st, err
	}
	st.build = sw.lap()

	open := time.Now()
	eng, rels, err := containment.Open(containment.Config{Path: dbPath, ReadOnly: true})
	if err != nil {
		return nil, st, err
	}
	env.openTime = time.Since(open)
	// shcj is left out: whether an ancestor set has one height can change
	// with every commit.
	env.keys, err = keySpace(rels, cen, false)
	eng.Close()
	if err != nil {
		return nil, st, err
	}
	env.sched = schedule(int(ingestRate*opt.window.Seconds()), len(env.keys), opt.seed)
	for _, op := range env.sched {
		if op.write {
			fd, err := newFreshDoc(opt.seed, len(env.fresh))
			if err != nil {
				return nil, st, err
			}
			env.fresh = append(env.fresh, fd)
		}
	}
	st.reference = sw.lap()

	node, err := startProc(opt.bin, dir, "pbiserve", "-db", dbPath, "-ingest")
	if err != nil {
		return nil, st, err
	}
	env.node = node
	defer func() {
		if err != nil {
			node.stop()
		}
	}()
	if err := waitReady(ctx, c, env.node, 60*time.Second); err != nil {
		return nil, st, err
	}
	stream := newKeyStream(len(env.keys), opt.seed^0x5eed)
	for i := 0; i < ingestWarmups; i++ {
		k := env.keys[stream.at(i)]
		ans, err := fetchAnswer(ctx, c, env.node.url+k.path)
		if err != nil {
			return nil, st, fmt.Errorf("warm-up %s: %w", k.path, err)
		}
		if ans.Count != k.ref {
			return nil, st, fmt.Errorf("warm-up %s: count %d, reference %d", k.path, ans.Count, k.ref)
		}
	}
	st.warmup = sw.lap()
	st.total = st.generate + st.build + st.reference + st.warmup
	return env, st, nil
}

// ingestOp is one scheduled request of the open loop.
type ingestOp struct {
	write bool
	key   int // reads: key index
}

// commit is one acknowledged batch: after it, epoch serves alive.
type commit struct {
	epoch int64
	// delta maps a fresh-document index to +1 when the batch inserted
	// it, 0 when it deleted and reinserted it.
	delta map[int]int
}

// read is one answered read, checked after the run against its epoch.
type read struct {
	key   int
	epoch int64
	count int64
	seq   int
	cache string // X-Cache
	rttNS int64  // round trip, send to answer
}

// ingestRun is the mutable state of one measured window.
type ingestRun struct {
	env   *ingestEnv
	c     *http.Client
	spans bool
	sched []ingestOp
	rng   *rand.Rand // picks write targets; used under writeMu

	writeMu   sync.Mutex
	nextFresh int
	alive     []int // fresh-document indexes alive (by the client's view)
	names     map[int]string
	renamed   int

	mu        sync.Mutex
	commits   []commit
	reads     []read
	commitLat []float64
	unknown   bool // a batch's outcome is unknown
	spanTrees map[int]*spanSample
	// first is the global sequence number of the current window's
	// request 0.
	first int
}

// spanSample is one traced read's round trip and engine span trees.
type spanSample struct {
	rttNS int64
	trees []*trace.WireSpan
}

func (r *ingestRun) issue(ctx context.Context, _, seq int) error {
	seq += r.first
	op := r.sched[seq]
	if op.write {
		return r.write(ctx)
	}
	k := r.env.keys[op.key]
	u := r.env.node.url + k.path
	if r.spans {
		u += "&spans=1"
	}
	t0 := time.Now()
	ans, err := fetchAnswer(ctx, r.c, u)
	if err != nil {
		return err
	}
	epoch, err := strconv.ParseInt(ans.epoch, 10, 64)
	if err != nil {
		return fmt.Errorf("%s: bad X-Epoch %q", k.path, ans.epoch)
	}
	r.mu.Lock()
	r.reads = append(r.reads, read{key: op.key, epoch: epoch, count: ans.Count, seq: seq, cache: ans.cache, rttNS: int64(time.Since(t0))})
	r.mu.Unlock()
	if r.spans {
		trees, err := ans.spanTrees()
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.spanTrees[seq] = &spanSample{rttNS: int64(time.Since(t0)), trees: trees}
		r.mu.Unlock()
	}
	return nil
}

// write sends one batch: half the time a fresh document, otherwise (when
// one is alive) the deletion of an earlier fresh document and its
// reinsertion under a new name. One batch is in flight at a time, so the
// client knows each epoch's content.
func (r *ingestRun) write(ctx context.Context) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	delta := map[int]int{}
	var ops []ingest.Op
	if len(r.alive) == 0 || r.rng.Intn(2) == 0 {
		i := r.nextFresh
		fd := r.env.fresh[i]
		name := fmt.Sprintf("fresh-%d.xml", i)
		ops = append(ops, ingest.Op{Op: "insert_doc", Doc: name, XML: fd.xml})
		r.nextFresh++
		r.names[i] = name
		delta[i] = +1
	} else {
		j := r.rng.Intn(len(r.alive))
		i := r.alive[j]
		r.renamed++
		name := fmt.Sprintf("fresh-%d-r%d.xml", i, r.renamed)
		ops = append(ops,
			ingest.Op{Op: "delete_doc", Doc: r.names[i]},
			ingest.Op{Op: "insert_doc", Doc: name, XML: r.env.fresh[i].xml})
		r.names[i] = name
		delta[i] = 0 // deleted and reinserted: content unchanged
	}
	body, err := json.Marshal(qserv.IngestRequest{Ops: ops})
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := postIngest(ctx, r.c, r.env.node.url+"/ingest", body)
	lat := time.Since(t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.unknown = true
		return err
	}
	for i, d := range delta {
		if d > 0 {
			r.alive = append(r.alive, i)
		}
	}
	r.commits = append(r.commits, commit{epoch: res.Epoch, delta: delta})
	r.commitLat = append(r.commitLat, ms(lat))
	return nil
}

// postIngest sends one batch.
func postIngest(ctx context.Context, c *http.Client, url string, body []byte) (*ingest.CommitResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{url: url, code: resp.StatusCode, body: string(b)}
	}
	var res ingest.CommitResult
	return &res, json.Unmarshal(b, &res)
}

// verify checks every read against the answer of its epoch: the base
// answer plus the answers of the fresh documents alive at that epoch.
// Commits publish epochs; compactions publish epochs with unchanged
// content, so an epoch's content is that of the last commit at or below
// it. It returns the sequence numbers of wrong and unverifiable reads.
func (r *ingestRun) verify() (wrong, unverifiable map[int]bool) {
	wrong, unverifiable = map[int]bool{}, map[int]bool{}
	sort.Slice(r.commits, func(i, j int) bool { return r.commits[i].epoch < r.commits[j].epoch })
	sort.Slice(r.reads, func(i, j int) bool { return r.reads[i].epoch < r.reads[j].epoch })
	var lastKnown int64 = -1
	if len(r.commits) > 0 {
		lastKnown = r.commits[len(r.commits)-1].epoch
	}
	alive := map[int]bool{}
	ci := 0
	for _, rd := range r.reads {
		for ci < len(r.commits) && r.commits[ci].epoch <= rd.epoch {
			for i, d := range r.commits[ci].delta {
				if d > 0 {
					alive[i] = true
				}
			}
			ci++
		}
		if r.unknown && rd.epoch > lastKnown {
			unverifiable[rd.seq] = true
			continue
		}
		want := r.env.keys[rd.key].ref
		for i := range alive {
			want += r.env.freshRef(i, rd.key)
		}
		if rd.count != want {
			wrong[rd.seq] = true
		}
	}
	return wrong, unverifiable
}

// epochsSample is one /epochs poll.
type epochsSample struct {
	at   time.Time
	resp qserv.EpochsResponse
}

// pollEpochs samples /epochs every second until stop is closed.
func pollEpochs(ctx context.Context, c *http.Client, url string, stop <-chan struct{}) []epochsSample {
	var out []epochsSample
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		var s epochsSample
		if err := getJSON(ctx, c, url+"/epochs", &s.resp); err == nil {
			s.at = time.Now()
			out = append(out, s)
		}
		select {
		case <-stop:
			return out
		case <-ctx.Done():
			return out
		case <-tick.C:
		}
	}
}

func runIngest(ctx context.Context, opt options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	c := loadClient(ingestConns)
	admin := loadClient(1)
	var setups []setupTimes
	var env *ingestEnv
	var openTimes []float64
	defer func() {
		if env != nil {
			env.node.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(opt.work, fmt.Sprintf("setup%d", i))
		if err := mkdir(dir); err != nil {
			return nil, err
		}
		e, st, err := setupIngest(ctx, opt, dir, c)
		if err != nil {
			return nil, err
		}
		if env != nil {
			env.node.stop()
		}
		env = e
		setups = append(setups, st)
		openTimes = append(openTimes, ms(e.openTime))
	}
	recordSetup(m, setups)
	m["containment.open_ms"] = median(openTimes)
	m["db_bytes_per_element"] = ratio(float64(env.dbBytes), float64(env.elements))

	sched := env.sched
	run := &ingestRun{env: env, c: c, sched: sched, rng: rand.New(rand.NewSource(opt.seed ^ 0xd0c5)),
		names: map[int]string{}, spanTrees: map[int]*spanSample{}}
	out.note("open loop, %.0f req/s over at most %d connections, %.0f%% update batches; key space %d keys (zipf s=%g); node cache 1024 entries; %d base elements",
		ingestRate, ingestConns, 100.0/writeEvery, len(env.keys), zipfS, env.elements)

	_, ns0, err := servedStats(ctx, admin, nil, []*proc{env.node})
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	polled := make(chan []epochsSample, 1)
	go func() { polled <- pollEpochs(ctx, admin, env.node.url, stop) }()
	// A traced run spends its first half untraced (the baseline for
	// trace.overhead_pct) and its second half with spans on every read.
	window := opt.window
	if opt.traced {
		window /= 2
	}
	pids := []string{env.node.pid()}
	rss := startRSS(pids)
	defer rss.stop()
	cpu, err := startCPU(pids)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	samples := openLoop(ctx, ingestRate, window, ingestConns, ingestGrace, run.issue)
	untraced := len(samples)
	if opt.traced {
		run.first, run.spans = untraced, true
		traced := openLoop(ctx, ingestRate, window, ingestConns, ingestGrace, run.issue)
		for _, s := range traced {
			s.Seq += untraced
			samples = append(samples, s)
		}
	}
	elapsed := time.Since(start).Seconds()
	cpuMS, err := cpu.finish(out)
	if err != nil {
		return nil, err
	}
	close(stop)
	series := <-polled
	if err := rss.finish(m, pids); err != nil {
		return nil, err
	}
	_, ns1, err := servedStats(ctx, admin, nil, []*proc{env.node})
	if err != nil {
		return nil, err
	}

	wrong, unverifiable := run.verify()
	var readLat, late []float64
	for _, s := range samples {
		out.attempted++
		late = append(late, ms(s.Late()))
		if s.Err != nil || unverifiable[s.Seq] {
			out.failed++
			if out.failed <= 3 {
				out.note("failed request %d: %v", s.Seq, s.Err)
			}
		} else if wrong[s.Seq] {
			out.wrong++
		}
		// Traced reads bypass the cache; latency is of the untraced ones.
		if !sched[s.Seq].write && s.Seq < untraced {
			readLat = append(readLat, ms(s.Latency()))
		}
	}
	ok := out.attempted - out.failed - out.wrong
	nd := diffNodes(ns0, ns1)
	m["qps"] = float64(ok) / elapsed
	m["cpu_ms_per_op"] = ratio(cpuMS, float64(ok))
	m["lat_p50_ms"] = median(readLat)
	t := tailOf(readLat)
	out.note("read latency quartiles %.2f / %.2f / %.2f ms, p90 %.2f ms", percentile(readLat, 25), percentile(readLat, 50), percentile(readLat, 75), percentile(readLat, 90))
	m["lat_tail_ms"] = t.Value
	m["page_io_per_op"] = ratio(float64(nd.pages), float64(ok))
	m["virtual_disk_ms_per_op"] = ratio(float64(nd.virtualUS)/1000, float64(ok))
	m["success_ratio"] = ratio(float64(ok), float64(out.attempted))
	m["error_rate"] = ratio(float64(out.failed+out.wrong), float64(out.attempted))
	m["qserv.cache_hit_ratio"] = ratio(float64(nd.hits), float64(nd.hits+nd.misses))
	m["qserv.executions_per_miss"] = ratio(float64(nd.execs), float64(nd.misses))
	m["qserv.rejected"] = float64(nd.rejected)
	lt := tailOf(late)
	m["loadgen.late_ms_tail"] = lt.Value
	m["ingest.commit_p50_ms"] = median(run.commitLat)
	ct := tailOf(run.commitLat)
	m["ingest.commit_tail_ms"] = ct.Value
	out.note("%d requests; lat_tail_ms = p%g of %d reads; ingest.commit_tail_ms = p%g of %d commits; loadgen.late_ms_tail = p%g",
		len(samples), t.P, t.N, ct.P, ct.N, lt.P)
	if err := ingestCounters(out, series); err != nil {
		return nil, err
	}
	if opt.traced {
		ingestLayers(opt, out, samples[untraced:], run)
	}
	return out, nil
}

// ingestCounters records the store's counter growth over the window and
// the delta-chain series, flagging a chain that grew through the window.
func ingestCounters(out *outcome, series []epochsSample) error {
	m := out.metrics
	if len(series) < 2 {
		return fmt.Errorf("only %d /epochs samples in the window", len(series))
	}
	first, last := series[0].resp, series[len(series)-1].resp
	d := func(a, b uint64) float64 { return float64(b - a) }
	m["ingest.commits"] = d(first.Stats.Commits, last.Stats.Commits)
	m["ingest.renumbers_global"] = d(first.Stats.RenumbersGlobal, last.Stats.RenumbersGlobal)
	m["ingest.renumbers_scoped"] = d(first.Stats.RenumbersScoped, last.Stats.RenumbersScoped)
	m["ingest.overflow_inserts"] = d(first.Stats.OverflowInserts, last.Stats.OverflowInserts)
	m["ingest.compactions"] = d(first.Stats.Compactions, last.Stats.Compactions)
	m["ingest.compacted_pages"] = d(first.Stats.CompactedPages, last.Stats.CompactedPages)
	m["ingest.compact_aborts"] = d(first.Stats.CompactAborts, last.Stats.CompactAborts)
	m["qserv.worker_swaps"] = float64(last.WorkerSwaps - first.WorkerSwaps)
	var chain []float64
	var lens []string
	growing := true
	for i, s := range series {
		chain = append(chain, float64(s.resp.Stats.ChainLen))
		lens = append(lens, strconv.Itoa(s.resp.Stats.ChainLen))
		if i > 0 && s.resp.Stats.ChainLen < series[i-1].resp.Stats.ChainLen {
			growing = false
		}
	}
	if chain[len(chain)-1] <= chain[0] {
		growing = false
	}
	m["ingest.chain_len_max"] = maxOf(chain)
	m["ingest.chain_len_mean"] = mean(chain)
	if growing {
		m["ingest.chain_growing"] = 1
		out.note("WARNING: the delta chain grew through the whole window (a backlog, not a steady state)")
	}
	out.note("delta chain length per second: %s", strings.Join(lens, " "))
	out.note("commits %.0f, global renumbers %.0f, compactions %.0f (%.0f aborted), worker swaps %.0f",
		m["ingest.commits"], m["ingest.renumbers_global"], m["ingest.compactions"], m["ingest.compact_aborts"], m["qserv.worker_swaps"])
	return nil
}

// ingestLayers computes the per-layer breakdown of the traced reads: the
// wait for a connection, the node outside its engine, and the engine.
func ingestLayers(opt options, out *outcome, samples []sample, run *ingestRun) {
	m := out.metrics
	tally := newPhaseTally()
	var dump spanWriter
	var node, outside, engine, unattributed []float64
	n := 0
	for _, s := range samples {
		ss := run.spanTrees[s.Seq]
		if s.Err != nil || ss == nil {
			continue
		}
		n++
		var eng int64
		for _, t := range ss.trees {
			tally.addJoin(t)
			dump.add(t)
			eng += t.WallNS
		}
		rtt := ss.rttNS
		node = append(node, float64(rtt)/1e6)
		engine = append(engine, float64(eng)/1e6)
		outside = append(outside, float64(rtt-eng)/1e6)
		// The layers: the generator's lateness, the request's round trip
		// (outside the engine plus the engine); what is left of the
		// latency from the due time is unattributed.
		unattributed = append(unattributed, ms(s.Latency())-ms(s.Late())-float64(rtt)/1e6)
	}
	tally.record(m, n)
	m["qserv.node_ms_p50"] = median(node)
	m["qserv.outside_engine_ms_p50"] = median(outside)
	m["qserv.engine_ms_p50"] = median(engine)
	t := tailOf(engine)
	m["qserv.engine_ms_tail"] = t.Value
	m["unattributed_ms_p50"] = median(unattributed)
	// Traced reads bypass the cache: compare with untraced reads that
	// missed it.
	var missRTT []float64
	for _, rd := range run.reads {
		if rd.seq < samples[0].Seq && rd.cache == "miss" {
			missRTT = append(missRTT, float64(rd.rttNS)/1e6)
		}
	}
	m["trace.overhead_pct"] = 100 * (median(node)/median(missRTT) - 1)
	out.note("traced reads with span trees: %d; qserv.engine_ms_tail = p%g of %d", n, t.P, t.N)
	if err := dump.writeTo(spanDump(opt)); err != nil {
		out.note("span dump: %v", err)
	}
}
