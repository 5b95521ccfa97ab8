// Package router is the network-level scatter-gather coordinator: it
// promotes internal/shard's in-process shard boundary to HTTP. A Router
// fronts N shard groups — each a set of replica pbiserve nodes serving the
// same document-disjoint shard of a split database (internal/shard.Split)
// — and fans every /join, /query and /relations request out to one node
// per shard, merging responses with exactly the semantics shard.Engine
// uses in process: counts and I/O sum, algorithm names "+"-join in shard
// order, path-match codes merge into document order, and the envelope
// WallTime is the fan-out's wall clock, not the per-shard sum.
//
// Correctness rests on the same argument as package shard: documents never
// span shards, so every containment pair (and every chain of them) lies
// within one shard, and the union of per-shard answers is exactly the
// single-engine answer. Replicas of one shard serve identical data, so any
// replica's response is interchangeable — which is what makes the
// availability machinery sound:
//
//   - Health: a prober hits every node's /readyz on a fixed interval and
//     demotes nodes that fail FailAfter consecutive probes (transport
//     errors during proxied requests demote immediately). Demoted nodes
//     keep being probed and are promoted back on the first success.
//   - Hedging: when a shard's primary response is slower than the node's
//     recent latency quantile (or a fixed threshold), the same request
//     fires against a second replica; the first definitive response wins
//     and the loser's request context is canceled.
//   - Failover: a retryable failure (transport error, 500/502/503) moves
//     the request to the next replica, each replica tried at most once per
//     request, so retries are bounded by the replica count.
//
// Deadlines and trace IDs propagate downstream: the router's remaining
// budget rides the nodes' existing ?timeout= clamp and its X-Trace-Id
// header is honored by qserv, so one user request correlates across every
// access log it touched. Router-level failures map onto the same status
// vocabulary qserv.FailureClass defines: 499 when the client hung up, 504
// on deadline expiry, 503 when a shard has no usable replica, and
// definitive node statuses (400/404/504) forward as-is.
package router

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/servekit"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
)

// Config configures a Router.
type Config struct {
	// Topology lists the replica base URLs of every shard group:
	// Topology[i] holds the URLs of the pbiserve nodes that serve shard i
	// of the split. Every shard needs at least one replica. Required.
	Topology [][]string
	// CacheEntries bounds the router's LRU result cache. 0 means 1024;
	// negative disables caching.
	CacheEntries int
	// QueryTimeout bounds each request's end-to-end execution and is the
	// upper clamp for the per-request ?timeout= parameter, exactly like
	// qserv.Config.QueryTimeout. The remaining budget propagates to the
	// nodes via their own ?timeout= parameter. 0 means no router deadline.
	QueryTimeout time.Duration
	// ProbeInterval is the per-node health probe period. 0 means 2s;
	// negative disables probing (health then changes only through in-band
	// request failures, which tests use for determinism).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. 0 means 1s.
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures demote a node.
	// 0 means 2. (In-band transport errors demote immediately regardless.)
	FailAfter int
	// HedgeAfter fixes the hedging delay: how long a shard's primary
	// request may run before a second replica is tried. 0 derives the
	// delay per node from its recent latency quantile (HedgeQuantile,
	// floored at HedgeMin); negative disables hedging.
	HedgeAfter time.Duration
	// HedgeQuantile is the adaptive hedging quantile. 0 means 0.95.
	HedgeQuantile float64
	// HedgeMin floors the adaptive hedging delay so sub-millisecond cached
	// responses don't trigger useless duplicate requests. 0 means 10ms.
	HedgeMin time.Duration
	// MaxCodes caps how many merged result codes /query echoes.
	// 0 means 100.
	MaxCodes int
	// BreakerThreshold is how many consecutive retryable failures trip a
	// node's circuit breaker (closed → open). While open the node receives
	// no proxied requests at all; after BreakerInterval one half-open trial
	// request (or a successful health probe) decides whether it closes.
	// 0 means 5; negative disables breakers.
	BreakerThreshold int
	// BreakerInterval is the initial open interval — how long a tripped
	// breaker denies requests before admitting a half-open trial. Each
	// failed trial doubles it, up to BreakerMaxInterval. 0 means 1s.
	BreakerInterval time.Duration
	// BreakerMaxInterval caps the doubling open interval. 0 means 30s.
	BreakerMaxInterval time.Duration
	// RetryBudget is the capacity of the token-bucket retry budget shared
	// across all shards and requests: every failover retry (not initial
	// attempts, not hedges) consumes one token, and an empty bucket stops
	// failover cold — bounding the extra load the router can add to a
	// fleet-wide brownout. 0 means 10 tokens; negative disables the budget.
	RetryBudget float64
	// RetryRefill is the budget's refill rate in tokens per second.
	// 0 means 1.
	RetryRefill float64
	// RetryBackoff is the base delay before a failover retry; attempt k
	// waits base·2^k (jittered ±50%, capped at RetryBackoffMax) so retries
	// against a struggling shard spread out instead of stampeding.
	// 0 means 10ms; negative disables backoff (immediate failover).
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential failover backoff. 0 means 500ms.
	RetryBackoffMax time.Duration
	// AllowPartial makes degraded partial-result serving the default:
	// when a shard has no usable replica it is skipped and the response
	// carries partial metadata (HTTP 206, partial: true, missing_shards)
	// instead of failing the whole request. Per-request ?partial=1 /
	// ?partial=0 overrides this in either direction. Sound because shards
	// are document-disjoint: the merged answer over the responding shards
	// is an exact lower bound, never an estimate.
	AllowPartial bool
	// Client overrides the HTTP client used for node requests and probes
	// (tests). Nil uses a dedicated client with keep-alives.
	Client *http.Client
	// Telemetry, when non-nil, receives one record per completed /join or
	// /query routed through this process (Record.Node is "router"). The
	// router only enqueues; the caller owns the writer's lifecycle and
	// closes it after the HTTP server drains.
	Telemetry *telemetry.Writer
	// TraceRing bounds the in-memory ring of recent stitched traces served
	// by GET /debug/trace/{id}. 0 means 256; negative disables retention.
	TraceRing int
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile > 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.MaxCodes <= 0 {
		c.MaxCodes = 100
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerInterval <= 0 {
		c.BreakerInterval = time.Second
	}
	if c.BreakerMaxInterval <= 0 {
		c.BreakerMaxInterval = 30 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 10
	}
	if c.RetryRefill <= 0 {
		c.RetryRefill = 1
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.RetryBackoffMax <= 0 {
		c.RetryBackoffMax = 500 * time.Millisecond
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	return c
}

// node is one replica endpoint in the table: its identity (URL, shard,
// replica index) plus everything the prober and the proxy learn about it.
// All fields are safe for concurrent access.
type node struct {
	url     string // base URL, no trailing slash
	shard   int
	replica int

	healthy     atomic.Bool
	consecFails atomic.Int64 // consecutive probe failures
	probes      atomic.Int64
	probeFails  atomic.Int64

	requests     atomic.Int64 // proxied node calls issued
	failures     atomic.Int64 // node calls that failed retryably
	hedges       atomic.Int64 // node calls that were hedge (secondary) fires
	upstreamHits atomic.Int64 // node answered from its own result cache

	br *breaker // circuit breaker; nil when disabled

	mu        sync.Mutex
	lastErr   string
	lastErrAt time.Time
	lat       latWindow // recent request latencies (hedging quantile, histogram)
}

// name is the node's metrics/stats identity.
func (nd *node) name() string { return nd.url }

// noteError records a failure message for /stats.
func (nd *node) noteError(msg string) {
	nd.mu.Lock()
	nd.lastErr = msg
	nd.lastErrAt = time.Now()
	nd.mu.Unlock()
}

// Router fans queries out to shard-group replicas and merges the answers.
// Unlike the engines it fronts, a Router is fully concurrent: any number
// of requests may be in flight at once (the nodes do their own admission).
type Router struct {
	cfg     Config
	shards  [][]*node // node table: shards[i] = shard i's replicas
	nodes   []*node   // flat view, probe/metrics order
	rr      []atomic.Int64
	client  *http.Client
	cache   *servekit.Cache // nil when disabled
	budget  *tokenBucket    // shared failover retry budget; nil when disabled
	met     *metrics
	traces  *trace.Store // recent stitched traces for /debug/trace/{id}
	mux     *http.ServeMux
	handler http.Handler

	// epoch counts node-table state transitions (demotions, promotions).
	// Cache keys embed it, so entries cached against an older view of the
	// fleet become unreachable the moment the view changes.
	epoch atomic.Int64

	traceBase uint32
	traceSeq  atomic.Uint64
	draining  atomic.Bool

	stop     chan struct{}
	probers  sync.WaitGroup
	testHook func(nd *node) // probe interception point (tests)
}

// New validates the topology and returns a router with its probers
// running. Nodes start healthy (optimistic) and the first probe round
// corrects that view within ProbeInterval.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Topology) == 0 {
		return nil, fmt.Errorf("router: Config.Topology is required (no shards)")
	}
	rt := &Router{
		cfg:    cfg,
		client: cfg.Client,
		met:    newMetrics(),
		traces: trace.NewStore(cfg.TraceRing),
		rr:     make([]atomic.Int64, len(cfg.Topology)),
		stop:   make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if cfg.CacheEntries > 0 {
		rt.cache = servekit.NewCache(cfg.CacheEntries)
	}
	rt.budget = newTokenBucket(cfg.RetryBudget, cfg.RetryRefill, time.Now())
	for si, replicas := range cfg.Topology {
		if len(replicas) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", si)
		}
		var group []*node
		for ri, raw := range replicas {
			u, err := url.Parse(strings.TrimRight(raw, "/"))
			if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
				return nil, fmt.Errorf("router: shard %d replica %d: bad URL %q", si, ri, raw)
			}
			nd := &node{url: strings.TrimRight(raw, "/"), shard: si, replica: ri}
			nd.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerInterval, cfg.BreakerMaxInterval)
			nd.healthy.Store(true)
			group = append(group, nd)
			rt.nodes = append(rt.nodes, nd)
		}
		rt.shards = append(rt.shards, group)
	}

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("/join", rt.handleJoin)
	rt.mux.HandleFunc("/query", rt.handleQuery)
	rt.mux.HandleFunc("/relations", rt.handleRelations)
	rt.mux.HandleFunc("/stats", rt.handleStats)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/debug/trace/", rt.handleDebugTraceID)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.traceBase = uint32(time.Now().UnixNano())
	rt.handler = rt.instrument(rt.mux)

	if cfg.ProbeInterval > 0 {
		for _, nd := range rt.nodes {
			rt.probers.Add(1)
			go rt.probeLoop(nd)
		}
	}
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

// NumShards returns the number of shard groups in the table.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Epoch returns the current node-table epoch (tests, stats).
func (rt *Router) Epoch() int64 { return rt.epoch.Load() }

// Drain marks the router not-ready (/readyz answers 503) while in-flight
// requests keep executing; call before http.Server.Shutdown.
func (rt *Router) Drain() { rt.draining.Store(true) }

// Close stops the probers. In-flight proxied requests are not interrupted;
// drain the HTTP server first.
func (rt *Router) Close() error {
	close(rt.stop)
	rt.probers.Wait()
	return nil
}

// nextTraceID mints a router-scoped request identifier. The "r" prefix
// distinguishes router-minted IDs from node-minted ones in shared logs.
func (rt *Router) nextTraceID() string {
	return fmt.Sprintf("r%07x-%08x", rt.traceBase&0xfffffff, rt.traceSeq.Add(1))
}

// instrument assigns every request a trace ID (honoring a propagated one,
// same sanitation rule as the nodes) and serves as the panic barrier.
// When a telemetry writer is configured it also emits exactly one record
// per /join and /query, mirroring qserv's middleware: the handler fills
// the execution half into a context-threaded holder, the envelope half
// (status, duration, cache disposition) is known here.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := qserv.IncomingTraceID(r)
		if id == "" {
			id = rt.nextTraceID()
		}
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		var th *telemetryHolder
		if rt.cfg.Telemetry != nil && recordedEndpoint(r.URL.Path) {
			th = &telemetryHolder{}
			r = r.WithContext(context.WithValue(r.Context(), telemetryCtxKey{}, th))
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					rt.met.panics.Add(1)
					if sw.status == 0 {
						rt.writeError(sw, http.StatusInternalServerError, "internal error: %v", v)
					}
				}
			}()
			next.ServeHTTP(sw, r)
		}()
		if th != nil {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			rt.emitTelemetry(th, id, r.URL.Path, r.URL.RawQuery,
				status, sw.Header().Get("X-Cache") == "hit", start)
		}
	})
}

// statusWriter captures the status code a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// probeLoop probes one node until Close. The first probe fires after a
// short warmup rather than a full interval, so a router pointed at a dead
// fleet notices quickly.
func (rt *Router) probeLoop(nd *node) {
	defer rt.probers.Done()
	timer := time.NewTimer(rt.cfg.ProbeInterval / 4)
	defer timer.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-timer.C:
		}
		rt.probeOnce(nd)
		timer.Reset(rt.cfg.ProbeInterval)
	}
}

// probeOnce performs one readiness probe and applies the health
// transition rules.
func (rt *Router) probeOnce(nd *node) {
	if rt.testHook != nil {
		rt.testHook(nd)
	}
	nd.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.url+"/readyz", nil)
	if err != nil {
		rt.probeFailed(nd, fmt.Sprintf("probe: %v", err))
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.probeFailed(nd, fmt.Sprintf("probe: %v", err))
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rt.probeFailed(nd, fmt.Sprintf("probe: /readyz answered %d", resp.StatusCode))
		return
	}
	nd.consecFails.Store(0)
	// Probe-driven close: a node that answers /readyz is back, so the
	// breaker re-admits traffic without a live user request having to be
	// the half-open trial.
	nd.br.success()
	rt.setHealthy(nd, true, "")
}

// probeFailed counts one failed probe and demotes the node once the
// consecutive-failure threshold is crossed.
func (rt *Router) probeFailed(nd *node, msg string) {
	nd.probeFails.Add(1)
	nd.noteError(msg)
	if nd.consecFails.Add(1) >= int64(rt.cfg.FailAfter) {
		rt.setHealthy(nd, false, msg)
	}
}

// setHealthy applies a health transition, bumping the epoch and the
// transition counters only when the state actually changes.
func (rt *Router) setHealthy(nd *node, ok bool, reason string) {
	if nd.healthy.Swap(ok) == ok {
		return
	}
	rt.epoch.Add(1)
	if ok {
		rt.met.promotions.Add(1)
	} else {
		rt.met.demotions.Add(1)
		if reason != "" {
			nd.noteError(reason)
		}
	}
}

// demoteNow is the in-band demotion path: a transport-level failure during
// a proxied request is stronger evidence than a missed probe (the node was
// just asked to do real work and couldn't), so it demotes immediately.
// The prober keeps watching and promotes the node back on its next
// successful /readyz.
func (rt *Router) demoteNow(nd *node, msg string) {
	nd.noteError(msg)
	nd.consecFails.Add(1)
	rt.setHealthy(nd, false, msg)
}

// candidates orders shard si's replicas for one request: healthy replicas
// first, rotated by a per-shard round-robin cursor so load spreads across
// replicas, then unhealthy ones as last resorts (the prober may simply
// not have noticed a recovery yet, and a stale "down" view must not turn
// into a false 503 while a live replica exists).
func (rt *Router) candidates(si int) []*node {
	reps := rt.shards[si]
	start := int(rt.rr[si].Add(1))
	if start < 0 {
		start = -start
	}
	healthy := make([]*node, 0, len(reps))
	var down []*node
	for k := 0; k < len(reps); k++ {
		nd := reps[(start+k)%len(reps)]
		if nd.healthy.Load() {
			healthy = append(healthy, nd)
		} else {
			down = append(down, nd)
		}
	}
	return append(healthy, down...)
}

// hedgeDelay picks how long primary may run before a hedge fires against
// another replica of the same shard.
func (rt *Router) hedgeDelay(primary *node) time.Duration {
	if rt.cfg.HedgeAfter != 0 {
		return rt.cfg.HedgeAfter // negative means "never" (checked by caller)
	}
	primary.mu.Lock()
	d := primary.lat.quantile(rt.cfg.HedgeQuantile)
	primary.mu.Unlock()
	if d <= 0 {
		// No history yet: hedge conservatively rather than not at all.
		return 5 * rt.cfg.HedgeMin
	}
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	return d
}
