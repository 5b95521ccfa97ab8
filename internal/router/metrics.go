package router

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/servekit"
)

// latRing is how many recent latencies each window retains. The router
// keeps one window per node (feeding the adaptive hedging quantile) plus
// one for its own end-to-end request latency; a fixed ring keeps the cost
// per sample O(1) and the estimate representative of current behavior.
const latRing = 2048

// latWindow is a sliding latency sample plus an all-of-history histogram.
// It does no locking of its own: every instance is guarded by its owner's
// mutex (node.mu for per-node windows, metrics.mu for the router's).
type latWindow struct {
	ring [latRing]time.Duration
	n    int // samples in ring (≤ latRing)
	next int // ring write position

	hist  []int64 // len(servekit.LatBuckets)+1, lazily allocated; last slot = +Inf
	sum   time.Duration
	count int64
}

// observe folds one latency sample into the window and histogram.
func (l *latWindow) observe(d time.Duration) {
	l.ring[l.next] = d
	l.next = (l.next + 1) % latRing
	if l.n < latRing {
		l.n++
	}
	if l.hist == nil {
		l.hist = make([]int64, len(servekit.LatBuckets)+1)
	}
	l.hist[servekit.Bucket(d)]++
	l.sum += d
	l.count++
}

// sorted returns a sorted copy of the current window.
func (l *latWindow) sorted() []time.Duration {
	sample := make([]time.Duration, l.n)
	copy(sample, l.ring[:l.n])
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	return sample
}

// quantile estimates the q-quantile of the window (0 with no samples).
func (l *latWindow) quantile(q float64) time.Duration {
	return servekit.Percentile(l.sorted(), q)
}

// histogram copies the cumulative-histogram state for the /metrics writer.
func (l *latWindow) histogram() (buckets []int64, sum time.Duration, count int64) {
	buckets = make([]int64, len(servekit.LatBuckets)+1)
	copy(buckets, l.hist)
	return buckets, l.sum, l.count
}

// metrics aggregates the router-level counters /stats and /metrics report.
// Per-node counters live on the nodes themselves.
type metrics struct {
	start time.Time

	requests atomic.Int64 // completed requests (cached or fanned out)
	errors   atomic.Int64 // requests answered with a non-2xx status
	canceled atomic.Int64 // requests abandoned by the client (499)
	timeouts atomic.Int64 // requests aborted by deadline expiry (504)
	panics   atomic.Int64 // panics recovered during request handling

	hedgeFires atomic.Int64 // hedge timers that fired a secondary request
	hedgeWins  atomic.Int64 // shard answers won by the hedge request
	failovers  atomic.Int64 // replica-to-replica retries after a failure

	breakerDenials atomic.Int64 // candidate launches skipped: circuit open
	budgetDenials  atomic.Int64 // failover retries denied by the retry budget
	partials       atomic.Int64 // degraded 206 responses (shards missing)

	demotions  atomic.Int64 // healthy→unhealthy node transitions
	promotions atomic.Int64 // unhealthy→healthy node transitions

	mu  sync.Mutex
	lat latWindow // end-to-end router request latency
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// observe records one completed request's latency.
func (m *metrics) observe(d time.Duration) {
	m.requests.Add(1)
	m.mu.Lock()
	m.lat.observe(d)
	m.mu.Unlock()
}

// latencySnapshot extracts the reported percentiles from the window.
func (m *metrics) latencySnapshot() servekit.LatencyStats {
	m.mu.Lock()
	sample := m.lat.sorted()
	m.mu.Unlock()
	return servekit.Latency(sample)
}

// nodeStat is one node's row in the /stats nodes block.
type nodeStat struct {
	URL          string  `json:"url"`
	Shard        int     `json:"shard"`
	Replica      int     `json:"replica"`
	Healthy      bool    `json:"healthy"`
	Breaker      string  `json:"breaker"`
	BreakerOpens int64   `json:"breaker_opens,omitempty"`
	Probes       int64   `json:"probes"`
	ProbeFails   int64   `json:"probe_fails"`
	ConsecFails  int64   `json:"consec_fails"`
	Requests     int64   `json:"requests"`
	Failures     int64   `json:"failures"`
	Hedges       int64   `json:"hedges"`
	UpstreamHits int64   `json:"upstream_cache_hits"`
	P50US        int64   `json:"p50_us"`
	P95US        int64   `json:"p95_us"`
	LastError    string  `json:"last_error,omitempty"`
	LastErrAgoS  float64 `json:"last_error_ago_s,omitempty"`
}

// statsResponse is the GET /stats payload.
type statsResponse struct {
	UptimeS float64 `json:"uptime_s"`
	Shards  int     `json:"shards"`
	Epoch   int64   `json:"epoch"`

	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Canceled int64 `json:"canceled"`
	Timeouts int64 `json:"timeouts"`
	Panics   int64 `json:"panics"`

	HedgeFires int64 `json:"hedge_fires"`
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	Demotions  int64 `json:"demotions"`
	Promotions int64 `json:"promotions"`

	PartialResponses  int64 `json:"partial_responses"`
	BreakerDenials    int64 `json:"breaker_denials"`
	RetryBudgetDenied int64 `json:"retry_budget_denied"`

	Cache   *servekit.CacheStats  `json:"cache,omitempty"`
	Latency servekit.LatencyStats `json:"latency"`
	Nodes   []nodeStat            `json:"nodes"`
}

// nodeStats snapshots every node's row in table order.
func (rt *Router) nodeStats() []nodeStat {
	out := make([]nodeStat, 0, len(rt.nodes))
	for _, nd := range rt.nodes {
		st := nodeStat{
			URL: nd.url, Shard: nd.shard, Replica: nd.replica,
			Healthy:      nd.healthy.Load(),
			Probes:       nd.probes.Load(),
			ProbeFails:   nd.probeFails.Load(),
			ConsecFails:  nd.consecFails.Load(),
			Requests:     nd.requests.Load(),
			Failures:     nd.failures.Load(),
			Hedges:       nd.hedges.Load(),
			UpstreamHits: nd.upstreamHits.Load(),
		}
		st.Breaker, st.BreakerOpens = nd.br.snapshot()
		nd.mu.Lock()
		sample := nd.lat.sorted()
		st.LastError = nd.lastErr
		if !nd.lastErrAt.IsZero() {
			st.LastErrAgoS = time.Since(nd.lastErrAt).Seconds()
		}
		nd.mu.Unlock()
		if len(sample) > 0 {
			st.P50US = servekit.Percentile(sample, 0.50).Microseconds()
			st.P95US = servekit.Percentile(sample, 0.95).Microseconds()
		}
		out = append(out, st)
	}
	return out
}

// handleStats serves GET /stats.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	m := rt.met
	resp := statsResponse{
		UptimeS: time.Since(m.start).Seconds(),
		Shards:  len(rt.shards),
		Epoch:   rt.epoch.Load(),

		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Canceled: m.canceled.Load(),
		Timeouts: m.timeouts.Load(),
		Panics:   m.panics.Load(),

		HedgeFires: m.hedgeFires.Load(),
		HedgeWins:  m.hedgeWins.Load(),
		Failovers:  m.failovers.Load(),
		Demotions:  m.demotions.Load(),
		Promotions: m.promotions.Load(),

		PartialResponses:  m.partials.Load(),
		BreakerDenials:    m.breakerDenials.Load(),
		RetryBudgetDenied: m.budgetDenials.Load(),

		Latency: m.latencySnapshot(),
		Nodes:   rt.nodeStats(),
	}
	if rt.cache != nil {
		cs := rt.cache.Snapshot()
		resp.Cache = &cs
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(servekit.MustJSON(resp)) //nolint:errcheck // client gone; nothing to do
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (0.0.4), hand-rendered like the nodes' — the repository stays
// dependency-free. Node labels come from the topology fixed at startup,
// never from request input, so series cardinality is bounded.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.writeMetrics(w)
}

// writeMetrics renders every family. Families are always present (HELP and
// TYPE lines) even before any sample exists, so scrapers and smoke checks
// see a stable schema.
func (rt *Router) writeMetrics(w io.Writer) {
	m := rt.met

	servekit.Family(w, "pbirouter_uptime_seconds", "Seconds since the router started.", "gauge")
	fmt.Fprintf(w, "pbirouter_uptime_seconds %g\n", time.Since(m.start).Seconds())
	bi := qserv.BuildInfo()
	servekit.Family(w, "pbirouter_build_info", "Build identity (constant 1; the labels carry the values).", "gauge")
	fmt.Fprintf(w, "pbirouter_build_info{version=%q,go_version=%q,revision=%q} 1\n",
		bi.Version, bi.GoVersion, bi.Revision)
	servekit.Family(w, "pbirouter_shards", "Shard groups in the node table.", "gauge")
	fmt.Fprintf(w, "pbirouter_shards %d\n", len(rt.shards))
	servekit.Family(w, "pbirouter_epoch", "Node-table epoch (bumps on every health transition).", "gauge")
	fmt.Fprintf(w, "pbirouter_epoch %d\n", rt.epoch.Load())

	servekit.Family(w, "pbirouter_requests_total", "Completed router requests (cached or fanned out).", "counter")
	fmt.Fprintf(w, "pbirouter_requests_total %d\n", m.requests.Load())
	servekit.Family(w, "pbirouter_errors_total", "Requests answered with a non-2xx status.", "counter")
	fmt.Fprintf(w, "pbirouter_errors_total %d\n", m.errors.Load())
	servekit.Family(w, "pbirouter_canceled_total", "Requests abandoned by the client before completion (499).", "counter")
	fmt.Fprintf(w, "pbirouter_canceled_total %d\n", m.canceled.Load())
	servekit.Family(w, "pbirouter_timeouts_total", "Requests aborted by deadline expiry (504).", "counter")
	fmt.Fprintf(w, "pbirouter_timeouts_total %d\n", m.timeouts.Load())
	servekit.Family(w, "pbirouter_panics_total", "Panics recovered during request handling.", "counter")
	fmt.Fprintf(w, "pbirouter_panics_total %d\n", m.panics.Load())

	servekit.Family(w, "pbirouter_hedge_fires_total", "Hedge timers that fired a secondary replica request.", "counter")
	fmt.Fprintf(w, "pbirouter_hedge_fires_total %d\n", m.hedgeFires.Load())
	servekit.Family(w, "pbirouter_hedge_wins_total", "Shard answers won by the hedge request.", "counter")
	fmt.Fprintf(w, "pbirouter_hedge_wins_total %d\n", m.hedgeWins.Load())
	servekit.Family(w, "pbirouter_failovers_total", "Replica-to-replica retries after a retryable failure.", "counter")
	fmt.Fprintf(w, "pbirouter_failovers_total %d\n", m.failovers.Load())
	servekit.Family(w, "pbirouter_partial_responses_total", "Degraded 206 responses served with shards missing.", "counter")
	fmt.Fprintf(w, "pbirouter_partial_responses_total %d\n", m.partials.Load())
	servekit.Family(w, "pbirouter_breaker_denials_total", "Node launches skipped because the circuit breaker was open.", "counter")
	fmt.Fprintf(w, "pbirouter_breaker_denials_total %d\n", m.breakerDenials.Load())
	servekit.Family(w, "pbirouter_retry_budget_denials_total", "Failover retries denied by the shared retry budget.", "counter")
	fmt.Fprintf(w, "pbirouter_retry_budget_denials_total %d\n", m.budgetDenials.Load())
	servekit.Family(w, "pbirouter_node_demotions_total", "Healthy-to-unhealthy node transitions.", "counter")
	fmt.Fprintf(w, "pbirouter_node_demotions_total %d\n", m.demotions.Load())
	servekit.Family(w, "pbirouter_node_promotions_total", "Unhealthy-to-healthy node transitions.", "counter")
	fmt.Fprintf(w, "pbirouter_node_promotions_total %d\n", m.promotions.Load())

	var cs servekit.CacheStats
	if rt.cache != nil {
		cs = rt.cache.Snapshot()
	}
	servekit.Family(w, "pbirouter_cache_hits_total", "Merged-result cache hits.", "counter")
	fmt.Fprintf(w, "pbirouter_cache_hits_total %d\n", cs.Hits)
	servekit.Family(w, "pbirouter_cache_misses_total", "Merged-result cache misses.", "counter")
	fmt.Fprintf(w, "pbirouter_cache_misses_total %d\n", cs.Misses)
	servekit.Family(w, "pbirouter_cache_evicted_total", "Merged-result cache LRU evictions.", "counter")
	fmt.Fprintf(w, "pbirouter_cache_evicted_total %d\n", cs.Evicted)
	servekit.Family(w, "pbirouter_cache_entries", "Merged-result cache resident entries.", "gauge")
	fmt.Fprintf(w, "pbirouter_cache_entries %d\n", cs.Entries)

	servekit.Family(w, "pbirouter_telemetry_records_total", "Telemetry records written by the sidecar.", "counter")
	fmt.Fprintf(w, "pbirouter_telemetry_records_total %d\n", rt.cfg.Telemetry.Written())
	servekit.Family(w, "pbirouter_telemetry_dropped_total", "Telemetry records dropped (queue full or sink stalled).", "counter")
	fmt.Fprintf(w, "pbirouter_telemetry_dropped_total %d\n", rt.cfg.Telemetry.Dropped())

	m.mu.Lock()
	buckets, sum, count := m.lat.histogram()
	m.mu.Unlock()
	servekit.Family(w, "pbirouter_request_latency_seconds", "End-to-end router request latency.", "histogram")
	servekit.WriteHistogram(w, "pbirouter_request_latency_seconds", "", buckets, sum, count, servekit.NoSuffix)

	servekit.Family(w, "pbirouter_node_healthy", "Node health (1 healthy, 0 demoted).", "gauge")
	for _, nd := range rt.nodes {
		v := 0
		if nd.healthy.Load() {
			v = 1
		}
		fmt.Fprintf(w, "pbirouter_node_healthy{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, v)
	}
	servekit.Family(w, "pbirouter_node_requests_total", "Proxied requests issued per node.", "counter")
	for _, nd := range rt.nodes {
		fmt.Fprintf(w, "pbirouter_node_requests_total{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, nd.requests.Load())
	}
	servekit.Family(w, "pbirouter_node_failures_total", "Retryable node-call failures per node.", "counter")
	for _, nd := range rt.nodes {
		fmt.Fprintf(w, "pbirouter_node_failures_total{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, nd.failures.Load())
	}
	servekit.Family(w, "pbirouter_node_hedges_total", "Hedge (secondary) requests issued per node.", "counter")
	for _, nd := range rt.nodes {
		fmt.Fprintf(w, "pbirouter_node_hedges_total{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, nd.hedges.Load())
	}
	servekit.Family(w, "pbirouter_node_probe_failures_total", "Failed health probes per node.", "counter")
	for _, nd := range rt.nodes {
		fmt.Fprintf(w, "pbirouter_node_probe_failures_total{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, nd.probeFails.Load())
	}
	servekit.Family(w, "pbirouter_node_upstream_cache_hits_total", "Node answers served from the node's own cache.", "counter")
	for _, nd := range rt.nodes {
		fmt.Fprintf(w, "pbirouter_node_upstream_cache_hits_total{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, nd.upstreamHits.Load())
	}
	servekit.Family(w, "pbirouter_node_breaker_state", "Circuit-breaker state per node (0 closed, 1 half-open, 2 open; absent when disabled).", "gauge")
	for _, nd := range rt.nodes {
		state, _ := nd.br.snapshot()
		var v int
		switch state {
		case "half-open":
			v = 1
		case "open":
			v = 2
		case "disabled":
			continue
		}
		fmt.Fprintf(w, "pbirouter_node_breaker_state{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, v)
	}
	servekit.Family(w, "pbirouter_node_breaker_opens_total", "Circuit-breaker open transitions per node.", "counter")
	for _, nd := range rt.nodes {
		_, opens := nd.br.snapshot()
		fmt.Fprintf(w, "pbirouter_node_breaker_opens_total{node=%q,shard=\"%d\"} %d\n", nd.name(), nd.shard, opens)
	}
	servekit.Family(w, "pbirouter_node_latency_seconds", "Successful node-call latency per node.", "histogram")
	for _, nd := range rt.nodes {
		nd.mu.Lock()
		nb, ns, nc := nd.lat.histogram()
		nd.mu.Unlock()
		labels := fmt.Sprintf("node=%q,shard=\"%d\"", nd.name(), nd.shard)
		servekit.WriteHistogram(w, "pbirouter_node_latency_seconds", labels, nb, ns, nc, servekit.NoSuffix)
	}
}
