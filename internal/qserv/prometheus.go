package qserv

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/servekit"
)

// This file renders the server's metrics in the Prometheus text exposition
// format (version 0.0.4) by hand — the format is a few line shapes, and
// writing it directly keeps the repository dependency-free. Label values
// come exclusively from small fixed vocabularies (algorithm names, trace
// phase names), never from request input, so series cardinality is bounded
// by construction.
//
// Scrapers that Accept application/openmetrics-text get the OpenMetrics
// flavor instead: the same families plus per-bucket and per-phase
// exemplars carrying recent trace IDs (`# {trace_id="..."} value`), and
// the mandatory `# EOF` terminator. The default 0.0.4 output stays exactly
// two fields per sample line — smoke checks and the test-suite parser
// depend on that — so exemplars appear only under content negotiation.

// openMetricsContentType is the negotiated exemplar-capable content type.
const openMetricsContentType = "application/openmetrics-text"

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	om := strings.Contains(r.Header.Get("Accept"), openMetricsContentType)
	if om {
		w.Header().Set("Content-Type", openMetricsContentType+"; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	s.writeMetrics(w, om)
	if om {
		io.WriteString(w, "# EOF\n") //nolint:errcheck // best effort
	}
}

// exemplarSuffix renders an OpenMetrics exemplar annotation, empty when
// exemplars are off or no trace has hit the series yet.
func exemplarSuffix(om bool, ex exemplar) string {
	if !om || ex.TraceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %g", ex.TraceID, ex.Value)
}

// writeMetrics renders every family. Families are always present (HELP and
// TYPE lines) even before any sample exists, so scrapers and smoke checks
// see a stable schema. om switches on the OpenMetrics extras (exemplars).
func (s *Server) writeMetrics(w io.Writer, om bool) {
	m := s.met

	servekit.Family(w, "pbiserve_uptime_seconds", "Seconds since the server started.", "gauge")
	fmt.Fprintf(w, "pbiserve_uptime_seconds %g\n", time.Since(m.start).Seconds())

	bi := BuildInfo()
	servekit.Family(w, "pbiserve_build_info", "Build metadata; value is always 1.", "gauge")
	fmt.Fprintf(w, "pbiserve_build_info{version=%q,go_version=%q,revision=%q} 1\n",
		bi.Version, bi.GoVersion, bi.Revision)

	servekit.Family(w, "pbiserve_requests_total", "Completed query requests (cached or executed).", "counter")
	fmt.Fprintf(w, "pbiserve_requests_total %d\n", m.requests.Load())
	servekit.Family(w, "pbiserve_errors_total", "Requests answered with a non-2xx status.", "counter")
	fmt.Fprintf(w, "pbiserve_errors_total %d\n", m.errors.Load())
	servekit.Family(w, "pbiserve_rejected_total", "Requests shed with 503 because the admission queue was full.", "counter")
	fmt.Fprintf(w, "pbiserve_rejected_total %d\n", m.rejected.Load())
	servekit.Family(w, "pbiserve_canceled_total", "Requests abandoned by the client before completion (499).", "counter")
	fmt.Fprintf(w, "pbiserve_canceled_total %d\n", m.canceled.Load())
	servekit.Family(w, "pbiserve_timeouts_total", "Requests aborted by deadline expiry (504).", "counter")
	fmt.Fprintf(w, "pbiserve_timeouts_total %d\n", m.timeouts.Load())
	servekit.Family(w, "pbiserve_corrupt_total", "Queries failed by page-checksum verification (corrupt page quarantined).", "counter")
	fmt.Fprintf(w, "pbiserve_corrupt_total %d\n", m.corrupt.Load())
	servekit.Family(w, "pbiserve_panics_total", "Panics recovered during request handling.", "counter")
	fmt.Fprintf(w, "pbiserve_panics_total %d\n", m.panics.Load())
	servekit.Family(w, "pbiserve_engine_recycles_total", "Poisoned worker engines discarded and replaced.", "counter")
	fmt.Fprintf(w, "pbiserve_engine_recycles_total %d\n", m.engineRecycles.Load())

	servekit.Family(w, "pbiserve_telemetry_records_total", "Telemetry records written to the JSONL sidecar.", "counter")
	fmt.Fprintf(w, "pbiserve_telemetry_records_total %d\n", s.cfg.Telemetry.Written())
	servekit.Family(w, "pbiserve_telemetry_dropped_total", "Telemetry records dropped (queue full or sink error).", "counter")
	fmt.Fprintf(w, "pbiserve_telemetry_dropped_total %d\n", s.cfg.Telemetry.Dropped())

	servekit.Family(w, "pbiserve_workers", "Engine pool size.", "gauge")
	fmt.Fprintf(w, "pbiserve_workers %d\n", s.cfg.Workers)
	servekit.Family(w, "pbiserve_busy_workers", "Workers currently executing a query.", "gauge")
	fmt.Fprintf(w, "pbiserve_busy_workers %d\n", m.busy.Load())
	servekit.Family(w, "pbiserve_queued_requests", "Admitted requests waiting for a worker.", "gauge")
	fmt.Fprintf(w, "pbiserve_queued_requests %d\n", m.queued.Load())

	var cs servekit.CacheStats
	if s.cache != nil {
		cs = s.cache.Snapshot()
	}
	servekit.Family(w, "pbiserve_cache_hits_total", "Result cache hits.", "counter")
	fmt.Fprintf(w, "pbiserve_cache_hits_total %d\n", cs.Hits)
	servekit.Family(w, "pbiserve_cache_misses_total", "Result cache misses.", "counter")
	fmt.Fprintf(w, "pbiserve_cache_misses_total %d\n", cs.Misses)
	servekit.Family(w, "pbiserve_cache_evicted_total", "Result cache LRU evictions.", "counter")
	fmt.Fprintf(w, "pbiserve_cache_evicted_total %d\n", cs.Evicted)
	servekit.Family(w, "pbiserve_cache_entries", "Result cache resident entries.", "gauge")
	fmt.Fprintf(w, "pbiserve_cache_entries %d\n", cs.Entries)

	m.mu.Lock()
	hist := make([]int64, len(m.hist))
	copy(hist, m.hist)
	histEx := make([]exemplar, len(m.histEx))
	copy(histEx, m.histEx)
	histSum, histCount := m.histSum, m.histCount
	algNames := make([]string, 0, len(m.algs))
	for name := range m.algs {
		algNames = append(algNames, name)
	}
	sort.Strings(algNames)
	algs := make(map[string]algTotals, len(m.algs))
	for name, t := range m.algs {
		algs[name] = *t
	}
	phaseKeys := make([]phaseKey, 0, len(m.phases))
	for k := range m.phases {
		phaseKeys = append(phaseKeys, k)
	}
	sort.Slice(phaseKeys, func(i, j int) bool {
		if phaseKeys[i].Alg != phaseKeys[j].Alg {
			return phaseKeys[i].Alg < phaseKeys[j].Alg
		}
		return phaseKeys[i].Phase < phaseKeys[j].Phase
	})
	phases := make(map[phaseKey]phaseTotals, len(m.phases))
	for k, t := range m.phases {
		phases[k] = *t
	}
	m.mu.Unlock()

	servekit.Family(w, "pbiserve_request_latency_seconds", "Query request latency.", "histogram")
	servekit.WriteHistogram(w, "pbiserve_request_latency_seconds", "", hist, histSum, histCount,
		func(i int) string { return exemplarSuffix(om, histEx[i]) })

	servekit.Family(w, "pbiserve_join_requests_total", "Joins executed, by resolved algorithm.", "counter")
	for _, name := range algNames {
		fmt.Fprintf(w, "pbiserve_join_requests_total{algorithm=%q} %d\n", name, algs[name].Requests)
	}
	servekit.Family(w, "pbiserve_join_pairs_total", "Result pairs produced, by algorithm.", "counter")
	for _, name := range algNames {
		fmt.Fprintf(w, "pbiserve_join_pairs_total{algorithm=%q} %d\n", name, algs[name].Pairs)
	}
	servekit.Family(w, "pbiserve_join_page_io_total", "Page reads+writes charged, by algorithm.", "counter")
	for _, name := range algNames {
		fmt.Fprintf(w, "pbiserve_join_page_io_total{algorithm=%q} %d\n", name, algs[name].PageIO)
	}
	servekit.Family(w, "pbiserve_join_virtual_seconds_total", "Virtual disk time charged, by algorithm.", "counter")
	for _, name := range algNames {
		fmt.Fprintf(w, "pbiserve_join_virtual_seconds_total{algorithm=%q} %g\n", name, algs[name].VirtualTime.Seconds())
	}

	servekit.Family(w, "pbiserve_join_phase_page_io_total", "Self-attributed page I/O per algorithm phase.", "counter")
	for _, k := range phaseKeys {
		t := phases[k]
		// The phase exemplar links the series to the most recent request
		// that ran it — by the originating request's trace ID (threaded
		// through shard fan-outs), so it resolves via /debug/trace/{id}.
		fmt.Fprintf(w, "pbiserve_join_phase_page_io_total{algorithm=%q,phase=%q} %d%s\n",
			k.Alg, k.Phase, t.Reads+t.Writes,
			exemplarSuffix(om, exemplar{TraceID: t.LastTrace, Value: float64(t.Reads + t.Writes)}))
	}
	servekit.Family(w, "pbiserve_join_phase_virtual_seconds_total", "Self-attributed virtual disk time per algorithm phase.", "counter")
	for _, k := range phaseKeys {
		fmt.Fprintf(w, "pbiserve_join_phase_virtual_seconds_total{algorithm=%q,phase=%q} %g\n", k.Alg, k.Phase, phases[k].VirtualTime.Seconds())
	}
	servekit.Family(w, "pbiserve_join_phase_pairs_total", "Pairs emitted per algorithm phase.", "counter")
	for _, k := range phaseKeys {
		fmt.Fprintf(w, "pbiserve_join_phase_pairs_total{algorithm=%q,phase=%q} %d\n", k.Alg, k.Phase, phases[k].Pairs)
	}
	servekit.Family(w, "pbiserve_join_phase_count_total", "Phase executions per algorithm phase.", "counter")
	for _, k := range phaseKeys {
		fmt.Fprintf(w, "pbiserve_join_phase_count_total{algorithm=%q,phase=%q} %d\n", k.Alg, k.Phase, phases[k].Count)
	}

	// Shard families: one series per shard of the split (label cardinality
	// = Config.Shards, fixed at startup). Samples appear only when serving
	// sharded; the family headers are always present for schema stability.
	shards := s.shardSnapshot()
	servekit.Family(w, "pbiserve_shards", "Shards per worker (0 = unsharded serving).", "gauge")
	fmt.Fprintf(w, "pbiserve_shards %d\n", s.cfg.Shards)
	servekit.Family(w, "pbiserve_shard_page_reads_total", "Page reads charged per shard, summed over the pool.", "counter")
	for _, st := range shards {
		fmt.Fprintf(w, "pbiserve_shard_page_reads_total{shard=\"%d\"} %d\n", st.Shard, st.Reads)
	}
	servekit.Family(w, "pbiserve_shard_page_writes_total", "Page writes charged per shard, summed over the pool.", "counter")
	for _, st := range shards {
		fmt.Fprintf(w, "pbiserve_shard_page_writes_total{shard=\"%d\"} %d\n", st.Shard, st.Writes)
	}
	servekit.Family(w, "pbiserve_shard_pool_hits_total", "Buffer-pool hits per shard, summed over the pool.", "counter")
	for _, st := range shards {
		fmt.Fprintf(w, "pbiserve_shard_pool_hits_total{shard=\"%d\"} %d\n", st.Shard, st.PoolHits)
	}
	servekit.Family(w, "pbiserve_shard_pool_misses_total", "Buffer-pool misses per shard, summed over the pool.", "counter")
	for _, st := range shards {
		fmt.Fprintf(w, "pbiserve_shard_pool_misses_total{shard=\"%d\"} %d\n", st.Shard, st.PoolMisses)
	}
	servekit.Family(w, "pbiserve_shard_virtual_seconds_total", "Virtual disk time charged per shard, summed over the pool.", "counter")
	for _, st := range shards {
		fmt.Fprintf(w, "pbiserve_shard_virtual_seconds_total{shard=\"%d\"} %g\n", st.Shard, float64(st.VirtualUS)/1e6)
	}

	// Ingest families: the live write path's epoch gauges and counters.
	// Like the shard families they are always present for schema stability
	// and sit at zero on servers without an attached ingest store.
	ig := s.ingestSnapshot()
	if ig == nil {
		ig = &ingestStatsBlock{}
	}
	servekit.Family(w, "pbiserve_epoch", "Ingest epoch currently published (0 = the original base, or no ingest).", "gauge")
	fmt.Fprintf(w, "pbiserve_epoch %d\n", ig.Epoch)
	servekit.Family(w, "pbiserve_epoch_chain_len", "Delta files stacked on the current epoch's base.", "gauge")
	fmt.Fprintf(w, "pbiserve_epoch_chain_len %d\n", ig.ChainLen)
	servekit.Family(w, "pbiserve_ingest_backlog", "Ingest batches in flight (admission gate occupancy).", "gauge")
	fmt.Fprintf(w, "pbiserve_ingest_backlog %d\n", ig.Backlog)
	servekit.Family(w, "pbiserve_ingest_requests_total", "Ingest batches applied and published.", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_requests_total %d\n", ig.Requests)
	servekit.Family(w, "pbiserve_ingest_rejected_total", "Ingest batches shed with 503 (backlog full or draining).", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_rejected_total %d\n", ig.Rejected)
	servekit.Family(w, "pbiserve_ingest_failed_total", "Ingest batches rejected as invalid or rolled back.", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_failed_total %d\n", ig.Failed)
	servekit.Family(w, "pbiserve_ingest_ops_total", "Operations applied, by kind.", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_ops_total{op=\"insert\"} %d\n", ig.Inserts)
	fmt.Fprintf(w, "pbiserve_ingest_ops_total{op=\"update\"} %d\n", ig.Updates)
	fmt.Fprintf(w, "pbiserve_ingest_ops_total{op=\"delete\"} %d\n", ig.Deletes)
	servekit.Family(w, "pbiserve_ingest_renumbers_total", "Re-encodes forced by slot exhaustion, by scope.", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_renumbers_total{scope=\"scoped\"} %d\n", ig.RenumbersScoped)
	fmt.Fprintf(w, "pbiserve_ingest_renumbers_total{scope=\"global\"} %d\n", ig.RenumbersGlobal)
	servekit.Family(w, "pbiserve_ingest_overflow_inserts_total", "Inserts placed in a parent's reserved overflow slot region.", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_overflow_inserts_total %d\n", ig.OverflowInserts)
	servekit.Family(w, "pbiserve_compactions_total", "Delta chains folded into fresh bases by the compaction daemon.", "counter")
	fmt.Fprintf(w, "pbiserve_compactions_total %d\n", ig.Compactions)
	servekit.Family(w, "pbiserve_compact_aborts_total", "Compaction folds discarded because a commit superseded them.", "counter")
	fmt.Fprintf(w, "pbiserve_compact_aborts_total %d\n", ig.CompactAborts)
	servekit.Family(w, "pbiserve_worker_swaps_total", "Pool workers swapped to a newer epoch on acquire.", "counter")
	fmt.Fprintf(w, "pbiserve_worker_swaps_total %d\n", ig.WorkerSwaps)
}
