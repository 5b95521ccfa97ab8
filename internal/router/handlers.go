package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/servekit"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// This file merges per-node responses with the exact semantics
// shard.Engine applies in process — the randomized equivalence tests hold
// the two implementations to the same answers. Counts, I/O and predicted
// I/O sum across shards; algorithm names "+"-join in shard order
// (shard.MergeAlgo); path-match codes merge into global document order
// (shard.SortDocOrder); and the response WallTime is the fan-out envelope
// measured here, not the per-shard sum.

// statusClientClosedRequest mirrors qserv's 499 convention.
const statusClientClosedRequest = 499

// writeError renders the JSON error envelope (same shape as the nodes').
func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	rt.met.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)}) //nolint:errcheck // best-effort error body
}

// writeUpstreamFailure maps a fan-out failure onto the router's status
// vocabulary: definitive node statuses forward verbatim, context failures
// become 504/499 exactly as qserv.Classify would map them on a node, an
// exhausted shard becomes 503 with Retry-After, and anything else is a
// 502 (the router itself is fine; upstream was not).
func (rt *Router) writeUpstreamFailure(w http.ResponseWriter, what string, err error) {
	var se *statusError
	if errors.As(err, &se) {
		if se.status == http.StatusGatewayTimeout {
			rt.met.timeouts.Add(1)
		}
		rt.met.errors.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(se.status)
		w.Write(se.body) //nolint:errcheck // best-effort error body
		return
	}
	switch containment.Classify(err) {
	case containment.FailDeadline:
		rt.met.timeouts.Add(1)
		rt.writeError(w, http.StatusGatewayTimeout, "%s timed out: %v", what, err)
	case containment.FailCanceled:
		rt.met.canceled.Add(1)
		rt.writeError(w, statusClientClosedRequest, "%s canceled by client", what)
	default:
		var ue *unavailableError
		if errors.As(err, &ue) {
			// Retry-After comes from the breaker state: the soonest any of the
			// shard's circuits will admit a request again, rounded up to whole
			// seconds (minimum 1 — the header has one-second granularity).
			secs := int64((ue.retryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			rt.writeError(w, http.StatusServiceUnavailable, "%v", ue)
			return
		}
		rt.writeError(w, http.StatusBadGateway, "%s failed upstream: %v", what, err)
	}
}

// wantPartial decides whether this request may be answered degraded:
// ?partial=1 opts in, ?partial=0 opts out, and absent the parameter the
// router's -allow-partial default applies. Degraded answers are exact
// lower bounds (document-disjoint sharding: no shard can affect another's
// matches), but they are opt-in because a silent undercount is worse than
// an honest 503 for clients that need totals.
func (rt *Router) wantPartial(r *http.Request) bool {
	switch r.URL.Query().Get("partial") {
	case "1":
		return true
	case "0":
		return false
	}
	return rt.cfg.AllowPartial
}

// writePayload sends a rendered JSON payload, marking cache disposition.
// status is http.StatusOK for complete answers, http.StatusPartialContent
// for degraded ones.
func (rt *Router) writePayload(w http.ResponseWriter, status int, payload []byte, cached bool, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(payload) //nolint:errcheck // client gone; nothing to do
	rt.met.observe(time.Since(start))
}

// handleJoin serves GET /join?anc=TAG&desc=TAG[&algo=NAME] by fanning the
// join out to every shard group and merging the responses.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	anc, desc := r.URL.Query().Get("anc"), r.URL.Query().Get("desc")
	if anc == "" || desc == "" {
		rt.writeError(w, http.StatusBadRequest, "anc and desc query parameters are required")
		return
	}
	algoName := r.URL.Query().Get("algo")
	alg, ok := containment.ParseAlgorithm(algoName)
	if !ok {
		rt.writeError(w, http.StatusBadRequest, "unknown algorithm %q (accepted: %s)",
			algoName, strings.Join(containment.AlgorithmNames(), ", "))
		return
	}
	qctx, cancel, err := rt.requestContext(r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if err := qctx.Err(); err != nil {
		rt.writeUpstreamFailure(w, "join", err)
		return
	}
	traceID := w.Header().Get("X-Trace-Id")
	query := "//" + anc + "//" + desc
	spans := wantSpans(r)
	key := fmt.Sprintf("%d\x00join\x00%s\x00%s\x00%d", rt.epoch.Load(), anc, desc, alg)
	// ?spans=1 bypasses the cache entirely (no lookup, no store), same rule
	// as the nodes: cached payloads are byte-identical across requests, so
	// an embedded span tree would replay another request's execution.
	if !spans {
		if payload, ok := rt.lookup(key); ok {
			rt.writePayload(w, http.StatusOK, payload, true, start)
			rt.keepTrace(traceID, query, cacheHitSpan("join", time.Since(start)))
			telemetryFrom(r.Context()).fill(query, "", 0, 0, nil)
			return
		}
	}

	vals := url.Values{"anc": {anc}, "desc": {desc}}
	if algoName != "" {
		vals.Set("algo", algoName)
	}
	if spans {
		vals.Set("spans", "1")
	}
	fanStart := time.Now()
	replies, missing, ferr := rt.fanout(qctx, "/join", vals, traceID, rt.wantPartial(r))
	fanWall := time.Since(fanStart)
	if ferr != nil {
		rt.writeUpstreamFailure(w, "join", ferr)
		return
	}
	mergeStart := time.Now()
	merged := qserv.JoinResponse{Anc: anc, Desc: desc}
	kids := make([]*trace.WireSpan, 0, len(replies))
	for _, rep := range replies {
		if rep.nd == nil { // shard skipped by degraded serving
			continue
		}
		var jr qserv.JoinResponse
		if err := json.Unmarshal(rep.body, &jr); err != nil {
			rt.writeError(w, http.StatusBadGateway,
				"join: shard %d (%s) returned an undecodable payload: %v", rep.nd.shard, rep.nd.url, err)
			return
		}
		merged.Count += jr.Count
		merged.FalseHits += jr.FalseHits
		merged.PageIO += jr.PageIO
		merged.SeqIO += jr.SeqIO
		merged.PredictedIO += jr.PredictedIO
		merged.VirtualUS += jr.VirtualUS
		merged.Algorithm = shard.MergeAlgo(merged.Algorithm, jr.Algorithm)
		if jr.Spans != nil {
			kids = append(kids, nodeSpan(rep, jr.Spans))
		} else {
			kids = append(kids, nodeSpan(rep))
		}
	}
	// Shards ran concurrently: the envelope is the honest wall time, like
	// shard.Engine's merge (VirtualUS keeps the sum — aggregate I/O work).
	merged.WallUS = time.Since(start).Microseconds()
	status := http.StatusOK
	if len(missing) > 0 {
		merged.Partial = true
		merged.MissingShards = missing
		status = http.StatusPartialContent
		rt.met.partials.Add(1)
		for _, si := range missing {
			kids = append(kids, missingSpan(si))
		}
	}
	root := rt.keepTrace(traceID, query,
		stitch("join", time.Since(start), fanWall, time.Since(mergeStart), kids))
	telemetryFrom(r.Context()).fill(query, merged.Algorithm, merged.PageIO, merged.PredictedIO, root)
	if spans {
		merged.TraceID = traceID
		merged.Spans = root
	}
	payload := servekit.MustJSON(merged)
	// Partial answers never enter the cache: stored payloads are always
	// complete, so a later full request cannot be served an undercount.
	if !spans && len(missing) == 0 {
		payload = rt.store(key, payload)
	}
	rt.writePayload(w, status, payload, false, start)
}

// handleQuery serves GET /query?path=//a//b//c: every shard node runs the
// whole chain on its document subset (exact, because a containment chain
// never leaves one document), and the router merges counts, per-step
// reports and the final match set. Nodes are asked for the router's own
// truncation budget (?limit=), so the merged first-K codes in global
// document order are exact even when a single shard holds more than K.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	expr := r.URL.Query().Get("path")
	if expr == "" {
		rt.writeError(w, http.StatusBadRequest, "path query parameter is required")
		return
	}
	steps, err := containment.ParsePath(expr)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canon, _, err := qserv.CanonicalPath(steps)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	qctx, cancel, err := rt.requestContext(r)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if err := qctx.Err(); err != nil {
		rt.writeUpstreamFailure(w, "path query", err)
		return
	}
	traceID := w.Header().Get("X-Trace-Id")
	spans := wantSpans(r)
	key := fmt.Sprintf("%d\x00path\x00%s\x00%d", rt.epoch.Load(), canon, rt.cfg.MaxCodes)
	if !spans {
		if payload, ok := rt.lookup(key); ok {
			rt.writePayload(w, http.StatusOK, payload, true, start)
			rt.keepTrace(traceID, canon, cacheHitSpan("query", time.Since(start)))
			telemetryFrom(r.Context()).fill(canon, "", 0, 0, nil)
			return
		}
	}

	vals := url.Values{"path": {canon}, "limit": {strconv.Itoa(rt.cfg.MaxCodes)}}
	if spans {
		vals.Set("spans", "1")
	}
	fanStart := time.Now()
	replies, missing, ferr := rt.fanout(qctx, "/query", vals, traceID, rt.wantPartial(r))
	fanWall := time.Since(fanStart)
	if ferr != nil {
		rt.writeUpstreamFailure(w, "path query", ferr)
		return
	}
	mergeStart := time.Now()
	resp := qserv.QueryResponse{Path: canon}
	var codes []pbicode.Code
	kids := make([]*trace.WireSpan, 0, len(replies))
	for _, rep := range replies {
		if rep.nd == nil { // shard skipped by degraded serving
			continue
		}
		var qr qserv.QueryResponse
		if err := json.Unmarshal(rep.body, &qr); err != nil {
			rt.writeError(w, http.StatusBadGateway,
				"path query: shard %d (%s) returned an undecodable payload: %v", rep.nd.shard, rep.nd.url, err)
			return
		}
		resp.Count += qr.Count
		for _, c := range qr.Codes {
			codes = append(codes, pbicode.Code(c))
		}
		resp.PageIO += qr.PageIO
		resp.VirtualUS += qr.VirtualUS
		for i, st := range qr.Steps {
			for len(resp.Steps) <= i {
				resp.Steps = append(resp.Steps, qserv.PathStep{Anc: st.Anc, Desc: st.Desc})
			}
			resp.Steps[i].Matches += st.Matches
			resp.Steps[i].Algorithm = shard.MergeAlgo(resp.Steps[i].Algorithm, st.Algorithm)
		}
		kids = append(kids, nodeSpan(rep, qr.Spans...))
	}
	// Each node returned its shard's first MaxCodes matches in document
	// order; the global first MaxCodes are a subset of their union.
	shard.SortDocOrder(codes)
	n := len(codes)
	if n > rt.cfg.MaxCodes {
		n = rt.cfg.MaxCodes
	}
	resp.Truncated = resp.Count > n
	resp.Codes = make([]uint64, n)
	for i := 0; i < n; i++ {
		resp.Codes[i] = uint64(codes[i])
	}
	resp.WallUS = time.Since(start).Microseconds()
	status := http.StatusOK
	if len(missing) > 0 {
		resp.Partial = true
		resp.MissingShards = missing
		status = http.StatusPartialContent
		rt.met.partials.Add(1)
		for _, si := range missing {
			kids = append(kids, missingSpan(si))
		}
	}
	var alg string
	for _, st := range resp.Steps {
		alg = shard.MergeAlgo(alg, st.Algorithm)
	}
	root := rt.keepTrace(traceID, canon,
		stitch("query", time.Since(start), fanWall, time.Since(mergeStart), kids))
	telemetryFrom(r.Context()).fill(canon, alg, resp.PageIO, root.PredictedIO, root)
	if spans {
		resp.TraceID = traceID
		resp.Spans = []*trace.WireSpan{root}
	}
	payload := servekit.MustJSON(resp)
	// Partial answers never enter the cache (see handleJoin).
	if !spans && len(missing) == 0 {
		payload = rt.store(key, payload)
	}
	rt.writePayload(w, status, payload, false, start)
}

// handleRelations serves GET /relations: the union catalog, with element
// and page counts summed across shards — the same view shard.Engine's
// sharded relations present in process.
func (rt *Router) handleRelations(w http.ResponseWriter, r *http.Request) {
	// The catalog is metadata, not a query: a partial union would misstate
	// the corpus, so /relations never serves degraded.
	replies, _, err := rt.fanout(r.Context(), "/relations", url.Values{}, w.Header().Get("X-Trace-Id"), false)
	if err != nil {
		rt.writeUpstreamFailure(w, "relations", err)
		return
	}
	type acc struct {
		info qserv.RelationInfo
		seen bool
	}
	merged := map[string]*acc{}
	for _, rep := range replies {
		var rels []qserv.RelationInfo
		if err := json.Unmarshal(rep.body, &rels); err != nil {
			rt.writeError(w, http.StatusBadGateway,
				"relations: shard %d (%s) returned an undecodable payload: %v", rep.nd.shard, rep.nd.url, err)
			return
		}
		for _, ri := range rels {
			a := merged[ri.Name]
			if a == nil {
				a = &acc{}
				merged[ri.Name] = a
			}
			if !a.seen {
				a.info = ri
				a.seen = true
				continue
			}
			a.info.Elements += ri.Elements
			a.info.Pages += ri.Pages
			a.info.Sorted = a.info.Sorted && ri.Sorted
		}
	}
	out := make([]qserv.RelationInfo, 0, len(merged))
	for _, a := range merged {
		out = append(out, a.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	w.Header().Set("Content-Type", "application/json")
	w.Write(servekit.MustJSON(out)) //nolint:errcheck // client gone; nothing to do
}

// handleHealthz serves GET /healthz — router process liveness only.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck // best effort
}

// handleReadyz serves GET /readyz: the router can answer queries only
// when every shard group has at least one healthy replica (and it is not
// draining) — a partial fleet cannot produce exact merged answers.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"draining"}`)) //nolint:errcheck // best effort
		return
	}
	for si, group := range rt.shards {
		ok := false
		for _, nd := range group {
			if nd.healthy.Load() {
				ok = true
				break
			}
		}
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"status":"shard %d has no healthy replica"}`, si)
			return
		}
	}
	w.Write([]byte(`{"status":"ready"}`)) //nolint:errcheck // best effort
}

// lookup consults the epoch-keyed result cache when enabled.
func (rt *Router) lookup(key string) ([]byte, bool) {
	if rt.cache == nil {
		return nil, false
	}
	return rt.cache.Get(key)
}

// store populates the cache when enabled and returns the payload to
// reply with: the cached one when a concurrent miss stored the key first,
// so every reply for a key carries the same bytes.
func (rt *Router) store(key string, payload []byte) []byte {
	if rt.cache == nil {
		return payload
	}
	return rt.cache.Put(key, payload)
}
