package router

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/servekit"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
)

// This file is the router's half of distributed trace assembly. Each node
// serializes its span tree into the response envelope behind ?spans=1
// (qserv's wire format, internal/trace.WireSpan); the router requests it
// on fan-out when the client opted in, and stitches the per-node fragments
// under its own root span — fanout, per-node (with hedge/failover
// disposition), and merge children — into one trace keyed by the request's
// trace ID. Stitched traces land in a bounded ring served by
// GET /debug/trace/{id}, and feed the telemetry sidecar's slow-query
// capture.

// wantSpans reports whether the request opted into span export — the same
// ?spans=1 flag the nodes accept, forwarded downstream on fan-out.
func wantSpans(r *http.Request) bool { return r.URL.Query().Get("spans") == "1" }

// nodeSpan wraps one node reply's span tree(s) in a per-node wire span:
// the child the router's fanout span hangs each shard's subtree off. Its
// wall is the router-observed call latency (network included), its Node is
// the replica that answered, and its detail records the shard index plus
// how the reply was obtained (hedged, served from the node's cache).
func nodeSpan(rep nodeReply, sub ...*trace.WireSpan) *trace.WireSpan {
	detail := fmt.Sprintf("shard=%d", rep.nd.shard)
	if rep.hedged {
		detail += " hedged"
	}
	if rep.cache == "hit" {
		detail += " cache=hit"
	}
	ws := trace.StitchWire("node", detail, rep.latency, sub...)
	ws.Node = rep.nd.url
	return ws
}

// missingSpan stands in for a shard skipped by degraded (partial) serving,
// so a 206's stitched trace shows exactly which subtrees are absent.
func missingSpan(shard int) *trace.WireSpan {
	return &trace.WireSpan{Name: "node", Detail: fmt.Sprintf("shard=%d missing", shard)}
}

// stitch assembles the router's root span for one fanned-out request:
//
//	<what> @router
//	├── fanout            envelope of the concurrent shard calls
//	│   ├── node @url     one per shard reply, node subtree(s) below
//	│   └── ...
//	└── merge             response-merge time on the router
//
// Counters and PredictedIO sum upward (trace.StitchWire), so the root
// carries the whole distributed execution's page I/O and cost-model
// estimate; walls stay envelopes because the children ran concurrently.
func stitch(what string, wall, fanWall, mergeWall time.Duration, kids []*trace.WireSpan) *trace.WireSpan {
	fan := trace.StitchWire("fanout", fmt.Sprintf("shards=%d", len(kids)), fanWall, kids...)
	merge := &trace.WireSpan{Name: "merge", WallNS: mergeWall.Nanoseconds()}
	root := trace.StitchWire(what, "routed", wall, fan, merge)
	root.Node = "router"
	return root
}

// cacheHitSpan is the stitched trace of a router-cache hit: no fan-out
// happened, the whole request was one cache lookup.
func cacheHitSpan(what string, wall time.Duration) *trace.WireSpan {
	root := trace.StitchWire(what, "routed", wall,
		&trace.WireSpan{Name: "cache", Detail: "hit", WallNS: wall.Nanoseconds()})
	root.Node = "router"
	return root
}

// keepTrace deposits one stitched trace in the ring under its trace ID and
// hands the root back for the response envelope / telemetry holder.
func (rt *Router) keepTrace(traceID, query string, root *trace.WireSpan) *trace.WireSpan {
	if root == nil {
		return nil
	}
	rt.traces.Put(&trace.Record{
		TraceID: traceID,
		TS:      time.Now().UTC().Format(time.RFC3339Nano),
		Node:    "router",
		Query:   query,
		Spans:   []*trace.WireSpan{root},
	})
	return root
}

// handleDebugTraceID serves GET /debug/trace/{id}: the stitched multi-node
// trace of a recent routed query. 404 when the ID was never seen or has
// been evicted from the ring. Unlike the nodes' endpoint there is no
// execute-a-trace form — the router does not run queries itself.
func (rt *Router) handleDebugTraceID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		rt.writeError(w, http.StatusBadRequest, "trace ID required (GET /debug/trace/{id})")
		return
	}
	rec := rt.traces.Get(id)
	if rec == nil {
		rt.writeError(w, http.StatusNotFound, "no retained trace %q (evicted or never recorded)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(servekit.MustJSON(rec)) //nolint:errcheck // client gone; nothing to do
}

// telemetryHolder carries the execution half of one routed request's
// telemetry record from the handler to the instrument middleware.
// Single-goroutine access: the handler writes, the middleware reads after
// the handler returns.
type telemetryHolder struct {
	query       string
	algorithm   string
	pageIO      int64
	predictedIO int64
	ioRatio     float64
	phases      []telemetry.Phase
	spans       []*trace.WireSpan
}

type telemetryCtxKey struct{}

// telemetryFrom returns the request's holder, nil when telemetry is off or
// the endpoint is not recorded.
func telemetryFrom(ctx context.Context) *telemetryHolder {
	th, _ := ctx.Value(telemetryCtxKey{}).(*telemetryHolder)
	return th
}

// recordedEndpoint reports whether path produces telemetry records —
// routed queries only, same rule as the nodes.
func recordedEndpoint(path string) bool {
	return path == "/join" || path == "/query"
}

// fill folds one merged request into the holder. Phases flatten the
// router-level spans plus each node's root (depth ≤ 2) — the per-node
// breakdown lives in the node's own telemetry; the router's record keeps
// the cross-node shape compact.
func (th *telemetryHolder) fill(query, algorithm string, pageIO, predictedIO int64, root *trace.WireSpan) {
	if th == nil {
		return
	}
	th.query = query
	th.algorithm = algorithm
	th.pageIO = pageIO
	th.predictedIO = predictedIO
	if predictedIO > 0 {
		th.ioRatio = float64(pageIO) / float64(predictedIO)
	}
	if root == nil {
		return
	}
	th.spans = []*trace.WireSpan{root}
	root.Walk(func(ws *trace.WireSpan, depth int) {
		if depth > 2 {
			return
		}
		detail := ws.Detail
		if ws.Node != "" && depth > 0 {
			detail = strings.TrimSpace(detail + " " + ws.Node)
		}
		th.phases = append(th.phases, telemetry.Phase{
			Name:      ws.Name,
			Detail:    detail,
			Depth:     depth,
			SelfUS:    ws.SelfWallNS() / 1e3,
			Reads:     ws.Reads,
			Writes:    ws.Writes,
			VirtualUS: ws.VirtualNS / 1e3,
			Pairs:     ws.Pairs,
		})
	})
}

// emitTelemetry builds and enqueues one routed request's record.
// Non-blocking: the writer drops on a full queue rather than stalling the
// response path.
func (rt *Router) emitTelemetry(th *telemetryHolder, traceID, endpoint, rawQuery string, status int, cached bool, start time.Time) {
	w := rt.cfg.Telemetry
	if w == nil {
		return
	}
	rec := &telemetry.Record{
		TS:       start.UTC().Format(time.RFC3339Nano),
		TraceID:  traceID,
		Node:     "router",
		Endpoint: endpoint,
		Status:   status,
		Outcome:  telemetry.Outcome(status, cached),
		WallUS:   time.Since(start).Microseconds(),
	}
	if th != nil {
		rec.Query = th.query
		rec.Algorithm = th.algorithm
		rec.PageIO = th.pageIO
		rec.PredictedIO = th.predictedIO
		rec.IORatio = th.ioRatio
		rec.Phases = th.phases
		rec.Spans = th.spans
	}
	if rec.Query == "" {
		rec.Query = rawQuery
	}
	w.Enqueue(rec)
}
