package servekit

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// LatBuckets are the cumulative histogram bounds (seconds) /metrics
// exports for request latency: log-spaced from 100µs to 10s, covering
// cache hits through multi-pass joins on the virtual disk. Nodes and the
// router share the grid, so their latency histograms overlay directly in
// dashboards.
var LatBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Bucket returns the LatBuckets slot a latency falls in;
// len(LatBuckets) is the +Inf overflow slot.
func Bucket(d time.Duration) int {
	sec := d.Seconds()
	for i, bound := range LatBuckets {
		if sec <= bound {
			return i
		}
	}
	return len(LatBuckets)
}

// Percentile returns the p-quantile (0 < p ≤ 1) of a sorted sample using
// the nearest-rank method.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// LatencyStats is the /stats latency block (microseconds).
type LatencyStats struct {
	Samples int   `json:"samples"`
	P50US   int64 `json:"p50_us"`
	P95US   int64 `json:"p95_us"`
	P99US   int64 `json:"p99_us"`
	MaxUS   int64 `json:"max_us"`
}

// Latency extracts the reported percentiles from a sorted sample.
func Latency(sorted []time.Duration) LatencyStats {
	s := LatencyStats{Samples: len(sorted)}
	if len(sorted) > 0 {
		s.P50US = Percentile(sorted, 0.50).Microseconds()
		s.P95US = Percentile(sorted, 0.95).Microseconds()
		s.P99US = Percentile(sorted, 0.99).Microseconds()
		s.MaxUS = sorted[len(sorted)-1].Microseconds()
	}
	return s
}

// Family emits the HELP/TYPE preamble of one Prometheus metric family.
func Family(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// FormatBound renders a histogram bound the canonical Prometheus way
// (shortest float representation).
func FormatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// WriteHistogram renders the series of one latency histogram over
// LatBuckets from non-cumulative bucket counts (len(LatBuckets)+1, the
// last slot +Inf). labels, when non-empty, prefixes every series' label
// set. suffix(i) is appended to bucket i's line: the OpenMetrics exemplar
// annotation, or "" for none.
func WriteHistogram(w io.Writer, name, labels string, buckets []int64, sum time.Duration, count int64, suffix func(bucket int) string) {
	sel := ""
	if labels != "" {
		sel = "{" + labels + "}"
		labels += ","
	}
	var cum int64
	for i, bound := range LatBuckets {
		cum += buckets[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d%s\n", name, labels, FormatBound(bound), cum, suffix(i))
	}
	cum += buckets[len(LatBuckets)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d%s\n", name, labels, cum, suffix(len(LatBuckets)))
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, sum.Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, count)
}

// NoSuffix is the WriteHistogram suffix for histograms without exemplars.
func NoSuffix(int) string { return "" }

// MustJSON marshals a response struct with a trailing newline; the
// response structs of both servers cannot fail to marshal.
func MustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}
