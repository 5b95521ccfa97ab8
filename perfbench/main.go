// Command perfbench is the repository's benchmark. It generates its inputs
// from the seed it is given, runs one workload for a fixed time, checks
// every answer against a reference computed by a separate code path, and
// prints each metric by name and unit, ending with one JSON line:
//
//	perfbench -workload dblp-join|xmark-routed|xmark-ingest -seed N -seconds S -trace 0|1 -bin DIR -work DIR
//
// -bin names the directory holding the pbiserve and pbirouter binaries the
// serving workloads start; -work is a scratch directory it may write.
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 a
// separate traced run reports the per-layer metrics (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// enginePhases is the engine's span vocabulary (internal/core and
// internal/extsort); "join" is the root span's own time.
var enginePhases = []string{
	"join", "block-join", "equijoin", "grace-partition", "hash-join",
	"height-scan", "index-build", "mem-join", "merge-scan", "multi-probe",
	"nested-loop", "partition", "probe", "rollup-split", "sort",
	"sort-merge", "sort-runs", "vpartition", "vpj-level",
}

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MiB"},
	{"qps", "req/s"},
	{"cpu_ms_per_op", "ms"},
	{"lat_p50_ms", "ms"},
	{"page_io_per_op", "pages"},
	{"virtual_disk_ms_per_op", "ms"},
	{"db_bytes_per_element", "B"},
	{"success_ratio", "ratio"},
}

// perLayer are the metrics every traced run reports. A layer the workload
// does not reach reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range enginePhases {
		defs = append(defs,
			metricDef{"core.phase." + p + ".self_ms", "ms"},
			metricDef{"core.phase." + p + ".pages", "pages"})
	}
	return append(defs, []metricDef{
		{"core.phase_sum_ratio", "ratio"},
		{"core.partitions", "count"},
		{"core.false_hits", "count"},
		{"core.replicated", "count"},
		{"buffer.hit_ratio", "ratio"},
		{"buffer.evictions", "count"},
		{"storage.reads", "pages"},
		{"storage.writes", "pages"},
		{"storage.seq_share", "ratio"},
		{"containment.io_actual_over_predicted", "ratio"},
		{"containment.open_ms", "ms"},
		{"relation.scan_ns_per_rec", "ns"},
		{"pbicode.f_ns_per_code", "ns"},
		{"runtime.alloc_mb_per_pass", "MiB"},
		{"runtime.gc_per_pass", "count"},
		{"trace.overhead_pct", "%"},
		{"unattributed_ms_p50", "ms"},
		{"client.gap_ms_p50", "ms"},
		{"router.self_ms_p50", "ms"},
		{"router.merge_ms_p50", "ms"},
		{"qserv.node_ms_p50", "ms"},
		{"qserv.outside_engine_ms_p50", "ms"},
		{"qserv.engine_ms_p50", "ms"},
		{"qserv.engine_ms_tail", "ms"},
		{"router.cache_hit_ratio", "ratio"},
		{"qserv.cache_hit_ratio", "ratio"},
		{"qserv.executions_per_miss", "ratio"},
		{"router.fanout_skew_p50", "ratio"},
		{"router.hedge_fires", "count"},
		{"router.hedge_win_ratio", "ratio"},
		{"router.failovers", "count"},
		{"shard.element_imbalance", "ratio"},
		{"ingest.commits", "count"},
		{"ingest.renumbers_global", "count"},
		{"ingest.renumbers_scoped", "count"},
		{"ingest.overflow_inserts", "count"},
		{"ingest.chain_len_max", "count"},
		{"ingest.chain_len_mean", "count"},
		{"ingest.chain_growing", "flag"},
		{"ingest.compactions", "count"},
		{"ingest.compacted_pages", "pages"},
		{"ingest.compact_aborts", "count"},
		{"ingest.commit_p50_ms", "ms"},
		{"ingest.commit_tail_ms", "ms"},
		{"qserv.worker_swaps", "count"},
		{"qserv.rejected", "count"},
		{"lat_tail_ms", "ms"},
		{"peak_rss_mb", "MiB"},
		{"setup.generate_s", "s"},
		{"setup.build_s", "s"},
		{"setup.split_s", "s"},
		{"setup.reference_s", "s"},
		{"setup.warmup_s", "s"},
		{"loadgen.late_ms_tail", "ms"},
		{"error_rate", "ratio"},
	}...)
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	bin      string // directory of the pbiserve / pbirouter binaries
	work     string // scratch directory for databases and span dumps
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed, wrong int
	metrics                  map[string]float64
	// notes are extra lines printed before the metrics: tail percentiles
	// and their sample counts, stationarity flags.
	notes []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, opt options) (*outcome, error){
	"dblp-join":    runDBLP,
	"xmark-routed": runRouted,
	"xmark-ingest": runIngest,
}

func main() {
	var opt options
	var seconds, traceFlag int
	flag.StringVar(&opt.workload, "workload", "", "workload to run: dblp-join|xmark-routed|xmark-ingest")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&opt.bin, "bin", "", "directory holding pbiserve and pbirouter")
	flag.StringVar(&opt.work, "work", "", "scratch directory")
	flag.Parse()
	run, ok := workloads[opt.workload]
	if !ok || seconds < 1 || opt.work == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload dblp-join|xmark-routed|xmark-ingest -seed N -seconds S -trace 0|1 -bin DIR -work DIR")
		os.Exit(2)
	}
	opt.window = time.Duration(seconds) * time.Second
	opt.traced = traceFlag == 1
	work, err := os.MkdirTemp(opt.work, opt.workload+"-")
	if err != nil {
		fail(err)
	}
	opt.work = work

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	out, err := run(ctx, opt)
	stop()
	// Span dumps are written beside the scratch directory, which goes.
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}
	report(opt, out)
}

// report prints the run's context, each metric with its unit, and the
// result line.
func report(opt options, out *outcome) {
	defs := endToEnd
	if opt.traced {
		defs = perLayer
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%.0f trace=%v nproc=%d go=%s\n",
		opt.workload, opt.seed, opt.window.Seconds(), opt.traced, runtime.NumCPU(), runtime.Version())
	for _, n := range out.notes {
		fmt.Println("perfbench: " + n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.metrics[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-44s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if unknown := unreported(out.metrics); len(unknown) > 0 {
		fail(fmt.Errorf("metrics computed but not defined: %s", strings.Join(unknown, ", ")))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.wrong == 0, out.attempted, out.failed + out.wrong, metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// unreported lists computed metric names that neither table defines: a
// typo guard, since report prints only defined names.
func unreported(m map[string]float64) []string {
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	var out []string
	for name := range m {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// spanDump returns where a traced run writes its span trees: beside the
// scratch directory, so they outlive it.
func spanDump(opt options) string {
	return filepath.Join(filepath.Dir(opt.work), fmt.Sprintf("spans-%s-seed%d.jsonl", opt.workload, opt.seed))
}
