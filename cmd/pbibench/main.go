// Command pbibench runs the paper's experiments (E1–E8), the ablations
// (A1–A8), and the page-format comparison, and prints the
// corresponding tables and figure series.
//
// Usage:
//
//	pbibench [-exp all|e1,e2,...] [-scale 0.02] [-docscale 0.02]
//	         [-buffer 500] [-pagesize 4096] [-seed 1] [-stats] [-csv]
//	         [-json results/dev/bench/data.js] [-check 15]
//
// Scale 1.0 reproduces the paper's sizes (1e6/1e4-element synthetic sets,
// SF=1 XMark, full DBLP); the default 0.02 finishes interactively. Elapsed
// times combine the virtual disk clock (10 ms random / 0.2 ms sequential
// page access, a 2003-era disk) with measured compute time; see DESIGN.md.
//
// -json FILE appends one benchmark entry (every row of every experiment
// run, elapsed as ns/op) to FILE in the dev/bench data.js format of
// github-action-benchmark — the history is appended to, never
// overwritten, so the file doubles as a static chart page. -check PCT
// then compares the two newest entries and exits 1 when any shared
// metric slowed by more than PCT percent; with fewer than two entries it
// prints a notice and passes (no baseline yet). Compare entries only
// across runs with identical -exp/-scale/-buffer settings.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/benchkit"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids (e1..e8, a1..a8, batch) or 'all'")
		scale    = flag.Float64("scale", 0.02, "synthetic dataset scale (1.0 = paper: 1e6/1e4 elements)")
		docScale = flag.Float64("docscale", 0.02, "document scale (1.0 = paper: XMark SF=1, full DBLP)")
		buffer   = flag.Int("buffer", 500, "buffer pool pages b (paper: 500)")
		pageSize = flag.Int("pagesize", 4096, "page size in bytes")
		seed     = flag.Int64("seed", 1, "generator seed")
		stats    = flag.Bool("stats", false, "also print dataset statistics tables (Table 2(a)-(d))")
		csv      = flag.Bool("csv", false, "emit CSV rows instead of tables")
		jsonOut  = flag.String("json", "", "append this run to FILE in dev/bench data.js format")
		check    = flag.Float64("check", 0, "with -json: fail when a metric regressed more than PCT percent vs the previous entry")
	)
	flag.Parse()

	cfg := benchkit.Config{
		Scale:       *scale,
		DocScale:    *docScale,
		BufferPages: *buffer,
		PageSize:    *pageSize,
		Seed:        *seed,
		Out:         os.Stdout,
	}

	ids := benchkit.Order
	if *exp != "all" {
		ids = strings.Split(strings.ToLower(*exp), ",")
	}
	registry := benchkit.Experiments()
	var metrics []benchkit.BenchMetric
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "pbibench: unknown experiment %q (have %s)\n", id, strings.Join(benchkit.Order, ", "))
			os.Exit(2)
		}
		res, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pbibench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *jsonOut != "" {
			metrics = append(metrics, benchkit.RowsToMetrics(id, res.Rows)...)
		}
		if *csv {
			benchkit.RenderCSV(os.Stdout, res)
			continue
		}
		benchkit.Render(os.Stdout, res)
		if *stats {
			benchkit.RenderStats(os.Stdout, res)
		}
		benchkit.Summarize(os.Stdout, res)
	}

	if *jsonOut == "" {
		return
	}
	data, err := benchkit.LoadBenchData(*jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbibench: %v\n", err)
		os.Exit(2)
	}
	data.Append(benchkit.BenchSuite, benchkit.BenchEntry{
		Commit:  commitInfo(*exp, cfg),
		Date:    time.Now().UnixMilli(),
		Tool:    "go",
		Benches: metrics,
	})
	if err := data.Save(*jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "pbibench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("recorded %d metrics to %s (%d entries)\n",
		len(metrics), *jsonOut, len(data.Entries[benchkit.BenchSuite]))
	if *check <= 0 {
		return
	}
	regs, ok := data.CheckRegression(benchkit.BenchSuite, *check)
	if !ok {
		fmt.Printf("regression check skipped: fewer than two entries in %s\n", *jsonOut)
		return
	}
	if len(regs) == 0 {
		fmt.Printf("regression check passed (threshold %.0f%%)\n", *check)
		return
	}
	fmt.Fprintf(os.Stderr, "pbibench: %d metrics regressed more than %.0f%%:\n", len(regs), *check)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %-48s %s -> %s (%.2fx)\n",
			r.Name, time.Duration(r.Old).Round(time.Millisecond),
			time.Duration(r.New).Round(time.Millisecond), r.Ratio)
	}
	os.Exit(1)
}

// commitInfo describes the measured commit for the data.js record, best
// effort via git; the measurement conditions ride along in the message
// so an entry is interpretable without the shell history.
func commitInfo(exp string, cfg benchkit.Config) benchkit.BenchCommit {
	id, msg := "unknown", ""
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		id = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "log", "-1", "--format=%s").Output(); err == nil {
		msg = strings.TrimSpace(string(out))
	}
	note := fmt.Sprintf("%d-core run, exp=%s scale=%g docscale=%g buffer=%d pagesize=%d; elapsed = virtual disk time + wall CPU",
		runtime.NumCPU(), exp, cfg.Scale, cfg.DocScale, cfg.BufferPages, cfg.PageSize)
	if msg != "" {
		msg += " — "
	}
	return benchkit.BenchCommit{
		ID:        id,
		Message:   msg + note,
		Timestamp: time.Now().Format(time.RFC3339),
	}
}
