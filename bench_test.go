// Package pbitree's root benchmarks regenerate every table and figure of
// the paper at a reduced scale (one bench per artifact; see DESIGN.md's
// per-experiment index). The full-scale runs behind EXPERIMENTS.md use
// cmd/pbibench with -scale/-docscale 1. Micro-benchmarks at the bottom
// cover the coding-scheme claims of section 2.3 (A2: PBiTree-to-region
// conversion is cheap enough to adapt region-code algorithms on the fly).
package pbitree

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/benchkit"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// benchConfig sizes experiments for the benchmark harness: large enough to
// exercise the out-of-memory paths against the 128-frame pool, small
// enough for go test -bench.
func benchConfig() benchkit.Config {
	return benchkit.Config{
		Scale:       0.004,
		DocScale:    0.01,
		BufferPages: 128,
		PageSize:    1024,
		Seed:        1,
	}
}

func runExperiment(b *testing.B, fn func(benchkit.Config) (*benchkit.Result, error)) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2eFig6aE1SingleHeight regenerates Table 2(e) and
// Figure 6(a): single-height synthetic datasets, MIN_RGN vs SHCJ vs VPJ.
func BenchmarkTable2eFig6aE1SingleHeight(b *testing.B) { runExperiment(b, benchkit.E1) }

// BenchmarkTable2fFig6bE2MultiHeight regenerates Figure 6(b) and the
// false-hit counts of Table 2(f): MIN_RGN vs MHCJ+Rollup vs VPJ.
func BenchmarkTable2fFig6bE2MultiHeight(b *testing.B) { runExperiment(b, benchkit.E2) }

// BenchmarkTable2cFig6cE3Benchmark regenerates Table 2(c) and Figure 6(c):
// the ten XMark joins B1-B10.
func BenchmarkTable2cFig6cE3Benchmark(b *testing.B) { runExperiment(b, benchkit.E3) }

// BenchmarkTable2dFig6dE4DBLP regenerates Table 2(d) and Figure 6(d): the
// ten DBLP joins D1-D10.
func BenchmarkTable2dFig6dE4DBLP(b *testing.B) { runExperiment(b, benchkit.E4) }

// BenchmarkFig6eE5BufferSLLL regenerates Figure 6(e): SLLL elapsed times
// across relative buffer sizes.
func BenchmarkFig6eE5BufferSLLL(b *testing.B) { runExperiment(b, benchkit.E5) }

// BenchmarkFig6fE6BufferMLLL regenerates Figure 6(f): MLLL across buffer
// sizes.
func BenchmarkFig6fE6BufferMLLL(b *testing.B) { runExperiment(b, benchkit.E6) }

// BenchmarkFig6gE7ScaleSingle regenerates Figure 6(g): single-height
// scalability series.
func BenchmarkFig6gE7ScaleSingle(b *testing.B) { runExperiment(b, benchkit.E7) }

// BenchmarkFig6hE8ScaleMulti regenerates Figure 6(h): multiple-height
// scalability series.
func BenchmarkFig6hE8ScaleMulti(b *testing.B) { runExperiment(b, benchkit.E8) }

// BenchmarkA1MHCJvsRollup runs the MHCJ vs MHCJ+Rollup ablation behind the
// paper's "rollup outperforms MHCJ in all experiments" remark.
func BenchmarkA1MHCJvsRollup(b *testing.B) { runExperiment(b, benchkit.A1) }

// BenchmarkA2RegionVsAdapted compares the native region-coded stack-tree
// against the PBiTree-adapted one (§4's unreported comparison).
func BenchmarkA2RegionVsAdapted(b *testing.B) { runExperiment(b, benchkit.A2) }

// BenchmarkA3VPJReplication quantifies VPJ's node replication (§3.3).
func BenchmarkA3VPJReplication(b *testing.B) { runExperiment(b, benchkit.A3) }

// BenchmarkA4RollupTargetSweep sweeps the rollup target height (§3.2).
func BenchmarkA4RollupTargetSweep(b *testing.B) { runExperiment(b, benchkit.A4) }

// BenchmarkA5CostModel validates the §3.4 cost model predictions against
// measured page I/O.
func BenchmarkA5CostModel(b *testing.B) { runExperiment(b, benchkit.A5) }

// BenchmarkA6CodingSpace measures PBiTree height growth against document
// size (§2.3.3).
func BenchmarkA6CodingSpace(b *testing.B) { runExperiment(b, benchkit.A6) }

// BenchmarkA7PipelinedPaths compares pipelined (sorted) vs re-partitioned
// multi-step path queries (§3.1's output-order remark).
func BenchmarkA7PipelinedPaths(b *testing.B) { runExperiment(b, benchkit.A7) }

// BenchmarkA8VPJAnchoring compares LCA-relative vs root-relative VPJ cut
// levels (this implementation's documented deviation from Algorithm 5).
func BenchmarkA8VPJAnchoring(b *testing.B) { runExperiment(b, benchkit.A8) }

// BenchmarkShardedVsSingleD7 times the D7-style //article//author join on
// an 8-document DBLP corpus twice: on one engine over the whole corpus,
// and through a 4-shard scatter-gather shard.Engine (internal/shard) with
// the documents LPT-packed by element weight. Both runs produce identical
// pair counts (document-disjoint sharding is exact); the interesting
// number is wall time, which on a >=4-core host approaches a
// cores-bounded speedup (on a 1-core host the sharded run only measures
// coordination overhead). results/BENCH_shard.json records a snapshot
// with the host core count.
func BenchmarkShardedVsSingleD7(b *testing.B) {
	const nDocs = 8
	coll := xmltree.NewCollection()
	for i := 0; i < nDocs; i++ {
		doc, err := workload.GenerateDBLP(workload.DBLPParams{
			Articles:      600 + 150*i,
			Inproceedings: 400 + 100*i,
			Seed:          int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := coll.AddTree(fmt.Sprintf("doc-%d", i), doc.Root); err != nil {
			b.Fatal(err)
		}
	}
	names := coll.Names()
	perDoc := map[string][][]pbicode.Code{}
	for _, tag := range []string{"article", "author"} {
		sets := make([][]pbicode.Code, len(names))
		for i, name := range names {
			codes, err := coll.CodesIn(name, tag)
			if err != nil {
				b.Fatal(err)
			}
			sets[i] = codes
		}
		perDoc[tag] = sets
	}
	var want int64 = -1
	check := func(b *testing.B, count int64) {
		b.Helper()
		if want < 0 {
			want = count
		} else if count != want {
			b.Fatalf("pair count %d, want %d", count, want)
		}
	}

	b.Run("single", func(b *testing.B) {
		eng, err := containment.NewEngine(containment.Config{
			BufferPages: 256, PageSize: 4096, TreeHeight: coll.Height(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		a, err := eng.Load("article", coll.Codes("article"))
		if err != nil {
			b.Fatal(err)
		}
		d, err := eng.Load("author", coll.Codes("author"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Join(a, d, containment.JoinOptions{})
			if err != nil {
				b.Fatal(err)
			}
			check(b, res.Count)
		}
	})
	b.Run("sharded-4", func(b *testing.B) {
		const nShards = 4
		se, err := shard.New(shard.Config{
			BufferPages: 256, PageSize: 4096, TreeHeight: coll.Height(),
		}, nShards)
		if err != nil {
			b.Fatal(err)
		}
		defer se.Close()
		weights := make([]int64, len(names))
		for i := range names {
			weights[i] = int64(len(perDoc["article"][i]) + len(perDoc["author"][i]))
		}
		for g, idxs := range shard.Pack(weights, nShards) {
			for _, tag := range []string{"article", "author"} {
				var codes []pbicode.Code
				for _, i := range idxs {
					codes = append(codes, perDoc[tag][i]...)
				}
				if err := se.LoadShard(g, tag, codes); err != nil {
					b.Fatal(err)
				}
			}
		}
		a, _ := se.Relation("article")
		d, _ := se.Relation("author")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := se.Join(a, d, containment.JoinOptions{})
			if err != nil {
				b.Fatal(err)
			}
			check(b, res.Count)
		}
	})
}

// BenchmarkBatchJoin compares fixed-width pages against the default
// delta-compressed pages, both under the slab join kernels, on the DBLP
// D1-D10 mix at an equal, deliberately tight buffer budget (see the
// `batch` pbibench experiment for the recorded full-size run). The
// interesting number is the elapsed-ns/op metric (virtual disk time +
// wall CPU); go test's own ns/op includes dataset generation.
func BenchmarkBatchJoin(b *testing.B) {
	doc, err := workload.GenerateDBLP(workload.DBLP(0.05, 1))
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.DBLPQueries()
	for _, mode := range []struct {
		name     string
		compress bool
	}{
		{"fixed", false},
		{"batch", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var elapsed, pairs int64
			for i := 0; i < b.N; i++ {
				elapsed, pairs = 0, 0
				for _, q := range queries {
					eng, err := containment.NewEngine(containment.Config{
						PageSize:    1024,
						BufferPages: 64,
						DiskCost:    containment.DefaultDiskCost,
						Compress:    mode.compress,
					})
					if err != nil {
						b.Fatal(err)
					}
					a, err := eng.LoadDoc(doc, q.AncTag)
					if err != nil {
						b.Fatal(err)
					}
					d, err := eng.LoadDoc(doc, q.DescTag)
					if err != nil {
						b.Fatal(err)
					}
					if err := eng.DropCache(); err != nil {
						b.Fatal(err)
					}
					eng.ResetIOStats()
					res, err := eng.Join(a, d, containment.JoinOptions{Algorithm: containment.MHCJRollup})
					if err != nil {
						b.Fatal(err)
					}
					elapsed += int64(res.IO.VirtualTime + res.IO.WallTime)
					pairs += res.Count
					if err := eng.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if pairs == 0 {
				b.Fatal("no pairs")
			}
			b.ReportMetric(float64(elapsed), "elapsed-ns/op")
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// --- Coding-scheme micro-benchmarks (§2, §2.3 and ablation A2) ---

var sinkU64 uint64
var sinkBool bool

func randomCodes(n, h int) []pbicode.Code {
	rng := rand.New(rand.NewSource(1))
	out := make([]pbicode.Code, n)
	for i := range out {
		out[i] = pbicode.Code(rng.Uint64()%pbicode.NumNodes(h) + 1)
	}
	return out
}

// BenchmarkFAncestor measures the F(n,h) ancestor computation (Property 1)
// — the paper's claim that it is a few shifts and adds.
func BenchmarkFAncestor(b *testing.B) {
	codes := randomCodes(4096, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := codes[i&4095]
		sinkU64 += uint64(pbicode.F(c, 20))
	}
}

// BenchmarkIsAncestorLemma1 measures the Lemma 1 ancestry test.
func BenchmarkIsAncestorLemma1(b *testing.B) {
	codes := randomCodes(4096, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = pbicode.IsAncestor(codes[i&4095], codes[(i+1)&4095])
	}
}

// BenchmarkA2RegionConversion measures the on-the-fly PBiTree-to-region
// conversion (Lemma 3) that lets region-code algorithms run over PBiTree
// data — the cost ablation A2 (the paper found adapted and native region
// algorithms indistinguishable; this shows why: ~1 ns per element).
func BenchmarkA2RegionConversion(b *testing.B) {
	codes := randomCodes(4096, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := codes[i&4095].Region()
		sinkU64 += r.Start + r.End
	}
}

// BenchmarkA2RegionNative is the baseline for A2: comparing precomputed
// region codes without conversion.
func BenchmarkA2RegionNative(b *testing.B) {
	codes := randomCodes(4096, 30)
	regions := make([]pbicode.Region, len(codes))
	for i, c := range codes {
		regions[i] = c.Region()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = regions[i&4095].Contains(regions[(i+1)&4095])
	}
}

// BenchmarkBinarize measures Algorithm 1 over a 10k-element document tree.
func BenchmarkBinarize(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	build := func() *pbicode.Node {
		root := &pbicode.Node{Label: "r"}
		nodes := []*pbicode.Node{root}
		for i := 0; i < 10000; i++ {
			p := nodes[rng.Intn(len(nodes))]
			nodes = append(nodes, p.AddChild("c"))
		}
		return root
	}
	tree := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pbicode.Binarize(tree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseEncode measures the full XML-to-codes pipeline.
func BenchmarkParseEncode(b *testing.B) {
	src := `<doc>` + repeat(`<sec><title>t</title><fig/><fig/></sec>`, 500) + `</doc>`
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmltree.ParseString(src, xmltree.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInMemoryJoin measures the public in-memory join on 10k x 10k
// element sets.
func BenchmarkInMemoryJoin(b *testing.B) {
	a := randomCodes(10000, 20)
	d := randomCodes(10000, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := containment.Count(a, d); err != nil {
			b.Fatal(err)
		}
	}
}

func repeat(s string, n int) string {
	out := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return string(out)
}
