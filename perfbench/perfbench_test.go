package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/xmltree"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending: tailOf must sort
	}
	return v
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		p     float64
		value float64
	}{
		{10000, 99, 9900}, // the ladder stops at p99
		{1000, 99, 990},
		{999, 98, 980}, // p99 leaves 9.99 beyond
		{200, 95, 190},
		{100, 90, 90},
		{20, 50, 10},
		{19, 100, 19}, // nothing has ten beyond: the maximum
	} {
		got := tailOf(seq(c.n))
		if got.P != c.p || got.Value != c.value || got.N != c.n {
			t.Errorf("n=%d: got p%g=%g over %d, want p%g=%g", c.n, got.P, got.Value, got.N, c.p, c.value)
		}
	}
	if got := tailOf(nil); got.N != 0 || got.Value != 0 {
		t.Errorf("empty: got %+v", got)
	}
	if got := tailAtMost(seq(1000), 95); got.P != 95 || got.Value != 950 {
		t.Errorf("capped at p95: got p%g=%g", got.P, got.Value)
	}
	if got := tailAtMost(seq(150), 95); got.P != 90 || got.Value != 135 {
		t.Errorf("capped at p95, 150 samples: got p%g=%g", got.P, got.Value)
	}
}

// TestProcCPU checks that procCPU reads this process's CPU time: spinning
// for a while must show up in it.
func TestProcCPU(t *testing.T) {
	before, err := procCPU([]string{"self"})
	if err != nil {
		t.Fatal(err)
	}
	x := 1
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		x = x*31 + 7
	}
	after, err := procCPU([]string{"self"})
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 0.05 || x == 0 {
		t.Errorf("200 ms of spinning took %.3f s of CPU", d)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
}

func TestZipfDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(1000, 1, seed)
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 draw %d differs: %d vs %d", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 drew the same sequence")
	}
	// With s = 1, rank 0 is drawn about twice as often as rank 1.
	counts := map[int]int{}
	for _, r := range draw(9) {
		if r < 0 || r >= 1000 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if r := float64(counts[0]) / float64(counts[1]); r < 1.5 || r > 2.7 {
		t.Errorf("rank0/rank1 frequency ratio %.2f, want about 2", r)
	}
}

func TestKeyStreamOrderIndependent(t *testing.T) {
	a, b := newKeyStream(100, 3), newKeyStream(100, 3)
	late := b.at(50) // draws 0..50 at once
	for i := 0; i <= 50; i++ {
		if got := a.at(i); i == 50 && got != late {
			t.Fatalf("request 50: %d sequentially, %d when drawn first", got, late)
		}
	}
	for i := 0; i < 50; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// One connection, requests due every 5 ms, each taking 10 ms: the
	// generator falls behind and every request's latency includes its wait.
	const service = 10 * time.Millisecond
	samples := openLoop(context.Background(), 200, 200*time.Millisecond, 1, time.Second,
		func(ctx context.Context, _, _ int) error {
			time.Sleep(service)
			return nil
		})
	if len(samples) != 40 {
		t.Fatalf("%d samples, want 40", len(samples))
	}
	for i, s := range samples {
		if s.Seq != i {
			t.Fatalf("sample %d has seq %d", i, s.Seq)
		}
		if s.Latency() < s.Late()+service {
			t.Errorf("request %d: latency %v below lateness %v plus service", i, s.Latency(), s.Late())
		}
		if want := time.Duration(i) * 5 * time.Millisecond; s.Due.Sub(samples[0].Due) != want {
			t.Errorf("request %d due at +%v, want +%v", i, s.Due.Sub(samples[0].Due), want)
		}
	}
	// By the end the backlog is ~40*10ms - 40*5ms = 200ms.
	if last := samples[len(samples)-1].Late(); last < 150*time.Millisecond {
		t.Errorf("last request only %v late under 2x overload", last)
	}

	// Two connections at a rate they sustain: nobody waits long.
	samples = openLoop(context.Background(), 100, 200*time.Millisecond, 2, time.Second,
		func(ctx context.Context, _, _ int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
	var late []float64
	for _, s := range samples {
		late = append(late, ms(s.Late()))
	}
	if p50 := median(late); p50 > 10 {
		t.Errorf("median lateness %.1fms at a sustainable rate", p50)
	}
}

func TestOpenLoopDropsPastCutoff(t *testing.T) {
	samples := openLoop(context.Background(), 100, 100*time.Millisecond, 1, 0,
		func(ctx context.Context, _, _ int) error {
			time.Sleep(60 * time.Millisecond)
			return nil
		})
	var dropped int
	for _, s := range samples {
		if errors.Is(s.Err, errLateDrop) {
			dropped++
		}
	}
	if len(samples) != 10 || dropped == 0 {
		t.Errorf("%d samples, %d dropped; want 10 with some dropped", len(samples), dropped)
	}
}

// forest builds <r><a><b><c/></b><c/></a><b><c/></b></r>.
func forest() *xmltree.Element {
	r := &xmltree.Element{Tag: "r"}
	add := func(p *xmltree.Element, tag string) *xmltree.Element {
		e := &xmltree.Element{Tag: tag, Parent: p}
		p.Children = append(p.Children, e)
		return e
	}
	a := add(r, "a")
	b := add(a, "b")
	add(b, "c")
	add(a, "c")
	b2 := add(r, "b")
	add(b2, "c")
	return r
}

func TestCensusMatchesEngine(t *testing.T) {
	root := forest()
	cen := census{}
	cen.addTree(root)
	doc, err := xmltree.Encode(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]string{{"r", "c"}, {"a", "c"}, {"b", "c"}, {"a", "b"}, {"c", "a"}} {
		n, err := containment.Count(doc.Codes(p[0]), doc.Codes(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		if got := cen.pairCount(p[0], p[1]); got != n {
			t.Errorf("%s//%s: census %d, containment.Count %d", p[0], p[1], got, n)
		}
	}
	for _, c := range []struct {
		chain []string
		want  int64
	}{
		{[]string{"a", "c"}, 2},
		{[]string{"r", "b", "c"}, 2},
		{[]string{"a", "b", "c"}, 1},
		{[]string{"b", "a"}, 0},
	} {
		if got := cen.pathCount(c.chain); got != c.want {
			t.Errorf("//%v: %d, want %d", c.chain, got, c.want)
		}
	}
	// r//a//b, r//a//c, r//b//c and a//b//c.
	if chains := cen.chains(3); len(chains) != 4 {
		t.Errorf("3-step chains: %v", chains)
	}
}

func TestIngestVerify(t *testing.T) {
	// Key 0's base answer is 10; fresh document 0 adds 3, document 1 adds 5.
	env := &ingestEnv{
		keys: []key{{ref: 10, anc: "x", desc: "y"}},
		fresh: []*freshDoc{
			{refs: map[int]int64{0: 3}},
			{refs: map[int]int64{0: 5}},
		},
	}
	r := &ingestRun{env: env}
	// Epoch 1 inserts document 0, epoch 2 is a compaction, epoch 3 inserts
	// document 1, epoch 4 deletes and reinserts document 0.
	r.commits = []commit{
		{epoch: 3, delta: map[int]int{1: +1}},
		{epoch: 1, delta: map[int]int{0: +1}},
		{epoch: 4, delta: map[int]int{0: 0}},
	}
	r.reads = []read{
		{seq: 0, epoch: 0, count: 10},
		{seq: 1, epoch: 1, count: 13},
		{seq: 2, epoch: 2, count: 13},
		{seq: 3, epoch: 3, count: 18},
		{seq: 4, epoch: 4, count: 18},
		{seq: 5, epoch: 2, count: 18}, // wrong: epoch 2 still lacks document 1
		{seq: 6, epoch: 0, count: 13}, // wrong: epoch 0 is the base
	}
	wrong, unverifiable := r.verify()
	if len(wrong) != 2 || !wrong[5] || !wrong[6] || len(unverifiable) != 0 {
		t.Fatalf("wrong %v, unverifiable %v; want wrong {5, 6}", wrong, unverifiable)
	}
	// A batch with an unknown outcome makes later epochs unverifiable.
	r.unknown = true
	r.reads = append(r.reads, read{seq: 7, epoch: 5, count: 18})
	_, unverifiable = r.verify()
	if len(unverifiable) != 1 || !unverifiable[7] {
		t.Fatalf("unverifiable %v, want {7}", unverifiable)
	}
}

func TestClassifySeparatesWrongFromFailed(t *testing.T) {
	out := &outcome{metrics: map[string]float64{}}
	now := time.Now()
	classify(out, []sample{
		{Seq: 0, Due: now, Done: now},
		{Seq: 1, Due: now, Done: now, Err: &wrongAnswer{path: "/join", got: 1, want: 2}},
		{Seq: 2, Due: now, Done: now, Err: &statusError{code: 503}},
	})
	if out.attempted != 3 || out.wrong != 1 || out.failed != 1 {
		t.Errorf("attempted %d wrong %d failed %d", out.attempted, out.wrong, out.failed)
	}
}

func TestRoutedBreakdownAddsUp(t *testing.T) {
	engine := &trace.WireSpan{Name: "join", WallNS: 300, Children: []*trace.WireSpan{{Name: "hash-join", WallNS: 250}}}
	root := &trace.WireSpan{Name: "join", Node: "router", WallNS: 1000, Children: []*trace.WireSpan{
		{Name: "fanout", WallNS: 800, Children: []*trace.WireSpan{
			{Name: "node", Node: "n0", WallNS: 700, Children: []*trace.WireSpan{engine}},
			{Name: "node", Node: "n1", WallNS: 350, Children: []*trace.WireSpan{{Name: "join", WallNS: 100}}},
		}},
		{Name: "merge", WallNS: 150},
	}}
	b, ok := breakdownRouted(1200, root)
	if !ok {
		t.Fatal("no breakdown")
	}
	sum := b.gapNS + b.routerSelfNS + b.mergeNS + b.outsideNS + b.engineNS + b.unattributedNS
	if sum != 1200 {
		t.Errorf("layers sum to %d, client saw 1200", sum)
	}
	if b.gapNS != 200 || b.routerSelfNS != 50 || b.engineNS != 300 || b.outsideNS != 400 || b.unattributedNS != 100 {
		t.Errorf("breakdown %+v", b)
	}
	if b.skew != 2 {
		t.Errorf("skew %g, want 2", b.skew)
	}
	if got := engineJoins(root); len(got) != 2 {
		t.Errorf("%d engine joins, want 2", len(got))
	}
}

func TestPhaseTallySumsToWall(t *testing.T) {
	tally := newPhaseTally()
	tally.addJoin(&trace.WireSpan{Name: "join", WallNS: 1000, Reads: 10, PredictedIO: 20, Children: []*trace.WireSpan{
		{Name: "partition", WallNS: 400, Reads: 4},
		{Name: "equijoin", WallNS: 500, Reads: 6, Children: []*trace.WireSpan{{Name: "hash-join", WallNS: 450, Reads: 6}}},
	}})
	m := map[string]float64{}
	tally.record(m, 1)
	if m["core.phase_sum_ratio"] != 1 {
		t.Errorf("phase self times sum to %g of the wall", m["core.phase_sum_ratio"])
	}
	if m["core.phase.join.self_ms"] != 100e-6 || m["core.phase.hash-join.pages"] != 6 || m["core.phase.equijoin.pages"] != 0 {
		t.Errorf("self attribution wrong: %v", m)
	}
	if m["containment.io_actual_over_predicted"] != 0.5 {
		t.Errorf("io ratio %g", m["containment.io_actual_over_predicted"])
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root names
// exactly the metrics the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

func TestKeyRunnerChecksCounts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Cache", "miss")
		fmt.Fprint(w, `{"count": 5, "spans": {"name": "join", "wall_ns": 10}}`)
	}))
	defer srv.Close()
	for _, spans := range []bool{false, true} {
		for _, c := range []struct {
			ref   int64
			wrong bool
		}{{5, false}, {6, true}} {
			r := &keyRunner{c: srv.Client(), base: srv.URL, spans: spans,
				keys: []key{{path: "/join?anc=a&desc=b", ref: c.ref}}, stream: newKeyStream(1, 1),
				reqs: map[int]*servedRequest{}}
			err := r.issue(context.Background(), 0)
			if isWrong(err) != c.wrong || (!c.wrong && err != nil) {
				t.Errorf("spans=%v ref=%d: err %v", spans, c.ref, err)
			}
			if spans && len(r.reqs[0].spans) != 1 {
				t.Errorf("spans=%v: span trees not recorded", spans)
			}
		}
	}
}
