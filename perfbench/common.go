package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/xmltree"
)

// relPrefix namespaces tag relations in the catalog, as pbidb build does.
const relPrefix = "tag:"

// buildDB stores every tag of coll as a relation of a new database at path
// with pbidb build's defaults (4 KiB pages, fixed-width layout) and the
// same document catalog. It returns the number of stored elements.
// Relations are stored in tag order, where pbidb build follows map order:
// the page layout decides which accesses the disk model charges as
// sequential, so only a fixed order gives a seed one virtual disk time.
func buildDB(path string, coll *xmltree.Collection) (int64, error) {
	eng, err := containment.NewEngine(containment.Config{Path: path, PageSize: 4096, TreeHeight: coll.Height()})
	if err != nil {
		return 0, err
	}
	var tags []string
	for tag := range coll.Document().Tags() {
		if !strings.HasPrefix(tag, "#") { // "#" marks the synthetic collection root
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	var rels []*containment.Relation
	var elements int64
	for _, tag := range tags {
		r, err := eng.Load(relPrefix+tag, coll.Codes(tag))
		if err != nil {
			eng.Close()
			return 0, err
		}
		rels = append(rels, r)
		elements += r.Len()
	}
	var docs []containment.DocInfo
	for _, name := range coll.Names() {
		root, err := coll.RootCode(name)
		if err != nil {
			eng.Close()
			return 0, err
		}
		var n int64
		for _, tag := range tags {
			codes, err := coll.CodesIn(name, tag)
			if err != nil {
				eng.Close()
				return 0, err
			}
			n += int64(len(codes))
		}
		docs = append(docs, containment.DocInfo{Name: name, Root: root, Elements: n})
	}
	if err := eng.SaveDocs(docs, rels...); err != nil {
		eng.Close()
		return 0, err
	}
	return elements, eng.Close()
}

// fileSize returns the size of path in bytes.
func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// setupTimes are the phases of one set-up, in seconds.
type setupTimes struct {
	generate, build, split, reference, warmup, total float64
}

// stopwatch times consecutive set-up phases.
type stopwatch struct{ last time.Time }

func newStopwatch() *stopwatch { return &stopwatch{last: time.Now()} }

// lap returns the seconds since the previous lap.
func (s *stopwatch) lap() float64 {
	now := time.Now()
	d := now.Sub(s.last).Seconds()
	s.last = now
	return d
}

// setupRepeats is how many times a run of dblp-join or xmark-ingest sets
// up; setup_s is the median. A set-up of either takes about a second.
const setupRepeats = 5

// recordSetup stores the medians of the set-ups' phases into m.
func recordSetup(m map[string]float64, runs []setupTimes) {
	pick := func(f func(setupTimes) float64) float64 {
		var v []float64
		for _, r := range runs {
			v = append(v, f(r))
		}
		return median(v)
	}
	m["setup_s"] = pick(func(t setupTimes) float64 { return t.total })
	m["setup.generate_s"] = pick(func(t setupTimes) float64 { return t.generate })
	m["setup.build_s"] = pick(func(t setupTimes) float64 { return t.build })
	m["setup.split_s"] = pick(func(t setupTimes) float64 { return t.split })
	m["setup.reference_s"] = pick(func(t setupTimes) float64 { return t.reference })
	m["setup.warmup_s"] = pick(func(t setupTimes) float64 { return t.warmup })
}

// procMB returns a /proc/<pid>/status memory field (VmRSS, VmHWM) of
// process pid ("self" for this one) in MiB.
func procMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s of %s: %w", field, pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// sumMB sums a memory field over processes.
func sumMB(pids []string, field string) (float64, error) {
	var total float64
	for _, pid := range pids {
		v, err := procMB(pid, field)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// rssSampler samples the summed resident set of some processes every
// rssInterval while a window runs. Its median is rss_mb: unlike the peak,
// which one allocation burst or GC cycle sets, it moves only when the
// memory a workload holds moves.
type rssSampler struct {
	quit    chan struct{}
	once    sync.Once
	done    chan struct{}
	samples []float64
}

const rssInterval = 250 * time.Millisecond

func startRSS(pids []string) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			if v, err := sumMB(pids, "VmRSS"); err == nil {
				s.samples = append(s.samples, v)
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling and waits for the sampler to exit; it may be called
// more than once.
func (s *rssSampler) stop() {
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// finish stops sampling and records rss_mb, plus the processes' peak
// resident set as peak_rss_mb.
func (s *rssSampler) finish(m map[string]float64, pids []string) error {
	s.stop()
	m["rss_mb"] = median(s.samples)
	peak, err := sumMB(pids, "VmHWM")
	m["peak_rss_mb"] = peak
	return err
}

// resetSelfHWM returns this process's memory to the OS and restarts its
// peak-resident-set counter, so a later VmHWM of "self" covers only what
// follows: the in-process workload's measured window, not the generator
// and set-up that preceded it.
func resetSelfHWM() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// spanWriter collects JSON records in memory and writes them out once.
type spanWriter struct{ lines [][]byte }

func (w *spanWriter) add(v any) {
	b, err := json.Marshal(v)
	if err == nil {
		w.lines = append(w.lines, b)
	}
}

func (w *spanWriter) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, l := range w.lines {
		bw.Write(l)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuTimes are the machine's CPU time counters from /proc/stat, in ticks.
type cpuTimes struct{ total, steal float64 }

// readCPU samples the counters; on a system without /proc/stat it returns
// zeros, and no steal is noted.
func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t cpuTimes
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i < 8 { // guest time is already counted in user and nice
			t.total += x
		}
		if i == 7 {
			t.steal = x
		}
	}
	return t
}

// clockTicks is the unit of /proc CPU times (USER_HZ), 100 on Linux.
const clockTicks = 100

// procCPU returns the user plus system CPU seconds processes have used.
func procCPU(pids []string) (float64, error) {
	var ticks float64
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + pid + "/stat")
		if err != nil {
			return 0, err
		}
		// The command name may hold spaces; the fields after it start at
		// the state, field 3, so utime and stime (14 and 15) are 11 and 12.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%s/stat", pid)
		}
		for _, v := range f[11:13] {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("parse /proc/%s/stat: %w", pid, err)
			}
			ticks += x
		}
	}
	return ticks / clockTicks, nil
}

// cpuMeter measures a window's CPU use: the processes' own CPU time, which
// time the hypervisor gives to other machines does not inflate, and the
// share of the machine's CPU time it did give away (steal).
type cpuMeter struct {
	pids []string
	host cpuTimes
	proc float64
}

func startCPU(pids []string) (*cpuMeter, error) {
	c := &cpuMeter{pids: pids, host: readCPU()}
	var err error
	c.proc, err = procCPU(pids)
	return c, err
}

// finish returns the processes' CPU milliseconds since startCPU and notes
// the steal; latency on a shared host moves with it.
func (c *cpuMeter) finish(out *outcome) (float64, error) {
	proc, err := procCPU(c.pids)
	if err != nil {
		return 0, err
	}
	host := readCPU()
	if d := host.total - c.host.total; d > 0 {
		out.note("host: %.1f%% of CPU time stolen by the hypervisor during the window", 100*(host.steal-c.host.steal)/d)
	}
	return 1000 * (proc - c.proc), nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }
