// Command perfbench is the repository's end-to-end benchmark. It builds
// the deployed three-process stack inside one process — one origin
// (cmd/dummygoogle without -cache), one shared L2 daemon (cmd/wscached)
// and one simulated `wsclient -l2` process per CPU — and drives it only
// through public calls from one closed-loop client per process. Every
// result is checked against the deterministic origin output and, for
// items, against a single-writer shadow.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload churn-read --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// measures an untraced phase and a phase with span wrappers around
// every layer, and reports per-layer self times and counts. Human-readable
// lines ("metric <name> <value> <unit>") come first; the last line of
// standard output is one JSON object. --report FILE runs every workload
// both ways and writes a markdown report. WORKLOADS.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// metric is one named, unit-carrying value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric // the JSON metrics
	extra             []metric // printed, not in the JSON
	notes             []string // printed: selector decisions, trace file
	firstFailure      string
	layers            *layerTable
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: hot-read, churn-read or item-rw")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench-out", "directory for trace files")
		report  = flag.String("report", "", "run every workload untraced and traced and write a markdown report to this file")
	)
	flag.Parse()
	if *report != "" {
		if err := writeReport(*report, *seed, time.Duration(*seconds)*time.Second, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload hot-read|churn-read|item-rw, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, w, res)
	if !res.correct {
		os.Exit(1)
	}
}

// run performs one benchmark invocation.
func run(w *workload, seed uint64, d time.Duration, traced bool, outDir string) (*result, error) {
	procs := runtime.NumCPU()
	in := newInputs(w, seed, procs)
	if !traced {
		return runUntraced(in, d)
	}
	return runTraced(in, d, outDir)
}

// stacks is how many independently built stacks an untraced run pools;
// a traced run gives each of its two phases half as many.
const stacks = 6

// ramp is unmeasured traffic between warm-up and measurement, so the
// L1s, the daemon, the selectors and the GC pacer reach their steady
// state.
const ramp = 500 * time.Millisecond

// phase is what one measured phase gathers over its stacks.
type phase struct {
	total          *clientStats
	slices         []int64 // calls per slice, every stack's window in turn
	setupS, heapMB []float64
	delta          stackSnapshot // change in the processes' counters while measured
	daemon         core.Stats    // the last stack's daemon at the end of its window
	mem            runtime.MemStats
	counts, decs   []string
	layers         *layerTable // traced phases only
}

// measure runs one phase of n slices spread over nStacks stacks. Each
// stack is built with o and warmed (setup_s is the median of the
// set-ups), ramped, and then measured for its share of the slices.
// Pooling the windows of independently built stacks keeps one stack's
// chance state, such as the representations its selectors settled on,
// from deciding the run's result. A traced phase sums the stacks'
// per-layer self times and writes their spans to tracePath.
func measure(in *inputs, o stackOptions, nStacks, n int, tracePath string) (*phase, error) {
	clients := newClients(in, time.Duration(n/nStacks+1)*sliceLen)
	// Everything the phase keeps across the stacks is allocated before
	// the baseline heap reading, so heap_live_mb counts the stack alone.
	ph := &phase{total: &clientStats{}, slices: make([]int64, 0, n+nStacks)}
	var spans *bufio.Writer
	if o.traced {
		ph.layers = &layerTable{}
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		spans = bufio.NewWriter(f)
	}
	baseHeap := liveHeap()
	for i := 0; i < nStacks; i++ {
		t0 := time.Now()
		s, err := newStack(o)
		if err != nil {
			return nil, err
		}
		if err := in.warm(s); err != nil {
			s.close()
			return nil, err
		}
		ph.setupS = append(ph.setupS, time.Since(t0).Seconds())
		if err := rampUp(s, clients); err != nil {
			s.close()
			return nil, err
		}
		ni := max(1, n/nStacks)
		if i < n%nStacks {
			ni++
		}
		s.resetTraces()
		before := snapshot(s)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		drive(s, clients, time.Duration(ni)*sliceLen)
		runtime.ReadMemStats(&ms1)
		ph.delta = ph.delta.add(snapshot(s).sub(before))
		ph.mem.TotalAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		ph.mem.Mallocs += ms1.Mallocs - ms0.Mallocs
		ph.mem.NumGC += ms1.NumGC - ms0.NumGC
		ph.heapMB = append(ph.heapMB, float64(liveHeap()-baseHeap)/(1<<20))
		ph.daemon = s.daemonCache.Stats()
		sum := sumClients(clients)
		ph.total.add(sum)
		ph.slices = append(ph.slices, sum.slices[:ni]...)
		for _, c := range sum.slices[:ni] {
			ph.counts = append(ph.counts, fmt.Sprint(c))
		}
		ph.counts = append(ph.counts, fmt.Sprintf("(p50 %.3fus p99 %.1fus) |", sum.hist[classAll].quantile(0.5)/1e3, sum.hist[classAll].quantile(0.99)/1e3))
		ph.decs = append(ph.decs, decisions(s, i)...)
		if o.traced {
			ph.layers.add(s.tracers(), sum)
			if err := writeTrace(spans, i, s.tracers()); err != nil {
				s.close()
				return nil, err
			}
		}
		if err := s.close(); err != nil {
			return nil, err
		}
		resetClients(clients)
	}
	if spans != nil {
		if err := spans.Flush(); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

func runUntraced(in *inputs, d time.Duration) (*result, error) {
	ph, err := measure(in, stackOptions{procs: in.procs}, stacks, int(d/sliceLen), "")
	if err != nil {
		return nil, err
	}
	total := ph.total
	res := &result{attempted: total.calls, failed: total.failed, firstFailure: total.firstFailure}
	res.correct = total.failed == 0 && total.calls > 0
	res.metrics = []metric{
		{"calls_per_s", sliceRate(ph.slices), "1/s"},
		{"call_p50_us", total.hist[classAll].quantile(0.50) / 1e3, "us"},
		{"l1_hit_p50_us", total.hist[classL1].quantile(0.50) / 1e3, "us"},
		{"heap_live_mb", median(ph.heapMB), "MB"},
		{"setup_s", median(ph.setupS), "s"},
	}
	if !total.hist[classL1].enough(0.5) {
		res.correct = false
		res.notes = append(res.notes, "too few L1 hits for l1_hit_p50_us")
	}
	// call_p99_us is printed, not gated: on hot-read its run-to-run
	// spread reached the largest bound the gate allows (WORKLOADS.md).
	res.extra = append(res.extra, metric{"call_p99_us", total.hist[classAll].quantile(0.99) / 1e3, "us"})
	for c := classL1; c < nClasses; c++ {
		h := &total.hist[c]
		res.extra = append(res.extra, metric{className[c] + "_calls", float64(h.n), "count"})
		for _, q := range []float64{0.50, 0.99} {
			name := fmt.Sprintf("%s_p%02.0f_us", className[c], q*100)
			if h.enough(q) && name != "l1_hit_p50_us" { // that one is gated
				res.extra = append(res.extra, metric{name, h.quantile(q) / 1e3, "us"})
			}
		}
	}
	res.extra = append(res.extra,
		metric{"origin_fetch_ratio", div(float64(total.hist[classOrigin].n), float64(total.reads)), "ratio"},
		metric{"fail_ratio", div(float64(total.failed), float64(total.calls)), "ratio"},
		metric{"invalidate.xproc_stale_reads", float64(total.xstale), "count"},
		metric{"driver.overhead_ns", total.overheadNS(), "ns"},
	)
	res.extra = append(res.extra, statsMetrics(ph.delta, total.calls)...)
	res.extra = append(res.extra,
		metric{"daemon.entries", float64(ph.daemon.Entries), "count"},
		metric{"daemon.bytes_mb", float64(ph.daemon.Bytes) / (1 << 20), "MB"},
	)
	res.notes = append(res.notes, "calls per one-second slice, by stack: "+strings.Join(ph.counts, " "))
	res.notes = append(res.notes, ph.decs...)
	return res, nil
}

// runTraced measures two phases on the same inputs, each with half the
// seconds and half the stacks of an untraced run: untraced, for the
// reference throughput and the whole-process counts, then with span
// wrappers, for the per-layer self times.
func runTraced(in *inputs, d time.Duration, outDir string) (*result, error) {
	n := max(1, int(d/sliceLen)/2)
	plain, err := measure(in, stackOptions{procs: in.procs}, stacks/2, n, "")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", in.w.name, in.seed))
	traced, err := measure(in, stackOptions{procs: in.procs, traced: true}, stacks/2, n, path)
	if err != nil {
		return nil, err
	}
	plainCPS, tracedCPS := sliceRate(plain.slices), sliceRate(traced.slices)

	lt := traced.layers
	p, t := plain.total, traced.total
	calls := float64(p.calls)
	res := &result{attempted: p.calls + t.calls, failed: p.failed + t.failed, layers: lt,
		firstFailure: p.firstFailure + t.firstFailure}
	res.correct = res.failed == 0 && p.calls > 0 && t.calls > 0
	res.metrics = append(res.metrics, lt.metrics()...)
	res.metrics = append(res.metrics,
		metric{"trace.overhead_ratio", div(plainCPS, tracedCPS), "ratio"},
		metric{"trace.coverage_ratio", lt.coverage(), "ratio"},
		metric{"runtime.alloc_bytes_per_call", div(float64(plain.mem.TotalAlloc), calls), "B"},
		metric{"runtime.allocs_per_call", div(float64(plain.mem.Mallocs), calls), "count"},
		metric{"runtime.gc_per_kcall", div(1000*float64(plain.mem.NumGC), calls), "1/kcall"},
		metric{"driver.overhead_ns", p.overheadNS(), "ns"},
		metric{"invalidate.xproc_stale_reads", float64(p.xstale + t.xstale), "count"},
	)
	res.metrics = append(res.metrics, statsMetrics(plain.delta, p.calls)...)
	res.extra = append(res.extra,
		metric{"calls_per_s.untraced", plainCPS, "1/s"},
		metric{"calls_per_s.traced", tracedCPS, "1/s"},
	)
	if cov := lt.coverage(); cov < minCoverage {
		res.notes = append(res.notes, fmt.Sprintf("coverage %.3f is below %.2f: a layer below client or core has no wrapper", cov, minCoverage))
	}
	res.notes = append(res.notes, "spans written to "+path)
	res.notes = append(res.notes, traced.decs...)
	return res, nil
}

// --- the load loop -------------------------------------------------------

// rampUp drives unmeasured traffic for ramp, fails on any call the
// oracle rejects, and clears the clients' counters.
func rampUp(s *stack, cs []*clientStats) error {
	drive(s, cs, ramp)
	sum := sumClients(cs)
	resetClients(cs)
	if sum.failed > 0 {
		return fmt.Errorf("%d calls failed during the ramp; first: %s", sum.failed, sum.firstFailure)
	}
	return nil
}

// Serving classes of a call. A read is an L1 hit when the cache served
// it and the tier probe saw no hit, an L2 hit when the tier hit, and an
// origin read otherwise.
type class uint8

const (
	classAll class = iota
	classL1
	classL2
	classOrigin
	classWrite
	nClasses
)

var className = [nClasses]string{"call", "l1_hit", "l2_hit", "origin", "write"}

// clientStats are one closed-loop client's counters. Latencies go into
// fixed-size histograms, so recording never grows the heap. Calls are
// also counted per one-second slice of the window: calls_per_s is the
// median over the slices, so a burst of load from outside the benchmark
// moves one slice, not the run's result.
type clientStats struct {
	hist                 [nClasses]hist
	slices               []int64
	calls, reads, failed int64
	xstale               int64
	busyNS, loopNS       int64
	firstFailure         string
	gen                  *gen
}

const sliceLen = time.Second

// newClients makes one client per process, with slices for a window of
// up to d.
func newClients(in *inputs, d time.Duration) []*clientStats {
	cs := make([]*clientStats, in.procs)
	for i := range cs {
		cs[i] = &clientStats{gen: in.gen(i), slices: make([]int64, d/sliceLen+1)}
	}
	return cs
}

func resetClients(cs []*clientStats) {
	for _, c := range cs {
		slices := c.slices
		clear(slices)
		*c = clientStats{gen: c.gen, slices: slices}
	}
}

// drive runs every client's closed loop for d and returns the wall time
// from the start until the last client stopped.
func drive(s *stack, cs []*clientStats, d time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, p := range s.procs {
		wg.Add(1)
		go func(p *proc, c *clientStats) {
			defer wg.Done()
			c.loop(p, start, deadline, 0)
		}(p, cs[i])
	}
	wg.Wait()
	return time.Since(start)
}

// loop is the closed loop: issue, wait, check, repeat, until the
// deadline or, when maxCalls > 0, that many calls. The only
// instrumentation on the untraced path is the two clock reads around
// the call and the tier probe's hit flag.
func (c *clientStats) loop(p *proc, start, deadline time.Time, maxCalls int64) {
	ctx := context.Background()
	in := c.gen.in
	last := len(c.slices) - 1
	for {
		r := c.gen.next()
		acked := r.before()
		p.tier.hit = false
		t0 := time.Now()
		if p.tr != nil {
			p.tr.startCall()
		}
		ictx, err := p.invoke(ctx, r.op, r.params)
		if p.tr != nil {
			p.tr.end()
		}
		t1 := time.Now()
		lat := int64(t1.Sub(t0))

		cl := classOrigin
		switch {
		case r.op == opPutItem:
			cl = classWrite
		case err == nil && ictx.CacheHit && p.tier.hit:
			cl = classL2
		case err == nil && ictx.CacheHit:
			cl = classL1
		}
		if cl != classWrite {
			c.reads++
		}
		if p.tr != nil {
			p.tr.classify(cl)
		}
		c.hist[classAll].record(lat)
		c.hist[cl].record(lat)
		c.slices[min(int(t1.Sub(start)/sliceLen), last)]++
		c.calls++
		c.busyNS += lat
		switch in.check(&r, p.id, ictx, err, acked) {
		case vFailed:
			c.failed++
			if c.firstFailure == "" {
				c.firstFailure = fmt.Sprintf("process %d %s: err=%v", p.id, opNames[r.op], err)
			}
		case vXStale:
			c.xstale++
		}
		if !t1.Before(deadline) || c.calls == maxCalls {
			break
		}
	}
	c.loopNS = int64(time.Since(start))
}

// sumClients merges the clients' counters.
func sumClients(cs []*clientStats) *clientStats {
	sum := &clientStats{slices: make([]int64, len(cs[0].slices))}
	for _, c := range cs {
		for i, n := range c.slices {
			sum.slices[i] += n
		}
		sum.add(c)
	}
	return sum
}

// add merges o's whole-window counters into c.
func (c *clientStats) add(o *clientStats) {
	for i := range o.hist {
		c.hist[i].merge(&o.hist[i])
	}
	c.calls += o.calls
	c.reads += o.reads
	c.failed += o.failed
	c.xstale += o.xstale
	c.busyNS += o.busyNS
	c.loopNS += o.loopNS
	if c.firstFailure == "" {
		c.firstFailure = o.firstFailure
	}
}

// sliceRate is the calls per second over all the measured slices.
func sliceRate(slices []int64) float64 {
	var sum int64
	for _, n := range slices {
		sum += n
	}
	return div(float64(sum), float64(len(slices))*sliceLen.Seconds())
}

// overheadNS is the load loop's own cost per call: loop time not spent
// inside InvokeContext (request generation, the clock reads, the
// oracle).
func (c *clientStats) overheadNS() float64 {
	return div(float64(c.loopNS-c.busyNS), float64(c.calls))
}

// --- whole-stack counters ------------------------------------------------

// stackSnapshot sums the processes' cache and tier counters.
type stackSnapshot struct {
	hits, misses, evictions, invalidations, tierErrors int64
	tierGets, tierHits                                 int64
}

func snapshot(s *stack) stackSnapshot {
	var ss stackSnapshot
	for _, p := range s.procs {
		st := p.cache.Stats()
		ss.hits += st.Hits
		ss.misses += st.Misses
		ss.evictions += st.Evictions
		ss.invalidations += st.Invalidations
		ss.tierErrors += st.TierErrors
		ss.tierGets += p.tier.gets
		ss.tierHits += p.tier.hits
	}
	return ss
}

func (a stackSnapshot) sub(b stackSnapshot) stackSnapshot {
	return stackSnapshot{
		a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions, a.invalidations - b.invalidations,
		a.tierErrors - b.tierErrors, a.tierGets - b.tierGets, a.tierHits - b.tierHits,
	}
}

func (a stackSnapshot) add(b stackSnapshot) stackSnapshot {
	return stackSnapshot{
		a.hits + b.hits, a.misses + b.misses, a.evictions + b.evictions, a.invalidations + b.invalidations,
		a.tierErrors + b.tierErrors, a.tierGets + b.tierGets, a.tierHits + b.tierHits,
	}
}

// statsMetrics derives the count metrics of measured phases from the
// change d in core.Cache.Stats and the tier probe.
func statsMetrics(d stackSnapshot, calls int64) []metric {
	kcalls := float64(calls) / 1000
	return []metric{
		{"core.l1_hit_ratio", div(float64(d.hits), float64(d.hits+d.misses)), "ratio"},
		{"core.evictions_per_kcall", div(float64(d.evictions), kcalls), "1/kcall"},
		{"tier.hit_ratio", div(float64(d.tierHits), float64(d.tierGets)), "ratio"},
		{"invalidate.refills_per_kcall", div(float64(d.invalidations), kcalls), "1/kcall"},
		{"tier.errors", float64(d.tierErrors), "count"},
	}
}

// decisions renders every process's selector decision table.
func decisions(s *stack, stackID int) []string {
	var out []string
	for _, p := range s.procs {
		for _, d := range p.sel.DecisionTable() {
			out = append(out, fmt.Sprintf("selector stack=%d process=%d op=%s type=%s chosen=%q source=%s stores=%d",
				stackID, p.id, d.Operation, d.ResultType, d.Chosen, d.Source, d.Stores))
		}
	}
	return out
}

// liveHeap returns the live heap after forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printResult writes the human-readable lines, then the JSON line.
func printResult(f *os.File, w *workload, res *result) {
	fmt.Fprintf(f, "workload %s: %s\n", w.name, w.why)
	for _, m := range append(append([]metric(nil), res.metrics...), res.extra...) {
		fmt.Fprintf(f, "metric %s %g %s\n", m.name, m.value, m.unit)
	}
	if res.layers != nil {
		res.layers.print(f)
	}
	for _, n := range res.notes {
		fmt.Fprintln(f, n)
	}
	if !res.correct {
		fmt.Fprintf(f, "FAILED: %d of %d calls failed; first: %s\n", res.failed, res.attempted, res.firstFailure)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	if err != nil {
		panic(err) // plain floats and strings always marshal
	}
	fmt.Fprintln(f, string(line))
}
