// Command livebench is the repository's live end-to-end benchmark. It boots
// a real n=4 RCC cluster inside this process over loopback TCP, assembled
// from the same public constructors and defaults as cmd/rccnode, drives it
// from YCSB client sessions, checks the outcome, and prints the metrics a
// client sees. With -trace 1 it measures the same workload untraced and
// then traced, and prints per-layer numbers taken by wrapping the seams the
// stack is assembled from, plus the tracing overhead.
//
//	bash livebench/run.sh --workload paced-b1 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A run that fails its
// correctness check, or whose open-loop generator fell behind, prints no
// metrics and exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/types"
)

// workload is one load shape. Every shape runs RCC with n = m = 4; client c
// is served by instance c mod 4, so two sessions load two instances while
// the other two fill with no-ops.
type workload struct {
	name, why string
	batch     int
	scheme    crypto.Scheme
	rate      float64 // open loop: requests per second over all sessions; 0 = closed loop
	sessions  int
	window    int
	spanEvery uint64 // traced run: 1 in spanEvery transactions gets a full span
}

var workloads = []workload{
	{
		name:  "saturate-b100",
		why:   "the paper's shape: batch 100, MAC, closed loop 2x256 keeps both cores busy, so CPU saved in exec, WAL, codec/MAC or replies shows in txn_per_s",
		batch: 100, scheme: crypto.SchemeMAC, sessions: 2, window: 256, spanEvery: 8,
	},
	{
		name:  "paced-b1",
		why:   "batch 1, MAC, open loop 200 txn/s over 2 sessions (window 8): each txn is its own round, block and fsync, so latency is consensus, pacing, loop, transport and fsync",
		batch: 1, scheme: crypto.SchemeMAC, rate: 200, sessions: 2, window: 8, spanEvery: 1,
	},
	{
		name:  "signed-b100",
		why:   "batch 100, ED25519 signatures, closed loop 2x256: crypto does most of the work, the one shape where the verify pool and batch verification show",
		batch: 100, scheme: crypto.SchemeDS, sessions: 2, window: 256, spanEvery: 2,
	},
}

const (
	// setupReps is how many times a measured run boots a cluster to its
	// first committed transaction; setup_s is the median of the boots'
	// process CPU time. The wall time of the same boots is printed too, but
	// on a shared VM it swings with hypervisor steal (measured 0-47% of a
	// run) far more than any set-up change would move it, while the CPU
	// time still shows work moved into set-up.
	setupReps = 9
	// warmup runs the load before the window so connections, buffers and
	// the heap reach steady state.
	warmup = 2 * time.Second
	// subWindows splits the measured window; txn_per_s, p50_ms and
	// cpu_us_per_txn are the medians of their sub-window values, so one
	// burst of host noise (CPU steal on a shared VM) moves them less than
	// it moves a whole-window figure.
	subWindows = 5
	// deadline is the longest a request may take and still count as
	// completed; later or never counts in fail_frac.
	deadline     = 5 * time.Second
	drainLimit   = 10 * time.Second
	firstTimeout = 30 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed: the same seed gives the same client requests")
		seconds = flag.Int("seconds", 15, "measured window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: untraced and traced runs, per-layer metrics and tracing overhead")
		data    = flag.String("data", ".bench_build", "directory for replica data directories")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "livebench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "livebench: unknown workload %q (want one of saturate-b100, paced-b1, signed-b100, all)\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
	window := time.Duration(*seconds) * time.Second
	for _, w := range run {
		res, err := runWorkload(w, *seed, window, *data, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "livebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "livebench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
}

func runWorkload(w workload, seed int64, window time.Duration, data string, traced bool) (*result, error) {
	fmt.Printf("# %s (seed %d, %v window): %s\n", w.name, seed, window, w.why)
	if !traced {
		var setups, walls []float64
		var last *phase
		for k := 0; k < setupReps; k++ {
			p, err := runPhase(w, seed, window, data, nil, k == setupReps-1)
			if err != nil {
				return nil, err
			}
			setups, walls = append(setups, p.setupCPU), append(walls, p.setup)
			last = p
		}
		last.print("untraced")
		fmt.Printf("%-28s %12.4f s      (process CPU, median of %d boots: %.4g)\n", "setup_s", median(setups), len(setups), setups)
		fmt.Printf("%-28s %12.4f s      (wall, median of %d boots: %.4g)\n", "setup_wall_s", median(walls), len(walls), walls)
		m := last.endToEnd()
		m["setup_s"] = metric{median(setups), "s"}
		return &result{Correct: true, Attempted: last.attempted, Failed: last.failed, Metrics: m}, nil
	}
	bare, err := runPhase(w, seed, window, data, nil, true)
	if err != nil {
		return nil, err
	}
	bare.print("untraced")
	tr := newTracer(w.spanEvery)
	p, err := runPhase(w, seed, window, data, tr, true)
	if err != nil {
		return nil, err
	}
	p.print("traced")
	m := p.layers
	// Client-visible figures of the untraced phase, recorded without a
	// bound: throughput, latency and wall set-up time follow hypervisor CPU
	// steal on a shared VM too closely to gate, and peak RSS grows with
	// throughput (every replica keeps its whole ledger in memory), so a
	// bound on it would reject speed-ups.
	m["process.rss_mb"] = metric{bare.rss, "MB"}
	m["e2e.txn_per_s"] = metric{bare.tput, "txn/s"}
	m["e2e.setup_wall_s"] = metric{bare.setup, "s"}
	m["e2e.p50_ms"] = metric{bare.p50, "ms"}
	m["e2e.p90_ms"] = metric{bare.p90, "ms"}
	m["e2e.p99_ms"] = metric{bare.p99, "ms"}
	m["trace.overhead_txn_per_s_frac"] = metric{p.tput/bare.tput - 1, "ratio"}
	m["trace.overhead_cpu_us_per_txn_frac"] = metric{p.cpuPerTxn/bare.cpuPerTxn - 1, "ratio"}
	m["trace.overhead_p50_frac"] = metric{p.p50/bare.p50 - 1, "ratio"}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Println("## cross-check: counted from outside vs the program's own counter")
	for _, x := range p.xcheck {
		fmt.Printf("%-10s %-40s %10d   %-24s %10d\n", x.name, x.outsideLabel, x.outside, x.programLabel, x.program)
	}
	return &result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: m}, nil
}

// phase is one cluster's life: boot to first commit, warm-up, the measured
// window, drain, and the correctness check.
type phase struct {
	w                 workload
	setup             float64 // wall seconds from boot to the first committed transaction
	setupCPU          float64 // process CPU seconds over the same interval
	attempted, failed int
	samples           int
	tput, p50         float64
	p90, p99          float64
	cpuPerTxn, rss    float64
	steal             float64 // share of the machine's CPU time the hypervisor took during the window
	completions       int
	subTput, subP50   []float64 // per sub-window; the metrics are their medians
	subCPU            []float64
	lateP50, lateP99  float64
	lateMax           float64
	layers            map[string]metric
	xcheck            []xcheck
}

func runPhase(w workload, seed int64, window time.Duration, data string, tr *tracer, full bool) (*phase, error) {
	dir, err := os.MkdirTemp(data, "run-")
	if err != nil {
		return nil, err
	}
	// Start each boot from a collected heap, as a fresh rccnode process
	// would, so one boot does not pay for the previous cluster's garbage.
	goruntime.GC()
	t0, cpuBoot := now(), cpuTime()
	c, err := startCluster(w, dir, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer c.close()
	for i := 0; i < w.sessions; i++ {
		if err := c.startSession(types.ClientID(i+1), seed*1000+int64(i)); err != nil {
			return nil, fmt.Errorf("session %d: %w", i+1, err)
		}
	}
	gen := startGenerator(c)
	defer gen.stop()
	select {
	case <-c.first:
	case <-time.After(firstTimeout):
		return nil, fmt.Errorf("no transaction committed within %v of boot", firstTimeout)
	}
	p := &phase{w: w, setup: float64(now()-t0) / 1e9, setupCPU: (cpuTime() - cpuBoot).Seconds()}
	if !full {
		return p, nil
	}
	time.Sleep(warmup)

	before := c.counters()
	edges, cpus := []int64{now()}, []time.Duration{cpuTime()}
	hostTotal0, steal0 := hostTicks()
	if tr != nil {
		tr.armed.Store(true)
		tr.window.Store(true)
	}
	for k := 1; k <= subWindows; k++ {
		time.Sleep(time.Duration(edges[0] + int64(k)*int64(window)/subWindows - now()))
		edges, cpus = append(edges, now()), append(cpus, cpuTime())
	}
	if tr != nil {
		tr.window.Store(false)
	}
	hostTotal1, steal1 := hostTicks()
	if hostTotal1 > hostTotal0 {
		p.steal = float64(steal1-steal0) / float64(hostTotal1-hostTotal0)
	}
	after := c.counters()
	ws, we := edges[0], edges[subWindows]

	for _, s := range c.sessions {
		s.halt()
	}
	gen.stop()
	drainUntil := time.Now().Add(drainLimit)
	for c.outstanding() > 0 && time.Now().Before(drainUntil) {
		time.Sleep(10 * time.Millisecond)
	}
	for _, s := range c.sessions {
		s.stop()
	}
	if err := c.verify(); err != nil {
		return nil, fmt.Errorf("correctness check failed: %w", err)
	}

	subs := p.account(c, edges)
	for k, sub := range subs {
		if sub.completions == 0 || math.IsInf(quantile(sub.lats, 0.5), 1) {
			return nil, fmt.Errorf("no request completed in sub-window %d of the measured window", k)
		}
		p.subTput = append(p.subTput, float64(sub.completions)/(float64(edges[k+1]-edges[k])/1e9))
		p.subP50 = append(p.subP50, quantile(sub.lats, 0.5))
		p.subCPU = append(p.subCPU, float64(cpus[k+1]-cpus[k])/1e3/float64(sub.completions))
	}
	p.tput, p.cpuPerTxn = median(p.subTput), median(p.subCPU)
	p.p50 = median(p.subP50)
	// The tail needs the whole window's sample: a sub-window holds too few
	// requests beyond its 99th percentile.
	var all []float64
	for _, sub := range subs {
		all = append(all, sub.lats...)
	}
	sort.Float64s(all)
	p.p90, p.p99 = quantile(all, 0.90), quantile(all, 0.99)
	p.rss = peakRSSMB()
	p.lateP50, p.lateP99, p.lateMax = gen.lateness(ws, we)
	// A stall of the whole process delays the generator too; latency from
	// the due time already charges it to the system. The generator itself
	// fell behind when it runs late most of the time.
	if w.rate > 0 && p.lateP50 > 1e3/w.rate {
		return nil, fmt.Errorf("run invalid: the open-loop generator fell behind (median lateness %.3f ms > one %.3f ms interval)",
			p.lateP50, 1e3/w.rate)
	}
	if tr != nil {
		p.layers = tr.report(c, p, before, after)
	}
	return p, nil
}

// subWindow is one slice of the measured window: the requests completed
// inside it and the latencies of the requests issued inside it, sorted.
type subWindow struct {
	completions int
	lats        []float64
}

// account splits the measured window at edges into sub-windows and counts
// the run's failures. A request belongs to the sub-window it was issued in:
// closed loop from when it was sent, open loop from when it was due. One
// that never completed enters its sample as +Inf.
func (p *phase) account(c *cluster, edges []int64) []subWindow {
	subs := make([]subWindow, len(edges)-1)
	in := func(t int64) int {
		k := sort.Search(len(edges), func(i int) bool { return edges[i] > t }) - 1
		if k < 0 || k >= len(subs) {
			return -1
		}
		return k
	}
	for _, s := range c.sessions {
		s.mu.Lock()
		for i, st := range s.start {
			done := s.done[i]
			p.attempted++
			if done == 0 || time.Duration(done-st) > deadline {
				p.failed++
			}
			if k := in(done); done != 0 && k >= 0 {
				subs[k].completions++
				p.completions++
			}
			k := in(st)
			if k < 0 {
				continue
			}
			p.samples++
			if done == 0 {
				subs[k].lats = append(subs[k].lats, math.Inf(1))
			} else {
				subs[k].lats = append(subs[k].lats, float64(done-st)/1e6)
			}
		}
		s.mu.Unlock()
	}
	for _, sub := range subs {
		sort.Float64s(sub.lats)
	}
	return subs
}

// endToEnd returns the bounded end-to-end metrics: the ones measured in
// process CPU time, which hold steady under hypervisor steal. Throughput
// and latency are printed with them and recorded by traced runs.
func (p *phase) endToEnd() map[string]metric {
	return map[string]metric{"cpu_us_per_txn": {p.cpuPerTxn, "us"}}
}

func (p *phase) print(label string) {
	fmt.Printf("## %s\n", label)
	fmt.Printf("%-28s %12.4f txn/s  (%d completions in window; sub-windows %.4g)\n", "txn_per_s", p.tput, p.completions, p.subTput)
	fmt.Printf("%-28s %12.4f ms     (n=%d; sub-windows %.4g)\n", "p50_ms", p.p50, p.samples, p.subP50)
	fmt.Printf("%-28s %12.4f ms     (n=%d, whole window)\n", "p90_ms", p.p90, p.samples)
	fmt.Printf("%-28s %12.4f ms     (n=%d, whole window)\n", "p99_ms", p.p99, p.samples)
	fmt.Printf("%-28s %12.6f ratio  (%d of %d attempted: late past %v or outstanding after drain)\n",
		"fail_frac", float64(p.failed)/float64(p.attempted), p.failed, p.attempted, deadline)
	fmt.Printf("%-28s %12.4f us     (sub-windows %.4g)\n", "cpu_us_per_txn", p.cpuPerTxn, p.subCPU)
	fmt.Printf("%-28s %12.4f MB     (peak, whole process)\n", "rss_mb", p.rss)
	fmt.Printf("%-28s %12.4f ratio  (CPU time the hypervisor took from this machine in the window)\n", "host_steal", p.steal)
	fmt.Printf("%-28s %12.4f s      (wall; process CPU %.4f s)\n", "setup (this boot)", p.setup, p.setupCPU)
	if p.w.rate > 0 {
		fmt.Printf("%-28s %12.4f ms\n%-28s %12.4f ms\n%-28s %12.4f ms\n",
			"loadgen.late_p50_ms", p.lateP50, "loadgen.late_p99_ms", p.lateP99, "loadgen.late_max_ms", p.lateMax)
	}
}

// outstanding is the number of issued requests not yet completed.
func (c *cluster) outstanding() int {
	n := 0
	for _, s := range c.sessions {
		n += s.outstanding()
	}
	return n
}

// generator issues open-loop requests on a fixed schedule, round-robin over
// the sessions, and records how late it ran. It is a no-op for closed-loop
// workloads.
type generator struct {
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	due  []int64 // written by the generator goroutine, read after stop
	late []int64
}

func startGenerator(c *cluster) *generator {
	g := &generator{quit: make(chan struct{})}
	if c.w.rate == 0 {
		return g
	}
	interval := int64(float64(time.Second) / c.w.rate)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		start := now()
		for k := int64(0); ; k++ {
			due := start + k*interval
			if d := due - now(); d > 0 {
				timer.Reset(time.Duration(d))
				select {
				case <-timer.C:
				case <-g.quit:
					return
				}
			}
			g.due = append(g.due, due)
			g.late = append(g.late, now()-due)
			if !c.sessions[k%int64(len(c.sessions))].submitDue(due) {
				return
			}
		}
	}()
	return g
}

func (g *generator) stop() {
	g.once.Do(func() { close(g.quit) })
	g.wg.Wait()
}

// lateness returns the median, p99 and maximum of how late (ms) the
// generator issued the requests due inside [ws, we). Call after stop.
func (g *generator) lateness(ws, we int64) (p50, p99, max float64) {
	var v []float64
	for i, due := range g.due {
		if due >= ws && due < we {
			v = append(v, float64(g.late[i])/1e6)
		}
	}
	if len(v) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(v)
	return quantile(v, 0.5), quantile(v, 0.99), v[len(v)-1]
}
