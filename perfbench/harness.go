package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one closed-loop benchmark workload: one client, one
// simulation at a time, ops of one kind.
type workload interface {
	// setup runs one set-up round — everything before the timed phase,
	// checked warm-up ops included. A later round first calls teardown.
	setup(b *bench) error
	// teardown releases the world the last setup round kept.
	teardown(b *bench)
	// op runs one timed op.
	op(b *bench)
	// check verifies the op just run and returns its modelled counts.
	// It runs outside the op's timing and allocates nothing the
	// runtime metrics would charge to the op.
	check(b *bench) (counts, error)
	// phaseEnd returns the counts a workload reads once per timed phase
	// rather than per op, given the sum of the phase's per-op counts,
	// and fails the phase if they break an invariant.
	phaseEnd(b *bench, phase counts) (counts, error)
}

// counts are the modelled (virtual-system) quantities of one op. They
// are deterministic: they serve as checks and as denominators, never
// as performance figures.
type counts struct {
	Frames, WireBytes, VirtualNs                int64
	EagerSent, Pulls, IOATSubmits, CollFrames   int64
	RegHits, RegMisses                          int64
	Retransmits, DupFrags, WireDrops, RingDrops int64
}

func (c *counts) add(o counts) {
	c.Frames += o.Frames
	c.WireBytes += o.WireBytes
	c.VirtualNs += o.VirtualNs
	c.EagerSent += o.EagerSent
	c.Pulls += o.Pulls
	c.IOATSubmits += o.IOATSubmits
	c.CollFrames += o.CollFrames
	c.RegHits += o.RegHits
	c.RegMisses += o.RegMisses
	c.Retransmits += o.Retransmits
	c.DupFrags += o.DupFrags
	c.WireDrops += o.WireDrops
	c.RingDrops += o.RingDrops
}

func (c counts) sub(o counts) counts {
	o.Frames = c.Frames - o.Frames
	o.WireBytes = c.WireBytes - o.WireBytes
	o.VirtualNs = c.VirtualNs - o.VirtualNs
	o.EagerSent = c.EagerSent - o.EagerSent
	o.Pulls = c.Pulls - o.Pulls
	o.IOATSubmits = c.IOATSubmits - o.IOATSubmits
	o.CollFrames = c.CollFrames - o.CollFrames
	o.RegHits = c.RegHits - o.RegHits
	o.RegMisses = c.RegMisses - o.RegMisses
	o.Retransmits = c.Retransmits - o.Retransmits
	o.DupFrags = c.DupFrags - o.DupFrags
	o.WireDrops = c.WireDrops - o.WireDrops
	o.RingDrops = c.RingDrops - o.RingDrops
	return o
}

// faults reports the loss and recovery counters that must stay zero
// on the benchmark's perfect links.
func (c counts) faults() error {
	if c.Retransmits != 0 || c.DupFrags != 0 || c.WireDrops != 0 || c.RingDrops != 0 {
		return fmt.Errorf("faults on perfect links: %d retransmits, %d dup frags, %d wire drops, %d ring drops",
			c.Retransmits, c.DupFrags, c.WireDrops, c.RingDrops)
	}
	return nil
}

// bench is the state of one run: op tallies and, when traced, the
// per-layer call timings.
type bench struct {
	traced    bool
	attempted int
	failed    int
	errors    []string
	spans     map[string]*hist
}

// maxErrors bounds the failure messages a report keeps.
const maxErrors = 8

// tally counts one attempted op and whether its checks failed.
func (b *bench) tally(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errors) < maxErrors {
			b.errors = append(b.errors, err.Error())
		}
	}
}

// clock starts timing a call into a layer. Untraced runs read no
// clock below the op, so it returns the zero Time.
func (b *bench) clock() time.Time {
	if !b.traced {
		return time.Time{}
	}
	return time.Now()
}

// elapsed is the host time since t0 when traced, else 0.
func (b *bench) elapsed(t0 time.Time) time.Duration {
	if !b.traced {
		return 0
	}
	return time.Since(t0)
}

// record adds one sample to a per-layer span metric.
func (b *bench) record(name string, d time.Duration) {
	if !b.traced {
		return
	}
	h := b.spans[name]
	if h == nil {
		h = newHist()
		b.spans[name] = h
	}
	h.add(d)
}

// since records the host time since t0 under name.
func (b *bench) since(name string, t0 time.Time) { b.record(name, b.elapsed(t0)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one perfbench process prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Env       map[string]string `json:"env"`
	Metrics   map[string]metric `json:"metrics"`
	// Windows holds each windowed end-to-end metric, one value per
	// window of the timed phase; run.py pools them over the processes
	// of a run.
	Windows map[string]windowed `json:"windows,omitempty"`
}

// windowed is one end-to-end metric's values over the windows of the
// timed phase.
type windowed struct {
	Values []float64 `json:"values"`
	Unit   string    `json:"unit"`
}

// spanMetrics are the per-layer call timings, with the unit each is
// reported in.
var spanMetrics = []struct {
	name, unit string
	scale      time.Duration
}{
	{"openmx.isend_us", "us", time.Microsecond},
	{"openmx.irecv_us", "us", time.Microsecond},
	{"openmx.wait_us", "us", time.Microsecond},
	{"cluster.build_ms", "ms", time.Millisecond},
	{"cluster.close_ms", "ms", time.Millisecond},
	{"cluster.alloc_ms", "ms", time.Millisecond},
	{"cluster.fill_ms", "ms", time.Millisecond},
	{"mxoe.attach_ms", "ms", time.Millisecond},
	{"mxoe.open_ms", "ms", time.Millisecond},
	{"imb.run_ms", "ms", time.Millisecond},
}

// setupRounds is how many set-up rounds a run makes; setup_s is their
// median.
const setupRounds = 15

// phaseWindows is how many equal slices of host time the timed phase
// is cut into. Each window yields its own ops_per_s, cpu_ms_per_op,
// op_p50_ms and op_p90_ms. Other processes on the machine slow some
// windows down and leave others alone, so a statistic taken over the
// quiet windows repeats from run to run where a mean over the phase
// would not.
const phaseWindows = 20

// run measures one workload: set-up rounds, then a timed phase of ops
// for the given host time, then the leak probes.
func run(w workload, traced bool, phase time.Duration) report {
	b := &bench{traced: traced, spans: map[string]*hist{}}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	baseGoroutines := runtime.NumGoroutine()

	// Set-up rounds. A failed round fails the run: there is no world
	// to time.
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			w.teardown(b)
		}
		t0 := time.Now()
		err := w.setup(b)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			b.tally(fmt.Errorf("setup: %w", err))
			return b.report(nil)
		}
	}

	// Timed phase: only the op is inside the clock; its checks run
	// outside it. The CPU clock is read only at window boundaries, and
	// the harness's own time in the window (checks, bookkeeping) is
	// taken off the window's CPU. What the harness itself needs is
	// allocated before the runtime counters are read.
	var (
		lat         = newHist()
		opTime      time.Duration
		total       counts
		first       counts
		timedOps    int
		timedFailed int
		// The current window's start in host and CPU time, ops, op
		// time and op latencies, and each closed window's metrics.
		winStart      time.Time
		winCPU        time.Duration
		winOps        int
		winT          time.Duration
		rates         = make([]float64, 0, phaseWindows+1)
		cpus          = make([]float64, 0, phaseWindows+1)
		p50s          = make([]float64, 0, phaseWindows+1)
		p90s          = make([]float64, 0, phaseWindows+1)
		before, after runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	start := time.Now()
	winStart, winCPU = start, cpuNow()
	for elapsed := time.Duration(0); elapsed < phase; elapsed = time.Since(start) {
		t0 := time.Now()
		w.op(b)
		dt := time.Since(t0)
		winT += dt
		winOps++
		opTime += dt
		lat.add(dt)
		c, err := w.check(b)
		if err == nil && timedOps > 0 && c != first {
			err = fmt.Errorf("modelled counts %+v differ from the first timed op's %+v", c, first)
		}
		if timedOps == 0 {
			first = c
		}
		if err != nil {
			timedFailed++
		}
		b.tally(err)
		total.add(c)
		timedOps++
		if time.Since(start) >= phase*time.Duration(len(rates)+1)/phaseWindows {
			t, cpu := time.Now(), cpuNow()
			harness := t.Sub(winStart) - winT
			rates = append(rates, float64(winOps)/winT.Seconds())
			cpus = append(cpus, float64(cpu-winCPU-harness)/float64(time.Millisecond)/float64(winOps))
			p50s = append(p50s, lat.quantile(0.5, time.Millisecond))
			p90s = append(p90s, lat.quantile(0.9, time.Millisecond))
			lat.reset()
			winStart, winCPU, winOps, winT = t, cpu, 0, 0
		}
	}
	runtime.ReadMemStats(&after)
	extra, err := w.phaseEnd(b, total)
	total.add(extra)
	if err != nil {
		// The phase-level counts cannot say which op broke the
		// invariant, so every timed op fails.
		b.failed += timedOps - timedFailed
		b.errors = append(b.errors, err.Error())
	}
	w.teardown(b)

	// Every timed op's counts equal the first's (checked above), so the
	// first op gives the per-op model counts exactly; phase-level counts
	// are spread over the ops.
	ops := float64(timedOps)
	m := map[string]metric{
		"setup_s": {median(setups), "s"},

		"runtime.alloc_mb_per_op":    {float64(after.TotalAlloc-before.TotalAlloc) / mib / ops, "MiB"},
		"runtime.mallocs_per_op":     {float64(after.Mallocs-before.Mallocs) / ops, "count"},
		"runtime.gc_cycles_per_op":   {float64(after.NumGC-before.NumGC) / ops, "count"},
		"runtime.gc_pause_ms_per_op": {float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / ops, "ms"},

		"sim.host_ns_per_frame": {float64(opTime.Nanoseconds()) / float64(total.Frames), "ns"},

		"model.frames_per_op":       {float64(first.Frames), "count"},
		"model.wire_bytes_per_op":   {float64(first.WireBytes) + float64(extra.WireBytes)/ops, "B"},
		"model.virtual_us_per_op":   {float64(first.VirtualNs) / 1e3, "us"},
		"model.eager_sent_per_op":   {float64(first.EagerSent), "count"},
		"model.pulls_per_op":        {float64(first.Pulls), "count"},
		"model.ioat_submits_per_op": {float64(first.IOATSubmits), "count"},
		"model.coll_frames_per_op":  {float64(first.CollFrames), "count"},
		"model.reg_hit_ratio":       {ratio(first.RegHits, first.RegHits+first.RegMisses), "ratio"},
		"model.retransmits":         {float64(total.Retransmits), "count"},
	}
	if traced {
		for _, s := range spanMetrics {
			m[s.name] = metric{b.spans[s.name].quantile(0.5, s.scale), s.unit}
		}
	}

	// Leak probes: every world is closed now.
	runtime.GC()
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m["runtime.heap_retained_mb"] = metric{(float64(end.HeapAlloc) - float64(base.HeapAlloc)) / mib, "MiB"}
	m["runtime.goroutines_leaked"] = metric{float64(settledGoroutines(baseGoroutines) - baseGoroutines), "count"}
	m["peak_rss_mb"] = metric{peakRSS(), "MiB"}
	rep := b.report(m)
	rep.Windows = map[string]windowed{
		"ops_per_s":     {rates, "1/s"},
		"cpu_ms_per_op": {cpus, "ms"},
		"op_p50_ms":     {p50s, "ms"},
		"op_p90_ms":     {p90s, "ms"},
	}
	return rep
}

// mib is one mebibyte.
const mib = 1 << 20

// report assembles the process's report; metrics is nil when set-up
// failed.
func (b *bench) report(metrics map[string]metric) report {
	return report{
		Correct:   b.failed == 0 && metrics != nil,
		Attempted: b.attempted,
		Failed:    b.failed,
		Errors:    b.errors,
		Env: map[string]string{
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"nproc":      strconv.Itoa(runtime.NumCPU()),
			"go_version": runtime.Version(),
		},
		Metrics: metrics,
	}
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		log.Fatalf("perfbench: getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads VmHWM, the process's resident-set high-water mark, in
// MiB.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		log.Fatalf("perfbench: reading VmHWM: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				log.Fatalf("perfbench: parsing VmHWM %q: %v", rest, err)
			}
			return kb / 1024
		}
	}
	log.Fatal("perfbench: VmHWM missing from /proc/self/status")
	return 0
}

// settledGoroutines waits briefly for goroutines unwound by Close to
// finish exiting, then counts the live ones.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// median of the samples; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
