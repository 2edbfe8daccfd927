package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omxsim/sim"
)

// TestWorkerPoolSizing: a pool caps concurrency at Workers, defaults
// to GOMAXPROCS, and never spawns more workers than jobs.
func TestWorkerPoolSizing(t *testing.T) {
	if w := New(Options{}).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers = %d, want GOMAXPROCS = %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(Options{Workers: -3}).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("workers(-3) = %d, want GOMAXPROCS", w)
	}

	const workers, jobs = 3, 24
	p := New(Options{Workers: workers})
	var cur, peak atomic.Int32
	js := make([]Job, jobs)
	for i := range js {
		js[i] = Job{Label: "j", Run: func() (any, error) {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}}
	}
	p.Run(js...)
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent jobs, pool capped at %d", got, workers)
	}
}

// TestNestedRunBounded: jobs that Run nested sweeps on the same pool
// stay within the pool-global bound (no Workers² blow-up) and never
// deadlock, because every Run caller works jobs itself.
func TestNestedRunBounded(t *testing.T) {
	const workers = 4
	p := New(Options{Workers: workers})
	var cur, peak atomic.Int32
	leaf := Job{Label: "leaf", Run: func() (any, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil, nil
	}}
	outer := make([]Job, 6)
	for i := range outer {
		outer[i] = Job{Label: "outer", Run: func() (any, error) {
			inner := make([]Job, 6)
			for j := range inner {
				inner[j] = leaf
			}
			return nil, FirstErr(p.Run(inner...))
		}}
	}
	if err := FirstErr(p.Run(outer...)); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("nested sweeps reached %d concurrent jobs, pool bound is %d", got, workers)
	}
}

// TestDeterministicOrdering: results come back indexed by job
// position regardless of completion order.
func TestDeterministicOrdering(t *testing.T) {
	p := New(Options{Workers: 8})
	const n = 40
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprint(i), Run: func() (any, error) {
			// Reverse-staggered sleeps so late jobs finish first.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return i * i, nil
		}}
	}
	for trial := 0; trial < 3; trial++ {
		rs := p.Run(jobs...)
		for i, r := range rs {
			if r.Index != i || r.Value.(int) != i*i {
				t.Fatalf("trial %d: result %d = {Index:%d Value:%v}, want {%d %d}",
					trial, i, r.Index, r.Value, i, i*i)
			}
		}
	}
}

// TestCacheHitMiss: a repeated key runs once; distinct keys run
// separately; keyless jobs never cache.
func TestCacheHitMiss(t *testing.T) {
	cache := NewCache()
	p := New(Options{Workers: 4, Cache: cache})
	var calls atomic.Int32
	job := func(key string) Job {
		return Job{Label: key, Key: key, Run: func() (any, error) {
			calls.Add(1)
			return "v:" + key, nil
		}}
	}
	rs := p.Run(job("a"), job("a"), job("b"), job("a"))
	if got := calls.Load(); got != 2 {
		t.Errorf("functions ran %d times, want 2 (keys a and b)", got)
	}
	var cached int
	for _, r := range rs {
		if r.Value.(string) != "v:"+r.Label {
			t.Errorf("job %q got %v", r.Label, r.Value)
		}
		if r.Cached {
			cached++
		}
	}
	if cached != 2 {
		t.Errorf("%d results cached, want 2", cached)
	}
	hits, misses := cache.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 2/2", hits, misses)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d keys, want 2", cache.Len())
	}

	// A later sweep reusing a key is a pure hit.
	rs = p.Run(job("b"))
	if !rs[0].Cached || calls.Load() != 2 {
		t.Errorf("second sweep recomputed key b (cached=%v calls=%d)", rs[0].Cached, calls.Load())
	}

	// Keyless jobs always run.
	calls.Store(0)
	nk := Job{Label: "nk", Run: func() (any, error) { calls.Add(1); return nil, nil }}
	p.Run(nk, nk)
	if calls.Load() != 2 {
		t.Errorf("keyless jobs ran %d times, want 2", calls.Load())
	}
}

// TestCacheSingleFlight: concurrent jobs with the same key coalesce
// onto one execution instead of racing.
func TestCacheSingleFlight(t *testing.T) {
	p := New(Options{Workers: 8, Cache: NewCache()})
	var calls atomic.Int32
	release := make(chan struct{})
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Label: "same", Key: "same", Run: func() (any, error) {
			calls.Add(1)
			<-release // hold the computation so every worker piles onto the key
			return 42, nil
		}}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var rs []Result
	go func() { defer wg.Done(); rs = p.Run(jobs...) }()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("computation ran %d times under contention, want 1", calls.Load())
	}
	for _, r := range rs {
		if r.Err != nil || r.Value.(int) != 42 {
			t.Errorf("coalesced result = %+v", r)
		}
	}
}

// TestPanicCapture: a panicking job becomes a *PanicError on its own
// result; sibling jobs still complete.
func TestPanicCapture(t *testing.T) {
	p := New(Options{Workers: 2})
	rs := p.Run(
		Job{Label: "ok1", Run: func() (any, error) { return 1, nil }},
		Job{Label: "boom", Run: func() (any, error) { panic("testbed deadlocked") }},
		Job{Label: "ok2", Run: func() (any, error) { return 2, nil }},
	)
	if rs[0].Err != nil || rs[0].Value.(int) != 1 || rs[2].Err != nil || rs[2].Value.(int) != 2 {
		t.Fatalf("sibling jobs disturbed by panic: %+v", rs)
	}
	var pe *PanicError
	if !errors.As(rs[1].Err, &pe) {
		t.Fatalf("panic surfaced as %T (%v), want *PanicError", rs[1].Err, rs[1].Err)
	}
	if pe.Label != "boom" || pe.Value != "testbed deadlocked" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {Label:%q Value:%v stack:%d bytes}", pe.Label, pe.Value, len(pe.Stack))
	}
	if err := FirstErr(rs); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("FirstErr = %v, want the boom job's error", err)
	}
	// Values panics on sweep errors (the figure-generator contract).
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Values did not panic on an errored sweep")
			}
		}()
		Values[int](rs)
	}()
}

// TestKeyCanonical: equal parts hash equal, different parts differ,
// and part boundaries matter.
func TestKeyCanonical(t *testing.T) {
	type cfg struct {
		IOAT bool
		Frag int
	}
	a := Key("imb", cfg{IOAT: true, Frag: 1024}, 2)
	b := Key("imb", cfg{IOAT: true, Frag: 1024}, 2)
	if a != b {
		t.Errorf("identical parts hashed differently: %s vs %s", a, b)
	}
	if a == Key("imb", cfg{IOAT: false, Frag: 1024}, 2) {
		t.Errorf("configs differing in one field collided")
	}
	if Key("ab", "c") == Key("a", "bc") {
		t.Errorf("part boundaries not separated")
	}
}

// TestProgress: the callback sees every completion in Done order,
// the final snapshot has no ETA, and cache hits don't drag the ETA
// estimate toward zero.
func TestProgress(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	p := New(Options{Workers: 4, Cache: NewCache(), Progress: func(pr Progress) {
		mu.Lock()
		snaps = append(snaps, pr)
		mu.Unlock()
	}})
	items := []int{5, 3, 8, 1, 9, 2}
	jobs := make([]Job, len(items))
	for i, it := range items {
		jobs[i] = Job{
			Label: fmt.Sprintf("sq/%d", it),
			Key:   Key("sq", it),
			Run:   func() (any, error) { time.Sleep(time.Millisecond); return it * it, nil },
		}
	}
	for i, v := range Values[int](p.Run(jobs...)) {
		if v != items[i]*items[i] {
			t.Errorf("out[%d] = %d, want %d", i, v, items[i]*items[i])
		}
	}
	if len(snaps) != len(items) {
		t.Fatalf("progress fired %d times, want %d", len(snaps), len(items))
	}
	for i, s := range snaps {
		if s.Done != i+1 || s.Total != len(items) {
			t.Errorf("snapshot %d = %d/%d, want %d/%d", i, s.Done, s.Total, i+1, len(items))
		}
	}
	if last := snaps[len(snaps)-1]; last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}

	// A sweep that is all cache hits except one slow real job must
	// not report a near-zero ETA off the instant hits: pace comes
	// from uncached completions only.
	snaps = nil
	var slow []Job
	for i := 0; i < 5; i++ {
		slow = append(slow, jobs[0]) // cache hits
	}
	slow = append(slow, Job{Label: "real", Key: Key("real"), Run: func() (any, error) {
		time.Sleep(20 * time.Millisecond)
		return 0, nil
	}})
	p.Run(slow...)
	for _, s := range snaps {
		if s.Done < s.Total && s.Cached == s.Done && s.ETA != 0 {
			t.Errorf("ETA %v estimated from cache hits alone", s.ETA)
		}
	}
}

// TestETAUnknownOnCachedPrefix: while every completion so far was a
// cache hit and uncached jobs are still pending, the snapshot must
// say "ETA unknown" (ETAKnown=false, zero ETA) instead of the
// misleading "ETA 0 = done now"; the first real completion and the
// final snapshot flip ETAKnown back on.
func TestETAUnknownOnCachedPrefix(t *testing.T) {
	var s progressState
	s.init(3)

	snap := s.step(Result{Cached: true, Label: "hit"})
	if snap.ETAKnown || snap.ETA != 0 {
		t.Errorf("all-cached prefix: ETAKnown=%v ETA=%v, want unknown with zero ETA",
			snap.ETAKnown, snap.ETA)
	}
	var buf strings.Builder
	WriterProgress(&buf)(snap)
	if !strings.Contains(buf.String(), "--:--") {
		t.Errorf("unknown ETA rendered as %q, want it to contain --:--", buf.String())
	}

	snap = s.step(Result{Label: "real"})
	if !snap.ETAKnown {
		t.Errorf("after an uncached completion ETAKnown=false, want pace-based estimate")
	}

	snap = s.step(Result{Cached: true, Label: "hit"})
	if !snap.ETAKnown || snap.ETA != 0 {
		t.Errorf("final snapshot: ETAKnown=%v ETA=%v, want known zero (done)", snap.ETAKnown, snap.ETA)
	}

	// A run that completes entirely from the cache was never
	// "unknown" at its end: done == total is exact.
	var all progressState
	all.init(1)
	if snap = all.step(Result{Cached: true}); !snap.ETAKnown || snap.ETA != 0 {
		t.Errorf("fully cached run final snapshot: ETAKnown=%v ETA=%v, want known zero",
			snap.ETAKnown, snap.ETA)
	}
}

// TestValuesErr: the error-returning unwrap fails cleanly — on job
// errors and on a value type mismatch — where Values would panic.
func TestValuesErr(t *testing.T) {
	p := New(Options{Workers: 2})

	rs := p.Run(
		Job{Label: "a", Run: func() (any, error) { return 1, nil }},
		Job{Label: "b", Run: func() (any, error) { return 2, nil }},
	)
	vals, err := ValuesErr[int](rs)
	if err != nil || len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("ValuesErr = %v, %v, want [1 2]", vals, err)
	}

	// A job error comes back as an error, labelled with the job.
	rs = p.Run(Job{Label: "bad", Run: func() (any, error) { return nil, errors.New("boom") }})
	if _, err = ValuesErr[int](rs); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("errored sweep: err = %v, want it to name job bad", err)
	}

	// A captured panic is an error too, not a daemon-killer.
	rs = p.Run(Job{Label: "panics", Run: func() (any, error) { panic("deadlock") }})
	if _, err = ValuesErr[int](rs); err == nil {
		t.Errorf("panicking sweep: err = nil, want captured *PanicError")
	}

	// A type-assert mismatch fails cleanly instead of panicking.
	rs = p.Run(Job{Label: "str", Run: func() (any, error) { return "not an int", nil }})
	if _, err = ValuesErr[int](rs); err == nil || !strings.Contains(err.Error(), "string") {
		t.Errorf("mismatched value type: err = %v, want a type error naming string", err)
	}
}

// TestRunWithProgress: the per-Run sink sees every completion of its
// own Run — independent of (and in addition to) the pool-wide
// callback.
func TestRunWithProgress(t *testing.T) {
	var mu sync.Mutex
	var poolSnaps, sinkSnaps []Progress
	p := New(Options{Workers: 2, Progress: func(pr Progress) {
		mu.Lock()
		poolSnaps = append(poolSnaps, pr)
		mu.Unlock()
	}})
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{Label: fmt.Sprint(i), Run: func() (any, error) { return i, nil }}
	}
	p.RunWithProgress(func(pr Progress) {
		// The pool serializes callbacks; no locking needed here.
		sinkSnaps = append(sinkSnaps, pr)
	}, jobs...)
	if len(sinkSnaps) != len(jobs) {
		t.Fatalf("sink saw %d snapshots, want %d", len(sinkSnaps), len(jobs))
	}
	for i, s := range sinkSnaps {
		if s.Done != i+1 || s.Total != len(jobs) {
			t.Errorf("sink snapshot %d = %d/%d, want %d/%d", i, s.Done, s.Total, i+1, len(jobs))
		}
	}
	mu.Lock()
	if len(poolSnaps) != len(jobs) {
		t.Errorf("pool-wide callback saw %d snapshots, want %d (sink must not replace it)",
			len(poolSnaps), len(jobs))
	}
	mu.Unlock()

	// A nil sink is exactly Run.
	if rs := p.RunWithProgress(nil, jobs...); len(rs) != len(jobs) {
		t.Errorf("nil-sink run returned %d results, want %d", len(rs), len(jobs))
	}
}

// TestProcPanicFailsJobOnly: a panic inside a simulated process
// reaches the engine's caller (see sim.ProcPanic), so the runner
// captures it as that job's error instead of the process crashing,
// and the other jobs of the sweep still finish.
func TestProcPanicFailsJobOnly(t *testing.T) {
	sweep := func(panics bool) Job {
		return Job{Label: fmt.Sprintf("panics=%v", panics), Run: func() (any, error) {
			e := sim.New()
			defer e.Close()
			e.Go("rank", func(p *sim.Proc) {
				p.Sleep(10)
				if panics {
					panic("model bug")
				}
			})
			e.Run()
			return e.Now(), nil
		}}
	}
	res := New(Options{Workers: 2}).Run(sweep(false), sweep(true), sweep(false))
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || res[i].Value != sim.Time(10) {
			t.Errorf("job %d: value %v, err %v; want 10ns, nil", i, res[i].Value, res[i].Err)
		}
	}
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("job 1 err = %v, want a *PanicError", res[1].Err)
	}
	pp, ok := pe.Value.(*sim.ProcPanic)
	if !ok || pp.Value != "model bug" {
		t.Fatalf("captured panic %#v, want a *sim.ProcPanic of \"model bug\"", pe.Value)
	}
}
