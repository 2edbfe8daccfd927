package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Tests for the calendar-queue event core: the wheel/far-heap split,
// the event pool and generation counters, daemon accounting, and the
// zero-allocation steady state the -benchmem CI gate enforces.

func TestFarFutureOrdering(t *testing.T) {
	// Delays far beyond the wheel horizon land in the far heap and
	// must still interleave correctly with near events as the base
	// advances across many horizons.
	e := New()
	var fired []Time
	delays := []Duration{
		5, wheelHorizon - 1, wheelHorizon, wheelHorizon + 1,
		3 * wheelHorizon, 10*wheelHorizon + 17, 2, wheelHorizon / 2,
	}
	for _, d := range delays {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(fired), len(delays))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order: %v", fired)
		}
	}
	if e.Now() != Time(10*wheelHorizon+17) {
		t.Fatalf("Now = %v, want %v", e.Now(), Time(10*wheelHorizon+17))
	}
}

func TestFarFutureSameInstantKeepsSeqOrder(t *testing.T) {
	// Two events at the same far-future instant must fire in
	// scheduling order even after migrating heap → wheel.
	e := New()
	var got []int
	at := 7*wheelHorizon + 3
	for i := 0; i < 10; i++ {
		e.Schedule(at, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant far events fired out of order: %v", got)
		}
	}
}

func TestFarFutureCancel(t *testing.T) {
	e := New()
	ran := false
	tm := e.Schedule(4*wheelHorizon, func() { ran = true })
	e.Schedule(5*wheelHorizon, func() {})
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending far event")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled far event ran")
	}
}

func TestRunUntilAcrossHorizons(t *testing.T) {
	// RunUntil must stop short of a far-heap event and resume it later.
	e := New()
	fired := false
	e.Schedule(3*wheelHorizon, func() { fired = true })
	e.RunUntil(Time(wheelHorizon))
	if fired {
		t.Fatal("far event fired before its time")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(Time(4 * wheelHorizon))
	if !fired {
		t.Fatal("far event never fired")
	}
}

func TestTimerStaleAfterFire(t *testing.T) {
	// A Timer handle goes stale once its event fires; the pooled event
	// slot may be reused, and the generation counter must keep the old
	// handle inert.
	e := New()
	tm := e.Schedule(1, func() {})
	e.Run()
	if tm.Pending() {
		t.Fatal("Pending true after fire")
	}
	if tm.Stop() {
		t.Fatal("Stop returned true after fire")
	}
	// Reuse the pooled slot for a new event, then poke the stale
	// handle: the new event must be unaffected.
	ran := false
	e.Schedule(1, func() { ran = true })
	if tm.Stop() || tm.Pending() {
		t.Fatal("stale handle touched a recycled event")
	}
	e.Run()
	if !ran {
		t.Fatal("recycled event did not run")
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Pending() || tm.Stop() {
		t.Fatal("zero Timer is not inert")
	}
}

func TestGoDaemon(t *testing.T) {
	// A daemon proc blocked forever must not count as a deadlock.
	e := New()
	s := NewSignal()
	served := 0
	e.GoDaemon("server", func(p *Proc) {
		for {
			s.Wait(p)
			served++
		}
	})
	e.Go("client", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast()
		p.Sleep(10)
		s.Broadcast()
	})
	if e.Daemons() != 1 {
		t.Fatalf("Daemons = %d, want 1", e.Daemons())
	}
	if n := e.Run(); n != 0 {
		t.Fatalf("Run = %d, want 0 (daemon must not count)", n)
	}
	if served != 2 {
		t.Fatalf("served = %d, want 2", served)
	}
	e.Close()
	if e.Daemons() != 0 {
		t.Fatalf("Daemons after Close = %d, want 0", e.Daemons())
	}
}

func TestDaemonExitDecrements(t *testing.T) {
	e := New()
	e.GoDaemon("once", func(p *Proc) { p.Sleep(5) })
	e.Run()
	if e.Daemons() != 0 {
		t.Fatalf("Daemons = %d after daemon exit, want 0", e.Daemons())
	}
}

// Property: random batches mixing near, far and cancelled events fire
// exactly the live ones in (time, seq) order.
func TestPropertyCalendarOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%200) + 1
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		var timers []Timer
		for i := 0; i < count; i++ {
			// Mix bucket-scale and multi-horizon delays.
			var d Duration
			if rng.Intn(3) == 0 {
				d = Duration(rng.Int63n(int64(20 * wheelHorizon)))
			} else {
				d = Duration(rng.Int63n(int64(4 * bucketWidth)))
			}
			timers = append(timers, e.Schedule(d, func() {
				fired = append(fired, rec{e.Now(), i})
			}))
		}
		cancelled := 0
		for i := 0; i < count; i += 7 {
			if timers[i].Stop() {
				cancelled++
			}
		}
		e.Run()
		if len(fired) != count-cancelled {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSteadyStateZeroAlloc is the alloc gate's test form: once
// the event pool and the wheel buckets are warm (one full rotation of
// the wheel at the churn's density), a schedule/fire churn must not
// allocate. The CI benchmark gate enforces the same bound on the
// benchmarks below via -benchmem.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	fn := func() {}
	churn := func() {
		for i := 0; i < 256; i++ {
			e.Schedule(Duration(i%97), fn)
		}
		e.Run()
	}
	// Warm-up: each churn advances the clock ~96 ns, so ~3000 rounds
	// sweep the full 262 µs wheel horizon and size every bucket slice
	// to the churn's per-bucket density.
	for i := 0; i < 3000; i++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("steady-state schedule/fire allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestBucketCapacityBounded runs 10^5 same-instant handoffs of a
// ping-pong while a sleeper's wake 1 ns later keeps their bucket from
// ever draining. The bucket's slice must reuse the slots of the events
// it has fired instead of growing by one per event.
func TestBucketCapacityBounded(t *testing.T) {
	e := New()
	defer e.Close()
	var toPing, toPong Signal
	turn := 0
	var order []string
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(1)
		order = append(order, "sleeper")
	})
	e.Go("ping", func(p *Proc) {
		for i := 0; i < 50000; i++ {
			turn = 1
			toPong.Broadcast()
			p.WaitFor(&toPing, func() bool { return turn == 0 })
		}
		order = append(order, "ping")
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < 50000; i++ {
			p.WaitFor(&toPong, func() bool { return turn == 1 })
			turn = 0
			toPing.Broadcast()
		}
		order = append(order, "pong")
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("Run left %d procs blocked", blocked)
	}
	if got := fmt.Sprint(order); got != "[pong ping sleeper]" || e.Now() != 1 {
		t.Fatalf("finish order %s at %v, want [pong ping sleeper] at 1ns", got, e.Now())
	}
	for i := range e.q.buckets {
		if c := cap(e.q.buckets[i].evs); c > 16 {
			t.Fatalf("bucket %d grew to capacity %d over 10^5 events, want a small bound", i, c)
		}
	}
}

// TestRunAfterSkippedTimers schedules into an engine whose last Run
// ended by skipping a stopped timer well ahead of the clock, the state
// a drained round trip leaves behind (its retransmit timers all
// stopped). An event due before the stopped timer's time and one due
// after it must still fire in time order, with the clock never going
// back.
func TestRunAfterSkippedTimers(t *testing.T) {
	e := New()
	e.Schedule(Microsecond, func() {})
	e.Schedule(100*Microsecond, func() {}).Stop()
	e.Run()
	if e.Now() != Microsecond {
		t.Fatalf("Run stopped at %v, want 1µs (the stopped timer moves no clock)", e.Now())
	}
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	e.Schedule(200*Microsecond, rec)
	e.Schedule(50*Microsecond, rec)
	e.Run()
	if want := []Time{51 * Microsecond, 201 * Microsecond}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestRunUntilBeforeNextEvent stops RunUntil short of a pending event,
// then schedules one due before it. The earlier one must fire first.
func TestRunUntilBeforeNextEvent(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(100*Microsecond, func() { order = append(order, "late") })
	e.RunUntil(10 * Microsecond)
	e.Schedule(20*Microsecond, func() { order = append(order, "early") })
	e.Run()
	if got := fmt.Sprint(order); got != "[early late]" || e.Now() != 100*Microsecond {
		t.Fatalf("fired %s, clock at %v; want [early late] at 100µs", got, e.Now())
	}
}

// TestSettleKeepsFarTimers checks both directions of the base's
// settling. A RunUntil that stops far short of its next event moves the
// base back by more than a horizon, so the wheel events it had pulled
// in go back to the far heap; one that stops past every wheel event
// moves it forward. Every event must still fire once, in time order.
func TestSettleKeepsFarTimers(t *testing.T) {
	e := New()
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	for _, at := range []Time{3*wheelHorizon + 100, 3*wheelHorizon + 105, 5 * wheelHorizon} {
		e.At(at, rec)
	}
	e.RunUntil(wheelHorizon / 2)
	e.At(wheelHorizon+200, rec)
	e.RunUntil(4 * wheelHorizon)
	e.At(4*wheelHorizon+1, rec)
	e.Run()
	want := []Time{wheelHorizon + 200, 3*wheelHorizon + 100, 3*wheelHorizon + 105, 4*wheelHorizon + 1, 5 * wheelHorizon}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestScheduleArgOrder interleaves ScheduleArg with Schedule at one
// instant: both take a sequence number from the same counter, so they
// fire in the order they were scheduled.
func TestScheduleArgOrder(t *testing.T) {
	e := New()
	var got []int
	add := func(a any) { got = append(got, a.(int)) }
	e.ScheduleArg(10, add, 0)
	e.Schedule(10, func() { got = append(got, 1) })
	e.ScheduleArg(10, add, 2)
	e.ScheduleArg(5, add, -1)
	e.ScheduleArg(10, add, 3).Stop()
	e.Run()
	if fmt.Sprint(got) != "[-1 0 1 2]" {
		t.Fatalf("fired %v, want [-1 0 1 2]", got)
	}
}

// TestScheduleArgZeroAlloc: a once-bound callback with a pointer
// argument costs no allocation per event.
func TestScheduleArgZeroAlloc(t *testing.T) {
	e := New()
	n := 0
	arg := &n
	bump := func(a any) { *a.(*int)++ }
	churn := func() {
		for i := 0; i < 64; i++ {
			e.ScheduleArg(Duration(i%7), bump, arg)
		}
		e.Run()
	}
	for i := 0; i < 5000; i++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("ScheduleArg churn allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestWakeEventZeroAllocSteadyState covers the closure-free proc
// event path (the Sleep/Yield/wake hot loop of every simulated
// bottom half) at the queue level.
func TestWakeEventZeroAllocSteadyState(t *testing.T) {
	e := New()
	churn := func() {
		for i := 0; i < 64; i++ {
			e.scheduleProc(Duration(i%97), nil, procWake)
		}
		for i := 0; i < 64; i++ {
			ev := e.q.pop()
			e.now = ev.at
			e.q.recycle(ev)
			e.live--
		}
	}
	// Warm-up: sweep a full wheel rotation (262 µs) at the churn's
	// density — each churn advances the clock only 63 ns.
	for i := 0; i < 6000; i++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(100, churn); allocs != 0 {
		t.Fatalf("wake-event churn allocated %.1f allocs/op, want 0", allocs)
	}
}

// churn is the benchmark load: live concurrent timers, each firing
// and rescheduling itself with a deterministic pseudo-random delta —
// the shape of a 512-rank world's retransmit/ack/wire timer churn.
func churnDeltas(n int) []Duration {
	// Deterministic LCG, delays spanning sub-bucket to multi-bucket.
	deltas := make([]Duration, n)
	x := uint64(0x2545F4914F6CDD1D)
	for i := range deltas {
		x = x*6364136223846793005 + 1442695040888963407
		deltas[i] = Duration(1 + (x>>33)%5000)
	}
	return deltas
}

// benchLive is the number of concurrently pending events: the order
// of magnitude of a 512-rank fat-tree world (per-channel retransmit
// timers, NIC wire events, switch forwards).
const benchLive = 2048

func BenchmarkEventCoreCalendar(b *testing.B) {
	deltas := churnDeltas(4096)
	e := New()
	fire := 0
	var self func()
	di := 0
	self = func() {
		fire++
		di++
		e.Schedule(deltas[di&4095], self)
	}
	for i := 0; i < benchLive; i++ {
		e.Schedule(deltas[i&4095], self)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ev := e.q.pop()
		e.now = ev.at
		fn := ev.fn
		e.q.recycle(ev)
		e.live--
		fn()
	}
	b.StopTimer()
	e.Close()
}

// TestYoungEngineBucketAllocs files one event into every wheel bucket
// of a fresh engine. Bucket slices are carved from per-engine slabs, so
// covering the whole wheel costs a few chunk allocations (event slabs
// and bucket slabs, 16 each), not one slice per bucket (4096).
func TestYoungEngineBucketAllocs(t *testing.T) {
	const ceiling = 64
	fn := func() {}
	allocs := testing.AllocsPerRun(10, func() {
		e := New()
		for i := 0; i < wheelBuckets; i++ {
			e.Schedule(Duration(i)*bucketWidth, fn)
		}
	})
	if allocs > ceiling {
		t.Fatalf("filing one event into each of %d buckets of a fresh engine made %.0f allocations, want ≤ %d",
			wheelBuckets, allocs, ceiling)
	}
}

// TestBucketOutgrowsCarve files more than bucketCarve events into one
// bucket after its slab neighbour has taken the next carve. The
// overflowing bucket must reallocate rather than write into the
// neighbour's slots, and every event must still fire in (at, seq)
// order.
func TestBucketOutgrowsCarve(t *testing.T) {
	e := New()
	var fired []string
	record := func(name string) func() {
		return func() { fired = append(fired, fmt.Sprintf("%s@%d", name, e.Now())) }
	}
	e.Schedule(40, record("a0"))            // bucket 0: first carve
	e.Schedule(bucketWidth+5, record("n0")) // bucket 1: the next carve in the slab
	e.Schedule(bucketWidth+5, record("n1")) // same instant: fires after n0
	for i, d := range []Duration{30, 50, 10, 40, 63, 0, 20} {
		e.Schedule(d, record(fmt.Sprintf("a%d", i+1)))
	}
	if c := cap(e.q.buckets[0].evs); c <= bucketCarve {
		t.Fatalf("bucket 0 holds %d events in capacity %d", len(e.q.buckets[0].evs), c)
	}
	nb := e.q.buckets[1].evs
	if len(nb) != 2 || nb[0].at != bucketWidth+5 || nb[1].at != bucketWidth+5 || nb[0].seq > nb[1].seq {
		t.Fatalf("neighbouring bucket's carved slots were overwritten: %d events", len(nb))
	}
	for _, ev := range nb[:cap(nb)] {
		if ev != nil && ev.at != bucketWidth+5 {
			t.Fatalf("neighbouring bucket's carve holds an event at %v", ev.at)
		}
	}
	e.Run()
	want := "[a6@0 a3@10 a7@20 a1@30 a0@40 a4@40 a2@50 a5@63 n0@69 n1@69]"
	if got := fmt.Sprint(fired); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
}
