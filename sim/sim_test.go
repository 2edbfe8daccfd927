package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-time events fired out of scheduling order: %v", got)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("negative delay: ran=%v now=%v", ran, e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	ran := false
	tm := e.Schedule(10, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Duration{10, 20, 30, 40} {
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(25)
	if len(fired) != 2 || e.Now() != 25 {
		t.Fatalf("RunUntil(25): fired=%v now=%v", fired, e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("RunUntil(100): fired=%v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 50 {
			e.Schedule(1, rec)
		}
	}
	e.Schedule(1, rec)
	e.Run()
	if depth != 50 {
		t.Fatalf("depth = %d, want 50", depth)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := New()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs", n)
	}
	if wake != 100 {
		t.Fatalf("woke at %v, want 100", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := New()
	var marks []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			marks = append(marks, p.Now())
		}
	})
	e.Run()
	for i, m := range marks {
		if m != Time(10*(i+1)) {
			t.Fatalf("marks = %v", marks)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New()
	s := NewSignal()
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(50)
		s.Broadcast()
	})
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs blocked: %v", n, e.BlockedProcs())
	}
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestWaitFor(t *testing.T) {
	e := New()
	s := NewSignal()
	ready := false
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		p.WaitFor(s, func() bool { return ready })
		doneAt = p.Now()
	})
	e.Go("pokes", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast() // condition still false: waiter must re-block
		p.Sleep(10)
		ready = true
		s.Broadcast()
	})
	if n := e.Run(); n != 0 {
		t.Fatalf("deadlock: %v", e.BlockedProcs())
	}
	if doneAt != 20 {
		t.Fatalf("doneAt = %v, want 20", doneAt)
	}
}

func TestWaitForAlreadyTrue(t *testing.T) {
	e := New()
	s := NewSignal()
	done := false
	e.Go("p", func(p *Proc) {
		p.WaitFor(s, func() bool { return true })
		done = true
	})
	if n := e.Run(); n != 0 || !done {
		t.Fatalf("n=%d done=%v", n, done)
	}
}

func TestDeadlockReported(t *testing.T) {
	e := New()
	s := NewSignal()
	e.Go("stuck", func(p *Proc) { s.Wait(p) })
	n := e.Run()
	if n != 1 {
		t.Fatalf("Run = %d, want 1 blocked proc", n)
	}
	if got := e.BlockedProcs(); len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("BlockedProcs = %v", got)
	}
	e.Close()
}

func TestCloseUnstartedProc(t *testing.T) {
	e := New()
	e.Go("never", func(p *Proc) { t.Error("body ran") })
	e.Close() // start event pending, goroutine parked before body
}

func TestCloseNestedBlocked(t *testing.T) {
	e := New()
	s := NewSignal()
	for i := 0; i < 10; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(5)
			s.Wait(p)
		})
	}
	e.Run()
	e.Close()
	if len(e.BlockedProcs()) != 0 {
		t.Fatal("procs survived Close")
	}
}

func TestYieldOrdering(t *testing.T) {
	e := New()
	var got []string
	e.Go("a", func(p *Proc) {
		got = append(got, "a1")
		p.Yield()
		got = append(got, "a2")
	})
	e.Go("b", func(p *Proc) {
		got = append(got, "b1")
	})
	e.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestProcZeroSleepIsNoop(t *testing.T) {
	e := New()
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-10)
		if p.Now() != 0 {
			t.Errorf("time moved: %v", p.Now())
		}
	})
	e.Run()
}

// Property: any random batch of events fires in nondecreasing time
// order, and the engine clock equals the max event time afterwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%64) + 1
		var fired []Time
		var maxT Time
		for i := 0; i < count; i++ {
			d := Duration(rng.Int63n(1_000_000))
			if d > maxT {
				maxT = d
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != count || e.Now() != maxT {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: simulation trajectories are reproducible — two identical
// runs with interleaved procs and events produce identical traces.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		s := NewSignal()
		var trace []Time
		for i := 0; i < 8; i++ {
			d := Duration(rng.Int63n(1000))
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				trace = append(trace, p.Now())
				s.Broadcast()
				p.Sleep(d / 2)
				trace = append(trace, p.Now())
			})
		}
		e.Run()
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := New()
	tm := e.Schedule(5, func() {})
	e.Schedule(10, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after Stop = %d", e.Pending())
	}
}

// TestDigestFollowsResumeTimes: the event-order digest is off (0) by
// default, stable run to run, and moves when a process resumes 1 ns
// later.
func TestDigestFollowsResumeTimes(t *testing.T) {
	run := func(d Duration, on bool) uint64 {
		e := New()
		if on {
			e.EnableDigest()
		}
		e.Go("sleeper", func(p *Proc) {
			p.Sleep(d)
			p.Sleep(d)
		})
		e.Run()
		e.DigestFrame("a", "b", 64)
		return e.Digest()
	}
	if got := run(5, false); got != 0 {
		t.Fatalf("digest off reads %x, want 0", got)
	}
	base := run(5, true)
	if again := run(5, true); again != base {
		t.Fatalf("digest not stable: %x then %x", base, again)
	}
	if moved := run(6, true); moved == base {
		t.Fatal("a later resume left the digest unchanged")
	}
}

// TestParkSpuriousWakeReparks: Park returns only on Unpark. A wake for
// any other reason re-parks the process.
func TestParkSpuriousWakeReparks(t *testing.T) {
	e := New()
	resumed := Time(-1)
	p := e.Go("parker", func(p *Proc) {
		p.Park()
		resumed = p.Now()
	})
	e.Schedule(10, func() { p.wake() })
	e.Schedule(20, func() { p.Unpark() })
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs blocked", n)
	}
	if resumed != 20 {
		t.Fatalf("Park returned at %v, want 20 (the Unpark)", resumed)
	}
}

// TestUnparkNotParkedIsNoop: Unpark of a process that is not parked
// (here: sleeping) files nothing and ends no wait.
func TestUnparkNotParkedIsNoop(t *testing.T) {
	e := New()
	var woke []Time
	p := e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		woke = append(woke, p.Now())
		p.Sleep(10)
		woke = append(woke, p.Now())
	})
	e.Schedule(5, func() {
		pending := e.Pending()
		p.Unpark()
		if e.Pending() != pending {
			t.Error("Unpark of a sleeping proc filed an event")
		}
	})
	e.Run()
	if len(woke) != 2 || woke[0] != 10 || woke[1] != 20 {
		t.Fatalf("sleeps ended at %v, want [10 20]", woke)
	}
}

// TestUnparkAfter: the delayed unpark resumes the process d later.
func TestUnparkAfter(t *testing.T) {
	e := New()
	resumed := Time(-1)
	p := e.Go("parker", func(p *Proc) {
		p.Park()
		resumed = p.Now()
	})
	e.Schedule(3, func() { p.UnparkAfter(12) })
	e.Run()
	if resumed != 15 {
		t.Fatalf("Park returned at %v, want 15", resumed)
	}
}

// TestCloseParkedProc: Close unwinds a process parked in Park; its body
// does not continue.
func TestCloseParkedProc(t *testing.T) {
	e := New()
	continued := false
	e.Go("parked", func(p *Proc) {
		p.Park()
		continued = true
	})
	if n := e.Run(); n != 1 {
		t.Fatalf("Run = %d, want 1 blocked proc", n)
	}
	e.Close()
	if continued {
		t.Fatal("body ran past Park after Close")
	}
	if len(e.BlockedProcs()) != 0 {
		t.Fatal("procs survived Close")
	}
}

// TestProcPanicReachesRun: a panic in a process body is re-raised to
// the caller of Run as a *ProcPanic carrying the value and the
// process's stack, at the virtual time it happened; Close then unwinds
// the processes still parked.
func TestProcPanicReachesRun(t *testing.T) {
	e := New()
	e.Go("ok", func(p *Proc) { p.Sleep(100) })
	e.Go("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run raised %#v, want a *ProcPanic", got)
	}
	if pp.Proc != "bad" || pp.Value != "boom" {
		t.Fatalf("ProcPanic = %q/%v, want bad/boom", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "TestProcPanicReachesRun") {
		t.Fatalf("stack does not show the panicking body:\n%s", pp.Stack)
	}
	if e.Now() != 5 {
		t.Fatalf("panic surfaced at %v, want 5", e.Now())
	}
	e.Close()
	if len(e.BlockedProcs()) != 0 {
		t.Fatal("procs survived Close")
	}
}
