package cpu

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"omxsim/platform"
	"omxsim/sim"
)

func newSys() (*sim.Engine, *System) {
	e := sim.New()
	return e, NewSystem(e, platform.Clovertown())
}

func TestTopologySize(t *testing.T) {
	_, s := newSys()
	if len(s.Cores) != 8 {
		t.Fatalf("cores = %d", len(s.Cores))
	}
}

func TestSerialExecution(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		c.Exec(UserLib, 100, func() { ends = append(ends, e.Now()) })
	}
	e.Run()
	want := []sim.Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v", ends)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var order []Category
	record := func(cat Category) func() { return func() { order = append(order, cat) } }
	// Seed a long-running task, then queue user and BH work while it runs.
	c.Exec(UserLib, 100, nil)
	c.Exec(UserLib, 10, record(UserLib))
	c.Exec(BHProc, 10, record(BHProc))
	e.Run()
	if len(order) != 2 || order[0] != BHProc || order[1] != UserLib {
		t.Fatalf("order = %v, want [bh-proc user-lib]", order)
	}
}

func TestNoPreemptionMidTask(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var firstEnd sim.Time
	c.Exec(UserLib, 1000, func() { firstEnd = e.Now() })
	e.Schedule(50, func() { c.Exec(BHProc, 10, nil) })
	e.Run()
	if firstEnd != 1000 {
		t.Fatalf("user task interrupted: end=%v", firstEnd)
	}
}

func TestAccountingPerCategory(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	c.Exec(UserLib, 100, nil)
	c.Exec(BHProc, 200, nil)
	c.Exec(BHCopy, 300, nil)
	e.Run()
	if c.BusyNs(UserLib) != 100 || c.BusyNs(BHProc) != 200 || c.BusyNs(BHCopy) != 300 {
		t.Fatalf("accounting: %v %v %v", c.BusyNs(UserLib), c.BusyNs(BHProc), c.BusyNs(BHCopy))
	}
	by := s.BusyByCategory()
	if by[UserLib] != 100 || by[BHProc] != 200 || by[BHCopy] != 300 {
		t.Fatalf("system accounting: %v", by)
	}
	if s.TotalBusy() != 600 {
		t.Fatalf("total = %v", s.TotalBusy())
	}
	s.ResetAccounting()
	if s.TotalBusy() != 0 {
		t.Fatal("reset failed")
	}
}

func TestDynTask(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var end sim.Time
	c.ExecDyn(BHCopy, func(finish func(extra sim.Duration)) {
		// Emulate busy-polling hardware that completes at t=500.
		e.Schedule(500, func() { finish(0) })
	})
	c.Exec(UserLib, 10, func() { end = e.Now() })
	e.Run()
	if c.BusyNs(BHCopy) != 500 {
		t.Fatalf("dyn accounting = %v", c.BusyNs(BHCopy))
	}
	if end != 510 {
		t.Fatalf("queued task ran at %v, want 510", end)
	}
}

func TestDynTaskExtra(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	c.ExecDyn(BHCopy, func(finish func(extra sim.Duration)) { finish(250) })
	e.Run()
	if c.BusyNs(BHCopy) != 250 {
		t.Fatalf("extra accounting = %v", c.BusyNs(BHCopy))
	}
}

func TestRunOnBlocksProcess(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var resumed sim.Time
	e.Go("worker", func(p *sim.Proc) {
		c.RunOn(p, UserLib, 400)
		resumed = p.Now()
	})
	if n := e.Run(); n != 0 {
		t.Fatalf("blocked procs: %v", e.BlockedProcs())
	}
	if resumed != 400 {
		t.Fatalf("resumed at %v, want 400", resumed)
	}
}

func TestRunOnQueuesBehindBH(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	c.Exec(BHProc, 1000, nil)
	var resumed sim.Time
	e.Go("worker", func(p *sim.Proc) {
		c.RunOn(p, UserLib, 100)
		resumed = p.Now()
	})
	e.Run()
	if resumed != 1100 {
		t.Fatalf("resumed at %v, want 1100 (after BH)", resumed)
	}
}

func TestIndependentCoresRunConcurrently(t *testing.T) {
	e, s := newSys()
	var e0, e1 sim.Time
	s.Core(0).Exec(UserLib, 100, func() { e0 = e.Now() })
	s.Core(1).Exec(UserLib, 100, func() { e1 = e.Now() })
	e.Run()
	if e0 != 100 || e1 != 100 {
		t.Fatalf("e0=%v e1=%v, want both 100 (parallel cores)", e0, e1)
	}
}

func TestCompletionCanChainWork(t *testing.T) {
	e, s := newSys()
	c := s.Core(0)
	var end sim.Time
	c.Exec(BHProc, 100, func() {
		c.Exec(BHCopy, 200, func() { end = e.Now() })
	})
	e.Run()
	if end != 300 {
		t.Fatalf("chained end = %v, want 300", end)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_, s := newSys()
	s.Core(0).Exec(UserLib, -1, nil)
}

// Property: total busy time equals the sum of all task durations, and
// a serial core finishes no earlier than that sum.
func TestPropertyBusyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, s := sim.New(), (*System)(nil)
		s = NewSystem(e, platform.Clovertown())
		c := s.Core(rng.Intn(8))
		n := 1 + rng.Intn(20)
		var total sim.Duration
		var lastEnd sim.Time
		for i := 0; i < n; i++ {
			d := sim.Duration(rng.Intn(1000))
			total += d
			cat := Category(rng.Intn(int(numCategories)))
			at := sim.Duration(rng.Intn(500))
			c2, d2 := cat, d
			e.Schedule(at, func() {
				c.Exec(c2, d2, func() { lastEnd = e.Now() })
			})
		}
		e.Run()
		if s.TotalBusy() != total {
			return false
		}
		return lastEnd >= sim.Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCategoryString(t *testing.T) {
	if UserLib.String() != "user-lib" || BHCopy.String() != "bh-copy" {
		t.Fatal("category names wrong")
	}
	if IOATSubmit.String() != "ioat-submit" || AppCompute.String() != "compute" {
		t.Fatal("new category names wrong")
	}
	if Category(99).String() != "cat(99)" {
		t.Fatal("out-of-range name wrong")
	}
	if len(Categories()) != NumCategories {
		t.Fatalf("Categories() = %d entries, want %d", len(Categories()), NumCategories)
	}
}

func TestSnapshotLedger(t *testing.T) {
	e, s := newSys()
	s.Core(0).Exec(UserLib, 100, nil)
	s.Core(0).Exec(IOATSubmit, 50, nil)
	s.Core(3).Exec(AppCompute, 200, nil)
	e.Run()
	e.RunUntil(1000)
	st := s.Snapshot()
	if st.Window != 1000 {
		t.Fatalf("window = %v, want 1000", st.Window)
	}
	if len(st.Cores) != 8 || st.Cores[0].Core != 0 || st.Cores[7].Core != 7 {
		t.Fatalf("cores not in ascending ID order: %+v", st.Cores)
	}
	if st.Cores[0].Busy[UserLib] != 100 || st.Cores[0].Busy[IOATSubmit] != 50 {
		t.Fatalf("core0 ledger = %+v", st.Cores[0].Busy)
	}
	if st.Cores[0].Idle != 850 {
		t.Fatalf("core0 idle = %v, want 850", st.Cores[0].Idle)
	}
	if st.Cores[3].Busy[AppCompute] != 200 || st.Cores[3].Idle != 800 {
		t.Fatalf("core3 ledger = %+v idle=%v", st.Cores[3].Busy, st.Cores[3].Idle)
	}
	if st.Cores[1].TotalBusy() != 0 || st.Cores[1].Idle != 1000 {
		t.Fatalf("untouched core1 = %+v", st.Cores[1])
	}
	if st.Busy() != 350 || st.Busy(UserLib) != 100 || st.Busy(UserLib, IOATSubmit) != 150 {
		t.Fatalf("Busy sums wrong: %v %v %v", st.Busy(), st.Busy(UserLib), st.Busy(UserLib, IOATSubmit))
	}
	if pct := st.BusyPct(AppCompute); pct != 20 {
		t.Fatalf("BusyPct(AppCompute) = %v, want 20", pct)
	}
}

func TestSnapshotWindowFollowsReset(t *testing.T) {
	e, s := newSys()
	s.Core(0).Exec(UserLib, 100, nil)
	e.Run()
	s.ResetAccounting()
	s.Core(0).Exec(BHProc, 40, nil)
	e.Run()
	st := s.Snapshot()
	if st.Window != 40 {
		t.Fatalf("window after reset = %v, want 40", st.Window)
	}
	if st.Busy(UserLib) != 0 || st.Busy(BHProc) != 40 {
		t.Fatalf("ledger after reset: %v / %v", st.Busy(UserLib), st.Busy(BHProc))
	}
}

func TestSnapshotDeterministicRender(t *testing.T) {
	run := func() Stats {
		e, s := newSys()
		s.Core(2).Exec(BHCopy, 300, nil)
		s.Core(2).Exec(BHProc, 100, nil)
		s.Core(5).Exec(DriverCmd, 70, nil)
		e.Run()
		return s.Snapshot()
	}
	a, b := run(), run()
	if a.Render() != b.Render() {
		t.Fatalf("render not deterministic:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	out := a.Render()
	for _, want := range []string{"bh-copy", "ioat-submit", "compute", "idle", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Idle cores are elided: only cores 2 and 5 plus header and total.
	if got := strings.Count(out, "\n"); got != 4 {
		t.Fatalf("render has %d lines, want 4:\n%s", got, out)
	}
}

// chargeLoop starts a proc that charges the core forever: RunOn for
// 10 ns, then a RunOnDyn that finishes at once, then one that keeps
// the core 5 ns longer (15 ns of virtual time per round).
func chargeLoop(e *sim.Engine, c *Core) {
	now := func(finish func(extra sim.Duration)) { finish(0) }
	later := func(finish func(extra sim.Duration)) { finish(5) }
	e.Go("charger", func(p *sim.Proc) {
		for {
			c.RunOn(p, UserLib, 10)
			c.RunOnDyn(p, BHCopy, now)
			c.RunOnDyn(p, BHCopy, later)
		}
	})
}

// TestRunOnZeroAllocSteadyState: once the task free list, the event
// pool and the wheel buckets are warm, a process charging the core
// through RunOn and RunOnDyn allocates nothing — no Signal, no
// closures, no task per charge.
func TestRunOnZeroAllocSteadyState(t *testing.T) {
	e, s := newSys()
	defer e.Close()
	c := s.Core(0)
	chargeLoop(e, c)
	round := func() { e.RunUntil(e.Now() + sim.Microsecond) }
	// Warm-up: sweep the event wheel's full 262 µs horizon twice.
	for i := 0; i < 600; i++ {
		round()
	}
	before := c.BusyNs(UserLib)
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("RunOn/RunOnDyn steady state allocated %.1f allocs/op, want 0", allocs)
	}
	if c.BusyNs(UserLib) == before {
		t.Fatal("charger made no progress while measured")
	}
}

// BenchmarkRunOn is one round of chargeLoop: a RunOn and two RunOnDyn
// charges, each a full proc handoff. `make benchalloc` fails unless it
// reports 0 allocs/op.
func BenchmarkRunOn(b *testing.B) {
	e, s := newSys()
	chargeLoop(e, s.Core(0))
	e.RunUntil(e.Now() + 600*sim.Microsecond) // warm-up, as in the test
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(e.Now() + sim.Duration(b.N)*15)
	b.StopTimer()
	e.Close()
}
