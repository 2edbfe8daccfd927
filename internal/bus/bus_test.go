package bus

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"omxsim/sim"
)

func TestSingleFlowDuration(t *testing.T) {
	e := sim.New()
	a := New(e, 2.0) // 2 bytes/ns
	var doneAt sim.Time
	a.Start(1000, 0, func() { doneAt = e.Now() })
	e.Run()
	if doneAt < 500 || doneAt > 502 {
		t.Fatalf("1000 B at 2 B/ns finished at %d ns, want ≈500", doneAt)
	}
}

func TestFlowOwnCapSlowerThanArbiter(t *testing.T) {
	e := sim.New()
	a := New(e, 10.0)
	var doneAt sim.Time
	a.Start(1000, 1.0, func() { doneAt = e.Now() })
	e.Run()
	if doneAt < 1000 || doneAt > 1002 {
		t.Fatalf("capped flow finished at %d, want ≈1000", doneAt)
	}
}

func TestTwoEqualFlowsShareFairly(t *testing.T) {
	e := sim.New()
	a := New(e, 2.0)
	var d1, d2 sim.Time
	a.Start(1000, 0, func() { d1 = e.Now() })
	a.Start(1000, 0, func() { d2 = e.Now() })
	e.Run()
	// Each gets 1 B/ns → both finish ≈1000 ns.
	if math.Abs(float64(d1-d2)) > 2 || d1 < 999 || d1 > 1003 {
		t.Fatalf("d1=%d d2=%d, want both ≈1000", d1, d2)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	e := sim.New()
	a := New(e, 2.0)
	var dLong sim.Time
	a.Start(1500, 0, func() { dLong = e.Now() })
	a.Start(500, 0, func() {})
	e.Run()
	// Phase 1: both at 1 B/ns until short one finishes at t=500 (long
	// has 1000 left). Phase 2: long at 2 B/ns → +500 ns → 1000 total.
	if dLong < 999 || dLong > 1004 {
		t.Fatalf("long flow finished at %d, want ≈1000", dLong)
	}
}

func TestCappedFlowLeavesHeadroom(t *testing.T) {
	e := sim.New()
	a := New(e, 3.0)
	var dA, dB sim.Time
	a.Start(1000, 0.5, func() { dA = e.Now() }) // capped below fair share
	a.Start(2500, 0, func() { dB = e.Now() })
	e.Run()
	// A runs at 0.5; B gets the remaining 2.5 → finishes at 1000.
	if dA < 1999 || dA > 2003 {
		t.Fatalf("capped flow at %d, want ≈2000", dA)
	}
	if dB < 999 || dB > 1003 {
		t.Fatalf("uncapped flow at %d, want ≈1000", dB)
	}
}

func TestUnlimitedArbiterUsesOwnCaps(t *testing.T) {
	e := sim.New()
	a := New(e, 0)
	var d sim.Time
	a.Start(4096, 4.096, func() { d = e.Now() })
	e.Run()
	if d < 999 || d > 1002 {
		t.Fatalf("finished at %d, want ≈1000", d)
	}
}

func TestZeroByteFlowCompletes(t *testing.T) {
	e := sim.New()
	a := New(e, 1.0)
	done := false
	a.Start(0, 0, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestLateArrivalDoesNotStealBankedProgress(t *testing.T) {
	e := sim.New()
	a := New(e, 2.0)
	var d1 sim.Time
	a.Start(1000, 0, func() { d1 = e.Now() })
	e.Schedule(400, func() { a.Start(10000, 0, func() {}) })
	e.Run()
	// First flow: 800 B done by t=400 at 2 B/ns, 200 B left at 1 B/ns
	// → finishes ≈600.
	if d1 < 599 || d1 > 603 {
		t.Fatalf("d1=%d, want ≈600", d1)
	}
}

func TestManySequentialFlows(t *testing.T) {
	e := sim.New()
	a := New(e, 1.0)
	count := 0
	var next func()
	next = func() {
		count++
		if count < 50 {
			a.Start(100, 0, next)
		}
	}
	a.Start(100, 0, next)
	e.Run()
	if count != 50 {
		t.Fatalf("count=%d", count)
	}
	if e.Now() < 5000 || e.Now() > 5100 {
		t.Fatalf("total time %d, want ≈5000", e.Now())
	}
}

// Property: bytes are conserved and the aggregate capacity is never
// beaten — N random flows on a capacity-C arbiter cannot finish before
// totalBytes/C, and each flow respects its own cap.
func TestPropertyConservationAndCaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.New()
		capacity := 0.5 + rng.Float64()*4
		a := New(e, capacity)
		n := 1 + rng.Intn(8)
		total := 0.0
		lastDone := sim.Time(0)
		remainingFlows := n
		for i := 0; i < n; i++ {
			bytes := float64(1 + rng.Intn(100000))
			total += bytes
			var limit float64
			if rng.Intn(2) == 0 {
				limit = 0.1 + rng.Float64()*3
			}
			start := sim.Duration(rng.Intn(1000))
			b, l := bytes, limit
			e.Schedule(start, func() {
				a.Start(b, l, func() {
					remainingFlows--
					if e.Now() > lastDone {
						lastDone = e.Now()
					}
				})
			})
		}
		e.Run()
		if remainingFlows != 0 {
			return false
		}
		if math.Abs(a.TotalMoved()-total) > 1.0 {
			return false
		}
		// Cannot finish faster than capacity allows.
		minTime := total / capacity
		return float64(lastDone) >= minTime-float64(n)*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single capped flow takes bytes/min(cap, capacity).
func TestPropertySingleFlowExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.New()
		capacity := 0.5 + rng.Float64()*4
		limit := 0.1 + rng.Float64()*6
		bytes := float64(1 + rng.Intn(1_000_000))
		a := New(e, capacity)
		var done sim.Time
		a.Start(bytes, limit, func() { done = e.Now() })
		e.Run()
		eff := math.Min(limit, capacity)
		want := bytes / eff
		return math.Abs(float64(done)-want) <= 2+want*1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e := sim.New()
	New(e, 1).Start(-1, 0, nil)
}

// TestStartFromOnDoneGetsFairShare starts a flow from inside another
// flow's onDone, while complete is walking its reused scratch lists.
// The new flow must join the survivor at a fair share: A and B share
// 1 B/ns until A's 1000 B are done at 2000 ns; C then shares with B
// and finishes its 1000 B at 4000 ns; B has 1000 B left and runs
// alone to 5000 ns.
func TestStartFromOnDoneGetsFairShare(t *testing.T) {
	e := sim.New()
	a := New(e, 1.0)
	var dB, dC sim.Time
	a.Start(1000, 0, func() {
		a.Start(1000, 0, func() { dC = e.Now() })
	})
	a.Start(3000, 0, func() { dB = e.Now() })
	e.Run()
	if dC < 3999 || dC > 4003 || dB < 4999 || dB > 5003 {
		t.Fatalf("C done at %d, B at %d; want ≈4000 and ≈5000", dC, dB)
	}
	if a.Active() != 0 {
		t.Fatalf("%d flows still active", a.Active())
	}
}

// TestBeginReusesCallerFlow runs one caller-owned Flow through three
// transfers in a row, each begun from the previous one's onDone, and
// checks that beginning it again while it runs panics.
func TestBeginReusesCallerFlow(t *testing.T) {
	e := sim.New()
	a := New(e, 2.0)
	var f Flow
	left := 3
	var onDone func()
	onDone = func() {
		if !f.Done() || f.Remaining() != 0 {
			t.Fatalf("onDone with done=%v remaining=%v", f.Done(), f.Remaining())
		}
		if left--; left > 0 {
			a.Begin(&f, 1000, 0, onDone)
		}
	}
	a.Begin(&f, 1000, 0, onDone)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Begin on a running flow did not panic")
			}
		}()
		a.Begin(&f, 1, 0, nil)
	}()
	e.Run()
	if left != 0 || e.Now() < 1500 || e.Now() > 1503 {
		t.Fatalf("%d transfers left, clock at %v; want 0 at ≈1500 ns", left, e.Now())
	}
}
