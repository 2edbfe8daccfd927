package sim

import (
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits up to a second for goroutines released by
// Run or Close to exit, then counts the live ones.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestStaleStepSkipsReusedGoroutine: a proc started after another
// finished runs on the finished one's pooled goroutine, and a stale
// step event of the finished proc does not resume the new one.
func TestStaleStepSkipsReusedGoroutine(t *testing.T) {
	e := New()
	defer e.Close()
	s := NewSignal()
	e.Go("keeper", func(p *Proc) { s.Wait(p) }) // keeps the pool alive
	a := e.Go("a", func(p *Proc) {})
	if n := e.Run(); n != 1 {
		t.Fatalf("Run = %d, want 1 blocked proc", n)
	}
	e.Schedule(5, a.wake) // a stale step: a has finished
	woke := Time(-1)
	b := e.Go("b", func(p *Proc) {
		p.Sleep(10)
		woke = p.Now()
	})
	if b.resume != a.resume {
		t.Fatal("b did not reuse a's parked goroutine")
	}
	// c blocks after b, so the stale step fires on c's goroutine.
	e.Go("c", func(p *Proc) { p.Sleep(20) })
	e.Run()
	if woke != 10 {
		t.Fatalf("b's Sleep(10) ended at %v, want 10", woke)
	}
}

// TestCallbackPanicOnProcGoroutine: a callback that panics while a
// blocked proc runs the loop reaches Run's caller with its value
// unchanged, and Close then leaves no goroutine behind.
func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	e.Go("p", func(p *Proc) {
		p.Sleep(1)
		p.Sleep(50)
	})
	// At 10 the baton is on p's goroutine: p blocked last, in Sleep(50).
	e.Schedule(10, func() { panic("callback boom") })
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "callback boom" {
		t.Fatalf("Run raised %#v, want the callback's value", got)
	}
	if e.Now() != 10 {
		t.Fatalf("panic surfaced at %v, want 10", e.Now())
	}
	e.Close()
	if len(e.BlockedProcs()) != 0 {
		t.Fatal("procs survived Close")
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}

// TestRunUntilBoundOnProcGoroutine: RunUntil stops at its bound when
// the proc that blocked last holds the loop, and a later Run picks up
// the events it left.
func TestRunUntilBoundOnProcGoroutine(t *testing.T) {
	e := New()
	var marks []Time
	e.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(10)
			marks = append(marks, p.Now())
		}
	})
	e.RunUntil(35)
	if len(marks) != 3 || marks[2] != 30 || e.Now() != 35 {
		t.Fatalf("RunUntil(35): marks=%v now=%v", marks, e.Now())
	}
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs blocked", n)
	}
	if len(marks) != 10 || marks[9] != 100 {
		t.Fatalf("after Run: marks=%v", marks)
	}
}

// TestRunReleasesPoolWhenProcsFinish: once every proc has finished,
// Run releases the pooled goroutines; no Close is needed.
func TestRunReleasesPoolWhenProcsFinish(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	s := NewSignal()
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			p.Sleep(Duration(i))
			s.Broadcast()
			p.Yield()
		})
	}
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs blocked", n)
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Run, baseline %d", n, base)
	}
}

// BenchmarkProcHandoff times the proc handoff paths. One op is a
// ping→pong→ping alternation of two procs through Signals (a step of
// another proc: one goroutine switch each way) plus one Sleep of a
// third proc that nothing else interleaves with (a step of the proc
// that blocked: no switch). Steady state must allocate nothing.
func BenchmarkProcHandoff(b *testing.B) {
	e := New()
	defer e.Close()
	var toPing, toPong Signal
	turn := 0
	n := b.N
	pingTurn := func() bool { return turn == 0 }
	pongTurn := func() bool { return turn == 1 }
	e.Go("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			turn = 1
			toPong.Broadcast()
			p.WaitFor(&toPing, pingTurn)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.WaitFor(&toPong, pongTurn)
			turn = 0
			toPing.Broadcast()
		}
	})
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			// Longer than a calendar bucket, so the wheel drains
			// between sleeps as it does in a real simulation.
			p.Sleep(100)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if blocked := e.Run(); blocked != 0 {
		b.Fatalf("Run left %d procs blocked", blocked)
	}
}
