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
// finished, in a later Run, runs on the finished one's pooled
// coroutine, and a stale step event of the finished proc does not
// resume the new one.
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
	// c blocks after b, so the stale step fires on c's coroutine.
	e.Go("c", func(p *Proc) { p.Sleep(20) })
	e.Run()
	if b.co != a.co {
		t.Fatal("b did not reuse a's parked coroutine")
	}
	if woke != 10 {
		t.Fatalf("b's Sleep(10) ended at %v, want 10", woke)
	}
}

// TestUnstartedProcsGetNoCoroutine: a proc is bound to a coroutine at
// its first resume, so procs that never ran hold no goroutine, and
// Close retires them without running their bodies.
func TestUnstartedProcsGetNoCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	ran := false
	var ps []*Proc
	for i := 0; i < 4; i++ {
		ps = append(ps, e.Go("idle", func(p *Proc) { ran = true }))
	}
	ps = append(ps, e.GoDaemon("daemon", func(p *Proc) { ran = true }))
	for _, p := range ps {
		if p.co != nil {
			t.Fatalf("%v has a coroutine before its first resume", p)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines with 5 unstarted procs, baseline %d", n, base)
	}
	e.Close()
	if ran {
		t.Fatal("Close ran a body that had never started")
	}
	if len(e.BlockedProcs()) != 0 || e.Daemons() != 0 {
		t.Fatalf("after Close: blocked %v, %d daemons", e.BlockedProcs(), e.Daemons())
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}

// TestProcChainReusesOneCoroutine: procs that each start the next one
// and then finish run one after another on a single pooled coroutine.
func TestProcChainReusesOneCoroutine(t *testing.T) {
	e := New()
	defer e.Close()
	var chain []*Proc
	var link func(p *Proc)
	link = func(p *Proc) {
		p.Sleep(1)
		if len(chain) < 8 {
			chain = append(chain, e.Go("link", link))
		}
	}
	chain = append(chain, e.Go("link", link))
	if n := e.Run(); n != 0 {
		t.Fatalf("Run left %d procs blocked", n)
	}
	if len(chain) != 8 {
		t.Fatalf("chain ran %d links, want 8", len(chain))
	}
	for i, p := range chain {
		if p.co == nil || p.co != chain[0].co {
			t.Fatalf("link %d ran on coroutine %p, link 0 on %p", i, p.co, chain[0].co)
		}
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
	// At 10 the loop runs on p's coroutine: p blocked last, in Sleep(50).
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

// runGoexit calls Run on a goroutine of its own and reports whether
// Run returned; false means a runtime.Goexit ended its caller.
func runGoexit(e *Engine) bool {
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		e.Run()
		ok = true
	}()
	return <-returned
}

// TestGoexitFromProcBody: a proc body that calls runtime.Goexit (as
// t.FailNow does) ends the goroutine that called Run, and Close then
// leaves no goroutine behind.
func TestGoexitFromProcBody(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	e.Go("quitter", func(p *Proc) {
		p.Sleep(10)
		runtime.Goexit()
	})
	if runGoexit(e) {
		t.Fatal("Run returned; want the Goexit to end its caller")
	}
	if e.Now() != 10 {
		t.Fatalf("Goexit surfaced at %v, want 10", e.Now())
	}
	if got := e.BlockedProcs(); len(got) != 1 || got[0] != "sleeper" {
		t.Fatalf("blocked after the Goexit: %v, want [sleeper]", got)
	}
	e.Close()
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after Close, baseline %d", n, base)
	}
}

// TestGoexitFromCallbackOnProcCoroutine: a callback that calls
// runtime.Goexit while it fires on a blocked proc's coroutine ends that
// proc and the goroutine that called Run, and Close then leaves no
// goroutine behind.
func TestGoexitFromCallbackOnProcCoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	e.Go("sleeper", func(p *Proc) { p.Sleep(100) })
	e.Go("p", func(p *Proc) {
		p.Sleep(1)
		p.Sleep(50)
	})
	// At 10 the loop runs on p's coroutine: p blocked last, in Sleep(50).
	e.Schedule(10, runtime.Goexit)
	if runGoexit(e) {
		t.Fatal("Run returned; want the Goexit to end its caller")
	}
	if e.Now() != 10 {
		t.Fatalf("Goexit surfaced at %v, want 10", e.Now())
	}
	if got := e.BlockedProcs(); len(got) != 1 || got[0] != "sleeper" {
		t.Fatalf("blocked after the Goexit: %v, want [sleeper]", got)
	}
	e.Close()
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
// Run releases the pooled coroutines; no Close is needed.
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
// another proc: each way, two coroutine switches, the blocking proc's
// coroutine yielding to the driver and the driver resuming the other
// proc's) plus one Sleep of a third proc that nothing else interleaves
// with (a step of the proc that blocked: no switch). Steady state must
// allocate nothing.
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
