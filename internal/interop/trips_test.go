package interop

import (
	"testing"

	"omxsim/internal/mxoe"
	"omxsim/sim"
)

// TestBackToBackTripsOnCleanLink runs six 1 MiB MXoE round trips one
// after the other in one world, each drained by its own Run. Every Run
// ends with only stopped retransmit timers left in the event queue, so
// the next trip is scheduled into a queue whose wheel has just skipped
// over them. On a clean link every trip must take the same virtual
// time and resend nothing: a trip that finds its events filed out of
// order fires a pull-block timer early, resends the block and slows
// every later trip down.
func TestBackToBackTripsOnCleanLink(t *testing.T) {
	const n, trips = 1 << 20, 6
	e, ha, hb, _ := backToBack(t)
	stacks := []*mxoe.Stack{mxoe.Attach(ha, mxoe.Config{}), mxoe.Attach(hb, mxoe.Config{})}
	a, b := mxoeStackPeer(stacks[0]), mxoeStackPeer(stacks[1])
	src, dstA, dstB := ha.Alloc(n), ha.Alloc(n), hb.Alloc(n)
	src.Fill(0x3c)

	var first sim.Duration
	for i := range trips {
		start := e.Now()
		e.Go("ping", func(pr *sim.Proc) {
			a.send(pr, b.addr, src, n)
			a.recv(pr, dstA, n)
		})
		e.Go("pong", func(pr *sim.Proc) {
			b.recv(pr, dstB, n)
			b.send(pr, a.addr, dstB, n)
		})
		if blocked := e.Run(); blocked != 0 {
			t.Fatalf("trip %d left %d procs blocked", i, blocked)
		}
		took := e.Now() - start
		var rtx, dups int64
		for _, s := range stacks {
			rtx += s.Stats.PullRetransmits
			dups += s.Stats.DupFrags
		}
		t.Logf("trip %d: %v, %d pull retransmits and %d duplicate fragments so far", i, took, rtx, dups)
		if i == 0 {
			first = took
		} else if took != first {
			t.Errorf("trip %d took %v, the first took %v", i, took, first)
		}
		if rtx != 0 || dups != 0 {
			t.Errorf("after trip %d: %d pull retransmits, %d duplicate fragments on a clean link", i, rtx, dups)
		}
	}
}
