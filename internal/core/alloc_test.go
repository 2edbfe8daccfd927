package core

import (
	"testing"

	"omxsim/internal/hostmem"
	"omxsim/sim"
)

// TestEagerRoundTripAllocBound bounds the objects one warm 64 B
// Open-MX round trip allocates: the ping and pong procs, requests,
// events and ack bookkeeping, but no frame, skbuff, wrap buffer, eager
// header or payload copy, which all come from free lists. The trip
// made 45 objects when each frame made its own records and makes 28
// now; the bound leaves room for one more.
func TestEagerRoundTripAllocBound(t *testing.T) {
	const n, warm, bound = 64, 100, 29
	pr := newPair(t, Config{RegCache: true}, Config{RegCache: true})
	src, dstA, dstB := pr.sa.H.Alloc(n), pr.sa.H.Alloc(n), pr.sb.H.Alloc(n)
	src.Fill(0x5a)
	trip := func() {
		pr.e.Go("ping", func(p *sim.Proc) {
			rr := pr.epA.IRecv(p, 2, ^uint64(0), dstA, 0, n)
			pr.epA.Wait(p, pr.epA.ISend(p, pr.epB.Addr(), 1, src, 0, n))
			pr.epA.Wait(p, rr)
		})
		pr.e.Go("pong", func(p *sim.Proc) {
			pr.epB.Wait(p, pr.epB.IRecv(p, 1, ^uint64(0), dstB, 0, n))
			pr.epB.Wait(p, pr.epB.ISend(p, pr.epA.Addr(), 2, dstB, 0, n))
		})
		if blocked := pr.e.Run(); blocked != 0 {
			t.Fatalf("round trip left %d procs blocked", blocked)
		}
	}
	for range warm {
		trip()
	}
	objs := testing.AllocsPerRun(1000, trip)
	if !hostmem.Equal(src, dstA) {
		t.Fatal("echo differs from the payload")
	}
	t.Logf("%.2f objects allocated per round trip", objs)
	if objs > bound {
		t.Fatalf("a 64 B round trip allocates %.2f objects, want at most %d", objs, bound)
	}
}
