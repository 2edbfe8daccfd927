package interop

import (
	"runtime"
	"testing"

	"omxsim/internal/core"
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/mxoe"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// peer is one side of a two-host transfer, whichever stack it runs.
type peer struct {
	addr      proto.Addr
	send      func(p *sim.Proc, dst proto.Addr, buf *hostmem.Buffer, n int)
	recv      func(p *sim.Proc, buf *hostmem.Buffer, n int) int
	fragsSent func() int64
	ctr       *proto.Counters // the stack's shared protocol counters
}

func openMXPeer(h *host.Host) peer {
	s := core.Attach(h, core.Config{IOAT: true})
	ep := s.OpenEndpoint(0, 2)
	return peer{
		addr: ep.Addr(),
		send: func(p *sim.Proc, dst proto.Addr, buf *hostmem.Buffer, n int) {
			ep.Wait(p, ep.ISend(p, dst, 4, buf, 0, n))
		},
		recv: func(p *sim.Proc, buf *hostmem.Buffer, n int) int {
			r := ep.IRecv(p, 4, ^uint64(0), buf, 0, n)
			ep.Wait(p, r)
			return r.Len
		},
		fragsSent: func() int64 { return s.Stats.LargeFragsSent },
		ctr:       &s.Stats.Counters,
	}
}

func mxoePeer(h *host.Host) peer { return mxoeStackPeer(mxoe.Attach(h, mxoe.Config{})) }

func mxoeStackPeer(s *mxoe.Stack) peer {
	ep := s.OpenEndpoint(0, 2)
	return peer{
		addr: ep.Addr(),
		send: func(p *sim.Proc, dst proto.Addr, buf *hostmem.Buffer, n int) {
			ep.Wait(p, ep.ISend(p, dst, 4, buf, 0, n))
		},
		recv: func(p *sim.Proc, buf *hostmem.Buffer, n int) int {
			r := ep.IRecv(p, 4, ^uint64(0), buf, 0, n)
			ep.Wait(p, r)
			return r.Len
		},
		fragsSent: func() int64 { return s.Stats.FragsSent },
		ctr:       &s.Stats.Counters,
	}
}

// backToBack links two fresh hosts, a and b, with one cable and
// returns a's transmit hose with them.
func backToBack(t *testing.T) (*sim.Engine, *host.Host, *host.Host, *wire.Hose) {
	e := sim.New()
	t.Cleanup(e.Close)
	p := platform.Clovertown()
	ha, hb := host.New(e, p, "a"), host.New(e, p, "b")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	return e, ha, hb, ab
}

// TestSenderOverwriteMidTransfer overwrites the send buffer of a 1 MiB
// rendezvous partway through its pull, which MPI forbids but the
// simulator must still answer exactly: a fragment keeps the bytes the
// buffer held when the sender put it on the wire. Pull replies carry
// views of the lent buffer, so this holds only if the write moves the
// buffer onto a copy instead of changing frames already sent.
func TestSenderOverwriteMidTransfer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to func(*host.Host) peer
	}{
		{"openmx", openMXPeer, openMXPeer},
		{"mxoe", mxoePeer, mxoePeer},
		{"openmx-to-mxoe", openMXPeer, mxoePeer},
		{"mxoe-to-openmx", mxoePeer, openMXPeer},
	} {
		t.Run(tc.name, func(t *testing.T) { overwriteMidTransfer(t, tc.from, tc.to) })
	}
}

func overwriteMidTransfer(t *testing.T, from, to func(*host.Host) peer) {
	const n = 1 << 20
	frags := proto.FragsOf(n)
	e, ha, hb, ab := backToBack(t)
	a, b := from(ha), to(hb)

	// One lane and no loss: fragments serialize in the order the
	// sender built them, so the first k the link carries are the k
	// built before the overwrite.
	var wireOrder []int
	ab.Drop = func(f *wire.Frame) bool {
		if m, ok := f.Msg.(*proto.LargeFrag); ok {
			wireOrder = append(wireOrder, m.FragID)
		}
		return false
	}

	src, dst := ha.Alloc(n), hb.Alloc(n)
	src.Fill(0x11)
	old, cur := ha.Alloc(n), ha.Alloc(n)
	old.Fill(0x11)
	cur.Fill(0x77)
	got := -1
	e.Go("recv", func(pr *sim.Proc) { got = b.recv(pr, dst, n) })
	e.Go("send", func(pr *sim.Proc) { a.send(pr, b.addr, src, n) })

	// Stop between pull blocks, once about half the fragments are out.
	for a.fragsSent() < int64(frags/2) {
		if e.Now() > sim.Second {
			t.Fatalf("only %d of %d fragments sent after 1 s", a.fragsSent(), frags)
		}
		e.RunUntil(e.Now() + 2*sim.Microsecond)
	}
	sent := int(a.fragsSent())
	landed := 0
	for f := range frags {
		if fragEqual(dst, old, f, n) {
			landed++
		}
	}
	src.Fill(0x77)
	e.RunUntil(e.Now() + 2*sim.Second)

	if got != n {
		t.Fatalf("receive completed with %d of %d bytes; blocked: %v", got, n, e.BlockedProcs())
	}
	if sent == frags || landed >= sent {
		t.Fatalf("overwrite after %d sent and %d landed of %d fragments: no fragment was in flight", sent, landed, frags)
	}
	if len(wireOrder) != frags {
		t.Fatalf("link carried %d fragments, want %d (no loss, so no resends)", len(wireOrder), frags)
	}
	before := make(map[int]bool)
	for _, f := range wireOrder[:sent] {
		before[f] = true
	}
	for f := range frags {
		want, what := cur, "new"
		if before[f] {
			want, what = old, "old"
		}
		if !fragEqual(dst, want, f, n) {
			t.Errorf("fragment %d does not hold the %s bytes", f, what)
		}
	}
	if t.Failed() {
		t.Logf("overwrite after %d fragments sent, %d landed", sent, landed)
	}
}

// fragEqual reports whether fragment f of an n-byte message holds the
// same bytes in a and b.
func fragEqual(a, b *hostmem.Buffer, f, n int) bool {
	off := f * proto.LargeFragSize
	l := min(proto.LargeFragSize, n-off)
	pa, pb := make([]byte, l), make([]byte, l)
	a.ReadAt(pa, off)
	b.ReadAt(pb, off)
	return string(pa) == string(pb)
}

// TestRndvRoundTripAllocBound bounds what one 1 MiB rendezvous round
// trip allocates once its buffers exist: pull replies view the lent
// send buffer, so no fragment's payload is copied into a fresh slice.
// Copying them (8 kB per fragment, 256 fragments per trip) costs about
// 2.3 MiB per trip on Open-MX, and more on MXoE, which resends some;
// the bound is 512 KiB. On Open-MX with I/OAT the trip's objects are
// bounded too: every frame, skbuff, wrap buffer and fragment header
// comes from a free list, so the 294 frames of a trip make at most
// 200 objects (1,562 when each frame made its own four records).
func TestRndvRoundTripAllocBound(t *testing.T) {
	for _, tc := range []struct {
		name     string
		mk       func(*host.Host) peer
		objBound uint64 // objects per round trip, 0 for no bound
	}{
		{"openmx-ioat", openMXPeer, 200},
		{"mxoe", mxoePeer, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, warm, trips = 1 << 20, 3, 10
			e, ha, hb, _ := backToBack(t)
			a, b := tc.mk(ha), tc.mk(hb)
			src, dstA, dstB := ha.Alloc(n), ha.Alloc(n), hb.Alloc(n)
			src.Fill(0x5a)
			trip := func() {
				e.Go("ping", func(pr *sim.Proc) {
					a.send(pr, b.addr, src, n)
					a.recv(pr, dstA, n)
				})
				e.Go("pong", func(pr *sim.Proc) {
					b.recv(pr, dstB, n)
					b.send(pr, a.addr, dstB, n)
				})
				if blocked := e.Run(); blocked != 0 {
					t.Fatalf("round trip left %d procs blocked", blocked)
				}
			}
			for range warm {
				trip()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range trips {
				trip()
			}
			runtime.ReadMemStats(&after)
			if !hostmem.Equal(src, dstA) {
				t.Fatal("echo differs from the payload")
			}
			per := (after.TotalAlloc - before.TotalAlloc) / trips
			objs := (after.Mallocs - before.Mallocs) / trips
			t.Logf("%d KiB and %d objects allocated per round trip", per>>10, objs)
			if per >= 512<<10 {
				t.Fatalf("a 1 MiB round trip allocates %d KiB, want < 512 KiB", per>>10)
			}
			if tc.objBound > 0 && objs > tc.objBound {
				t.Fatalf("a 1 MiB round trip allocates %d objects, want at most %d", objs, tc.objBound)
			}
		})
	}
}
