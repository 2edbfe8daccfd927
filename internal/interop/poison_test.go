package interop

import (
	"fmt"
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

// asyncPeer is one side of a many-message exchange: nonblocking sends
// and receives with their own match values, whichever stack it runs.
type asyncPeer struct {
	addr  proto.Addr
	isend func(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, n int) (wait func())
	irecv func(p *sim.Proc, match uint64, buf *hostmem.Buffer, n int) (wait func() int)
}

// stormRTO brings retransmission under heavy impairment into a few
// milliseconds of virtual time.
const stormRTO = 2 * sim.Millisecond

func openMXAsync(h *host.Host) asyncPeer {
	ep := core.Attach(h, core.Config{IOAT: true, RetransmitTimeout: stormRTO}).OpenEndpoint(0, 2)
	return asyncPeer{
		addr: ep.Addr(),
		isend: func(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, n int) func() {
			r := ep.ISend(p, dst, match, buf, 0, n)
			return func() { ep.Wait(p, r) }
		},
		irecv: func(p *sim.Proc, match uint64, buf *hostmem.Buffer, n int) func() int {
			r := ep.IRecv(p, match, ^uint64(0), buf, 0, n)
			return func() int { ep.Wait(p, r); return r.Len }
		},
	}
}

func mxoeAsync(h *host.Host) asyncPeer {
	ep := mxoe.Attach(h, mxoe.Config{RetransmitTimeout: stormRTO}).OpenEndpoint(0, 2)
	return asyncPeer{
		addr: ep.Addr(),
		isend: func(p *sim.Proc, dst proto.Addr, match uint64, buf *hostmem.Buffer, n int) func() {
			r := ep.ISend(p, dst, match, buf, 0, n)
			return func() { ep.Wait(p, r) }
		},
		irecv: func(p *sim.Proc, match uint64, buf *hostmem.Buffer, n int) func() int {
			r := ep.IRecv(p, match, ^uint64(0), buf, 0, n)
			return func() int { ep.Wait(p, r); return r.Len }
		},
	}
}

// TestFramePoisonStress exchanges every message class both ways at
// once, on each pairing of the two stacks, over links that lose,
// duplicate and reorder frames, while every released frame and header
// is poisoned (proto.PoisonReleased); freed skbuffs and wrap buffers
// are always emptied. A release point that comes before a frame's
// last reader — a bottom half freeing an skbuff before its I/OAT copy
// retires, a firmware releasing a frame before its deposit lands —
// then panics or delivers wrong bytes. Afterwards no skbuff may be
// live.
func TestFramePoisonStress(t *testing.T) {
	proto.PoisonReleased = true
	t.Cleanup(func() { proto.PoisonReleased = false })
	for _, tc := range []struct {
		name string
		a, b func(*host.Host) asyncPeer
	}{
		{"openmx", openMXAsync, openMXAsync},
		{"mxoe", mxoeAsync, mxoeAsync},
		{"openmx-mxoe", openMXAsync, mxoeAsync},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			t.Cleanup(e.Close)
			p := platform.Clovertown()
			ha, hb := host.New(e, p, "a"), host.New(e, p, "b")
			ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
			im := wire.Impairment{Seed: 29, LossRate: 0.02, DupRate: 0.3, ReorderRate: 0.3, ReorderDelay: 200 * sim.Microsecond}
			ab.SetImpairment(im)
			im.Seed ^= 0x0F0F
			ba.SetImpairment(im)
			ha.NIC.SetHose(ab)
			hb.NIC.SetHose(ba)
			a, b := tc.a(ha), tc.b(hb)

			sizes := []int{0, 16, 100, proto.MediumFragSize, 9000, 64<<10 + 3, 300 << 10, 1 << 20}
			const rounds = 2
			var bad []string
			exchange := func(name string, from, to asyncPeer, hf, ht *host.Host, seed byte) {
				srcs := make([]*hostmem.Buffer, 0, rounds*len(sizes))
				dsts := make([]*hostmem.Buffer, 0, rounds*len(sizes))
				for k := range rounds * len(sizes) {
					n := sizes[k%len(sizes)]
					src := hf.Alloc(n)
					src.Fill(seed + byte(k))
					srcs = append(srcs, src)
					dsts = append(dsts, ht.Alloc(n))
				}
				e.Go(name+"-recv", func(pr *sim.Proc) {
					waits := make([]func() int, len(dsts))
					for k, dst := range dsts {
						waits[k] = to.irecv(pr, uint64(k), dst, dst.Size())
					}
					for k, wait := range waits {
						if got := wait(); got != dsts[k].Size() || !hostmem.Equal(srcs[k], dsts[k]) {
							bad = append(bad, fmt.Sprintf("%s message %d (%d B): got %d B or wrong bytes", name, k, dsts[k].Size(), got))
						}
					}
				})
				e.Go(name+"-send", func(pr *sim.Proc) {
					waits := make([]func(), len(srcs))
					for k, src := range srcs {
						waits[k] = from.isend(pr, to.addr, uint64(k), src, src.Size())
					}
					for _, wait := range waits {
						wait()
					}
				})
			}
			exchange("a→b", a, b, ha, hb, 0x10)
			exchange("b→a", b, a, hb, ha, 0x80)
			if blocked := e.Run(); blocked != 0 {
				t.Fatalf("%d procs never finished: %v", blocked, e.BlockedProcs())
			}
			if len(bad) > 0 {
				t.Fatalf("%d wrong messages, first: %s", len(bad), bad[0])
			}
			if ab.FramesDuped+ba.FramesDuped == 0 || ab.FramesReordered+ba.FramesReordered == 0 || ab.FramesLost+ba.FramesLost == 0 {
				t.Fatalf("impairment exercised nothing: %d duplicated, %d reordered, %d lost",
					ab.FramesDuped+ba.FramesDuped, ab.FramesReordered+ba.FramesReordered, ab.FramesLost+ba.FramesLost)
			}
			if live := ha.NIC.SkbsLive() + hb.NIC.SkbsLive(); live != 0 {
				t.Fatalf("%d skbuffs still live", live)
			}
			t.Logf("%d frames sent, %d duplicated, %d reordered, %d lost",
				ab.FramesSent+ba.FramesSent, ab.FramesDuped+ba.FramesDuped, ab.FramesReordered+ba.FramesReordered, ab.FramesLost+ba.FramesLost)
		})
	}
}
