package interop

import (
	"testing"

	"omxsim/cluster"
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/platform"
	"omxsim/sim"
)

// TestRndvExactLossRecovery drops exactly the first rendezvous request
// and exactly one pulled fragment of a 1 MiB message, on every pairing
// of the two stacks. Both stacks run the one recovery policy, so each
// pairing must recover with exactly one request retransmission on the
// sender, exactly one pull-block retransmission on the receiver, and
// the payload intact.
func TestRndvExactLossRecovery(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to func(*host.Host) peer
	}{
		{"openmx", openMXPeer, openMXPeer},
		{"mxoe", mxoePeer, mxoePeer},
		{"openmx-to-mxoe", openMXPeer, mxoePeer},
		{"mxoe-to-openmx", mxoePeer, openMXPeer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, lostFrag = 1 << 20, 37
			c := cluster.New(platform.Clovertown())
			t.Cleanup(c.Close)
			ha, hb := c.NewHost("a"), c.NewHost("b")
			var reqDropped, fragDropped bool
			cluster.LossyLink(ha, hb, func(msg any) bool {
				switch m := msg.(type) {
				case *proto.RndvRequest:
					if !reqDropped {
						reqDropped = true
						return true
					}
				case *proto.LargeFrag:
					if m.FragID == lostFrag && !fragDropped {
						fragDropped = true
						return true
					}
				}
				return false
			}, nil)
			a, b := tc.from(ha.Machine()), tc.to(hb.Machine())
			src, dst := ha.Machine().Alloc(n), hb.Machine().Alloc(n)
			src.Fill(0x3c)
			got := -1
			c.Go("recv", func(pr *sim.Proc) { got = b.recv(pr, dst, n) })
			c.Go("send", func(pr *sim.Proc) { a.send(pr, b.addr, src, n) })
			c.RunFor(5 * sim.Second)

			if !reqDropped || !fragDropped {
				t.Fatalf("drops: request %v, fragment %v; want both", reqDropped, fragDropped)
			}
			if got != n {
				t.Fatalf("receive completed with %d of %d bytes; blocked: %v", got, n, c.E.BlockedProcs())
			}
			if !hostmem.Equal(src, dst) {
				t.Fatal("payload differs from what was sent")
			}
			if a.ctr.RndvRetransmits != 1 || b.ctr.PullRetransmits != 1 {
				t.Errorf("sender RndvRetransmits = %d, receiver PullRetransmits = %d; want 1 and 1",
					a.ctr.RndvRetransmits, b.ctr.PullRetransmits)
			}
			if a.ctr.PullRetransmits != 0 || b.ctr.RndvRetransmits != 0 || a.ctr.EagerRetransmits+b.ctr.EagerRetransmits != 0 {
				t.Errorf("unexpected retransmissions: sender %+v, receiver %+v", *a.ctr, *b.ctr)
			}
		})
	}
}
