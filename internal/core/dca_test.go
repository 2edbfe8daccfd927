package core

import (
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/nic"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// On a DCA platform the NIC pushes every receive skbuff into the LLC
// of its interrupt core: the generic driver cannot know the consumer.
// The interrupt core (0) and the endpoints' core (2) sit in different
// L2 domains, so a deposit steered at the consumer would show.
func TestDCADepositsLandOnIRQCore(t *testing.T) {
	e := sim.New()
	p := platform.ClovertownDCA()
	ha, hb := newHost(e, p, "hostA"), newHost(e, p, "hostB")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	pr := &pair{e: e, p: p, sa: Attach(ha, Config{}), sb: Attach(hb, Config{})}
	pr.epA = pr.sa.OpenEndpoint(0, 2)
	pr.epB = pr.sb.OpenEndpoint(0, 2)
	t.Cleanup(e.Close)

	n := hb.NIC
	if p.SameL2(n.IRQCore, pr.epB.Core) {
		t.Fatalf("interrupt core %d shares an L2 with endpoint core %d", n.IRQCore, pr.epB.Core)
	}
	skbs := 0
	n.SetRxHandler(func(proc *sim.Proc, c *cpu.Core, skb *nic.Skb) {
		skbs++
		if d, want := skb.Buf.DCADomain(), p.L2DomainOf(n.IRQCore); d != want {
			t.Errorf("skbuff %d pushed into L2 domain %d, want %d (interrupt core %d)", skbs, d, want, n.IRQCore)
		}
		if !skb.Buf.DCAResident(n.IRQCore) || skb.Buf.DCAResident(pr.epB.Core) {
			t.Errorf("skbuff %d: resident on interrupt core %v, on endpoint core %v",
				skbs, skb.Buf.DCAResident(n.IRQCore), skb.Buf.DCAResident(pr.epB.Core))
		}
		pr.sb.rxCallback(0, proc, c, skb)
	})
	// A rendezvous: the request frame plus every pull reply.
	sendRecv(t, pr, 1<<20)
	if skbs == 0 {
		t.Fatal("no skbuff reached the receiver's driver")
	}
}
