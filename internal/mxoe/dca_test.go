package mxoe

import (
	"testing"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// On a DCA platform the firmware pushes its deposits — eager data into
// the receive queue, pull replies into the destination buffer — into
// the LLC of the receiving endpoint's core: native MX knows the
// consumer. The endpoint's core (2) and the NIC's interrupt core (0)
// sit in different L2 domains, so a deposit that followed the
// interrupt would show.
func TestDCADepositsLandOnEndpointCore(t *testing.T) {
	e := sim.New()
	p := platform.ClovertownDCA()
	ha, hb := host.New(e, p, "mxA"), host.New(e, p, "mxB")
	ab, ba := wire.Connect(e, p, ha.NIC, hb.NIC)
	ha.NIC.SetHose(ab)
	hb.NIC.SetHose(ba)
	sa, sb := Attach(ha, Config{}), Attach(hb, Config{})
	epA, epB := sa.OpenEndpoint(0, 2), sb.OpenEndpoint(0, 2)
	t.Cleanup(e.Close)
	irq := hb.NIC.IRQCore
	if p.SameL2(irq, epB.Core) {
		t.Fatalf("interrupt core %d shares an L2 with endpoint core %d", irq, epB.Core)
	}
	resident := func(what string, b *hostmem.Buffer) {
		t.Helper()
		if d, want := b.DCADomain(), p.L2DomainOf(epB.Core); d != want {
			t.Errorf("%s pushed into L2 domain %d, want %d (endpoint core %d)", what, d, want, epB.Core)
		}
		if !b.DCAResident(epB.Core) || b.DCAResident(irq) {
			t.Errorf("%s: resident on endpoint core %v, on interrupt core %v",
				what, b.DCAResident(epB.Core), b.DCAResident(irq))
		}
	}

	// Eager: nothing on B reads the queue, so the deposit stays as the
	// firmware left it.
	small := sa.H.Alloc(8 << 10)
	small.Fill(0x21)
	e.Go("eager-send", func(p *sim.Proc) { epA.ISend(p, epB.Addr(), 1, small, 0, small.Size()) })
	e.RunUntil(e.Now() + 10*sim.Millisecond)
	resident("eager queue", epB.ring)

	// Rendezvous: the pull replies land in the destination buffer,
	// which the zero-copy receive never reads.
	const n = 1 << 20
	src, dst := sa.H.Alloc(n), sb.H.Alloc(n)
	src.Fill(0x33)
	done := false
	e.Go("recv", func(p *sim.Proc) {
		epB.Wait(p, epB.IRecv(p, 2, ^uint64(0), dst, 0, n))
		done = true
	})
	e.Go("send", func(p *sim.Proc) { epA.Wait(p, epA.ISend(p, epB.Addr(), 2, src, 0, n)) })
	e.RunUntil(e.Now() + 2*sim.Second)
	if !done || !hostmem.Equal(src, dst) {
		t.Fatalf("1 MiB receive done=%v intact=%v", done, hostmem.Equal(src, dst))
	}
	resident("pull destination", dst)
}
