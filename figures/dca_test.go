package figures

import "testing"

func dcaFind(pts []DCAPoint, mode, place string, size int) DCAPoint {
	for _, p := range pts {
		if p.Mode == mode && p.Place == place && p.Bytes == size {
			return p
		}
	}
	panic("dca point missing")
}

// TestDCAShape pins the figure's headline claims: with a consumer
// that actually reads its payloads, cache locality beats the raw
// offload on the interrupt core (memcpy > I/OAT in goodput), DCA
// extends that win (DCA >= memcpy) while costing less host CPU than
// the plain bottom half, and once the consumer moves cross-socket —
// locality gone — the offload's goodput win returns.
func TestDCAShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const size = 256 << 10
	pts := DCASweep([]int{size}, DCAIters)

	mem := dcaFind(pts, "memcpy", "same-core", size)
	io := dcaFind(pts, "I/OAT", "same-core", size)
	dca := dcaFind(pts, "DCA", "same-core", size)
	if mem.GoodputMiBps <= io.GoodputMiBps {
		t.Errorf("same-core: memcpy goodput %.1f not above I/OAT %.1f (warm consume should win)",
			mem.GoodputMiBps, io.GoodputMiBps)
	}
	if dca.GoodputMiBps < mem.GoodputMiBps {
		t.Errorf("same-core: DCA goodput %.1f below memcpy %.1f", dca.GoodputMiBps, mem.GoodputMiBps)
	}
	// The mechanism, not just the outcome: the offloaded payload is
	// DMA-cold at the consumer while the copied one is cache-warm.
	if mem.ConsumeGiBps <= 2*io.ConsumeGiBps {
		t.Errorf("same-core: memcpy consume rate %.2f GiB/s not clearly above DMA-cold %.2f",
			mem.ConsumeGiBps, io.ConsumeGiBps)
	}
	// I/OAT keeps the availability win regardless; DCA cheapens the
	// bottom half (its source is LLC-resident, not snooped from DRAM).
	if io.HostCPUPerMB >= mem.HostCPUPerMB {
		t.Errorf("same-core: I/OAT host CPU %.1f us/MiB not below memcpy %.1f",
			io.HostCPUPerMB, mem.HostCPUPerMB)
	}
	if dca.HostCPUPerMB >= mem.HostCPUPerMB {
		t.Errorf("same-core: DCA host CPU %.1f us/MiB not below memcpy %.1f",
			dca.HostCPUPerMB, mem.HostCPUPerMB)
	}

	// Cross-socket the consumer snoops the copying core's cache from
	// the other die — locality is gone and the offload wins again.
	memX := dcaFind(pts, "memcpy", "cross-socket", size)
	ioX := dcaFind(pts, "I/OAT", "cross-socket", size)
	if ioX.GoodputMiBps <= memX.GoodputMiBps {
		t.Errorf("cross-socket: I/OAT goodput %.1f not above memcpy %.1f",
			ioX.GoodputMiBps, memX.GoodputMiBps)
	}

	for _, p := range pts {
		if p.Delivered != p.Iters {
			t.Errorf("%s/%s: only %d/%d payloads verified", p.Place, p.Mode, p.Delivered, p.Iters)
		}
		// Every variant posts the same buffers repeatedly: the
		// registration cache must be amortizing the pins.
		if p.RegHitPct <= 50 {
			t.Errorf("%s/%s: regcache hit rate %.1f%% not amortizing", p.Place, p.Mode, p.RegHitPct)
		}
	}
}
