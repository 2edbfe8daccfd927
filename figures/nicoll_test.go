package figures

import "testing"

// nicollGrid is the reduced sweep the guardrails share (cached on the
// figures pool, so the assertions below simulate it once): the
// acceptance ops at 64 ranks with a short iteration count.
func nicollGrid() []NICollPoint {
	ops := []NICollOp{{"Barrier", 0}, {"Bcast", 4 << 10}, {"Allreduce", 4 << 10}}
	return NICollSweep(ops, []int{64}, 4)
}

func nicollFind(pts []NICollPoint, op, series string) NICollPoint {
	for _, p := range pts {
		if p.Op == op && p.Series == series {
			return p
		}
	}
	panic("nicoll point missing: " + op + "/" + series)
}

// TestNicollFirmwareCPUWins pins the figure's acceptance claim: at 64
// ranks the firmware Barrier, Bcast and Allreduce burn strictly less
// host CPU per collective than the best host-driven variant, with
// every result verified, and the offloaded data collectives overlap
// strictly more compute than their blocking host counterparts.
func TestNicollFirmwareCPUWins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := nicollGrid()
	hostSeries := []string{"Open-MX host", "Open-MX I/OAT host", "MX host"}
	for _, op := range []string{"Barrier", "Bcast", "Allreduce"} {
		fw := nicollFind(pts, op, "MX NIC-offload")
		bestHost := nicollFind(pts, op, hostSeries[0])
		for _, hs := range hostSeries[1:] {
			if p := nicollFind(pts, op, hs); p.HostCPUUsec < bestHost.HostCPUUsec {
				bestHost = p
			}
		}
		if fw.HostCPUUsec >= bestHost.HostCPUUsec {
			t.Errorf("%s: firmware host-CPU %.1f us/coll not strictly below best host variant %q at %.1f",
				op, fw.HostCPUUsec, bestHost.Series, bestHost.HostCPUUsec)
		}
		if fw.OverlapPct <= bestHost.OverlapPct && op != "Barrier" {
			t.Errorf("%s: firmware overlap %.1f%% not above best host variant's %.1f%%",
				op, fw.OverlapPct, bestHost.OverlapPct)
		}
	}
	for _, p := range pts {
		if !p.Verified {
			t.Errorf("%s/%s/%d ranks: results failed verification", p.Op, p.Series, p.Ranks)
		}
		if p.OverlapPct < 0 || p.OverlapPct > 100 {
			t.Errorf("%s/%s: overlap %.1f%% out of range", p.Op, p.Series, p.OverlapPct)
		}
	}
}
