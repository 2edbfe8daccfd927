package figures

import (
	"strings"
	"testing"

	"omxsim/openmx"
	"omxsim/platform"
)

// availGrid runs a reduced sweep shared by the shape tests (cached on
// the figures pool, so the assertions below simulate it once).
func availGrid(t *testing.T) []AvailPoint {
	t.Helper()
	return AvailSweep([]int{128 << 10, 512 << 10}, AvailIters)
}

func availFind(pts []AvailPoint, mode, place string, size int) AvailPoint {
	for _, p := range pts {
		if p.Mode == mode && p.Place == place && p.Bytes == size {
			return p
		}
	}
	panic("avail point missing")
}

// TestAvailIOATOverlapWins pins the figure's headline claim — and the
// paper's: for rendezvous-sized remote messages the offloaded receive
// achieves strictly more compute/communication overlap than the
// memcpy bottom half, and burns strictly less host CPU per byte.
func TestAvailIOATOverlapWins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := availGrid(t)
	for _, size := range []int{128 << 10, 512 << 10} {
		mem := availFind(pts, "memcpy", "remote", size)
		io := availFind(pts, "I/OAT", "remote", size)
		if io.OverlapPct <= mem.OverlapPct {
			t.Errorf("%s remote: I/OAT overlap %.1f%% not strictly above memcpy %.1f%%",
				sizeName(size), io.OverlapPct, mem.OverlapPct)
		}
		if io.HostCPUPerMB >= mem.HostCPUPerMB {
			t.Errorf("%s remote: I/OAT host CPU %.1f us/MiB not below memcpy %.1f",
				sizeName(size), io.HostCPUPerMB, mem.HostCPUPerMB)
		}
		if io.GoodputMiBps <= mem.GoodputMiBps {
			t.Errorf("%s remote: I/OAT goodput %.1f not above memcpy %.1f",
				sizeName(size), io.GoodputMiBps, mem.GoodputMiBps)
		}
	}
	for _, p := range pts {
		if p.Delivered != p.Iters {
			t.Errorf("%s/%s/%s: only %d/%d round trips verified",
				p.Place, p.Mode, sizeName(p.Bytes), p.Delivered, p.Iters)
		}
		if p.OverlapPct <= 0 || p.OverlapPct > 100 {
			t.Errorf("%s/%s/%s: overlap %.1f%% out of range",
				p.Place, p.Mode, sizeName(p.Bytes), p.OverlapPct)
		}
	}
	// The local one-copy I/OAT path busy-polls (no freed CPU — the
	// paper's honest Section IV-C result) but still moves bytes faster
	// cross-socket and submits cheaper-than-memcpy descriptor work.
	memL := availFind(pts, "memcpy", "local", 512<<10)
	ioL := availFind(pts, "I/OAT", "local", 512<<10)
	if ioL.GoodputMiBps <= memL.GoodputMiBps {
		t.Errorf("local 512kB: I/OAT goodput %.1f not above memcpy %.1f",
			ioL.GoodputMiBps, memL.GoodputMiBps)
	}
}

// TestRenderAvailFooter: the figure footer reports the autotuner's
// chosen thresholds against the paper's, and the chosen values land
// within 2x of the 32 kB defaults on Clovertown.
func TestRenderAvailFooter(t *testing.T) {
	out := RenderAvail(nil)
	if !strings.Contains(out, "# autotune (Clovertown): eager->rndv") ||
		!strings.Contains(out, "paper 32kB") {
		t.Fatalf("footer missing autotune comparison:\n%s", out)
	}
	th := openmx.ProbeThresholds(platform.Clovertown())
	for name, v := range map[string]int{
		"eager->rndv": th.LargeThreshold, "local I/OAT": th.ShmIOATThreshold,
	} {
		if v < 16<<10 || v > 64<<10 {
			t.Errorf("autotuned %s threshold %d outside 2x of the paper's 32 kB", name, v)
		}
	}
	if !strings.Contains(out, sizeName(th.LargeThreshold)) ||
		!strings.Contains(out, sizeName(th.ShmIOATThreshold)) {
		t.Errorf("footer does not show the probed thresholds:\n%s", out)
	}
}
