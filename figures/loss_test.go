package figures

import (
	"testing"
)

// TestLossPointRecovers (fast gate): one impaired point per stack —
// every transfer must complete with verified payloads and nonzero
// retransmission activity.
func TestLossPointRecovers(t *testing.T) {
	for _, st := range lossStacks() {
		pt := lossPoint(st.name, st.s, 0.02, 256<<10, 8)
		if pt.Delivered != pt.Iters {
			t.Errorf("%s: delivered %d/%d at 2%% loss", st.name, pt.Delivered, pt.Iters)
		}
		if pt.Retransmits == 0 {
			t.Errorf("%s: no retransmits at 2%% loss on %d frames lost", st.name, pt.WireLost)
		}
		if pt.WireLost == 0 {
			t.Errorf("%s: impairment lost no frames", st.name)
		}
	}
}

// TestLossPointCleanHasNoRecovery (fast gate): at zero loss the
// reliability machinery must be invisible.
func TestLossPointCleanHasNoRecovery(t *testing.T) {
	for _, st := range lossStacks() {
		pt := lossPoint(st.name, st.s, 0, 256<<10, 8)
		if pt.Delivered != pt.Iters {
			t.Errorf("%s: delivered %d/%d on a clean link", st.name, pt.Delivered, pt.Iters)
		}
		if pt.Retransmits != 0 || pt.WireLost != 0 {
			t.Errorf("%s: clean link shows rtx=%d lost=%d", st.name, pt.Retransmits, pt.WireLost)
		}
	}
}

// TestLossSweepProperties asserts the full figure's qualitative
// claims: everything delivered at every loss rate, retransmits
// bounded and correlated with loss, goodput degrading with loss.
func TestLossSweepProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	points := LossSweep(LossRates(), LossSizes(), LossIters)
	byKey := map[[2]int]map[float64]LossPoint{}
	stackIdx := map[string]int{}
	for i, st := range lossStacks() {
		stackIdx[st.name] = i
	}
	for _, p := range points {
		if p.Delivered != p.Iters {
			t.Errorf("%s %g%% %dB: delivered %d/%d", p.Stack, p.LossRate*100, p.Bytes, p.Delivered, p.Iters)
		}
		if p.P99Usec < p.P50Usec {
			t.Errorf("%s %g%% %dB: p99 %v < p50 %v", p.Stack, p.LossRate*100, p.Bytes, p.P99Usec, p.P50Usec)
		}
		switch {
		case p.LossRate == 0:
			if p.Retransmits != 0 || p.WireLost != 0 {
				t.Errorf("%s clean %dB: rtx=%d lost=%d", p.Stack, p.Bytes, p.Retransmits, p.WireLost)
			}
		default:
			// Bounded recovery: a handful of retransmissions per lost
			// frame, not a storm.
			if p.Retransmits > 8*p.WireLost+8 {
				t.Errorf("%s %g%% %dB: %d retransmits for %d lost frames (unbounded?)",
					p.Stack, p.LossRate*100, p.Bytes, p.Retransmits, p.WireLost)
			}
		}
		key := [2]int{stackIdx[p.Stack], p.Bytes}
		if byKey[key] == nil {
			byKey[key] = map[float64]LossPoint{}
		}
		byKey[key][p.LossRate] = p
	}
	// Loss must cost goodput on bulk transfers.
	for key, m := range byKey {
		if key[1] < 256<<10 {
			continue
		}
		clean, lossy := m[0], m[0.05]
		if lossy.GoodputMiBps >= clean.GoodputMiBps {
			t.Errorf("stack %d size %d: 5%% loss goodput %.1f ≥ clean %.1f",
				key[0], key[1], lossy.GoodputMiBps, clean.GoodputMiBps)
		}
	}
	// Retransmits at 5% exceed those at 1% for the 1 MiB transfers.
	for _, st := range lossStacks() {
		m := byKey[[2]int{stackIdx[st.name], 1 << 20}]
		if m[0.05].Retransmits <= m[0.01].Retransmits {
			t.Errorf("%s 1MiB: rtx at 5%% (%d) not above 1%% (%d)",
				st.name, m[0.05].Retransmits, m[0.01].Retransmits)
		}
	}
}
