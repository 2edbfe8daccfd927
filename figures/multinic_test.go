package figures

import (
	"testing"
)

// multiNICGrid runs a reduced sweep shared by the shape tests
// (cached on the figures pool, so the assertions simulate it once).
func multiNICGrid(t *testing.T) []MultiNICPoint {
	t.Helper()
	return MultiNICSweep([]int{1, 4}, []int{512 << 10, 2 << 20}, MultiNICIters)
}

func multiNICFind(t *testing.T, pts []MultiNICPoint, mode, window string, nics, size int) MultiNICPoint {
	t.Helper()
	for _, p := range pts {
		if p.Mode == mode && p.Window == window && p.NICs == nics && p.Bytes == size {
			return p
		}
	}
	t.Fatalf("multinic point %s/%s/%d/%d missing", mode, window, nics, size)
	return MultiNICPoint{}
}

// TestMultiNICScalingWins pins the figure's headline claims: with the
// pull window widened to two blocks per NIC, four aggregated NICs buy
// at least 1.7x the single-NIC goodput for >=512 kB messages (both
// receive-copy engines), while the paper's fixed two-block window
// demonstrably plateaus — it can only keep two lanes busy, so its
// 4-NIC goodput stays well under the widened window's and its scaling
// factor stays under the widened one.
func TestMultiNICScalingWins(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := multiNICGrid(t)
	for _, mode := range multiNICModes() {
		for _, size := range []int{512 << 10, 2 << 20} {
			one := multiNICFind(t, pts, mode, "per-NIC", 1, size)
			four := multiNICFind(t, pts, mode, "per-NIC", 4, size)
			fixed4 := multiNICFind(t, pts, mode, "fixed", 4, size)
			if four.GoodputMiBps < 1.7*one.GoodputMiBps {
				t.Errorf("%s/%s: 4-NIC goodput %.1f MiB/s not >=1.7x the 1-NIC %.1f",
					mode, sizeName(size), four.GoodputMiBps, one.GoodputMiBps)
			}
			// The fixed window's plateau: clearly below the widened
			// window at the same aggregation, and scaling strictly
			// worse than the widened window does.
			if fixed4.GoodputMiBps > 0.75*four.GoodputMiBps {
				t.Errorf("%s/%s: fixed-window 4-NIC goodput %.1f not clearly below widened %.1f",
					mode, sizeName(size), fixed4.GoodputMiBps, four.GoodputMiBps)
			}
			fixed1 := multiNICFind(t, pts, mode, "fixed", 1, size)
			if fixed4.GoodputMiBps/fixed1.GoodputMiBps >= four.GoodputMiBps/one.GoodputMiBps {
				t.Errorf("%s/%s: fixed window scaled %.2fx, not below widened %.2fx",
					mode, sizeName(size),
					fixed4.GoodputMiBps/fixed1.GoodputMiBps,
					four.GoodputMiBps/one.GoodputMiBps)
			}
		}
	}
	for _, p := range pts {
		if p.Delivered != p.Iters {
			t.Errorf("%s/%s/%d-NIC/%s: only %d/%d round trips payload-verified",
				p.Mode, p.Window, p.NICs, sizeName(p.Bytes), p.Delivered, p.Iters)
		}
		if p.NICs == 1 && p.LaneBalance != 1 {
			t.Errorf("%s/%s/%s: 1-NIC lane balance %.2f, want 1.00",
				p.Mode, p.Window, sizeName(p.Bytes), p.LaneBalance)
		}
		if p.NICs == 4 && p.Window == "per-NIC" && p.LaneBalance < 0.8 {
			t.Errorf("%s/%s: 4-NIC striping imbalanced: min/max lane tx %.2f",
				p.Mode, sizeName(p.Bytes), p.LaneBalance)
		}
	}
}

// TestMultiNICWindowIrrelevantBelowWindow: a 128 kB message is only
// two 8-fragment blocks, so the fixed and widened windows must
// measure identically — the figure's "where window growth is
// required" boundary.
func TestMultiNICWindowIrrelevantBelowWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pts := MultiNICSweep([]int{4}, []int{128 << 10}, MultiNICIters)
	fixed := multiNICFind(t, pts, "memcpy", "fixed", 4, 128<<10)
	widened := multiNICFind(t, pts, "memcpy", "per-NIC", 4, 128<<10)
	if fixed.GoodputMiBps != widened.GoodputMiBps {
		t.Errorf("128kB: fixed %.2f != widened %.2f MiB/s — a 2-block message must not see the window",
			fixed.GoodputMiBps, widened.GoodputMiBps)
	}
}
