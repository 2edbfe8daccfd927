package figures

import "testing"

// The adaptive-vs-static acceptance battery: the self-tuning transport
// tier must match the best hand-tuned static policy at every measured
// point — never more than 10% below it — while delivering every
// payload intact. The full grid is the committed figure's; -short runs
// a reduced corner grid so the fast gate stays cheap.

// adaptiveBound is the acceptance bar: adaptive goodput must be at
// least this fraction of the best static policy's at every point.
const adaptiveBound = 0.90

// adaptiveGrid picks the swept (loss, NICs) grid: the figure's full
// cross-product, or the four corners in -short mode.
func adaptiveGrid(t *testing.T) (rates []float64, counts []int) {
	if testing.Short() {
		return []float64{0, 0.05}, []int{1, 4}
	}
	return AdaptiveLossRates(), AdaptiveNICCounts()
}

// TestAdaptiveNeverWorse pins the headline figure's acceptance bar:
// across loss rate x NIC count x copy engine, the adaptive policy's
// goodput is never more than 10% below the best static policy's, every
// measured round trip delivers (with both directions' payloads
// verified end to end), and the impaired points really lost frames.
func TestAdaptiveNeverWorse(t *testing.T) {
	rates, counts := adaptiveGrid(t)
	points := AdaptiveSweep(rates, counts, AdaptiveIters)

	type cell struct{ s2, sn, ad AdaptivePoint }
	grid := make(map[string]*cell)
	key := func(p AdaptivePoint) string {
		return p.Mode + "/" + string(rune('0'+p.NICs)) + "/" + string(rune('a'+int(p.LossRate*100)))
	}
	for _, p := range points {
		c := grid[key(p)]
		if c == nil {
			c = &cell{}
			grid[key(p)] = c
		}
		switch p.Policy {
		case "static-2":
			c.s2 = p
		case "static-2xN":
			c.sn = p
		default:
			c.ad = p
		}
		if p.Delivered != p.Iters {
			t.Errorf("%s/%s loss=%g nics=%d: %d/%d round trips delivered with verified payloads",
				p.Mode, p.Policy, p.LossRate, p.NICs, p.Delivered, p.Iters)
		}
		if p.LossRate > 0 && p.WireLost == 0 {
			t.Errorf("%s/%s loss=%g nics=%d: impaired link lost nothing — point not adversarial",
				p.Mode, p.Policy, p.LossRate, p.NICs)
		}
		if p.LossRate == 0 && p.Retransmits > 0 {
			t.Errorf("%s/%s loss=%g nics=%d: %d retransmissions on a clean link",
				p.Mode, p.Policy, p.LossRate, p.NICs, p.Retransmits)
		}
	}
	for _, c := range grid {
		best := max(c.s2.GoodputMiBps, c.sn.GoodputMiBps)
		if best <= 0 {
			t.Errorf("%s loss=%g nics=%d: no static goodput measured", c.ad.Mode, c.ad.LossRate, c.ad.NICs)
			continue
		}
		ratio := c.ad.GoodputMiBps / best
		if ratio < adaptiveBound {
			t.Errorf("%s loss=%g nics=%d: adaptive %.2f MiB/s is %.2fx best static %.2f (bound %.2f)",
				c.ad.Mode, c.ad.LossRate, c.ad.NICs, c.ad.GoodputMiBps, ratio, best, adaptiveBound)
		}
	}
	if want := 2 * len(rates) * len(counts); len(grid) != want {
		t.Errorf("measured %d grid cells, want %d", len(grid), want)
	}
}

// TestAdaptiveWinsUnderLoss pins the reason the tier exists: at the
// lossy points the adaptive policy must beat BOTH static policies
// outright, not merely stay within the never-worse bound — otherwise
// the RTT-derived timeouts are not actually recovering faster than the
// hand-tuned 2 ms clamp.
func TestAdaptiveWinsUnderLoss(t *testing.T) {
	_, counts := adaptiveGrid(t)
	points := AdaptiveSweep([]float64{0.05}, counts, AdaptiveIters)
	byPolicy := make(map[string]map[string]AdaptivePoint)
	for _, p := range points {
		k := p.Mode + "/" + string(rune('0'+p.NICs))
		if byPolicy[k] == nil {
			byPolicy[k] = make(map[string]AdaptivePoint)
		}
		byPolicy[k][p.Policy] = p
	}
	for k, ps := range byPolicy {
		ad := ps["adaptive"]
		for _, static := range []string{"static-2", "static-2xN"} {
			if s := ps[static]; ad.GoodputMiBps <= s.GoodputMiBps {
				t.Errorf("%s at 5%% loss: adaptive %.2f MiB/s does not beat %s %.2f",
					k, ad.GoodputMiBps, static, s.GoodputMiBps)
			}
		}
	}
}
