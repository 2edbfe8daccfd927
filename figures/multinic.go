package figures

import (
	"fmt"
	"strings"

	"omxsim/cluster"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// The multi-NIC figure (beyond the paper): the pull protocol was
// sized for one NIC — two pipelined blocks of eight fragments. With a
// host's endpoint striped across an aggregated link, that fixed
// window can only keep two lanes busy at a time no matter how many
// cables are plugged in, so aggregate goodput plateaus; widening the
// window to two blocks per NIC (the Attach default on multi-NIC
// hosts) lets every lane carry a block and goodput scales with the
// aggregate wire. The sweep measures ping-pong goodput across message
// size x {1,2,4} NICs x {memcpy, I/OAT} receive copies, each window
// policy separately, plus the per-NIC transmit balance from the
// per-NIC counters.

// MultiNICCounts returns the swept NIC counts.
func MultiNICCounts() []int { return []int{1, 2, 4} }

// MultiNICSizes returns the swept message sizes — all above the
// rendezvous threshold, so every transfer exercises the pull window.
func MultiNICSizes() []int { return []int{128 << 10, 512 << 10, 2 << 20, 8 << 20} }

// MultiNICIters is the ping-pong iteration count per point.
const MultiNICIters = 6

// multiNICWindows names the compared pull-window policies: the
// paper's fixed two blocks, and two blocks per NIC.
func multiNICWindows() []string { return []string{"fixed", "per-NIC"} }

// multiNICModes are the compared receive-copy engines.
func multiNICModes() []string { return []string{"memcpy", "I/OAT"} }

// multiNICIRQCores steers NIC interrupts away from the benchmark
// cores (ranks run on core 2): one bottom half per NIC, each in its
// own L2 domain.
var multiNICIRQCores = []int{0, 3, 5, 6}

// MultiNICPoint is one measured (mode, window, NIC count, size)
// combination.
type MultiNICPoint struct {
	Mode   string // receive copy: "memcpy" or "I/OAT"
	Window string // pull window: "fixed" (2 blocks) or "per-NIC" (2 x NICs)
	NICs   int
	Bytes  int
	Iters  int

	Delivered    int     // round trips with verified payloads in both directions
	GoodputMiBps float64 // one-way payload goodput over the whole run
	// LaneBalance is min/max transmitted frames across the sender
	// host's NICs (1.00 = perfectly balanced striping), from the
	// per-NIC NetStats counters.
	LaneBalance float64
}

// multiNICConfig builds the Open-MX configuration of one point. The
// "per-NIC" window leaves PullBlocks unset, taking the Attach default
// of two blocks per NIC; "fixed" pins the paper's two blocks total.
func multiNICConfig(mode, window string) openmx.Config {
	cfg := openmx.Config{RegCache: true, IOAT: mode == "I/OAT"}
	if window == "fixed" {
		cfg.PullBlocks = 2
	}
	return cfg
}

// multiNICPoint runs one point on a fresh two-host testbed with nics
// aggregated cables.
func multiNICPoint(mode, window string, nics, size, iters int) MultiNICPoint {
	c := cluster.New(nil)
	defer c.Close()
	irq := cluster.NICIRQCores(multiNICIRQCores...)
	a := c.NewHost("node0", cluster.MultiNIC(nics, irq))
	b := c.NewHost("node1", cluster.MultiNIC(nics, irq))
	cluster.Link(a, b)
	cfg := multiNICConfig(mode, window)
	ea := openmx.Attach(a, cfg).Open(0, 2)
	eb := openmx.Attach(b, cfg).Open(0, 2)
	_, delivered, elapsed := pingPong(c, ea, eb, size, 0, iters, 60*sim.Second)
	pt := MultiNICPoint{
		Mode: mode, Window: window, NICs: nics, Bytes: size, Iters: iters,
		Delivered:    delivered,
		GoodputMiBps: goodput(delivered, size, elapsed),
	}
	// Striping balance from the per-NIC counters of the initiating
	// host (data frames answer pulls, so both hosts transmit bulk).
	for _, h := range c.NetStats().Hosts {
		if h.Host != "node0" {
			continue
		}
		minTx, maxTx := int64(-1), int64(0)
		for _, n := range h.NICs {
			if minTx < 0 || n.TxFrames < minTx {
				minTx = n.TxFrames
			}
			if n.TxFrames > maxTx {
				maxTx = n.TxFrames
			}
		}
		if maxTx > 0 {
			pt.LaneBalance = float64(minTx) / float64(maxTx)
		}
	}
	return pt
}

// MultiNICSweep measures every (mode, window, NIC count, size) point
// of the grid as an independent runner job, in sweep order (mode
// outermost, then window, then size, then NIC count). The section
// renders the default grid (MultiNICCounts, MultiNICSizes,
// MultiNICIters).
func MultiNICSweep(counts, sizes []int, iters int) []MultiNICPoint {
	var jobs []runner.Job
	for _, mode := range multiNICModes() {
		for _, window := range multiNICWindows() {
			for _, size := range sizes {
				for _, nics := range counts {
					jobs = append(jobs, job(fmt.Sprintf("multinic/%s/%s/%s/%dnic", mode, window, sizeName(size), nics),
						runner.Key("multinic", mode, window, nics, size, iters),
						func() MultiNICPoint { return multiNICPoint(mode, window, nics, size, iters) }))
				}
			}
		}
	}
	return sweep[MultiNICPoint](jobs...)
}

// RenderMultiNIC formats the sweep: one row per (mode, window, size)
// with goodput per NIC count, the 4-NIC speedup over 1 NIC, and the
// striping balance at the widest aggregation.
func RenderMultiNIC(points []MultiNICPoint) string {
	byKey := make(map[string]MultiNICPoint, len(points))
	key := func(mode, window string, nics, size int) string {
		return fmt.Sprintf("%s/%s/%d/%d", mode, window, nics, size)
	}
	for _, p := range points {
		byKey[key(p.Mode, p.Window, p.NICs, p.Bytes)] = p
	}
	counts := MultiNICCounts()
	var b strings.Builder
	fmt.Fprintf(&b, "# link-aggregated striping: ping-pong goodput across NIC count (%d iters, rendezvous pull, regcache)\n", MultiNICIters)
	fmt.Fprintf(&b, "# window: fixed = 2 pull blocks total (the paper's single-NIC sizing); per-NIC = 2 blocks x NICs\n")
	fmt.Fprintf(&b, "%-7s %-8s %8s", "copy", "window", "msgsize")
	for _, n := range counts {
		fmt.Fprintf(&b, " %7d-NIC", n)
	}
	fmt.Fprintf(&b, " %7s %9s %10s\n", "x4/x1", "lane-bal", "delivered")
	for _, mode := range multiNICModes() {
		for _, window := range multiNICWindows() {
			for _, size := range MultiNICSizes() {
				fmt.Fprintf(&b, "%-7s %-8s %8s", mode, window, sizeName(size))
				var first, last MultiNICPoint
				delivered, iters := 0, 0
				for i, n := range counts {
					p, ok := byKey[key(mode, window, n, size)]
					if !ok {
						continue
					}
					fmt.Fprintf(&b, " %11.2f", p.GoodputMiBps)
					if i == 0 {
						first = p
					}
					last = p
					delivered += p.Delivered
					iters += p.Iters
				}
				speedup := 0.0
				if first.GoodputMiBps > 0 {
					speedup = last.GoodputMiBps / first.GoodputMiBps
				}
				fmt.Fprintf(&b, " %7.2f %9.2f %7d/%d\n", speedup, last.LaneBalance, delivered, iters)
			}
		}
	}
	return b.String()
}
