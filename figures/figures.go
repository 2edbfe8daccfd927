// Package figures regenerates every table and figure of the paper's
// evaluation (Section IV): the I/OAT microbenchmarks, the ping-pong
// curves of Figures 3 and 8, the CPU-usage breakdown of Figure 9, the
// shared-memory curves of Figure 10, the IMB PingPong comparison of
// Figure 11, the full IMB sweep of Figure 12, and the NAS-IS-style
// workload mentioned in Section IV-D.
//
// Each Fig* function builds a fresh simulated testbed (two dual
// quad-core Clovertown hosts back to back, as in the paper), runs the
// workload, and returns the data as metrics tables whose series names
// match the paper's legends. The cmd/omxsim tool and the omxsimd
// service render them through the section registry (Sections); the
// figure tests assert their qualitative claims. Every figure sweeps
// its points through one scaffold (pool.go), and every world a point
// builds is closed when the point ends.
package figures

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/imb"
	"omxsim/metrics"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
)

// Stack selects a protocol stack for a benchmark run.
type Stack struct {
	// Kind is "openmx" or "mxoe".
	Kind string
	// OMX configures the Open-MX stack (Kind "openmx").
	OMX openmx.Config
	// MX configures the native stack (Kind "mxoe").
	MX mxoe.Config
}

// Name returns the paper-style legend label for the stack.
func (s Stack) Name() string {
	switch s.Kind {
	case "mxoe":
		return "MX"
	case "openmx":
		n := "Open-MX"
		if s.OMX.SkipBHCopy {
			n += " ignoring BH receive copy"
		} else if s.OMX.IOAT {
			n += " with DMA copy in BH receive"
		}
		if !s.OMX.RegCache {
			n += " w/o regcache"
		}
		return n
	}
	return s.Kind
}

// worldOverE is worldOver with invalid input — ppn out of range, an
// unknown stack kind — reported as an error, so untrusted sweep specs
// reaching SweepOn cannot kill a long-running caller.
func worldOverE(c *cluster.Cluster, s Stack, ppn int) (*mpi.World, error) {
	if ppn < 1 || ppn > len(rankCores) {
		return nil, fmt.Errorf("figures: ppn %d out of range 1..%d", ppn, len(rankCores))
	}
	var open func(h *cluster.Host) openmx.Transport
	switch s.Kind {
	case "mxoe":
		open = func(h *cluster.Host) openmx.Transport { return mxoe.Attach(h, s.MX) }
	case "openmx":
		open = func(h *cluster.Host) openmx.Transport { return openmx.Attach(h, s.OMX) }
	default:
		return nil, fmt.Errorf("figures: unknown stack kind %q", s.Kind)
	}
	w := mpi.NewWorld(c)
	for _, h := range c.Hosts() {
		tr := open(h)
		for slot := 0; slot < ppn; slot++ {
			w.AddRank(tr.Open(slot, rankCores[slot]), h, rankCores[slot])
		}
	}
	return w, nil
}

// PingPongSizes is the 16 B – 4 MiB sweep of Figures 3 and 8.
func PingPongSizes() []int { return imb.StandardSizes(16, 4<<20) }

// WideSizes is the 16 B – 16 MiB sweep of Figures 10 and 11.
func WideSizes() []int { return imb.StandardSizes(16, 16<<20) }

// curve pairs a legend label with the stack that produces it.
type curve struct {
	name string
	s    Stack
}

// pingPongTable sweeps one IMB PingPong run per curve (one fresh
// testbed each, so the runs are independent) and assembles their
// throughput (MiB/s per size) into a table in legend order. Runs are
// cached under their whole configuration, so Figures 3 and 8 share
// three of them; every table still gets series of its own.
func pingPongTable(title string, curves []curve, sizes []int) *metrics.Table {
	runs := make([]imbRun, len(curves))
	for i, c := range curves {
		runs[i] = imbRun{s: c.s, nodes: 2, ppn: 1, test: "PingPong", sizes: sizes}
	}
	t := metrics.NewTable(title, "msgsize", "MiB/s")
	for i, results := range imbSweep(runs) {
		s := t.AddSeries(curves[i].name)
		for _, res := range results {
			s.Add(float64(res.Bytes), res.MiBps)
		}
	}
	return t
}

// Fig3 regenerates Figure 3: native MX versus Open-MX versus the
// prediction with the bottom-half receive copy ignored.
func Fig3() *metrics.Table {
	return pingPongTable(
		"Fig. 3: Expected Open-MX improvement when removing the BH receive copy",
		[]curve{
			{"MX", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}},
			{"Open-MX ignoring BH receive copy", Stack{Kind: "openmx", OMX: openmx.Config{SkipBHCopy: true, RegCache: true}}},
			{"Open-MX", Stack{Kind: "openmx", OMX: openmx.Config{RegCache: true}}},
		},
		PingPongSizes())
}

// Fig8 regenerates Figure 8: Figure 3 plus the I/OAT overlapped-copy
// curve.
func Fig8() *metrics.Table {
	return pingPongTable(
		"Fig. 8: Ping-pong improvement using I/OAT vs the no-copy prediction",
		[]curve{
			{"MX", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}},
			{"Open-MX ignoring BH receive copy", Stack{Kind: "openmx", OMX: openmx.Config{SkipBHCopy: true, RegCache: true}}},
			{"Open-MX with DMA copy in BH receive", Stack{Kind: "openmx", OMX: openmx.Config{IOAT: true, RegCache: true}}},
			{"Open-MX", Stack{Kind: "openmx", OMX: openmx.Config{RegCache: true}}},
		},
		PingPongSizes())
}

// Fig11 regenerates Figure 11: IMB PingPong over MXoE and Open-MX,
// with I/OAT and the registration cache enabled or not.
func Fig11() *metrics.Table {
	return pingPongTable(
		"Fig. 11: IMB PingPong with I/OAT and registration cache on/off",
		[]curve{
			{"MX", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}},
			{"Open-MX I/OAT", Stack{Kind: "openmx", OMX: openmx.Config{IOAT: true, RegCache: true}}},
			{"Open-MX", Stack{Kind: "openmx", OMX: openmx.Config{RegCache: true}}},
			{"Open-MX I/OAT w/o regcache", Stack{Kind: "openmx", OMX: openmx.Config{IOAT: true}}},
			{"Open-MX w/o regcache", Stack{Kind: "openmx", OMX: openmx.Config{}}},
		},
		WideSizes())
}
