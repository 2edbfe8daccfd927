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
// match the paper's legends. The cmd/omxsim tool prints them; the
// figure tests assert their qualitative claims; bench_test.go wraps
// them as testing.B benchmarks.
package figures

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/imb"
	"omxsim/metrics"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
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

// testbed is a multi-node world with ppn ranks per node (block
// placement, as MPICH used).
type testbed struct {
	c *cluster.Cluster
	w *mpi.World
}

// rankCores places up to two ranks per node on cores 2 and 4: distinct
// L2 domains and distinct sockets, so the 2-ppn shared-memory traffic
// crosses sockets (the situation the paper's I/OAT shm path wins in).
var rankCores = []int{2, 4}

// newTestbed builds the paper's 2-node back-to-back testbed over the
// given stack.
func newTestbed(s Stack, ppn int) *testbed { return newTestbedN(s, 2, ppn) }

// newTestbedN builds a testbed of nodes machines with ppn ranks each.
// Two nodes connect back to back (the paper's switchless testbed);
// more go through a store-and-forward Ethernet switch, the collective
// scaling topology.
func newTestbedN(s Stack, nodes, ppn int) *testbed {
	if ppn < 1 || ppn > len(rankCores) {
		panic(fmt.Sprintf("figures: ppn %d out of range 1..%d", ppn, len(rankCores)))
	}
	if nodes < 1 {
		panic(fmt.Sprintf("figures: node count %d out of range", nodes))
	}
	var wiring cluster.Wiring
	switch {
	case nodes == 2:
		wiring = cluster.BackToBack{}
	case nodes > 2:
		wiring = cluster.SingleSwitch{}
	}
	c := cluster.Build(cluster.Topology{
		Hosts:  []cluster.HostSet{{Name: "node", N: nodes, Indexed: true}},
		Wiring: wiring,
	})
	return worldOver(c, s, ppn)
}

// worldOver attaches the stack to every host of a built cluster (in
// creation order) and opens ppn ranks per node, block-placed. It
// panics on invalid input — the figure-generator contract; the
// service path goes through worldOverE.
func worldOver(c *cluster.Cluster, s Stack, ppn int) *testbed {
	w, err := worldOverE(c, s, ppn)
	if err != nil {
		panic(err)
	}
	return &testbed{c: c, w: w}
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

// runIMB runs one IMB test over a fresh testbed and returns its
// results.
func runIMB(s Stack, ppn int, test string, sizes []int, iters func(int) int) []imb.Result {
	tb := newTestbed(s, ppn)
	r := &imb.Runner{C: tb.c, W: tb.w, Iters: iters}
	return r.Run(test, sizes)
}

// imbJob wraps one independent (stack, test, sizes, ppn) IMB run as a
// runner job. itersName canonically names the iteration schedule (the
// schedule itself is a func and cannot be hashed) and becomes part of
// the cache key.
func imbJob(s Stack, ppn int, test string, sizes []int, itersName string, iters func(int) int) runner.Job {
	return runner.Job{
		Label: fmt.Sprintf("imb/%s/%s/%dppn", test, s.Name(), ppn),
		Key:   runner.Key("imb", s, ppn, test, sizes, itersName),
		Run:   func() (any, error) { return runIMB(s, ppn, test, sizes, iters), nil },
	}
}

// PingPongSizes is the 16 B – 4 MiB sweep of Figures 3 and 8.
func PingPongSizes() []int { return imb.StandardSizes(16, 4<<20) }

// WideSizes is the 16 B – 16 MiB sweep of Figures 10 and 11.
func WideSizes() []int { return imb.StandardSizes(16, 16<<20) }

// pingPongCurve measures IMB PingPong throughput (MiB/s) per size,
// labelled with the paper's legend text.
func pingPongCurve(name string, s Stack, sizes []int) *metrics.Series {
	out := &metrics.Series{Name: name}
	for _, res := range runIMB(s, 1, "PingPong", sizes, nil) {
		out.Add(float64(res.Bytes), res.MiBps)
	}
	return out
}

// curve pairs a legend label with the stack that produces it.
type curve struct {
	name string
	s    Stack
}

// pingPongTable sweeps the curves concurrently (one fresh testbed per
// curve, so the runs are independent) and assembles them into a table
// in legend order. Curves are cached under (name, stack, sizes):
// Figures 3 and 8 share three of them.
func pingPongTable(title string, curves []curve, sizes []int) *metrics.Table {
	t := metrics.NewTable(title, "msgsize", "MiB/s")
	jobs := make([]runner.Job, len(curves))
	for i, c := range curves {
		c := c
		jobs[i] = runner.Job{
			Label: "pingpong/" + c.name,
			Key:   runner.Key("pingpong-curve", c.name, c.s, sizes),
			Run:   func() (any, error) { return pingPongCurve(c.name, c.s, sizes), nil },
		}
	}
	// Clone what the sweep returns: cached jobs hand every caller the
	// same *Series, and tables are mutable public API — aliasing the
	// cache would let one figure's caller corrupt another's curves.
	for _, s := range sweep[*metrics.Series](jobs) {
		t.Series = append(t.Series, s.Clone())
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
