package openmx_test

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/openmx"
	"omxsim/platform"
	"omxsim/sim"
)

// Example shows the minimal Open-MX round trip: two hosts linked back
// to back, one endpoint each, a tagged send matched by a receive. The
// simulation is deterministic, so the completion facts below are a
// committed guarantee, not a flaky timing observation.
func Example() {
	c := cluster.New(nil) // nil platform = the paper's Clovertown testbed
	defer c.Close()
	n0, n1 := c.NewHost("n0"), c.NewHost("n1")
	cluster.Link(n0, n1)

	s0 := openmx.Attach(n0, openmx.Config{IOAT: true, RegCache: true})
	s1 := openmx.Attach(n1, openmx.Config{IOAT: true, RegCache: true})
	e0, e1 := s0.Open(0, 2), s1.Open(0, 2)

	const n = 64 << 10
	src, dst := n0.Alloc(n), n1.Alloc(n)
	src.Fill(0xA5)

	var got openmx.Request
	c.Go("recv", func(p *sim.Proc) {
		got = e1.IRecv(p, 42, ^uint64(0), dst, 0, n)
		e1.Wait(p, got)
	})
	c.Go("send", func(p *sim.Proc) {
		e0.Wait(p, e0.ISend(p, e1.Addr(), 42, src, 0, n))
	})
	c.Run()

	fmt.Printf("received %d bytes from %s, match %d\n", got.Len(), got.Sender().Host, got.Match())
	fmt.Printf("payload verified: %v\n", cluster.Equal(src, dst))
	// Output:
	// received 65536 bytes from n0, match 42
	// payload verified: true
}

// ExampleStack_CPUStats demonstrates the per-core CPU ledgers: after
// an offloaded large-message receive, the receiving host shows
// bottom-half protocol time and I/OAT submission time, but the bulk
// copy itself ran on the DMA engine — the paper's availability
// argument in two booleans.
func ExampleStack_CPUStats() {
	c := cluster.New(nil)
	defer c.Close()
	n0, n1 := c.NewHost("n0"), c.NewHost("n1")
	cluster.Link(n0, n1)
	s0 := openmx.Attach(n0, openmx.Config{IOAT: true, RegCache: true})
	s1 := openmx.Attach(n1, openmx.Config{IOAT: true, RegCache: true})
	e0, e1 := s0.Open(0, 2), s1.Open(0, 2)

	const n = 1 << 20
	src, dst := n0.Alloc(n), n1.Alloc(n)
	c.Go("recv", func(p *sim.Proc) {
		r := e1.IRecv(p, 1, ^uint64(0), dst, 0, n)
		e1.Wait(p, r)
	})
	c.Go("send", func(p *sim.Proc) {
		e0.Wait(p, e0.ISend(p, e1.Addr(), 1, src, 0, n))
	})
	c.Run()

	st := s1.CPUStats() // deterministic snapshot of every core's ledgers
	fmt.Printf("cores: %d\n", len(st.Cores))
	fmt.Printf("bottom-half protocol time > 0: %v\n", st.Busy(openmx.CPUBHProc) > 0)
	fmt.Printf("ioat submission time > 0: %v\n", st.Busy(openmx.CPUIOATSubmit) > 0)
	fmt.Printf("submission cheaper than 10%% of window: %v\n",
		st.BusyPct(openmx.CPUIOATSubmit) < 10)
	// Output:
	// cores: 8
	// bottom-half protocol time > 0: true
	// ioat submission time > 0: true
	// submission cheaper than 10% of window: true
}

// ExampleProbeThresholds runs the adaptive autotuner's startup probe
// against the modelled Clovertown platform. The crossover points it
// picks land within a factor of two of the constants the paper chose
// by hand (32 kB eager→rendezvous, 32 kB local I/OAT switch);
// AutoTuned returns a configuration built from them.
func ExampleProbeThresholds() {
	th := openmx.ProbeThresholds(platform.Clovertown())
	d := openmx.Defaults()
	within2x := func(tuned, paper int) bool { return tuned >= paper/2 && tuned <= paper*2 }
	fmt.Printf("eager->rndv within 2x of paper: %v\n", within2x(th.LargeThreshold, d.LargeThreshold))
	fmt.Printf("local I/OAT within 2x of paper: %v\n", within2x(th.ShmIOATThreshold, d.ShmIOATThreshold))
	fmt.Printf("offload fragment floor: %d bytes\n", th.IOATMinFrag)
	// Output:
	// eager->rndv within 2x of paper: true
	// local I/OAT within 2x of paper: true
	// offload fragment floor: 1024 bytes
}
