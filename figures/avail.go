package figures

import (
	"fmt"
	"strings"

	"omxsim/cluster"
	"omxsim/internal/cpu"
	"omxsim/openmx"
	"omxsim/platform"
	"omxsim/runner"
	"omxsim/sim"
)

// The availability figure (`omxsim avail`) reproduces the paper's
// headline argument directly: I/OAT's win is not raw latency but freed
// host CPU — the DMA engine moves bytes while the processor runs
// application code. The sweep is a ping-pong with injected
// per-iteration compute on rank 0, message size × {memcpy, I/OAT} ×
// {remote, local}, with rank 0 pinned to the interrupt core so
// bottom-half receive work and application compute contend for the
// same CPU (the paper's one-CPU availability methodology). Each point
// runs the same ping-pong twice:
//
//  1. compute-free, measuring the pure communication time T_comm, the
//     non-compute host CPU it consumed, and goodput;
//  2. with injected compute self-calibrated to twice T_comm (split
//     evenly across iterations), so rank 0's core is saturated and
//     every microsecond the receive path steals from the application
//     surfaces as lost overlap.
//
// Achieved overlap % is then
//
//	(T_comm + T_compute − T_both) / min(T_comm, T_compute) × 100
//
// — 100 % when communication hides entirely behind compute (the DMA
// engine moves the bytes), sinking toward 0 as the bottom-half memcpy
// steals the application's cycles. Host CPU µs per MiB counts every
// non-compute busy ledger on every involved host per mebibyte of
// payload moved — the paper's "cycles returned to the application"
// per unit of data.
//
// Between compute quanta rank 0 calls Test, the standard MPI
// overlap idiom — the library must get occasional control to turn a
// rendezvous event into a pull — and the quantum models a preemptive
// kernel's scheduling granularity.

// AvailSizes returns the swept message sizes: one eager size below
// every threshold, then rendezvous sizes where the offload engages.
func AvailSizes() []int { return []int{32 << 10, 128 << 10, 512 << 10, 2 << 20} }

// AvailIters is the measured ping-pong iteration count per point
// (after one warm-up round trip).
const AvailIters = 8

// availComputeFactor scales the injected compute relative to the
// measured communication time (2 saturates the core: there is always
// application work the receive path could be stealing cycles from).
const availComputeFactor = 2

// availQuantum is the compute slice between library progress polls.
const availQuantum = 5 * sim.Microsecond

// AvailPoint is one measured (mode, placement, size) combination.
type AvailPoint struct {
	Mode  string // "memcpy" or "I/OAT"
	Place string // "remote" (two hosts) or "local" (one host, cross-socket)
	Bytes int
	Iters int
	// Delivered counts round trips whose payloads verified in both
	// directions — the minimum across the compute-free and the
	// compute-loaded run, so a corruption in either invalidates the
	// point.
	Delivered int

	OverlapPct   float64 // achieved compute/communication overlap
	HostCPUPerMB float64 // non-compute host CPU µs per MiB of payload moved
	GoodputMiBps float64 // one-way payload goodput, compute-free run
}

// availConfig builds the stack configuration for one mode/placement.
func availConfig(mode, place string) openmx.Config {
	cfg := openmx.Config{RegCache: true}
	if mode == "I/OAT" {
		cfg.IOAT = true
		if place == "local" {
			cfg.IOATShm = true
		}
	}
	return cfg
}

// availRun executes one measured ping-pong and returns the elapsed
// time of the measured phase, the non-compute host CPU it consumed
// (all involved hosts), and the verified round-trip count.
func availRun(mode, place string, size, iters int, compute sim.Duration) (elapsed sim.Duration, commCPU sim.Duration, delivered int) {
	cfg := availConfig(mode, place)
	c := cluster.New(nil)
	defer c.Close()
	ha := c.NewHost("node0")
	sa := openmx.Attach(ha, cfg)
	var hb *cluster.Host
	var sb *openmx.Stack
	var coreA, coreB int
	if place == "remote" {
		hb = c.NewHost("node1")
		cluster.Link(ha, hb)
		sb = openmx.Attach(hb, cfg)
		// Both ranks on their host's interrupt core: receive bottom
		// halves and application compute contend for the same CPU.
		coreA, coreB = 0, 0
	} else {
		hb, sb = ha, sa
		// Cross-socket placement, the Figure 10 case the shared-memory
		// I/OAT path targets. Core 0 still takes the (idle) NIC's
		// interrupts.
		coreA, coreB = 0, 4
	}
	ea := sa.Open(0, coreA)
	eb := sb.Open(1, coreB)

	sendA, recvA := ha.Alloc(size), ha.Alloc(size)
	sendB, recvB := hb.Alloc(size), hb.Alloc(size)
	machineA := ha.Machine()

	var t0, t1 sim.Time
	warmups := 1
	total := warmups + iters
	c.Go("rankB", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			r := eb.IRecv(p, uint64(i), ^uint64(0), recvB, 0, size)
			eb.Wait(p, r)
			sendB.Fill(byte(2*i + 2))
			sendB.Produce(coreB)
			eb.Wait(p, eb.ISend(p, ea.Addr(), uint64(1000+i), sendB, 0, size))
		}
	})
	c.Go("rankA", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			if i == warmups {
				// Measured phase: fresh CPU window on every host.
				sa.ResetCPUStats()
				if place == "remote" {
					sb.ResetCPUStats()
				}
				t0 = p.Now()
			}
			sendA.Fill(byte(2*i + 1))
			sendA.Produce(coreA)
			rr := ea.IRecv(p, uint64(1000+i), ^uint64(0), recvA, 0, size)
			rs := ea.ISend(p, eb.Addr(), uint64(i), sendA, 0, size)
			// Injected application compute, sliced so bottom-half work
			// interleaves; Test between quanta is the progress poll.
			for left := compute; left > 0; left -= availQuantum {
				machineA.Sys.Core(coreA).RunOn(p, cpu.AppCompute, min(left, availQuantum))
				ea.Test(p, rr)
			}
			ea.Wait(p, rs)
			ea.Wait(p, rr)
			if i >= warmups && cluster.Equal(sendA, recvB) && cluster.Equal(sendB, recvA) {
				delivered++
			}
			t1 = p.Now()
		}
	})
	if blocked := c.Run(); blocked != 0 {
		panic(fmt.Sprintf("figures: avail %s/%s/%d deadlocked", mode, place, size))
	}
	st := sa.CPUStats()
	commCPU = st.Busy() - st.Busy(cpu.AppCompute)
	if place == "remote" {
		stB := sb.CPUStats()
		commCPU += stB.Busy() - stB.Busy(cpu.AppCompute)
	}
	return t1 - t0, commCPU, delivered
}

// availPoint measures one sweep point: a compute-free run for goodput
// and CPU cost, then a compute-loaded run for the achieved overlap.
func availPoint(mode, place string, size, iters int) AvailPoint {
	comm, commCPU, delivered := availRun(mode, place, size, iters, 0)
	computeIter := availComputeFactor * comm / sim.Duration(iters)
	compute := computeIter * sim.Duration(iters)
	both, _, deliveredBoth := availRun(mode, place, size, iters, computeIter)

	pt := AvailPoint{Mode: mode, Place: place, Bytes: size, Iters: iters,
		Delivered:  min(delivered, deliveredBoth),
		OverlapPct: overlapPct(comm, compute, both)}
	moved := float64(2*iters*size) / (1 << 20) // both directions
	if moved > 0 {
		pt.HostCPUPerMB = sim.Time(commCPU).Micros() / moved
	}
	if comm > 0 {
		pt.GoodputMiBps = float64(iters*size) / (1 << 20) / sim.Time(comm).Seconds()
	}
	return pt
}

// overlapPct is the achieved overlap, in percent clamped to [0, 100],
// of a run that took both with compute of application work injected
// and comm without it: (comm + compute − both) / min(comm, compute).
func overlapPct(comm, compute, both sim.Duration) float64 {
	denom := min(comm, compute)
	if denom <= 0 {
		return 0
	}
	return max(0, min(100, float64(comm+compute-both)/float64(denom)*100))
}

// AvailSweep measures every (mode, placement, size) point of the grid
// as an independent runner job and returns them in sweep order
// (placement outermost, then mode, then size). The section renders
// the default grid (AvailSizes, AvailIters).
func AvailSweep(sizes []int, iters int) []AvailPoint {
	var jobs []runner.Job
	for _, place := range []string{"remote", "local"} {
		for _, mode := range []string{"memcpy", "I/OAT"} {
			for _, size := range sizes {
				jobs = append(jobs, job(fmt.Sprintf("avail/%s/%s/%s", place, mode, sizeName(size)),
					runner.Key("avail", place, mode, size, iters),
					func() AvailPoint { return availPoint(mode, place, size, iters) }))
			}
		}
	}
	return sweep[AvailPoint](jobs...)
}

// RenderAvail formats the sweep as a fixed-width table with the
// autotuner footer (chosen versus paper thresholds).
func RenderAvail(points []AvailPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# CPU availability: ping-pong with injected compute (%d iters, compute = %dx measured comm time in %v quanta, rank 0 on the interrupt core)\n",
		AvailIters, availComputeFactor, availQuantum)
	fmt.Fprintf(&b, "%-8s %-8s %8s %10s %16s %10s %10s\n",
		"place", "copy", "msgsize", "overlap%", "hostCPU[us/MiB]", "MiB/s", "delivered")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %-8s %8s %10.1f %16.1f %10.1f %7d/%d\n",
			p.Place, p.Mode, sizeName(p.Bytes),
			p.OverlapPct, p.HostCPUPerMB, p.GoodputMiBps, p.Delivered, p.Iters)
	}
	th := openmx.ProbeThresholds(platform.Clovertown())
	d := openmx.Defaults()
	fmt.Fprintf(&b, "# autotune (Clovertown): eager->rndv %s (paper %s), local I/OAT %s (paper %s), offload floor %s msgs / %s frags (paper %s / %s)\n",
		sizeName(th.LargeThreshold), sizeName(d.LargeThreshold),
		sizeName(th.ShmIOATThreshold), sizeName(d.ShmIOATThreshold),
		sizeName(th.IOATMinMsg), sizeName(th.IOATMinFrag),
		sizeName(d.IOATMinMsg), sizeName(d.IOATMinFrag))
	return b.String()
}
