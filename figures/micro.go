package figures

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/internal/cpu"
	"omxsim/internal/ioat"
	"omxsim/metrics"
	"omxsim/platform"
	"omxsim/runner"
	"omxsim/sim"
)

// Micro holds the Section IV-A microbenchmark numbers: submission
// cost, raw copy rates, and the offload break-even sizes.
type Micro struct {
	SubmitNs          float64 // single-descriptor submission
	MemcpyColdGiBps   float64
	MemcpyCachedGiBps float64
	IOAT4kGiBps       float64 // streaming rate, 4 kiB chunks
	BreakEvenColdB    int     // memcpy CPU time crosses submit cost
	BreakEvenCachedB  int
}

// MicroNumbers measures the Section IV-A quantities on a fresh host.
func MicroNumbers() Micro {
	p := platform.Clovertown()
	c := cluster.New(p)
	defer c.Close()
	h := c.NewHost("micro")
	m := h.Machine()
	var out Micro
	out.SubmitNs = float64(m.IOAT.SubmitCost(1))

	// Raw copy rates from the memcpy model (cold and L2-cached).
	n := 1 << 20
	src, dst := m.Alloc(n), m.Alloc(n)
	coldNs := float64(m.Copy.CopyTime(dst, src, n, 0))
	out.MemcpyColdGiBps = platform.Rate(float64(n) / coldNs).InGiBps()
	src.Touch(0, n)
	dst.Touch(0, n)
	warm, cold := m.Copy.RateFor(dst, src, 4096, 0), p.MemcpyColdRate
	_ = cold
	out.MemcpyCachedGiBps = warm.InGiBps()

	// I/OAT streaming rate at 4 kiB chunks (simulated transfer).
	out.IOAT4kGiBps = ioatChunkRate(4096, 1<<20)

	// Break-even: smallest size whose memcpy CPU time exceeds the
	// submission cost.
	breakEven := func(rate platform.Rate) int {
		for b := 16; b <= 1<<20; b += 16 {
			t := float64(p.MemcpyCallCost) + float64(b)/float64(rate)
			if t >= out.SubmitNs {
				return b
			}
		}
		return -1
	}
	out.BreakEvenColdB = breakEven(p.MemcpyColdRate)
	out.BreakEvenCachedB = breakEven(p.MemcpyL2Rate)
	return out
}

// ioatChunkRate simulates a pipelined chunked I/OAT copy of total
// bytes and returns the sustained rate in GiB/s.
func ioatChunkRate(chunk, total int) float64 {
	c := cluster.New(nil)
	defer c.Close()
	h := c.NewHost("micro").Machine()
	src, dst := h.Alloc(total), h.Alloc(total)
	ch := h.IOAT.Channel(0)
	var reqs []ioat.CopyReq
	for off := 0; off < total; off += chunk {
		n := min(chunk, total-off)
		reqs = append(reqs, ioat.CopyReq{Dst: dst, DstOff: off, Src: src, SrcOff: off, N: n})
	}
	var done sim.Time
	seq := ch.Submit(reqs...)
	ch.NotifyAt(seq, func() { done = h.E.Now() })
	c.Run()
	return platform.Rate(float64(total) / float64(done)).InGiBps()
}

// Fig7 regenerates Figure 7: pipelined memcpy versus I/OAT copy
// throughput when streams are split into 256 B, 1 kiB and 4 kiB
// chunks, for total copy sizes from 256 B to 1 MiB.
//
// Like the paper's microbenchmark, the memcpy side streams through a
// region much larger than the caches (cold rates), and the I/OAT side
// submits one descriptor per chunk.
func Fig7() *metrics.Table {
	t := metrics.NewTable(
		"Fig. 7: pipelined memcpy vs I/OAT copy by chunk size",
		"copysize", "MiB/s")
	p := platform.Clovertown()
	chunks := []int{4096, 1024, 256}
	names := map[int]string{4096: "4kB chunks (page)", 1024: "1kB chunks", 256: "256B chunks"}
	var sizes []int
	for s := 256; s <= 1<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	for _, chunk := range chunks {
		s := t.AddSeries("Memcpy - " + names[chunk])
		for _, total := range sizes {
			// Chunked memcpy: per-chunk call overhead + bytes at the
			// cold rate (stream >> cache).
			nChunks := (total + chunk - 1) / chunk
			ns := float64(nChunks)*float64(p.MemcpyCallCost) + float64(total)/float64(p.MemcpyColdRate)
			s.Add(float64(total), platform.Rate(float64(total)/ns).InMiBps())
		}
	}
	// The I/OAT side simulates submission + engine processing,
	// including the CPU-side submission cost ahead of the doorbell;
	// each (chunk, total) point is an independent simulation, swept in
	// parallel.
	var jobs []runner.Job
	for _, chunk := range chunks {
		for _, total := range sizes {
			jobs = append(jobs, job(fmt.Sprintf("fig7/ioat/%d/%d", chunk, total),
				runner.Key("fig7-ioat", chunk, total), func() float64 { return ioatPipelinedRate(chunk, total) }))
		}
	}
	rates := sweep[float64](jobs...)
	for ci, chunk := range chunks {
		s := t.AddSeries("I/OAT Copy - " + names[chunk])
		for si, total := range sizes {
			s.Add(float64(total), rates[ci*len(sizes)+si])
		}
	}
	return t
}

// ioatPipelinedRate measures one chunked I/OAT copy end to end
// (submission through last completion) and returns MiB/s.
func ioatPipelinedRate(chunk, total int) float64 {
	c := cluster.New(nil)
	defer c.Close()
	h := c.NewHost("micro").Machine()
	src, dst := h.Alloc(total), h.Alloc(total)
	ch := h.IOAT.Channel(0)
	var reqs []ioat.CopyReq
	for off := 0; off < total; off += chunk {
		n := min(chunk, total-off)
		reqs = append(reqs, ioat.CopyReq{Dst: dst, DstOff: off, Src: src, SrcOff: off, N: n})
	}
	var done sim.Time
	// Pipelined measurement: the CPU keeps submitting while the
	// engine processes earlier descriptors (the paper's microbench
	// streams copies back to back), so submission overlaps execution
	// and only shows up when it exceeds the engine's pace — which is
	// exactly what kills the small-chunk configurations.
	core := h.Sys.Core(0)
	var submit func(i int)
	submit = func(i int) {
		if i >= len(reqs) {
			return
		}
		core.Exec(cpu.Other, h.IOAT.SubmitCost(1), func() {
			seq := ch.Submit(reqs[i])
			if i == len(reqs)-1 {
				ch.NotifyAt(seq, func() { done = h.E.Now() })
			}
			submit(i + 1)
		})
	}
	submit(0)
	c.Run()
	return platform.Rate(float64(total) / float64(done)).InMiBps()
}
