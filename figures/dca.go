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

// The memory-hierarchy figure (`omxsim dca`) measures what the
// availability figure deliberately hides: where the received bytes
// LAND. A DMA engine — the NIC's or I/OAT's — deposits lines in DRAM
// and invalidates the consumer's cache, so every byte it moved for
// free is paid for again, with interest, by the first application
// read. The sweep is a request/reply ping-pong in which the receiver
// immediately consumes each payload (a memcpy into a scratch sink,
// charged as application compute), so the post-transfer cache state
// shows up in end-to-end goodput instead of being dropped on the
// floor between iterations.
//
// Four receive paths:
//
//   - memcpy      — the bottom-half copy burns host CPU but drags the
//     payload through the copying core's cache; a consumer on that
//     core reads warm lines.
//   - I/OAT      — the offload frees the CPU and leaves the payload
//     cold in DRAM, still snoop-penalized (the dirty-line ledger).
//   - DCA        — memcpy path on platform.ClovertownDCA: the NIC's
//     deposits push lines into the interrupt core's LLC (Direct Cache
//     Access), so even the bottom half's source is warm.
//   - I/OAT+warm — the hybrid: the CPU copies the head of each
//     message, the engine moves the tail (Config.HybridWarmupBytes).
//     A consumer that reads the WHOLE payload still pays the
//     snoop-penalized rate — the warmup only helps header-peeking
//     consumers, so here it shows as pure extra CPU cost.
//
// crossed with consumer placement relative to the interrupt core
// (same-core / same-socket / cross-socket) and message size. The
// receive buffer is allocated on the consumer's NUMA node, so the
// cross-socket column also charges the DMA engines the remote-socket
// deposit penalty (platform.RemoteDMAFactor). All variants run with
// the registration cache on; the reghit% column shows the pin cost
// amortizing away after the first post of each buffer.

// DCASizes returns the swept message sizes (all rendezvous-sized, so
// every variant exercises its large-message receive path).
func DCASizes() []int { return []int{64 << 10, 256 << 10, 1 << 20} }

// DCAIters is the measured round-trip count per point (after one
// warm-up round trip).
const DCAIters = 6

// dcaWarmupBytes is the CPU-copied message head of the "I/OAT+warm"
// hybrid variant.
const dcaWarmupBytes = 16 << 10

// DCAPoint is one measured (mode, placement, size) combination.
type DCAPoint struct {
	Mode  string // "memcpy", "I/OAT", "DCA" or "I/OAT+warm"
	Place string // consumer vs interrupt core: "same-core", "same-socket", "cross-socket"
	Bytes int
	Iters int
	// Delivered counts round trips whose payload verified at the
	// consumer before it was consumed.
	Delivered int

	GoodputMiBps float64 // delivered payload / elapsed, consume pass included
	ConsumeGiBps float64 // application read rate of the just-received payload
	HostCPUPerMB float64 // non-compute host CPU us per MiB on the receiving host
	RegHitPct    float64 // registration-cache hit rate on the receiving stack
}

// dcaPlatform picks the platform for a mode: only "DCA" runs on the
// DCA-capable Clovertown; everything else uses the paper's baseline.
func dcaPlatform(mode string) *platform.Platform {
	if mode == "DCA" {
		return platform.ClovertownDCA()
	}
	return platform.Clovertown()
}

// dcaConfig builds the stack configuration for one mode. Every
// variant runs the registration cache; the DCA deposits themselves
// are a platform capability, not a stack option (the NIC steers them
// at the interrupt core, the bottom half's — i.e. the skbuff
// consumer's — cache).
func dcaConfig(mode string) openmx.Config {
	cfg := openmx.Config{RegCache: true}
	switch mode {
	case "I/OAT":
		cfg.IOAT = true
	case "I/OAT+warm":
		cfg.IOAT = true
		cfg.HybridWarmupBytes = dcaWarmupBytes
	}
	return cfg
}

// dcaConsumerCore maps a placement to the consumer's core (the
// interrupt core is 0: cores 0-1 share an L2, cores 0-3 a socket).
func dcaConsumerCore(place string) int {
	switch place {
	case "same-core":
		return 0
	case "same-socket":
		return 2
	case "cross-socket":
		return 4
	}
	panic("figures: unknown dca placement " + place)
}

// dcaPoint measures one sweep point: node1 streams payloads to a
// consumer on node0 that reads every received byte before requesting
// the next.
func dcaPoint(mode, place string, size, iters int) DCAPoint {
	const reqBytes = 1024
	cfg := dcaConfig(mode)
	core := dcaConsumerCore(place)
	c := cluster.New(dcaPlatform(mode))
	defer c.Close()
	ha, hb := c.NewHost("node0"), c.NewHost("node1")
	cluster.Link(ha, hb)
	sa, sb := openmx.Attach(ha, cfg), openmx.Attach(hb, cfg)
	ea, eb := sa.Open(0, core), sb.Open(1, 0)
	machineA := ha.Machine()
	socket := machineA.P.SocketOf(core)

	reqA := ha.Alloc(reqBytes)
	reqB := hb.Alloc(reqBytes)
	sendB := hb.Alloc(size)
	// Consumer-side buffers live on the consumer's NUMA node: DMA
	// deposits from socket 0's I/O hub pay the remote factor when the
	// consumer sits cross-socket.
	recvA := ha.AllocOn(size, socket)
	sink := ha.AllocOn(size, socket)

	var t0, t1 sim.Time
	var consumed sim.Duration
	delivered := 0
	warmups := 1
	total := warmups + iters
	c.Go("server", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			r := eb.IRecv(p, uint64(i), ^uint64(0), reqB, 0, reqBytes)
			eb.Wait(p, r)
			sendB.Fill(byte(i + 1))
			sendB.Produce(0)
			eb.Wait(p, eb.ISend(p, ea.Addr(), uint64(1000+i), sendB, 0, size))
		}
	})
	c.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			if i == warmups {
				sa.ResetCPUStats()
				t0 = p.Now()
			}
			rr := ea.IRecv(p, uint64(1000+i), ^uint64(0), recvA, 0, size)
			reqA.Fill(byte(i))
			reqA.Produce(core)
			ea.Wait(p, ea.ISend(p, eb.Addr(), uint64(i), reqA, 0, reqBytes))
			ea.Wait(p, rr)
			if i >= warmups && cluster.Equal(sendB, recvA) {
				delivered++
			}
			// The consume pass: the application reads the payload it
			// just received. Its rate is where DMA-cold, DCA-warm and
			// cross-socket states become visible.
			d := machineA.Copy.Memcpy(sink.Raw(), 0, recvA.Raw(), 0, size, core)
			machineA.Sys.Core(core).RunOn(p, cpu.AppCompute, d)
			if i >= warmups {
				consumed += d
			}
			t1 = p.Now()
		}
	})
	if blocked := c.Run(); blocked != 0 {
		panic(fmt.Sprintf("figures: dca %s/%s/%d deadlocked", mode, place, size))
	}

	pt := DCAPoint{Mode: mode, Place: place, Bytes: size, Iters: iters, Delivered: delivered}
	elapsed := t1 - t0
	moved := float64(iters*size) / (1 << 20)
	if elapsed > 0 {
		pt.GoodputMiBps = moved / sim.Time(elapsed).Seconds()
	}
	if consumed > 0 {
		pt.ConsumeGiBps = float64(iters*size) / (1 << 30) / sim.Time(consumed).Seconds()
	}
	st := sa.CPUStats()
	if moved > 0 {
		pt.HostCPUPerMB = sim.Time(st.Busy()-st.Busy(cpu.AppCompute)).Micros() / moved
	}
	if rs := sa.RegStats(); rs.Hits+rs.Misses > 0 {
		pt.RegHitPct = float64(rs.Hits) / float64(rs.Hits+rs.Misses) * 100
	}
	return pt
}

// DCAModes lists the receive-path variants in output order.
func DCAModes() []string { return []string{"memcpy", "I/OAT", "DCA", "I/OAT+warm"} }

// DCAPlaces lists the consumer placements in output order.
func DCAPlaces() []string { return []string{"same-core", "same-socket", "cross-socket"} }

// DCASweep measures every (placement, mode, size) point of the grid as
// an independent runner job and returns them in sweep order
// (placement outermost, then mode, then size). The section renders
// the default grid (DCASizes, DCAIters).
func DCASweep(sizes []int, iters int) []DCAPoint {
	var jobs []runner.Job
	for _, place := range DCAPlaces() {
		for _, mode := range DCAModes() {
			for _, size := range sizes {
				jobs = append(jobs, job(fmt.Sprintf("dca/%s/%s/%s", place, mode, sizeName(size)),
					runner.Key("dca", place, mode, size, iters),
					func() DCAPoint { return dcaPoint(mode, place, size, iters) }))
			}
		}
	}
	return sweep[DCAPoint](jobs...)
}

// RenderDCA formats the sweep as a fixed-width table.
func RenderDCA(points []DCAPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# memory hierarchy: ping-pong + consume pass (%d iters; receive buffer on the consumer's NUMA node; regcache on; DCA = NIC deposits into the interrupt core's LLC; warm hybrid copies %s heads)\n",
		DCAIters, sizeName(dcaWarmupBytes))
	fmt.Fprintf(&b, "%-12s %-10s %8s %10s %14s %16s %8s %10s\n",
		"consumer", "recvpath", "msgsize", "MiB/s", "consume[GiB/s]", "hostCPU[us/MiB]", "reghit%", "delivered")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12s %-10s %8s %10.1f %14.2f %16.1f %8.1f %7d/%d\n",
			p.Place, p.Mode, sizeName(p.Bytes),
			p.GoodputMiBps, p.ConsumeGiBps, p.HostCPUPerMB, p.RegHitPct, p.Delivered, p.Iters)
	}
	return b.String()
}
