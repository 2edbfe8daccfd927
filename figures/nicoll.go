package figures

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"omxsim/cluster"
	"omxsim/internal/cpu"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// The NIC-offloaded collective figure (`omxsim nicoll`, beyond the
// paper): host-driven collective algorithms versus the MXoE firmware
// state machines at fat-tree scale, measured with the avail figure's
// CPU-availability methodology. Host collectives run the mpi package's
// trees over Open-MX (with and without I/OAT receive offload) and over
// native MXoE point-to-point; the firmware series posts one collective
// descriptor per call and lets the NIC run every tree hop, combine and
// retransmission. Each point runs twice — communication-only for
// latency and host-CPU cost, then compute-loaded for achieved overlap
// — so the firmware's claim is measured the same way the paper
// measures I/OAT's: not raw latency, but host cycles returned to the
// application while the collective progresses.

// NICollRanks returns the swept world sizes (at ftPpn ranks per node,
// wired as the fat-tree figure's leaf/spine fabric).
func NICollRanks() []int { return []int{64, 256} }

// NICollSizes returns the payloads of the data-carrying collectives
// (the barrier always moves zero bytes): an eager latency point and a
// rendezvous point where the host stacks' I/OAT receive offload
// engages, both under the firmware's per-collective cap.
func NICollSizes() []int { return []int{4 << 10, 64 << 10} }

// NICollIters is the measured collective count per point, after one
// warm-up call and a synchronizing barrier.
const NICollIters = 8

// nicollMaxQuanta bounds the compute slices per iteration: the quantum
// grows past availQuantum once injected compute exceeds 1 ms, keeping
// ~0.5% overlap resolution without flooding the event core on the
// slowest host-algorithm points (big world x big payload x 256 ranks).
const nicollMaxQuanta = 200

// NICollOps lists the swept operations.
func NICollOps() []NICollOp {
	ops := []NICollOp{{"Barrier", 0}}
	for _, name := range []string{"Bcast", "Allreduce", "Scan"} {
		for _, n := range NICollSizes() {
			ops = append(ops, NICollOp{name, n})
		}
	}
	return ops
}

// NICollOp is one swept (operation, payload) shape.
type NICollOp struct {
	Name  string
	Bytes int
}

// nicollSeries is one compared execution tier: a stack plus a pinned
// offload mode.
type nicollSeries struct {
	name    string
	s       Stack
	offload string
}

// nicollSeriesList returns the four compared series: the host
// algorithms over Open-MX (memcpy and I/OAT receive paths) and over
// native MXoE point-to-point, then the firmware state machines.
func nicollSeriesList() []nicollSeries {
	return []nicollSeries{
		{"Open-MX host", Stack{Kind: "openmx", OMX: omxCfg(false)}, mpi.OffloadHost},
		{"Open-MX I/OAT host", Stack{Kind: "openmx", OMX: omxCfg(true)}, mpi.OffloadHost},
		{"MX host", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}, mpi.OffloadHost},
		{"MX NIC-offload", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}, mpi.OffloadNIC},
	}
}

// NICollPoint is one measured (op, series, ranks) combination.
type NICollPoint struct {
	Op     string
	Series string
	Ranks  int
	Bytes  int
	Iters  int

	TimeUsec    float64 // per collective, communication-only run
	HostCPUUsec float64 // non-compute host CPU per collective, all hosts
	OverlapPct  float64 // achieved compute/communication overlap
	// Verified reports that every rank's result bytes checked out in
	// both runs (always true for the barrier, which only synchronizes).
	Verified bool
}

// nicollFill writes rank r's deterministic contribution: small exact
// integers, so reductions are exact in any combining order and host
// and firmware results are byte-comparable.
func nicollFill(b *cluster.Buffer, r, n int) {
	if n < 8 {
		return // leave the buffer unwritten
	}
	dst := b.Bytes()
	for i := 0; i < n/8; i++ {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(float64(r%31+i%17+1)))
	}
}

// nicollCheck verifies one run's results on every rank: broadcast
// payloads match the root pattern, every allreduce word equals the
// whole-world sum, and the last rank's scan equals the allreduce.
func nicollCheck(op string, p, n int, bufs []*cluster.Buffer) bool {
	if n == 0 {
		return true
	}
	switch op {
	case "Bcast":
		for r := 1; r < p; r++ {
			if !cluster.Equal(bufs[0], bufs[r]) {
				return false
			}
		}
	case "Allreduce", "Scan":
		// Element i's expected sum depends on i only through i%17, so
		// the 17 sums are computed once, not once per element and rank.
		var want [17]float64
		for k := range want {
			for m := 0; m < p; m++ {
				want[k] += float64(m%31 + k + 1)
			}
		}
		last := p
		if op == "Scan" {
			last = 1 // only rank p-1 holds the full sum
		}
		for r := p - last; r < p; r++ {
			b := bufs[r].Bytes()
			for i := 0; i < n/8; i++ {
				if math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])) != want[i%17] {
					return false
				}
			}
		}
	}
	return true
}

// nicollRun executes one measured collective loop and returns the
// elapsed measured-phase time, the non-compute host CPU it consumed
// across every host, and whether the results verified. compute is the
// per-iteration injected application compute (zero for the
// communication-only run), sliced into availQuantum pieces with a
// progress poll between them on the offloaded series — the blocking
// host algorithms can only compute after each collective returns,
// which is exactly the serialization the offload removes.
func nicollRun(sr nicollSeries, op string, ranks, bytes, iters int, compute sim.Duration) (elapsed, commCPU sim.Duration, verified bool) {
	c, w := fatTreeTestbed(sr.s, ranks/ftPpn, ftPpn)
	defer c.Close()
	w.Tune.Offload = sr.offload
	p := w.Size()
	alloc := max(bytes, 8)
	sb := make([]*cluster.Buffer, p)
	rb := make([]*cluster.Buffer, p)
	for r := 0; r < p; r++ {
		sb[r] = w.Rank(r).Host.Alloc(alloc)
		rb[r] = w.Rank(r).Host.Alloc(alloc)
		nicollFill(sb[r], r, bytes)
	}
	nicollFill(sb[0], 0, bytes) // bcast root pattern lives in rank 0's sbuf
	var t0 sim.Time
	// Per-rank measured-phase end times: the collective is not over
	// when rank 0 returns (a broadcast root finishes at the descriptor
	// post; a scan's last rank finishes last), so the elapsed time is
	// the latest rank's.
	tEnd := make([]sim.Time, p)
	nic := sr.offload == mpi.OffloadNIC
	quantum := max(availQuantum, compute/nicollMaxQuanta)
	w.Spawn(func(r *mpi.Rank) {
		one := func() openmx.Request {
			// Nonblocking on the offloaded tier (one descriptor post),
			// blocking host algorithm otherwise.
			switch op {
			case "Barrier":
				if nic {
					return r.IbarrierNIC()
				}
				r.Barrier()
			case "Bcast":
				if nic {
					return r.IbcastNIC(0, pick(r.ID == 0, sb[r.ID], rb[r.ID]), 0, bytes)
				}
				r.Bcast(0, pick(r.ID == 0, sb[r.ID], rb[r.ID]), 0, bytes)
			case "Allreduce":
				if nic {
					return r.IallreduceNIC(sb[r.ID], rb[r.ID], bytes)
				}
				r.Allreduce(sb[r.ID], rb[r.ID], bytes)
			case "Scan":
				if nic {
					return r.IscanNIC(sb[r.ID], rb[r.ID], bytes)
				}
				r.Scan(sb[r.ID], rb[r.ID], bytes)
			}
			return nil
		}
		finish := func(req openmx.Request) {
			// Injected compute: overlapped with the posted descriptor
			// on the NIC tier, serialized after the call on the host
			// tiers.
			for left := compute; left > 0; left -= quantum {
				r.ComputeFor(min(left, quantum))
				if req != nil {
					r.Test(req)
				}
			}
			if req != nil {
				r.Wait(req)
			}
		}
		finish(one()) // warm-up (first pin, group registration)
		if nic {
			r.BarrierNIC()
		} else {
			r.Barrier()
		}
		if r.ID == 0 {
			// Measured phase: fresh CPU window on every host.
			for _, h := range c.Hosts() {
				h.Machine().Sys.ResetAccounting()
			}
			t0 = r.Now()
		}
		for i := 0; i < iters; i++ {
			finish(one())
		}
		tEnd[r.ID] = r.Now()
	})
	if blocked := c.Run(); blocked != 0 {
		panic(fmt.Sprintf("figures: nicoll %s/%s/%d deadlocked", sr.name, op, ranks))
	}
	var t1 sim.Time
	for _, te := range tEnd {
		t1 = max(t1, te)
	}
	for _, h := range c.Hosts() {
		st := h.Machine().Sys.Snapshot()
		commCPU += st.Busy() - st.Busy(cpu.AppCompute)
	}
	bufs := rb
	if op == "Bcast" {
		bufs = make([]*cluster.Buffer, p)
		bufs[0] = sb[0]
		copy(bufs[1:], rb[1:])
	}
	return t1 - t0, commCPU, nicollCheck(op, p, bytes, bufs)
}

// pick returns a when cond holds, else b.
func pick(cond bool, a, b *cluster.Buffer) *cluster.Buffer {
	if cond {
		return a
	}
	return b
}

// nicollPoint measures one sweep point: a communication-only run for
// latency and host-CPU cost, then a compute-loaded run (compute =
// availComputeFactor x the measured communication time) for the
// achieved overlap.
func nicollPoint(sr nicollSeries, op string, ranks, bytes, iters int) NICollPoint {
	comm, commCPU, okComm := nicollRun(sr, op, ranks, bytes, iters, 0)
	computeIter := availComputeFactor * comm / sim.Duration(iters)
	compute := computeIter * sim.Duration(iters)
	both, _, okBoth := nicollRun(sr, op, ranks, bytes, iters, computeIter)

	pt := NICollPoint{Op: op, Series: sr.name, Ranks: ranks, Bytes: bytes,
		Iters: iters, Verified: okComm && okBoth}
	pt.TimeUsec = sim.Time(comm).Micros() / float64(iters)
	pt.HostCPUUsec = sim.Time(commCPU).Micros() / float64(iters)
	pt.OverlapPct = overlapPct(comm, compute, both)
	return pt
}

// NICollSweep measures every (op, ranks, series) point of the grid as
// an independent runner job, op outermost, then world size, then
// series. The section renders the default grid (NICollOps,
// NICollRanks, NICollIters).
func NICollSweep(ops []NICollOp, ranksList []int, iters int) []NICollPoint {
	var jobs []runner.Job
	for _, op := range ops {
		for _, ranks := range ranksList {
			for _, sr := range nicollSeriesList() {
				jobs = append(jobs, job(fmt.Sprintf("nicoll/%s/%s/%dranks", op.Name, sr.name, ranks),
					runner.Key("nicoll", sr.s, sr.offload, op.Name, op.Bytes, ranks, iters),
					func() NICollPoint { return nicollPoint(sr, op.Name, ranks, op.Bytes, iters) }))
			}
		}
	}
	return sweep[NICollPoint](jobs...)
}

// RenderNIColl formats the sweep with the offload-selection footer:
// for every (op, ranks) the host algorithm the tuning would run and
// the tier the default tuning resolves on a collective-capable stack.
func RenderNIColl(points []NICollPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# NIC-offloaded collectives: host algorithms vs MXoE firmware state machines at fat-tree scale (%d iters, %d ranks/node, %d hosts/leaf, %d spines; compute = %dx comm in >=%v quanta, <=%d/iter)\n",
		NICollIters, ftPpn, ftLeafRadix, ftSpines, availComputeFactor, availQuantum, nicollMaxQuanta)
	fmt.Fprintf(&b, "%-10s %-20s %6s %8s %12s %17s %10s %9s\n",
		"op", "series", "ranks", "msgsize", "t[us/coll]", "hostCPU[us/coll]", "overlap%", "verified")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-20s %6d %8s %12.1f %17.1f %10.1f %9v\n",
			p.Op, p.Series, p.Ranks, sizeName(p.Bytes),
			p.TimeUsec, p.HostCPUUsec, p.OverlapPct, p.Verified)
	}
	tn := mpi.DefaultTuning()
	b.WriteString("# selection (default tuning, collective-capable stack): host algorithm / resolved tier\n")
	for _, op := range NICollOps() {
		fmt.Fprintf(&b, "%-10s %5s", op.Name, sizeName(op.Bytes))
		for _, ranks := range NICollRanks() {
			fmt.Fprintf(&b, " %dranks=%s/%s", ranks, collAlg(tn, op.Name, op.Bytes, ranks), tn.CollOffload(op.Bytes, ranks, true))
		}
		b.WriteString("\n")
	}
	return b.String()
}
