package figures

import (
	"fmt"
	"strings"

	"omxsim/cluster"
	"omxsim/metrics"
	"omxsim/mpi"
	"omxsim/openmx"
	"omxsim/platform"
	"omxsim/runner"
	"omxsim/sim"
)

// Ablation studies for the design choices DESIGN.md calls out: the
// offload thresholds the paper chose empirically, the pull window
// geometry, interrupt steering, and the Section V/VI extensions.

// streamTput measures unidirectional large-message streaming
// throughput (MiB/s) node0→node1 for a given Open-MX config.
func streamTput(cfg openmx.Config, msgSize, rounds int) float64 {
	c, w := Testbed(Stack{Kind: "openmx", OMX: cfg}, 1)
	defer c.Close()
	var t0, t1 sim.Time
	w.Spawn(func(r *mpi.Rank) {
		sbuf := r.Host.Alloc(msgSize)
		rbuf := r.Host.Alloc(msgSize)
		for i := 0; i < rounds; i++ {
			if i == 1 && r.ID == 1 {
				t0 = r.Now()
			}
			if r.ID == 0 {
				r.Produce(sbuf)
				r.Send(1, 1, sbuf, 0, msgSize)
			} else {
				r.Recv(0, 1, rbuf, 0, msgSize)
			}
		}
		if r.ID == 1 {
			t1 = r.Now()
		}
	})
	if c.Run() != 0 {
		panic("figures: ablation stream deadlocked")
	}
	return float64(msgSize) * float64(rounds-1) / 1024 / 1024 / (t1 - t0).Seconds()
}

// streamJob wraps one streamTput measurement as a runner job.
func streamJob(label string, cfg openmx.Config, msgSize, rounds int) runner.Job {
	return job(label, runner.Key("ablate-stream", cfg, msgSize, rounds),
		func() float64 { return streamTput(cfg, msgSize, rounds) })
}

// AblateMinFrag sweeps the minimum-fragment offload threshold
// (paper's empirical choice: 1 kB). Below it, tiny descriptors choke
// the engine; far above it, nothing offloads.
func AblateMinFrag() *metrics.Table {
	t := metrics.NewTable("Ablation: IOATMinFrag threshold (1 MiB stream)", "minfrag", "MiB/s")
	s := t.AddSeries("Open-MX I/OAT")
	frags := []int{256, 512, 1024, 4096, 8192, 16384}
	jobs := make([]runner.Job, len(frags))
	for i, frag := range frags {
		cfg := openmx.Config{IOAT: true, RegCache: true, IOATMinFrag: frag}
		jobs[i] = streamJob(fmt.Sprintf("ablate/minfrag/%d", frag), cfg, 1<<20, 6)
	}
	for i, y := range sweep[float64](jobs...) {
		s.Add(float64(frags[i]), y)
	}
	return t
}

// AblatePullWindow sweeps the number of outstanding pull blocks
// (paper: two pipelined blocks of 8 fragments).
func AblatePullWindow() *metrics.Table {
	t := metrics.NewTable("Ablation: outstanding pull blocks x block size (4 MiB stream)", "blocks", "MiB/s")
	fragCases, blockCases := []int{4, 8, 16}, []int{1, 2, 4}
	var jobs []runner.Job
	for _, frags := range fragCases {
		for _, blocks := range blockCases {
			cfg := openmx.Config{IOAT: true, RegCache: true, PullBlocks: blocks, PullBlockFrags: frags}
			jobs = append(jobs, streamJob(fmt.Sprintf("ablate/pull/%dx%d", blocks, frags), cfg, 4<<20, 5))
		}
	}
	ys := sweep[float64](jobs...)
	for fi, frags := range fragCases {
		s := t.AddSeries(fmt.Sprintf("%d frags/block", frags))
		for bi, blocks := range blockCases {
			s.Add(float64(blocks), ys[fi*len(blockCases)+bi])
		}
	}
	return t
}

// AblateIRQSteering compares interrupt steering to a dedicated core
// versus the core the application runs on. Medium (eager) messages
// expose the contention: their per-fragment library copies compete
// with the bottom half for the same core when steering is bad. The
// paper's Section V discusses exactly this interrupt/application
// cache-and-core interaction.
func AblateIRQSteering() *metrics.Table {
	t := metrics.NewTable("Ablation: interrupt steering (16 kB eager stream)", "case", "MiB/s")
	s := t.AddSeries("Open-MX")
	const msg = 16 * 1024
	run := func(irqCore int) float64 {
		c := cluster.New(nil)
		defer c.Close()
		n0, n1 := c.NewHost("n0"), c.NewHost("n1")
		cluster.Link(n0, n1)
		n1.Machine().NIC.IRQCore = irqCore
		cfg := openmx.Config{RegCache: true}
		e0 := openmx.Attach(n0, cfg).Open(0, 2)
		e1 := openmx.Attach(n1, cfg).Open(0, 2) // app on core 2
		src, dst := n0.Alloc(msg), n1.Alloc(msg)
		var t0, t1 sim.Time
		const rounds = 40
		// Pipelined: all receives posted up front, sends streamed
		// without waiting for per-message acks, so the receive path
		// (BH + library copies) is the bottleneck.
		c.Go("rx", func(p *sim.Proc) {
			t0 = p.Now()
			var reqs []openmx.Request
			for i := 0; i < rounds; i++ {
				reqs = append(reqs, e1.IRecv(p, uint64(i), ^uint64(0), dst, 0, msg))
			}
			for _, r := range reqs {
				e1.Wait(p, r)
			}
			t1 = p.Now()
		})
		c.Go("tx", func(p *sim.Proc) {
			var reqs []openmx.Request
			for i := 0; i < rounds; i++ {
				reqs = append(reqs, e0.ISend(p, e1.Addr(), uint64(i), src, 0, msg))
			}
			for _, r := range reqs {
				e0.Wait(p, r)
			}
		})
		if c.Run() != 0 {
			panic("figures: IRQ ablation deadlocked")
		}
		return float64(msg*rounds) / 1024 / 1024 / (t1 - t0).Seconds()
	}
	irqCores := []int{
		0, // dedicated core
		2, // same core as the application: BH and app contend
	}
	jobs := make([]runner.Job, len(irqCores))
	for i, core := range irqCores {
		jobs[i] = job(fmt.Sprintf("ablate/irq/core%d", core), runner.Key("ablate-irq", msg, core),
			func() float64 { return run(core) })
	}
	for i, y := range sweep[float64](jobs...) {
		s.Add(float64(i), y)
	}
	return t
}

// AblateExtensions compares the paper's configuration against its
// Section V/VI future-work variants on a 4 MiB stream plus a local
// 4 MiB transfer.
func AblateExtensions() string {
	var b strings.Builder
	p := platform.Clovertown()
	base := openmx.Config{IOAT: true, IOATShm: true, RegCache: true}
	auto := openmx.AutoTuned(p)
	auto.IOATShm = true
	hybrid := base
	hybrid.HybridWarmupBytes = 64 * 1024
	striped := base
	striped.StripeChannels = 4
	sleep := base
	sleep.PredictiveSleep = true

	netCases := []struct {
		name string
		cfg  openmx.Config
	}{
		{"paper defaults (I/OAT)", base},
		{"auto-tuned thresholds", auto},
		{"hybrid 64k memcpy warm-up", hybrid},
	}
	shmCases := []struct {
		name string
		cfg  openmx.Config
	}{
		{"paper defaults (busy-poll, 1 ch)", base},
		{"striped over 4 channels", striped},
		{"predictive sleep", sleep},
	}
	// One flat sweep over both halves; rendering stays serial below.
	var jobs []runner.Job
	for _, c := range netCases {
		jobs = append(jobs, streamJob("ablate/ext/"+c.name, c.cfg, 4<<20, 5))
	}
	for _, c := range shmCases {
		jobs = append(jobs, job("ablate/ext-shm/"+c.name, runner.Key("ablate-ext-shm", c.cfg),
			func() [2]float64 {
				tput, busy := shmStreamOnce(c.cfg)
				return [2]float64{tput, busy}
			}))
	}
	results := sweep[any](jobs...)

	fmt.Fprintf(&b, "# Extension ablations (4 MiB network stream)\n")
	fmt.Fprintf(&b, "%-34s %10s\n", "configuration", "MiB/s")
	for i, c := range netCases {
		fmt.Fprintf(&b, "%-34s %10.0f\n", c.name, results[i].(float64))
	}
	fmt.Fprintf(&b, "\n# Extension ablations (4 MiB local one-copy)\n")
	fmt.Fprintf(&b, "%-34s %10s %14s\n", "configuration", "MiB/s", "driver CPU")
	for i, c := range shmCases {
		v := results[len(netCases)+i].([2]float64)
		fmt.Fprintf(&b, "%-34s %10.0f %13.0f%%\n", c.name, v[0], v[1])
	}
	return b.String()
}

// shmStreamOnce runs one local 4 MiB transfer and reports throughput
// and the receiving process's driver CPU share.
func shmStreamOnce(cfg openmx.Config) (mibps, driverPct float64) {
	c := cluster.New(nil)
	defer c.Close()
	h := c.NewHost("node")
	st := openmx.Attach(h, cfg)
	e0, e1 := st.Open(0, 0), st.Open(1, 4)
	n := 4 << 20
	src, dst := h.Alloc(n), h.Alloc(n)
	var t0, t1 sim.Time
	c.Go("recv", func(p *sim.Proc) {
		t0 = p.Now()
		r := e1.IRecv(p, 1, ^uint64(0), dst, 0, n)
		e1.Wait(p, r)
		t1 = p.Now()
	})
	c.Go("send", func(p *sim.Proc) {
		s := e0.ISend(p, e1.Addr(), 1, src, 0, n)
		e0.Wait(p, s)
	})
	if c.Run() != 0 {
		panic("figures: shm ablation deadlocked")
	}
	elapsed := (t1 - t0).Seconds()
	mibps = float64(n) / 1024 / 1024 / elapsed
	var busy sim.Duration
	for cat, ns := range h.Machine().Sys.BusyByCategory() {
		if cat.String() == "driver" {
			busy += ns
		}
	}
	driverPct = float64(busy) / float64(t1-t0) * 100
	return mibps, driverPct
}
