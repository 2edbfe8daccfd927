package core

import (
	"testing"

	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/platform"
	"omxsim/sim"
)

func TestAutoTuneMatchesEmpiricalThresholds(t *testing.T) {
	p := platform.Clovertown()
	minFrag, minMsg := autoTune(p)
	// The paper chose 1 kB / 64 kB empirically; auto-tuning from the
	// same hardware numbers should land in the same decade.
	if minFrag < 512 || minFrag > 4096 {
		t.Errorf("auto-tuned min fragment = %d, paper chose 1024", minFrag)
	}
	if minMsg < 32*1024 || minMsg > 256*1024 {
		t.Errorf("auto-tuned min message = %d, paper chose 65536", minMsg)
	}
	cfg := AutoTuned(p)
	if !cfg.IOAT || cfg.IOATMinFrag != minFrag || cfg.IOATMinMsg != minMsg {
		t.Errorf("AutoTuned config inconsistent: %+v", cfg)
	}
}

func TestProbeThresholdsWithin2xOfPaper(t *testing.T) {
	// The paper fixes the eager→rendezvous switch and the local
	// memcpy→I/OAT switch at 32 kB each; the probe must recover both
	// from the Clovertown cost curves within a factor of two.
	th := ProbeThresholds(platform.Clovertown())
	const paper = 32 * 1024
	if th.LargeThreshold < paper/2 || th.LargeThreshold > paper*2 {
		t.Errorf("probed LargeThreshold = %d, want within 2x of %d", th.LargeThreshold, paper)
	}
	if th.ShmIOATThreshold < paper/2 || th.ShmIOATThreshold > paper*2 {
		t.Errorf("probed ShmIOATThreshold = %d, want within 2x of %d", th.ShmIOATThreshold, paper)
	}
	// Thresholds are page multiples (the unit the driver pins).
	p := platform.Clovertown()
	if th.LargeThreshold%p.PageSize != 0 || th.ShmIOATThreshold%p.PageSize != 0 {
		t.Errorf("thresholds not page multiples: %+v", th)
	}
	cfg := AutoTuned(p)
	if cfg.LargeThreshold != th.LargeThreshold || cfg.ShmIOATThreshold != th.ShmIOATThreshold {
		t.Errorf("AutoTuned did not adopt probed thresholds: %+v vs %+v", cfg, th)
	}
}

func TestLargeThresholdClampedToEagerCapacity(t *testing.T) {
	// The eager path's dedup/assembly bitmaps are 64 bits wide, so a
	// threshold beyond 64 fragments must be clamped — past it a
	// retransmitted high fragment would leak ring slots and corrupt
	// reassembly.
	pr := newPair(t, Config{LargeThreshold: 1 << 20}, Config{LargeThreshold: 1 << 20})
	if got := pr.sa.Cfg.LargeThreshold; got != maxEagerBytes {
		t.Fatalf("LargeThreshold = %d, want clamped to %d", got, maxEagerBytes)
	}
	// A message at the clamped threshold still moves eagerly and
	// verifies end to end (64 fragments, full bitmap).
	sendRecv(t, pr, maxEagerBytes)
	if pr.sa.Stats.RndvSent != 0 {
		t.Fatalf("%d-byte message used rendezvous below threshold", maxEagerBytes)
	}
}

func TestHybridWarmupStillDeliversAndWarmsCache(t *testing.T) {
	cfg := Config{IOAT: true, HybridWarmupBytes: 64 * 1024}
	pr := newPair(t, cfg, cfg)
	n := 1 << 20
	src := pr.sa.H.Alloc(n)
	dst := pr.sb.H.Alloc(n)
	src.Fill(0x66)
	pr.e.Go("recv", func(p *sim.Proc) {
		r := pr.epB.IRecv(p, 1, ^uint64(0), dst, 0, n)
		pr.epB.Wait(p, r)
	})
	pr.e.Go("send", func(p *sim.Proc) {
		r := pr.epA.ISend(p, pr.epB.Addr(), 1, src, 0, n)
		pr.epA.Wait(p, r)
	})
	pr.run(t)
	if !hostmem.Equal(src, dst) {
		t.Fatal("hybrid path corrupted payload")
	}
	// Head copied by CPU (BHCopy memcpy time charged), tail by I/OAT.
	if pr.sb.Stats.IOATSubmits == 0 {
		t.Fatal("tail not offloaded")
	}
	bh := pr.sb.H.Sys.BusyByCategory()[cpu.BHCopy]
	// 64 kB at the DMA-cold rate ≈ 48 µs of memcpy must appear, well
	// above pure submission costs (< 10 µs for 128 frags).
	if bh < 40*sim.Microsecond {
		t.Fatalf("BHCopy = %v; hybrid head does not seem memcpy'd", bh)
	}
}

func TestHybridFullMessageUnderWarmup(t *testing.T) {
	// Message smaller than the warmup window: everything goes through
	// memcpy, no descriptors at all.
	cfg := Config{IOAT: true, IOATMinMsg: 40 * 1024, HybridWarmupBytes: 1 << 20}
	pr := newPair(t, cfg, cfg)
	sendRecv(t, pr, 64*1024)
	if pr.sb.Stats.IOATSubmits != 0 {
		t.Fatalf("submitted %d descriptors despite full-warmup window", pr.sb.Stats.IOATSubmits)
	}
}

func TestPredictiveSleepCutsShmCPU(t *testing.T) {
	run := func(sleep bool) (sim.Duration, sim.Time) {
		fx := newLocal(t, Config{IOATShm: true, PredictiveSleep: sleep}, 0, 4)
		n := 4 << 20
		src := fx.s.H.Alloc(n)
		dst := fx.s.H.Alloc(n)
		src.Fill(1)
		var done sim.Time
		fx.e.Go("recv", func(p *sim.Proc) {
			r := fx.e1.IRecv(p, 5, ^uint64(0), dst, 0, n)
			fx.e1.Wait(p, r)
			done = p.Now()
		})
		fx.e.Go("send", func(p *sim.Proc) {
			r := fx.e0.ISend(p, fx.e1.Addr(), 5, src, 0, n)
			fx.e0.Wait(p, r)
		})
		fx.e.RunUntil(sim.Second)
		if done == 0 {
			t.Fatal("transfer did not finish")
		}
		if !hostmem.Equal(src, dst) {
			t.Fatal("corrupted")
		}
		return fx.s.H.Sys.BusyByCategory()[cpu.DriverCmd], done
	}
	busyPoll, latPoll := run(false)
	busySleep, latSleep := run(true)
	// The copy takes ≈1.8 ms; busy-polling burns that on the CPU,
	// predictive sleep must cut it by an order of magnitude.
	if busySleep > busyPoll/5 {
		t.Errorf("predictive sleep CPU = %v, busy-poll = %v; want ≥5× reduction", busySleep, busyPoll)
	}
	// Latency must not regress noticeably.
	if float64(latSleep) > float64(latPoll)*1.05 {
		t.Errorf("latency regressed: %v -> %v", latPoll, latSleep)
	}
}

func TestStripingSpeedsUpShmCopy(t *testing.T) {
	run := func(stripe int) sim.Time {
		fx := newLocal(t, Config{IOATShm: true, StripeChannels: stripe}, 0, 4)
		n := 8 << 20
		src := fx.s.H.Alloc(n)
		dst := fx.s.H.Alloc(n)
		src.Fill(2)
		var done sim.Time
		fx.e.Go("recv", func(p *sim.Proc) {
			r := fx.e1.IRecv(p, 5, ^uint64(0), dst, 0, n)
			fx.e1.Wait(p, r)
			done = p.Now()
		})
		fx.e.Go("send", func(p *sim.Proc) {
			r := fx.e0.ISend(p, fx.e1.Addr(), 5, src, 0, n)
			fx.e0.Wait(p, r)
		})
		fx.e.RunUntil(sim.Second)
		if done == 0 {
			t.Fatal("transfer did not finish")
		}
		if !hostmem.Equal(src, dst) {
			t.Fatal("corrupted")
		}
		return done
	}
	one := run(1)
	four := run(4)
	gain := float64(one)/float64(four) - 1
	// Reference [22]: up to ≈40 % from using all channels; our
	// aggregate cap is 3.4 vs 3.0... single-channel effective ≈2.4,
	// so expect ≈25–45 %.
	if gain < 0.2 || gain > 0.5 {
		t.Errorf("4-channel striping gain = %.0f%%, want ≈40%%", gain*100)
	}
}

func TestAutoTunedConfigWorksEndToEnd(t *testing.T) {
	p := platform.Clovertown()
	cfg := AutoTuned(p)
	pr := newPair(t, cfg, cfg)
	sendRecv(t, pr, 1<<20)
	if pr.sb.Stats.IOATSubmits == 0 {
		t.Fatal("auto-tuned config never offloaded")
	}
}
