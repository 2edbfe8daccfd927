package openmx_test

import (
	"runtime"
	"testing"

	"omxsim/cluster"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/platform"
	"omxsim/sim"
)

// The facade tests exercise the public API exactly as a downstream
// user would, over both transports.

func roundTrip(t *testing.T, mk func(h *cluster.Host) openmx.Transport, n int) {
	t.Helper()
	c := cluster.New(nil)
	defer c.Close()
	n0, n1 := c.NewHost("n0"), c.NewHost("n1")
	cluster.Link(n0, n1)
	e0, e1 := mk(n0).Open(0, 2), mk(n1).Open(0, 2)
	src, dst := n0.Alloc(n), n1.Alloc(n)
	src.Fill(0x5C)
	var got openmx.Request
	c.Go("recv", func(p *sim.Proc) {
		r := e1.IRecv(p, 7, ^uint64(0), dst, 0, n)
		e1.Wait(p, r)
		got = r
	})
	c.Go("send", func(p *sim.Proc) {
		e0.Wait(p, e0.ISend(p, e1.Addr(), 7, src, 0, n))
	})
	if blocked := c.Run(); blocked != 0 {
		t.Fatalf("deadlock (%d)", blocked)
	}
	if !got.Done() || got.Len() != n || got.Match() != 7 {
		t.Fatalf("completion info: done=%v len=%d match=%d", got.Done(), got.Len(), got.Match())
	}
	if got.Sender() != (openmx.Addr{Host: "n0", EP: 0}) {
		t.Fatalf("sender = %+v", got.Sender())
	}
	if !cluster.Equal(src, dst) {
		t.Fatal("payload corrupted")
	}
}

func TestOpenMXFacade(t *testing.T) {
	roundTrip(t, func(h *cluster.Host) openmx.Transport {
		return openmx.Attach(h, openmx.Config{IOAT: true})
	}, 1<<20)
}

func TestMXoEFacade(t *testing.T) {
	roundTrip(t, func(h *cluster.Host) openmx.Transport {
		return mxoe.Attach(h, mxoe.Config{RegCache: true})
	}, 1<<20)
}

// Opening an endpoint allocates its receive ring, but a ring reads as
// zero until a frame lands in it, so Open itself must not pay for the
// ring's bytes.
func TestOpenAllocatesNoRingBytes(t *testing.T) {
	for name, mk := range map[string]func(h *cluster.Host) openmx.Transport{
		"openmx": func(h *cluster.Host) openmx.Transport { return openmx.Attach(h, openmx.Config{}) },
		"mxoe":   func(h *cluster.Host) openmx.Transport { return mxoe.Attach(h, mxoe.Config{}) },
	} {
		c := cluster.New(nil)
		tr := mk(c.NewHost("n0"))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.Open(0, 2)
		runtime.ReadMemStats(&after)
		c.Close()
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("%s: Open allocated %d bytes of heap, want < 64 KiB", name, alloc)
		}
	}
}

func TestTestAndProgress(t *testing.T) {
	c := cluster.New(nil)
	defer c.Close()
	n0, n1 := c.NewHost("n0"), c.NewHost("n1")
	cluster.Link(n0, n1)
	cfg := openmx.Config{}
	e0 := openmx.Attach(n0, cfg).Open(0, 2)
	e1 := openmx.Attach(n1, cfg).Open(0, 2)
	src, dst := n0.Alloc(256), n1.Alloc(256)
	c.Go("recv", func(p *sim.Proc) {
		r := e1.IRecv(p, 1, ^uint64(0), dst, 0, 256)
		if e1.Test(p, r) {
			t.Error("Test true before any traffic")
		}
		for !e1.Test(p, r) {
			p.Sleep(sim.Microsecond)
		}
	})
	c.Go("send", func(p *sim.Proc) {
		e0.Wait(p, e0.ISend(p, e1.Addr(), 1, src, 0, 256))
	})
	if blocked := c.Run(); blocked != 0 {
		t.Fatal("deadlock")
	}
}

func TestStatsExposed(t *testing.T) {
	c := cluster.New(nil)
	defer c.Close()
	n0, n1 := c.NewHost("n0"), c.NewHost("n1")
	cluster.Link(n0, n1)
	cfg := openmx.Config{IOAT: true}
	s0 := openmx.Attach(n0, cfg)
	s1 := openmx.Attach(n1, cfg)
	e0, e1 := s0.Open(0, 2), s1.Open(0, 2)
	src, dst := n0.Alloc(1<<20), n1.Alloc(1<<20)
	c.Go("recv", func(p *sim.Proc) {
		r := e1.IRecv(p, 1, ^uint64(0), dst, 0, 1<<20)
		e1.Wait(p, r)
	})
	c.Go("send", func(p *sim.Proc) {
		e0.Wait(p, e0.ISend(p, e1.Addr(), 1, src, 0, 1<<20))
	})
	c.Run()
	if s1.Stats().IOATSubmits == 0 || s0.Stats().RndvSent != 1 {
		t.Fatalf("stats: %+v / %+v", s0.Stats(), s1.Stats())
	}
}

func TestCPUStatsExposed(t *testing.T) {
	c := cluster.New(nil)
	defer c.Close()
	n0, n1 := c.NewHost("n0"), c.NewHost("n1")
	cluster.Link(n0, n1)
	s0 := openmx.Attach(n0, openmx.Config{IOAT: true})
	s1 := openmx.Attach(n1, openmx.Config{IOAT: true})
	e0, e1 := s0.Open(0, 2), s1.Open(0, 2)
	src, dst := n0.Alloc(1<<20), n1.Alloc(1<<20)
	c.Go("recv", func(p *sim.Proc) {
		r := e1.IRecv(p, 1, ^uint64(0), dst, 0, 1<<20)
		e1.Wait(p, r)
	})
	c.Go("send", func(p *sim.Proc) {
		e0.Wait(p, e0.ISend(p, e1.Addr(), 1, src, 0, 1<<20))
	})
	c.Run()
	st := s1.CPUStats()
	if st.Window <= 0 || len(st.Cores) != 8 {
		t.Fatalf("snapshot shape: window=%v cores=%d", st.Window, len(st.Cores))
	}
	// The offloaded receive must show bottom-half, library and
	// submission time in the ledgers.
	if st.Busy(openmx.CPUBHProc) == 0 || st.Busy(openmx.CPUUserLib) == 0 ||
		st.Busy(openmx.CPUIOATSubmit) == 0 {
		t.Fatalf("ledgers empty:\n%s", st.Render())
	}
	// Idle + busy covers each core's window exactly.
	for _, cs := range st.Cores {
		if cs.TotalBusy()+cs.Idle != st.Window {
			t.Fatalf("core %d busy+idle != window:\n%s", cs.Core, st.Render())
		}
	}
	// Reset starts a fresh window.
	s1.ResetCPUStats()
	if after := s1.CPUStats(); after.Window != 0 || after.Busy() != 0 {
		t.Fatalf("reset did not clear the window: %+v", after)
	}
	// The native baseline surfaces the same snapshot type with a
	// firmware receive path: no bottom-half time at all.
	c2 := cluster.New(nil)
	defer c2.Close()
	m0, m1 := c2.NewHost("m0"), c2.NewHost("m1")
	cluster.Link(m0, m1)
	t0 := mxoe.Attach(m0, mxoe.Config{})
	t1 := mxoe.Attach(m1, mxoe.Config{})
	f0, f1 := t0.Open(0, 2), t1.Open(0, 2)
	msrc, mdst := m0.Alloc(1<<20), m1.Alloc(1<<20)
	c2.Go("recv", func(p *sim.Proc) {
		r := f1.IRecv(p, 1, ^uint64(0), mdst, 0, 1<<20)
		f1.Wait(p, r)
	})
	c2.Go("send", func(p *sim.Proc) {
		f0.Wait(p, f0.ISend(p, f1.Addr(), 1, msrc, 0, 1<<20))
	})
	c2.Run()
	// Native MX snapshots use openmx's categories.
	mst := t1.CPUStats()
	if mst.Busy(openmx.CPUBHProc, openmx.CPUBHCopy) != 0 {
		t.Fatalf("native MX shows bottom-half time:\n%s", mst.Render())
	}
	if mst.Busy(openmx.CPUUserLib) == 0 {
		t.Fatalf("native MX shows no library time:\n%s", mst.Render())
	}
}

func TestAutoTunedPublic(t *testing.T) {
	cfg := openmx.AutoTuned(platform.Clovertown())
	if !cfg.IOAT || cfg.IOATMinFrag == 0 || cfg.IOATMinMsg == 0 {
		t.Fatalf("AutoTuned = %+v", cfg)
	}
	if cfg.IOATMinFrag < 512 || cfg.IOATMinFrag > 4096 {
		t.Fatalf("tuned fragment threshold %d out of the paper's decade", cfg.IOATMinFrag)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	d := openmx.Defaults()
	if d.LargeThreshold != 32*1024 || d.IOATMinFrag != 1024 ||
		d.IOATMinMsg != 64*1024 || d.PullBlockFrags != 8 || d.PullBlocks != 2 {
		t.Fatalf("defaults drifted: %+v", d)
	}
}
