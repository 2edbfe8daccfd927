package figures

import (
	"reflect"
	"testing"

	"omxsim/cluster"
	"omxsim/metrics"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// The parallel-determinism guardrail: sharding a sweep across workers
// must change nothing but wall time. Each figure point builds its own
// isolated testbed and sim.Engine, so a serial one-worker pool and a
// heavily parallel pool must produce bit-identical metrics; any
// difference means simulations leaked state into each other.

// withPool runs fn with the figures pool replaced by a private pool
// of the given worker count (and its own cache, so runs cannot
// satisfy each other from the shared process cache).
func withPool(workers int, fn func()) {
	p := runner.New(runner.Options{Workers: workers, Cache: runner.NewCache()})
	defer setPool(setPool(p))
	fn()
}

func TestParallelMatchesSerialPingPong(t *testing.T) {
	sizes := []int{16, 4096, 256 << 10, 4 << 20}
	curves := []curve{
		{"MX", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}},
		{"Open-MX", Stack{Kind: "openmx", OMX: omxCfg(false)}},
		{"Open-MX I/OAT", Stack{Kind: "openmx", OMX: omxCfg(true)}},
	}
	run := func(workers int) (tab *metrics.Table) {
		withPool(workers, func() { tab = pingPongTable("determinism", curves, sizes) })
		return tab
	}
	serial, parallel := run(1), run(8)
	if !serial.Equal(parallel) {
		t.Errorf("parallel ping-pong table differs from serial:\nserial:\n%s\nparallel:\n%s",
			serial.Render(), parallel.Render())
	}
}

func TestParallelMatchesSerialFig9(t *testing.T) {
	run := func(workers int) (mem, io []Fig9Row) {
		withPool(workers, func() { mem, io = Fig9() })
		return mem, io
	}
	memS, ioS := run(1)
	memP, ioP := run(8)
	if !reflect.DeepEqual(memS, memP) || !reflect.DeepEqual(ioS, ioP) {
		t.Errorf("parallel Fig9 rows differ from serial:\nserial:  %+v %+v\nparallel: %+v %+v",
			memS, ioS, memP, ioP)
	}
}

func TestParallelMatchesSerialFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(workers int) (p Fig12Result) {
		withPool(workers, func() { p = Fig12(128<<10, 1) })
		return p
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel Fig12 panel differs from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestParallelMatchesSerialLoss: the determinism guardrail extended
// to impaired sweeps — seeded loss injection must be exactly as
// reproducible as a clean run, so sharding the loss figure across
// workers changes nothing but wall time.
func TestParallelMatchesSerialLoss(t *testing.T) {
	rates := []float64{0, 0.03}
	sizes := []int{64 << 10}
	run := func(workers int) (pts []LossPoint) {
		withPool(workers, func() { pts = lossSweepOver(rates, sizes, 10) })
		return pts
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel loss sweep differs from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	// And run-to-run: a second serial sweep must be bit-identical.
	if again := run(1); !reflect.DeepEqual(serial, again) {
		t.Errorf("loss sweep not run-to-run deterministic:\nfirst:  %+v\nsecond: %+v",
			serial, again)
	}
}

// TestParallelMatchesSerialMultiNIC: the determinism guardrail for
// the link-aggregation figure — multi-NIC testbeds, striped lanes and
// per-lane I/OAT channels included, must shard across workers with no
// effect but wall time, and repeat run-to-run bit-identically.
func TestParallelMatchesSerialMultiNIC(t *testing.T) {
	counts := []int{1, 4}
	sizes := []int{512 << 10}
	run := func(workers int) (pts []MultiNICPoint) {
		withPool(workers, func() { pts = multiNICSweepOver(counts, sizes, 4) })
		return pts
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel multinic sweep differs from serial:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
	if again := run(1); !reflect.DeepEqual(serial, again) {
		t.Errorf("multinic sweep not run-to-run deterministic:\nfirst:  %+v\nsecond: %+v",
			serial, again)
	}
}

// Test1NICMatchesLegacyPath: a 1-NIC host built through the new
// MultiNIC machinery must measure bit-identically to one built
// through the pre-aggregation API (plain NewHost, default config) —
// the striping layer is provably a no-op on single-NIC hosts, which
// is also why the committed golden only grew a new section.
func Test1NICMatchesLegacyPath(t *testing.T) {
	size, iters := 512<<10, 4
	for _, mode := range multiNICModes() {
		// New machinery: MultiNIC(1) host, per-NIC window default.
		striped := multiNICPoint(mode, "per-NIC", 1, size, iters)
		// Legacy shape: plain hosts, plain link, untouched PullBlocks.
		legacy := legacy1NICPoint(t, mode, size, iters)
		if striped.GoodputMiBps != legacy.GoodputMiBps || striped.Delivered != legacy.Delivered {
			t.Errorf("%s: MultiNIC(1) path measured %.6f MiB/s (%d delivered), legacy path %.6f (%d) — must be bit-identical",
				mode, striped.GoodputMiBps, striped.Delivered, legacy.GoodputMiBps, legacy.Delivered)
		}
	}
}

// legacy1NICPoint mirrors multiNICPoint through the original
// single-NIC API: no host options, no window override.
func legacy1NICPoint(t *testing.T, mode string, size, iters int) MultiNICPoint {
	t.Helper()
	c := cluster.New(nil)
	a, b := c.NewHost("node0"), c.NewHost("node1")
	cluster.Link(a, b)
	cfg := openmx.Config{RegCache: true, IOAT: mode == "I/OAT"}
	ea := openmx.Attach(a, cfg).Open(0, 2)
	eb := openmx.Attach(b, cfg).Open(0, 2)
	sendA, recvA := a.Alloc(size), a.Alloc(size)
	sendB, recvB := b.Alloc(size), b.Alloc(size)
	delivered := 0
	var elapsed sim.Time
	c.Go("rankB", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			r := eb.IRecv(p, uint64(i), ^uint64(0), recvB, 0, size)
			eb.Wait(p, r)
			sendB.Fill(byte(2*i + 2))
			sendB.Produce(2)
			eb.Wait(p, eb.ISend(p, ea.Addr(), uint64(1000+i), sendB, 0, size))
		}
	})
	c.Go("rankA", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			sendA.Fill(byte(2*i + 1))
			sendA.Produce(2)
			rs := ea.ISend(p, eb.Addr(), uint64(i), sendA, 0, size)
			rr := ea.IRecv(p, uint64(1000+i), ^uint64(0), recvA, 0, size)
			ea.Wait(p, rs)
			ea.Wait(p, rr)
			if cluster.Equal(sendB, recvA) && cluster.Equal(sendA, recvB) {
				delivered++
			}
			elapsed = p.Now()
		}
	})
	c.RunFor(60 * sim.Second)
	defer c.Close()
	pt := MultiNICPoint{Mode: mode, NICs: 1, Bytes: size, Iters: iters, Delivered: delivered}
	if elapsed > 0 {
		pt.GoodputMiBps = float64(delivered*size) / (1 << 20) / elapsed.Seconds()
	}
	return pt
}

// TestSharedCurveCache: regenerating Figures 3 and 8 on one pool
// simulates their three shared curves once — the repeated-sweep
// optimization the runner cache exists for.
func TestSharedCurveCache(t *testing.T) {
	cache := runner.NewCache()
	p := runner.New(runner.Options{Workers: 4, Cache: cache})
	defer setPool(setPool(p))
	f3 := Fig3()
	_, missesAfter3 := cache.Stats()
	f8 := Fig8()
	hits, misses := cache.Stats()
	if missesAfter3 != 3 {
		t.Fatalf("Fig3 simulated %d curves, want 3", missesAfter3)
	}
	// Fig8 adds only the I/OAT curve; MX, Open-MX and the no-copy
	// prediction come from the cache.
	if misses != 4 || hits < 3 {
		t.Errorf("after Fig8: %d misses / %d hits, want 4 misses and ≥3 hits", misses, hits)
	}
	for _, name := range []string{"MX", "Open-MX", "Open-MX ignoring BH receive copy"} {
		s3, s8 := f3.Get(name), f8.Get(name)
		if !s3.Equal(s8) {
			t.Errorf("shared curve %q differs between Fig3 and Fig8", name)
		}
		// Equal values, distinct objects: tables must not alias the
		// cache, or a caller mutating one figure corrupts the other.
		if s3 == s8 {
			t.Errorf("shared curve %q is the same *Series in both tables (cache aliasing)", name)
		}
	}
}
