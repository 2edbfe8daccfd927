package figures

import (
	"fmt"
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

// TestParallelMatchesSerial runs every figure sweep on a reduced grid
// serially, in parallel and serially again: the three runs must be
// bit-identical. Impaired links (seeded loss), multi-NIC striping,
// AIMD and RTT state, self-calibrated compute injection and NIC
// firmware all live per testbed, so sharding changes nothing but wall
// time and a repeat run reproduces every measurement. Rows are
// subtests, so a battery runs its own with -run
// 'ParallelMatchesSerial/<row>'.
func TestParallelMatchesSerial(t *testing.T) {
	ppCurves := []curve{
		{"MX", Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}},
		{"Open-MX", Stack{Kind: "openmx", OMX: omxCfg(false)}},
		{"Open-MX I/OAT", Stack{Kind: "openmx", OMX: omxCfg(true)}},
	}
	rows := []struct {
		name string
		slow bool // skipped in -short mode
		run  func() any
	}{
		{"PingPong", false, func() any {
			return pingPongTable("determinism", ppCurves, []int{16, 4096, 256 << 10, 4 << 20})
		}},
		{"Fig9", false, func() any {
			mem, io := Fig9()
			return [2][]Fig9Row{mem, io}
		}},
		{"Fig12", true, func() any { return Fig12(128<<10, 1) }},
		{"Loss", false, func() any { return LossSweep([]float64{0, 0.03}, []int{64 << 10}, 10) }},
		{"MultiNIC", false, func() any { return MultiNICSweep([]int{1, 4}, []int{512 << 10}, 4) }},
		{"Adaptive", false, func() any { return AdaptiveSweep([]float64{0, 0.05}, []int{2}, 4) }},
		{"Avail", true, func() any { return AvailSweep([]int{128 << 10}, 4) }},
		{"Coll", false, func() any {
			return collTables([]string{"Allreduce", "Bcast"}, []int{4 << 10, 64 << 10}, []collWorld{{2, 2}, {4, 1}})
		}},
		{"DCA", true, func() any { return DCASweep([]int{64 << 10}, 3) }},
		{"FatTree", false, func() any {
			cases := []ftCase{
				{"Allreduce", []int{1 << 10}, 64},
				{"Alltoall", []int{1 << 10}, 64},
			}
			return fatTreeTables(cases, []int{64})
		}},
		{"NIColl", true, func() any {
			return NICollSweep([]NICollOp{{"Barrier", 0}, {"Allreduce", 4 << 10}}, []int{64}, 2)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.slow && testing.Short() {
				t.Skip("short mode")
			}
			run := func(workers int) (v any) {
				withPool(workers, func() { v = row.run() })
				return v
			}
			serial, parallel, again := run(1), run(8), run(1)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("parallel sweep differs from serial:\nserial:\n%s\nparallel:\n%s", dump(serial), dump(parallel))
			}
			if !reflect.DeepEqual(serial, again) {
				t.Errorf("sweep not run-to-run deterministic:\nfirst:\n%s\nsecond:\n%s", dump(serial), dump(again))
			}
		})
	}
}

// dump formats a sweep result for a failure message, rendering tables
// as text.
func dump(v any) string {
	switch x := v.(type) {
	case *metrics.Table:
		return x.Render()
	case []*metrics.Table:
		out := ""
		for _, t := range x {
			out += t.Render()
		}
		return out
	}
	return fmt.Sprintf("%+v", v)
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
	defer c.Close()
	a, b := c.NewHost("node0"), c.NewHost("node1")
	cluster.Link(a, b)
	cfg := openmx.Config{RegCache: true, IOAT: mode == "I/OAT"}
	ea := openmx.Attach(a, cfg).Open(0, 2)
	eb := openmx.Attach(b, cfg).Open(0, 2)
	_, delivered, elapsed := pingPong(c, ea, eb, size, 0, iters, 60*sim.Second)
	return MultiNICPoint{Mode: mode, NICs: 1, Bytes: size, Iters: iters, Delivered: delivered,
		GoodputMiBps: goodput(delivered, size, elapsed)}
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
