package omxsim

// Benchmarks of the simulator itself. Figure benchmarks are gone: the
// golden rendering (figures/testdata/omxsim-all.golden) already pins
// every figure's headline values, and after its first sample a figure
// benchmark only timed the process-wide runner cache. What remains:
//
//   - BenchmarkMicroNumbers regenerates the Section IV-A
//     microbenchmarks (submission cost, copy rates, break-even sizes);
//     its copy-engine probes are runner jobs, cached after the first
//     sample like the figures;
//   - BenchmarkTimeline regenerates the Figure 5/6 traces, uncached
//     (cost sanity for the tracing hooks);
//   - the BenchmarkIMBSweep* pair runs a 12-point IMB sweep on
//     uncached private pools, serial versus parallel.
//
// End-to-end and per-layer numbers for the simulator live in the
// separate perfbench module.

import (
	"fmt"
	"testing"

	"omxsim/cluster"
	"omxsim/figures"
	"omxsim/imb"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
)

// BenchmarkMicroNumbers regenerates the Section IV-A microbenchmarks
// (submission cost, copy rates, offload break-even sizes).
func BenchmarkMicroNumbers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := figures.MicroNumbers()
		b.ReportMetric(m.SubmitNs, "submit-ns")
		b.ReportMetric(m.MemcpyColdGiBps, "memcpy-GiB/s")
		b.ReportMetric(m.IOAT4kGiBps, "ioat4k-GiB/s")
		b.ReportMetric(float64(m.BreakEvenColdB), "breakeven-B")
	}
}

// BenchmarkTimeline regenerates the Figure 5/6 traces (cost sanity
// for the tracing hooks).
func BenchmarkTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = figures.Timeline(false)
		_ = figures.Timeline(true)
	}
}

// --- Sweep machinery ---

// sweepPoints builds the (stack, size, ppn) matrix of Figure 11/12
// style runs as independent imb sweep points.
func sweepPoints() []imb.Point {
	stacks := []figures.Stack{
		{Kind: "mxoe", MX: mxoe.Config{RegCache: true}},
		{Kind: "openmx", OMX: openmx.Config{RegCache: true}},
		{Kind: "openmx", OMX: openmx.Config{RegCache: true, IOAT: true, IOATShm: true}},
	}
	var points []imb.Point
	for _, s := range stacks {
		for _, size := range []int{64 << 10, 1 << 20} {
			for _, ppn := range []int{1, 2} {
				s, size, ppn := s, size, ppn
				points = append(points, imb.Point{
					Name:  fmt.Sprintf("%s/%d/%dppn", s.Name(), size, ppn),
					Build: func() (*cluster.Cluster, *mpi.World) { return figures.Testbed(s, ppn) },
					Test:  "PingPong",
					Sizes: []int{size},
					Iters: func(int) int { return 3 },
				})
			}
		}
	}
	return points
}

// benchSweep runs the point matrix on an uncached pool of the given
// width, so b.N iterations re-simulate every point and the serial and
// parallel benchmarks compare honestly.
func benchSweep(b *testing.B, workers int) {
	points := sweepPoints()
	for i := 0; i < b.N; i++ {
		pool := runner.New(runner.Options{Workers: workers})
		if _, err := imb.Sweep(pool, points); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIMBSweepSerial and BenchmarkIMBSweepParallel time the same
// 12-point (stack, size, ppn) matrix on one worker versus GOMAXPROCS
// workers; their ratio is the wall-clock speedup the runner buys on
// this host.
func BenchmarkIMBSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkIMBSweepParallel(b *testing.B) { benchSweep(b, 0) }
