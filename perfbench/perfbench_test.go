package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"omxsim/figures"
)

func newBench(traced bool) *bench {
	return &bench{traced: traced, spans: map[string]*hist{}}
}

// One sweep-worlds op measures exactly what the figures and omxsimd
// measure for the same point through figures.SweepOn.
func TestSweepOpMatchesSweepOn(t *testing.T) {
	s := newSweep(1)
	b := newBench(false)
	s.op(b)
	if _, err := s.check(b); err != nil {
		t.Fatal(err)
	}
	res, c, err := figures.SweepOn(sweepTopology(), figures.Stack{Kind: "mxoe", MX: sweepStack()},
		len(sweepRankCores), sweepTest, []int{sweepBytes}, sweepItersFn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !reflect.DeepEqual(res, s.res) {
		t.Errorf("imb results differ: op %+v, SweepOn %+v", s.res, res)
	}
	if ns := c.NetStats(); !reflect.DeepEqual(ns, s.net) {
		t.Errorf("NetStats differ:\nop      %+v\nSweepOn %+v", s.net, ns)
	}
}

// Each workload runs a short traced phase with no failed op, reports
// its layers' spans and its windows, and releases everything it built.
// The phase is long enough that each window spans several scheduler
// ticks, the granularity of the CPU time getrusage reports.
func TestWorkloadsRunClean(t *testing.T) {
	spans := map[string][]string{
		"pingpong-eager": {"openmx.isend_us", "openmx.irecv_us", "openmx.wait_us", "cluster.build_ms", "cluster.close_ms", "cluster.alloc_ms", "cluster.fill_ms"},
		"pingpong-rndv":  {"openmx.isend_us", "openmx.irecv_us", "openmx.wait_us", "cluster.build_ms", "cluster.close_ms", "cluster.alloc_ms", "cluster.fill_ms"},
		"sweep-worlds":   {"cluster.build_ms", "cluster.close_ms", "mxoe.attach_ms", "mxoe.open_ms", "imb.run_ms"},
	}
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := run(mk(7), true, 400*time.Millisecond)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			for _, s := range spans[name] {
				if rep.Metrics[s].Value <= 0 {
					t.Errorf("span metric %s = %v, want > 0", s, rep.Metrics[s].Value)
				}
			}
			for _, m := range []string{"ops_per_s", "cpu_ms_per_op", "op_p50_ms", "op_p90_ms"} {
				w := rep.Windows[m]
				if len(w.Values) == 0 {
					t.Errorf("no windows of %s", m)
				}
				for _, v := range w.Values {
					if !(v > 0) {
						t.Errorf("window value of %s = %v, want > 0", m, v)
					}
				}
			}
			if n := rep.Metrics["runtime.goroutines_leaked"].Value; n != 0 {
				t.Errorf("%v goroutines leaked", n)
			}
			if rep.Metrics["model.retransmits"].Value != 0 {
				t.Errorf("retransmits on perfect links")
			}
		})
	}
}

// The ping-pong check catches a receive buffer that does not hold the
// sent payload, and allocates nothing the runtime metrics would charge
// to the op.
func TestPingPongCheck(t *testing.T) {
	pp := newPingPong(eagerSpec, 3)
	pp.spec.warmup = 1
	b := newBench(false)
	if err := pp.setup(b); err != nil || b.failed != 0 {
		t.Fatalf("setup: %v, %d failed", err, b.failed)
	}
	defer pp.teardown(b)
	pp.op(b)
	if _, err := pp.check(b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = pp.check(b) }); n != 0 {
		t.Errorf("check allocates %v objects", n)
	}
	pp.dstA.Bytes()[5]++
	if _, err := pp.check(b); err == nil {
		t.Error("check accepted a corrupted echo")
	}
}

// The histogram's quantiles land within its 0.1% bucket width, and a
// reset histogram forgets its earlier samples.
func TestHistQuantile(t *testing.T) {
	h := newHist()
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}} {
		if got := h.quantile(c.q, time.Microsecond); math.Abs(got-c.want)/c.want > 0.003 {
			t.Errorf("quantile(%v) = %v µs, want about %v", c.q, got, c.want)
		}
	}
	h.reset()
	h.add(time.Millisecond)
	if got := h.quantile(0.9, time.Microsecond); math.Abs(got-1000)/1000 > 0.003 {
		t.Errorf("quantile after reset = %v µs, want about 1000", got)
	}
	var empty *hist
	if got := empty.quantile(0.5, time.Microsecond); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}
