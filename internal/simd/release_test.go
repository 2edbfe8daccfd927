package simd

import (
	"io"
	"log/slog"
	"runtime"
	"testing"
	"time"

	"omxsim/runner"
)

// TestSweepJobReleasesWorld runs one sweep job through executeJob and
// requires every goroutine its simulated world started — the NICs'
// bottom-half daemons among them — to be gone afterwards: the job
// must close the cluster SweepOn built once it has read the counters,
// or a long-running service keeps every finished world alive.
func TestSweepJobReleasesWorld(t *testing.T) {
	s := NewServer(Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Pool:   runner.New(runner.Options{Workers: 1, Cache: runner.NewCache()}),
	})
	spec := JobSpec{
		Kind: "sweep", Test: "PingPong", Sizes: []int{1024}, PPN: 1, Iters: 2,
		Stacks: []StackSpec{{Kind: "openmx", RegCache: true}},
	}
	topo := TopologySpec{
		Hosts:  []HostSetSpec{{Name: "node", N: 2, Indexed: true}},
		Wiring: WiringSpec{Kind: "backtoback"},
	}
	base := runtime.NumGoroutine()
	res, err := s.executeJob(newJobState("job-1", "acme", spec), topo)
	if err != nil {
		t.Fatalf("executeJob: %v", err)
	}
	if len(res.Points) != 1 || len(res.Points[0].Results) != 1 {
		t.Fatalf("sweep job returned %+v, want one point with one result", res)
	}
	// Aborted simulation processes unwind just after Close returns.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > base {
		t.Errorf("%d goroutines after the sweep job, %d before — its world was left open", n, base)
	}
}
