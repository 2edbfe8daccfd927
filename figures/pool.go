package figures

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/imb"
	"omxsim/mpi"
	"omxsim/runner"
)

// The sweep scaffold every figure shares. A figure point is either an
// IMB run (imbRun, swept through imb.Sweep, which builds and closes
// the point's world) or any other measurement made a runner job by
// job, in which case the point builds its own world and closes it
// before returning. Either way no finished simulation outlives its
// point.

// pool overrides the pool figure sweeps run on; nil selects the
// process-wide shared pool (GOMAXPROCS workers plus a shared result
// cache, so figures that repeat a configuration — Figures 3 and 8
// share three ping-pong curves — simulate it once per process). The
// override is lazy so runner.Default() is not materialized at package
// init, before main can configure progress reporting. Tests swap it
// via setPool to compare serial and parallel execution.
var pool *runner.Pool

// activePool resolves the pool sweeps run on.
func activePool() *runner.Pool {
	if pool != nil {
		return pool
	}
	return runner.Default()
}

// setPool replaces the figures pool and returns the previous override
// (nil = the shared default), for tests that need a pinned worker
// count or a private cache.
func setPool(p *runner.Pool) (old *runner.Pool) {
	old, pool = pool, p
	return old
}

// job makes one figure point a runner job. key (see runner.Key) must
// name every input that sets the point's result; an empty key leaves
// the point uncached.
func job[T any](label, key string, run func() T) runner.Job {
	return runner.Job{Label: label, Key: key, Run: func() (any, error) { return run(), nil }}
}

// sweep runs the jobs on the figures pool and unwraps the values in
// job order. Figure generators have no error returns — a failing
// point means the reproduction is broken — so the first job error
// (including captured panics) panics here, after every other point
// has finished.
func sweep[T any](jobs ...runner.Job) []T {
	return runner.Values[T](activePool().Run(jobs...))
}

// imbRun is one IMB run on a fresh world of nodes hosts with ppn ranks
// each: wired as TestbedN wires them, or as the fat-tree figure's
// leaf/spine fabric when fatTree is set. iters fixes the iteration
// count at every size (0 = the IMB default schedule).
type imbRun struct {
	s       Stack
	nodes   int
	ppn     int
	fatTree bool
	test    string
	sizes   []int
	iters   int
}

// point makes the run an imb.Point. Its cache key is the whole run,
// so equal runs from different figures share one simulation.
func (r imbRun) point() imb.Point {
	pt := imb.Point{
		Name: fmt.Sprintf("%s/%dx%dppn", r.s.Name(), r.nodes, r.ppn),
		Build: func() (*cluster.Cluster, *mpi.World) {
			if r.fatTree {
				return fatTreeTestbed(r.s, r.nodes, r.ppn)
			}
			return TestbedN(r.s, r.nodes, r.ppn)
		},
		Test:  r.test,
		Sizes: r.sizes,
		Key:   runner.Key("imb", r),
	}
	if r.iters > 0 {
		pt.Iters = func(int) int { return r.iters }
	}
	return pt
}

// imbSweep runs every IMB run through imb.Sweep on the figures pool
// and returns each run's results in run order, panicking on the first
// failure as sweep does.
func imbSweep(runs []imbRun) [][]imb.Result {
	points := make([]imb.Point, len(runs))
	for i, r := range runs {
		points[i] = r.point()
	}
	res, err := imb.Sweep(activePool(), points)
	if err != nil {
		panic(err)
	}
	out := make([][]imb.Result, len(res))
	for i, pr := range res {
		out[i] = pr.Results
	}
	return out
}

// rankCores places up to two ranks per node on cores 2 and 4: distinct
// L2 domains and distinct sockets, so the 2-ppn shared-memory traffic
// crosses sockets (the situation the paper's I/OAT shm path wins in).
var rankCores = []int{2, 4}

// Testbed builds the paper's two-node testbed (block rank placement,
// ppn ranks per node) over the given stack and returns the cluster
// and MPI world, ready for an imb.Runner. The caller closes the
// cluster. Exported so the IMB command and benchmarks sweep the same
// worlds the figures do.
func Testbed(s Stack, ppn int) (*cluster.Cluster, *mpi.World) { return TestbedN(s, 2, ppn) }

// TestbedN is Testbed with an explicit node count: 2 nodes connect
// back to back (the paper's switchless testbed), more through a
// store-and-forward Ethernet switch. The collective figures and
// omx-imb -nodes sweep these larger worlds.
func TestbedN(s Stack, nodes, ppn int) (*cluster.Cluster, *mpi.World) {
	if ppn < 1 || ppn > len(rankCores) {
		panic(fmt.Sprintf("figures: ppn %d out of range 1..%d", ppn, len(rankCores)))
	}
	if nodes < 1 {
		panic(fmt.Sprintf("figures: node count %d out of range", nodes))
	}
	var wiring cluster.Wiring
	switch {
	case nodes == 2:
		wiring = cluster.BackToBack{}
	case nodes > 2:
		wiring = cluster.SingleSwitch{}
	}
	c := cluster.Build(cluster.Topology{
		Hosts:  []cluster.HostSet{{Name: "node", N: nodes, Indexed: true}},
		Wiring: wiring,
	})
	return c, worldOver(c, s, ppn)
}

// worldOver attaches the stack to every host of a built cluster (in
// creation order) and opens ppn ranks per node, block-placed. It
// panics on invalid input — the figure-generator contract; the
// service path goes through worldOverE.
func worldOver(c *cluster.Cluster, s Stack, ppn int) *mpi.World {
	w, err := worldOverE(c, s, ppn)
	if err != nil {
		panic(err)
	}
	return w
}
