package imb

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/mpi"
	"omxsim/runner"
)

// Point is one independent sweep point: a complete benchmark run
// (one test over its message sizes) on a freshly built world. Points
// never share a testbed, so a sweep of Points can shard freely across
// a worker pool.
type Point struct {
	// Name labels the point in progress output and results.
	Name string
	// Build returns a fresh cluster and world for this point. It is
	// called at most once, from whichever pool worker picks the point
	// up, and Sweep closes the cluster when the run ends.
	Build func() (*cluster.Cluster, *mpi.World)
	// Test is the IMB benchmark name (see Tests).
	Test string
	// Sizes are the message sizes to run.
	Sizes []int
	// Iters overrides the iteration schedule (nil = DefaultIters).
	Iters func(bytes int) int
	// Key, when non-empty, caches the point's results in the pool's
	// cache (see runner.Key).
	Key string
}

// PointResult pairs a point with its measurements, in sweep order.
type PointResult struct {
	Point   Point
	Results []Result
}

// Sweep runs every point concurrently on the pool (one fresh testbed
// each, closed once its run ends) and returns their results in point
// order. The first failing
// point — including a captured panic, e.g. a deadlocked benchmark —
// is returned as an error after every other point has finished.
func Sweep(p *runner.Pool, points []Point) ([]PointResult, error) {
	jobs := make([]runner.Job, len(points))
	for i, pt := range points {
		jobs[i] = runner.Job{
			Label: fmt.Sprintf("imb/%s/%s", pt.Test, pt.Name),
			Key:   pt.Key,
			Run: func() (any, error) {
				c, w := pt.Build()
				defer c.Close()
				r := &Runner{C: c, W: w, Iters: pt.Iters}
				return r.Run(pt.Test, pt.Sizes), nil
			},
		}
	}
	results := p.Run(jobs...)
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]PointResult, len(points))
	for i, r := range results {
		out[i] = PointResult{Point: points[i], Results: r.Value.([]Result)}
	}
	return out, nil
}
