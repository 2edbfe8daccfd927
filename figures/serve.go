package figures

// The service-facing sweep entry: omxsimd (internal/simd) runs tenant
// experiment jobs through SweepOn, which is the error-returning twin
// of the figure generators' TestbedN+imb.Runner path. Everything
// that can be wrong with an untrusted spec — an invalid topology, a
// ppn out of range, an unknown stack kind or IMB test, a negative
// message size — comes back as an error; a valid spec measures
// exactly what the equivalent figure sweep would, so service results
// are bit-identical to direct figures calls.

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/imb"
)

// MaxPPN is the largest ranks-per-node count the standard rank-core
// placement supports — services validate tenant ppn against it.
func MaxPPN() int { return len(rankCores) }

// SweepOn builds a fresh world from the declarative topology, attaches
// the stack with ppn ranks per host (block placement on the standard
// rank cores), and runs one IMB test over the message sizes. The
// built cluster is returned alongside the results so callers can
// snapshot NetStats (and per-host CPU ledgers) after the run; the
// caller closes it. iters
// overrides the per-size iteration schedule (nil = imb.DefaultIters).
//
// Two SweepOn calls with equal arguments are bit-identical — the
// simulation is deterministic — which is what lets omxsimd cache
// results under a config hash and still serve exact data.
func SweepOn(top cluster.Topology, s Stack, ppn int, test string, sizes []int, iters func(int) int) ([]imb.Result, *cluster.Cluster, error) {
	canon, ok := imb.Canon(test)
	if !ok {
		return nil, nil, fmt.Errorf("figures: unknown IMB test %q", test)
	}
	for _, n := range sizes {
		if n < 0 {
			return nil, nil, fmt.Errorf("figures: negative message size %d", n)
		}
	}
	c, err := cluster.BuildE(top)
	if err != nil {
		return nil, nil, err
	}
	w, err := worldOverE(c, s, ppn)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	r := &imb.Runner{C: c, W: w, Iters: iters}
	return r.Run(canon, sizes), c, nil
}
