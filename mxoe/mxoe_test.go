package mxoe_test

import (
	"runtime"
	"testing"

	"omxsim/cluster"
	"omxsim/mxoe"
)

// TestWorldBuildAllocBound bounds the heap objects one figure sweep
// point spends on building its world: a 32-host single-switch cluster,
// MXoE attached to every host, two endpoints opened per host, and the
// world closed again. Cores and I/OAT channels are one slab per host,
// the hardware models schedule static callbacks instead of binding
// method values, the receive rings hand out slots from a high-water
// mark instead of a 512-entry list, and the stacks' and endpoints'
// maps are made on first insert. Before that a host cost 108 objects.
func TestWorldBuildAllocBound(t *testing.T) {
	const (
		hosts   = 32
		rounds  = 20
		perHost = 60
	)
	build := func() {
		c, err := cluster.BuildE(cluster.Topology{
			Hosts:  []cluster.HostSet{{Name: "node", N: hosts, Indexed: true}},
			Wiring: cluster.SingleSwitch{},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range c.Hosts() {
			st := mxoe.Attach(h, mxoe.Config{RegCache: true})
			st.Open(0, 2)
			st.Open(1, 4)
		}
		c.Close()
	}
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		build()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / rounds / hosts
	t.Logf("%.1f objects per host", per)
	if per > perHost {
		t.Fatalf("building, attaching and closing a 32-host world makes %.1f objects per host, want ≤ %d", per, perHost)
	}
}
