package simd

// The service's JSON vocabulary: tenants describe topologies, stacks
// and experiment jobs as plain data, and the specs convert into the
// simulator's native types (cluster.Topology, figures.Stack) with
// every invalid field reported as an error — never a panic.
//
// Every spec type is a value struct with no pointers, maps or funcs:
// the specs are hashed into runner.Key cache keys (which render with
// %#v), so identical requests from different tenants must produce
// byte-identical renderings and thus hit the same cache entry.

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/figures"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// TopologySpec is the declarative testbed description a tenant posts
// to create a named cluster. It mirrors cluster.Topology.
type TopologySpec struct {
	// Hosts lists the host sets, created in order.
	Hosts []HostSetSpec `json:"hosts"`
	// Wiring connects them.
	Wiring WiringSpec `json:"wiring"`
}

// HostSetSpec mirrors cluster.HostSet.
type HostSetSpec struct {
	// Name is the base host name ("node" → node0…nodeN-1).
	Name string `json:"name"`
	// N is the host count (0 means 1).
	N int `json:"n,omitempty"`
	// Indexed forces the name+index form even for a single host.
	Indexed bool `json:"indexed,omitempty"`
	// NICs is the per-host NIC count for link aggregation (0 means 1).
	NICs int `json:"nics,omitempty"`
}

// WiringSpec selects a wiring shape by kind:
//
//	"backtoback"   the paper's two-host switchless testbed
//	"singleswitch" every host on one store-and-forward switch
//	"fattree"      2-tier leaf/spine Clos (LeafRadix, Spines, ECMP)
//	""             unwired hosts
type WiringSpec struct {
	Kind string `json:"kind"`
	// LeafRadix and Spines shape a fat tree (kind "fattree").
	LeafRadix int `json:"leafRadix,omitempty"`
	Spines    int `json:"spines,omitempty"`
	// ECMP selects the fat tree's uplink spread ("hash", "rr").
	ECMP string `json:"ecmp,omitempty"`
	// Net configures the primary element: the back-to-back link, the
	// single switch, or the fat tree's leaf switches.
	Net NetSpec `json:"net,omitempty"`
	// Trunk configures fat-tree leaf-spine trunks.
	Trunk NetSpec `json:"trunk,omitempty"`
}

// NetSpec is the flat JSON form of the cluster.NetOption vocabulary:
// queue bounds, added latency, and a deterministic impairment.
type NetSpec struct {
	// Queue bounds transmit queues to this many frames (tail drop).
	Queue int `json:"queue,omitempty"`
	// LatencyNs adds fixed latency, in simulated nanoseconds.
	LatencyNs int64 `json:"latencyNs,omitempty"`
	// Seed selects the impairment's deterministic random stream.
	Seed int64 `json:"seed,omitempty"`
	// LossRate, DupRate and ReorderRate are per-frame probabilities.
	LossRate    float64 `json:"lossRate,omitempty"`
	DupRate     float64 `json:"dupRate,omitempty"`
	ReorderRate float64 `json:"reorderRate,omitempty"`
	// JitterMaxNs adds uniform [0, max) latency jitter per frame.
	JitterMaxNs int64 `json:"jitterMaxNs,omitempty"`
}

// options converts the spec to the cluster option vocabulary.
func (n NetSpec) options() []cluster.NetOption {
	var opts []cluster.NetOption
	if n.Queue > 0 {
		opts = append(opts, cluster.Queue(n.Queue))
	}
	if n.LatencyNs > 0 {
		opts = append(opts, cluster.Latency(sim.Duration(n.LatencyNs)))
	}
	if n.LossRate != 0 || n.DupRate != 0 || n.ReorderRate != 0 || n.JitterMaxNs != 0 {
		opts = append(opts, cluster.Impair(cluster.Impairment{
			Seed:        n.Seed,
			LossRate:    n.LossRate,
			DupRate:     n.DupRate,
			ReorderRate: n.ReorderRate,
			JitterMax:   sim.Duration(n.JitterMaxNs),
		}))
	}
	return opts
}

// topology converts the spec into a cluster.Topology. Field-level
// invariants (host counts, NIC counts, fat-tree shape) are left to
// cluster.BuildE, which reports them with precise messages; only the
// wiring kind — pure vocabulary, invisible to BuildE — is checked
// here.
func (t TopologySpec) topology() (cluster.Topology, error) {
	var top cluster.Topology
	for _, hs := range t.Hosts {
		set := cluster.HostSet{Name: hs.Name, N: hs.N, Indexed: hs.Indexed}
		if hs.NICs != 0 {
			set.Opts = append(set.Opts, cluster.MultiNIC(hs.NICs))
		}
		top.Hosts = append(top.Hosts, set)
	}
	w := t.Wiring
	switch w.Kind {
	case "backtoback":
		top.Wiring = cluster.BackToBack{Opts: w.Net.options()}
	case "singleswitch":
		top.Wiring = cluster.SingleSwitch{Opts: w.Net.options()}
	case "fattree":
		top.Wiring = cluster.FatTree{
			LeafRadix:  w.LeafRadix,
			Spines:     w.Spines,
			ECMPPolicy: w.ECMP,
			LeafOpts:   w.Net.options(),
			TrunkOpts:  w.Trunk.options(),
		}
	case "":
		// Unwired hosts: allowed, though no multi-host job will pass.
	default:
		return cluster.Topology{}, fmt.Errorf(
			"simd: unknown wiring kind %q (want backtoback, singleswitch or fattree)", w.Kind)
	}
	return top, nil
}

// StackSpec selects a protocol stack for a sweep.
type StackSpec struct {
	// Kind is "openmx" or "mxoe".
	Kind string `json:"kind"`
	// IOAT enables I/OAT copy offload (openmx).
	IOAT bool `json:"ioat,omitempty"`
	// RegCache enables the registration cache (both stacks).
	RegCache bool `json:"regcache,omitempty"`
	// SkipBHCopy models the no-copy prediction (openmx).
	SkipBHCopy bool `json:"skipBHCopy,omitempty"`
}

// stack converts the spec to the figures stack vocabulary.
func (s StackSpec) stack() (figures.Stack, error) {
	switch s.Kind {
	case "openmx":
		return figures.Stack{Kind: "openmx", OMX: openmx.Config{
			IOAT: s.IOAT, RegCache: s.RegCache, SkipBHCopy: s.SkipBHCopy,
		}}, nil
	case "mxoe":
		return figures.Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: s.RegCache}}, nil
	}
	return figures.Stack{}, fmt.Errorf(`simd: unknown stack kind %q (want "openmx" or "mxoe")`, s.Kind)
}

// JobSpec describes one experiment job.
type JobSpec struct {
	// Kind is "sweep" (default) or "figure".
	Kind string `json:"kind,omitempty"`
	// Cluster names the tenant cluster a sweep runs on.
	Cluster string `json:"cluster,omitempty"`
	// Figure names a section from figures.Sections ("fig8", "coll"…).
	Figure string `json:"figure,omitempty"`
	// Test is the IMB benchmark name, case-insensitive ("allreduce").
	Test string `json:"test,omitempty"`
	// Sizes are the message sizes to sweep, in bytes.
	Sizes []int `json:"sizes,omitempty"`
	// PPN is the ranks-per-node count (0 means 1).
	PPN int `json:"ppn,omitempty"`
	// Iters fixes the per-size iteration count; 0 selects the IMB
	// default schedule.
	Iters int `json:"iters,omitempty"`
	// Stacks lists the stacks to sweep, one result series each.
	Stacks []StackSpec `json:"stacks,omitempty"`
}
