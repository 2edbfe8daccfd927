package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"omxsim/cluster"
	"omxsim/imb"
	"omxsim/mpi"
	"omxsim/mxoe"
)

// The sweep-worlds workload: one op is one figure sweep point — build
// a 32-host single-switch world, attach MXoE with two ranks per host,
// run IMB Allreduce at 4 kB, read NetStats and close the world.
const (
	sweepHosts  = 32
	sweepTest   = "Allreduce"
	sweepBytes  = 4 << 10
	sweepIters  = 4
	sweepWarmup = 2 // checked ops per set-up round
)

// sweepRankCores places the ranks of a host on the figures' rank
// cores, in slot order.
var sweepRankCores = []int{2, 4}

// sweepTopology is the world every op builds.
func sweepTopology() cluster.Topology {
	return cluster.Topology{
		Hosts:  []cluster.HostSet{{Name: "node", N: sweepHosts, Indexed: true}},
		Wiring: cluster.SingleSwitch{},
	}
}

// sweepStack is the stack configuration every op attaches.
func sweepStack() mxoe.Config { return mxoe.Config{RegCache: true} }

func sweepItersFn(int) int { return sweepIters }

type sweep struct {
	// Outputs of the op just run.
	res    []imb.Result
	net    cluster.NetStats
	counts counts
	err    error
	// The first op's output; every later op must repeat it.
	ref       []imb.Result
	refCounts counts
	refSet    bool
}

// newSweep returns the sweep-worlds workload. IMB fills its own
// buffers, so the seed selects nothing here.
func newSweep(int64) *sweep { return &sweep{} }

// setup runs the warm-up ops; each builds and closes its own world.
func (s *sweep) setup(b *bench) error {
	for i := 0; i < sweepWarmup; i++ {
		s.op(b)
		_, err := s.check(b)
		b.tally(err)
	}
	return nil
}

func (s *sweep) teardown(*bench) {}

// phaseEnd has nothing to add: each op reads its own world's NetStats.
func (s *sweep) phaseEnd(*bench, counts) (counts, error) { return counts{}, nil }

func (s *sweep) op(b *bench) {
	s.res, s.net, s.counts, s.err = nil, cluster.NetStats{}, counts{}, nil
	t := b.clock()
	c, err := cluster.BuildE(sweepTopology())
	b.since("cluster.build_ms", t)
	if err != nil {
		s.err = err
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("sweep point panicked: %v", r)
		}
		t := b.clock()
		c.Close()
		b.since("cluster.close_ms", t)
	}()
	w := mpi.NewWorld(c)
	var stacks []*mxoe.Stack
	var attach, open time.Duration
	for _, h := range c.Hosts() {
		t := b.clock()
		st := mxoe.Attach(h, sweepStack())
		attach += b.elapsed(t)
		stacks = append(stacks, st)
		for slot, core := range sweepRankCores {
			t := b.clock()
			ep := st.Open(slot, core)
			open += b.elapsed(t)
			w.AddRank(ep, h, core)
		}
	}
	b.record("mxoe.attach_ms", attach)
	b.record("mxoe.open_ms", open)
	r := &imb.Runner{C: c, W: w, Iters: sweepItersFn}
	t = b.clock()
	s.res = r.Run(sweepTest, []int{sweepBytes})
	b.since("imb.run_ms", t)
	s.net = c.NetStats()
	s.counts = sweepCounts(c, s.net, stacks)
}

// sweepCounts reads one finished world's modelled counters.
func sweepCounts(c *cluster.Cluster, ns cluster.NetStats, stacks []*mxoe.Stack) counts {
	var k counts
	for _, h := range ns.Hosts {
		k.Frames += h.TxFrames
		k.RingDrops += h.RxDrops
	}
	for _, sw := range ns.Switches {
		for _, p := range sw.Ports {
			k.WireBytes += p.In.BytesSent
		}
	}
	k.WireDrops = ns.TotalWireLoss()
	k.VirtualNs = int64(c.Now())
	for _, st := range stacks {
		ms := st.Stats()
		k.EagerSent += ms.EagerSent
		k.CollFrames += ms.Coll.UpFrames + ms.Coll.DownFrames + ms.Coll.Acks
		k.Retransmits += ms.Retransmits() + ms.Coll.Retransmits
		k.DupFrags += ms.DupFrags + ms.Coll.DupFrags
		k.RingDrops += ms.QueueDrops
		rs := st.RegStats()
		k.RegHits += rs.Hits
		k.RegMisses += rs.Misses
	}
	return k
}

// check verifies the op just run: it drained (imb panics otherwise),
// lost nothing, and measured exactly what the first op measured.
func (s *sweep) check(*bench) (counts, error) {
	if s.err != nil {
		return s.counts, s.err
	}
	errs := []error{s.counts.faults()}
	if len(s.res) != 1 || s.res[0].Test != sweepTest || s.res[0].Bytes != sweepBytes || !(s.res[0].TimeUsec > 0) {
		errs = append(errs, fmt.Errorf("unexpected IMB result %+v", s.res))
	}
	switch {
	case !s.refSet:
		s.ref, s.refCounts, s.refSet = s.res, s.counts, true
	case !reflect.DeepEqual(s.res, s.ref):
		errs = append(errs, fmt.Errorf("IMB result %+v differs from the first op's %+v", s.res, s.ref))
	case s.counts != s.refCounts:
		errs = append(errs, fmt.Errorf("modelled counts %+v differ from the first op's %+v", s.counts, s.refCounts))
	}
	return s.counts, errors.Join(errs...)
}
