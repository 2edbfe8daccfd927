// Package cluster is the public entry point for building simulated
// testbeds: hosts (dual quad-core Clovertown machines with I/OAT and a
// 10 GbE NIC), back-to-back links or a switch, payload buffers, and
// simulated processes.
//
// A minimal two-node setup:
//
//	c := cluster.New(nil) // Clovertown defaults
//	a := c.NewHost("node0")
//	b := c.NewHost("node1")
//	cluster.Link(a, b)
//	// ... attach openmx/mxoe stacks, spawn processes ...
//	c.Go("app", func(p *sim.Proc) { ... })
//	c.Run()
package cluster

import (
	"fmt"
	"strings"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// Cluster owns the simulation engine and the simulated machines.
type Cluster struct {
	E *sim.Engine
	P *platform.Platform

	hosts     map[string]*Host
	hostOrder []*Host
	links     []*linkRec
	switches  []*Switch
}

// New returns an empty cluster. A nil platform selects the paper's
// Clovertown testbed.
func New(p *platform.Platform) *Cluster {
	if p == nil {
		p = platform.Clovertown()
	}
	return &Cluster{E: sim.New(), P: p, hosts: make(map[string]*Host)}
}

// Host is one simulated machine.
type Host struct {
	C    *Cluster
	Name string
	m    *host.Host
}

// HostOption configures one NewHost call.
type HostOption func(*hostOpts)

type hostOpts struct {
	nics     int
	irqCores []int
}

// MultiNIC equips the host with n NICs for link aggregation. NIC 0
// keeps the bare host name as its wire address (single-NIC behaviour
// is untouched); NIC i is addressed "host#i" and, by default, takes
// its interrupts on core i so the per-NIC bottom halves spread across
// cores. Hosts that exchange striped traffic must use equal NIC
// counts (Link enforces it; switched topologies are trusted).
//
// An out-of-range count (n < 1) is diagnosed when the option is
// applied: NewHost panics, NewHostE returns the error — so untrusted
// topology input routed through the error path can never bring a
// daemon down.
func MultiNIC(n int, opts ...NICOption) HostOption {
	return func(o *hostOpts) {
		o.nics = n
		for _, f := range opts {
			f(o)
		}
	}
}

// NICOption tunes a MultiNIC host.
type NICOption func(*hostOpts)

// NICIRQCores steers NIC i's interrupts (and its bottom half) to
// cores[i], overriding the default spread of core i per NIC. Shorter
// lists fall back to the default for the remaining NICs.
func NICIRQCores(cores ...int) NICOption {
	return func(o *hostOpts) { o.irqCores = cores }
}

// NewHost adds a machine to the cluster. Host names are the network
// addresses of their (primary) NICs and must be unique; '#' is
// reserved for lane addressing (wire.LaneAddr), so a host named
// "a#1" could collide with lane 1 of a MultiNIC host "a". NewHost
// panics on invalid input — the CLI convenience; services validating
// untrusted topologies use NewHostE.
func (c *Cluster) NewHost(name string, opts ...HostOption) *Host {
	h, err := c.NewHostE(name, opts...)
	if err != nil {
		panic(err)
	}
	return h
}

// NewHostE is NewHost with the invariants — unique name, no '#' in
// the name, MultiNIC count ≥ 1 — reported as an error instead of a
// panic.
func (c *Cluster) NewHostE(name string, opts ...HostOption) (*Host, error) {
	if _, dup := c.hosts[name]; dup {
		return nil, fmt.Errorf("cluster: duplicate host %q", name)
	}
	if strings.Contains(name, "#") {
		return nil, fmt.Errorf("cluster: host name %q contains '#', reserved for NIC lane addresses", name)
	}
	o := hostOpts{nics: 1}
	for _, f := range opts {
		f(&o)
	}
	if o.nics < 1 {
		return nil, fmt.Errorf("cluster: MultiNIC count %d out of range", o.nics)
	}
	h := &Host{C: c, Name: name, m: host.NewMulti(c.E, c.P, name, o.nics, o.irqCores)}
	c.hosts[name] = h
	c.hostOrder = append(c.hostOrder, h)
	return h, nil
}

// Hosts returns every host in creation order.
func (c *Cluster) Hosts() []*Host { return c.hostOrder }

// Switches returns every switch in creation order.
func (c *Cluster) Switches() []*Switch { return c.switches }

// NICCount reports the host's NIC count.
func (h *Host) NICCount() int { return h.m.Lanes() }

// Host returns a host by name, or nil.
func (c *Cluster) Host(name string) *Host { return c.hosts[name] }

// Machine exposes the underlying simulated hardware. It is used by
// the protocol packages in this module; external callers should treat
// it as opaque.
func (h *Host) Machine() *host.Host { return h.m }

// Link connects two hosts back to back, like the paper's switchless
// testbed: one full-duplex 10 GbE cable per NIC pair (lane k of a
// plugs into lane k of b — link aggregation for MultiNIC hosts, whose
// NIC counts must match). Options add impairment profiles (Impair,
// ImpairAB, ImpairBA — reseeded per lane so lanes misbehave
// independently — and ImpairLane for one cable only) and a bounded
// transmit queue (Queue); with no options every lane is perfect
// and the fast path is untouched.
func Link(a, b *Host, opts ...NetOption) {
	if err := LinkE(a, b, opts...); err != nil {
		panic(err)
	}
}

// LinkE is Link with the invariants — equal NIC counts on both ends,
// ImpairLane indices within the lane range — reported as an error
// instead of a panic, for callers wiring untrusted topologies. On
// error no lane has been cabled.
func LinkE(a, b *Host, opts ...NetOption) error {
	var o netOpts
	for _, f := range opts {
		f(&o)
	}
	if a.NICCount() != b.NICCount() {
		return fmt.Errorf("cluster: Link %s (%d NICs) to %s (%d NICs): aggregated links need equal NIC counts",
			a.Name, a.NICCount(), b.Name, b.NICCount())
	}
	for lane := range o.laneAB {
		if lane < 0 || lane >= a.NICCount() {
			return fmt.Errorf("cluster: ImpairLane(%d) on a %d-NIC link (valid lanes 0..%d)",
				lane, a.NICCount(), a.NICCount()-1)
		}
	}
	rec := &linkRec{from: a.Name, to: b.Name}
	for lane := 0; lane < a.NICCount(); lane++ {
		abIm, baIm := laneSeed(o.ab, lane), laneSeed(o.ba, lane)
		// Explicit per-lane profiles win over the reseeded global ones
		// and keep their configured seed verbatim.
		if im, ok := o.laneAB[lane]; ok {
			abIm = im
		}
		if im, ok := o.laneBA[lane]; ok {
			baIm = im
		}
		na, nb := a.m.NICs[lane], b.m.NICs[lane]
		ab, ba := wire.Connect(a.C.E, a.C.P, na, nb)
		ab.SetImpairment(abIm.wire())
		ba.SetImpairment(baIm.wire())
		ab.QueueLimit = o.queueLimit
		ba.QueueLimit = o.queueLimit
		if o.hasLatency {
			ab.ExtraLatency = o.latency
			ba.ExtraLatency = o.latency
		}
		na.SetHose(ab)
		nb.SetHose(ba)
		rec.lanes = append(rec.lanes, linkLane{ab: ab, ba: ba})
	}
	a.C.links = append(a.C.links, rec)
	return nil
}

// LossyLink connects two single-NIC hosts and installs the given
// frame-drop predicates on the a→b and b→a directions (nil means no
// loss). Used by retransmission experiments; aggregated links use
// Link with ImpairLane instead.
func LossyLink(a, b *Host, dropAB, dropBA func(any) bool) {
	if a.NICCount() != 1 || b.NICCount() != 1 {
		panic("cluster: LossyLink requires single-NIC hosts (use Link with ImpairLane)")
	}
	ab, ba := wire.Connect(a.C.E, a.C.P, a.m.NIC, b.m.NIC)
	if dropAB != nil {
		ab.Drop = func(f *wire.Frame) bool { return dropAB(f.Msg) }
	}
	if dropBA != nil {
		ba.Drop = func(f *wire.Frame) bool { return dropBA(f.Msg) }
	}
	a.m.NIC.SetHose(ab)
	b.m.NIC.SetHose(ba)
	a.C.links = append(a.C.links, &linkRec{from: a.Name, to: b.Name, lanes: []linkLane{{ab: ab, ba: ba}}})
}

// Switch is a store-and-forward Ethernet switch.
type Switch struct {
	c        *Cluster
	sw       *wire.Switch
	uplinks  map[string]*wire.Hose // NIC address → (NIC→switch) hose
	attached []string              // NIC addresses in attach order
}

// NewSwitch adds a switch to the cluster. Options bound the output
// queues (Queue), impair the output ports (Impair), tune the
// forwarding latency (Latency) and pick the multi-path policy (ECMP);
// with no options the switch is ideal apart from its
// store-and-forward hop.
func (c *Cluster) NewSwitch(opts ...NetOption) *Switch {
	var o netOpts
	for _, f := range opts {
		f(&o)
	}
	s := &Switch{c: c, sw: wire.NewSwitch(c.E, c.P), uplinks: make(map[string]*wire.Hose)}
	s.sw.OutputQueueFrames = o.queueLimit
	if o.hasLatency {
		s.sw.ForwardLatency = o.latency
	}
	if o.ab.Enabled() {
		s.sw.PortImpair = o.ab.wire()
	}
	if o.ecmp != "" {
		s.sw.ECMPPolicy = o.ecmp
	}
	c.switches = append(c.switches, s)
	return s
}

// Attach plugs a host into the switch: every NIC of a MultiNIC host
// gets its own switch port (and its own congestible output queue), so
// striped traffic occupies several ports in parallel. Hosts that
// exchange striped traffic through a switch must use equal NIC counts
// — lane k is addressed to the peer's lane-k port.
func (s *Switch) Attach(h *Host) {
	for _, n := range h.m.NICs {
		up := s.sw.Attach(n)
		s.uplinks[n.Name] = up
		s.attached = append(s.attached, n.Name)
		n.SetHose(up)
	}
}

// Wire exposes the underlying wire-level switch (for tests and
// in-module diagnostics such as FlowPaths).
func (s *Switch) Wire() *wire.Switch { return s.sw }

// Trunk joins two switches with a full-duplex inter-switch link. The
// a→b hose becomes an ECMP uplink candidate on a, and b learns a pinned
// route back through b→a for every NIC address attached to a so far —
// the leaf-to-spine wiring of a fat tree (call after attaching a's
// hosts). Options impair the trunk (reseeded per direction), bound its
// queues (overriding the switches' own bounds) and add latency.
func (c *Cluster) Trunk(a, b *Switch, name string, opts ...NetOption) {
	var o netOpts
	for _, f := range opts {
		f(&o)
	}
	ab, ba := wire.ConnectTrunk(a.sw, b.sw, name)
	ab.SetImpairment(o.ab.wire())
	ba.SetImpairment(o.ba.wire())
	if o.queueLimit > 0 {
		ab.QueueLimit = o.queueLimit
		ba.QueueLimit = o.queueLimit
	}
	if o.hasLatency {
		ab.ExtraLatency = o.latency
		ba.ExtraLatency = o.latency
	}
	a.sw.AddUplink(name, ab)
	for _, addr := range a.attached {
		b.sw.AddRoute(addr, ba)
	}
}

// Buffer is an application payload buffer in a host's memory. It
// carries real bytes end to end through the simulated stacks.
type Buffer struct {
	H *Host
	b *hostmem.Buffer
}

// Alloc allocates a buffer of n bytes on the host, homed on the
// chipset's local NUMA node. It reads as zero; storage is allocated on
// first write.
func (h *Host) Alloc(n int) *Buffer {
	return &Buffer{H: h, b: h.m.Alloc(n)}
}

// AllocOn allocates a buffer of n bytes homed on the given NUMA node
// (socket). It reads as zero; storage is allocated on first write.
// Device DMA into a remote-socket buffer pays the platform's
// remote-deposit penalty, so placement matters to receive paths.
func (h *Host) AllocOn(n, socket int) *Buffer {
	return &Buffer{H: h, b: h.m.AllocOn(n, socket)}
}

// Bytes gives direct access to the payload. The first call allocates
// the backing storage of a buffer nothing has written yet. Use the
// slice straight away and never keep it across a send (see
// hostmem.Buffer.Bytes).
func (b *Buffer) Bytes() []byte { return b.b.Bytes() }

// Size reports the buffer length.
func (b *Buffer) Size() int { return b.b.Size() }

// Fill writes a deterministic test pattern.
func (b *Buffer) Fill(seed byte) { b.b.Fill(seed) }

// Equal reports whether two buffers hold the same bytes.
func Equal(a, b *Buffer) bool { return hostmem.Equal(a.b, b.b) }

// Produce marks the buffer as freshly written by the application on
// the given core (its cache becomes warm there). Benchmarks call this
// before each send to model the application producing the payload —
// the placement-dependent curves of Figure 10 depend on it.
func (b *Buffer) Produce(core int) { b.b.Touch(core, b.b.Size()) }

// Raw exposes the underlying buffer for in-module protocol packages.
func (b *Buffer) Raw() *hostmem.Buffer { return b.b }

// Go spawns a simulated process.
func (c *Cluster) Go(name string, fn func(p *sim.Proc)) { c.E.Go(name, fn) }

// Run drains the simulation and returns the number of processes still
// blocked (protocol deadlocks; daemon service loops such as NIC bottom
// halves are excluded by the engine's own accounting).
func (c *Cluster) Run() int {
	return c.E.Run()
}

// RunFor advances the simulation by d.
func (c *Cluster) RunFor(d sim.Duration) { c.E.RunUntil(c.E.Now() + d) }

// Now returns the current simulated time.
func (c *Cluster) Now() sim.Time { return c.E.Now() }

// Close tears down all simulated processes (for tests).
func (c *Cluster) Close() { c.E.Close() }
