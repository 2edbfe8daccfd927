// Package wire models Ethernet links: FIFO serialization at the
// signalling rate, per-frame framing overhead, propagation delay,
// targeted and profiled loss injection (see Impairment: seeded
// deterministic loss, duplication, reordering, jitter and rate
// asymmetry), bounded transmit queues with tail-drop, and a
// store-and-forward switch with per-port counters and congestible
// output queues.
//
// Frames carry their real payload bytes, so data integrity can be
// checked end to end, plus a decoded protocol message standing in for
// the on-wire header (whose size is accounted for in the timing via
// WireLen). A rendezvous pull reply carries a view of the lent sender
// buffer (hostmem.Buffer.View), as the skbuff of a real pull reply
// points at the sender's pinned pages; other payloads are copied into
// the frame when it is sent.
package wire

import (
	"fmt"

	"omxsim/platform"
	"omxsim/sim"
)

// Frame is one Ethernet frame in flight.
type Frame struct {
	// Data is the payload (may be nil for pure control messages whose
	// few bytes ride in Msg): a view of the lent sender buffer for a
	// pull reply, a copy made at send time otherwise. It never changes
	// once the frame is sent (a write into a lent buffer copies the
	// buffer first): duplicate deliveries share one Frame, and the
	// receiving NIC's buffer wraps Data rather than copying it.
	Data []byte
	// WireLen is the accounted payload length in bytes, including the
	// protocol header but excluding Ethernet framing (which the link
	// adds from the platform constants).
	WireLen int
	// Msg is the decoded protocol message (header fields).
	Msg any
	// DstAddr routes the frame through switches. Point-to-point links
	// ignore it.
	DstAddr string
	// SrcAddr identifies the sender.
	SrcAddr string
}

// Port is anything that can receive frames from a link: a NIC or a
// switch port.
type Port interface {
	// Arrive delivers a frame at the simulated instant its last bit
	// arrives at the port.
	Arrive(f *Frame)
	// Address is the port's globally unique address.
	Address() string
}

// Hose is the transmit side of one link direction: frames Sent on it
// serialize FIFO at the wire rate and arrive at the peer port after
// the propagation delay.
type Hose struct {
	E *sim.Engine
	P *platform.Platform

	peer Port
	// queue is a head-cursor FIFO: startNext advances head instead of
	// reslicing, so the backing array is reused and the steady state
	// stays off the allocator.
	queue []*Frame
	head  int
	busy  bool
	// cur is the frame on the wire (one at a time). The callbacks that
	// end its serialization, deliver a frame to the peer and send one
	// a switch has forwarded are bound once in NewHose, so no hop
	// builds a closure.
	cur         *Frame
	serializeFn func()
	arriveFn    func(any)
	sendFn      func(any)

	// Drop, if non-nil, is consulted for every frame after
	// serialization; returning true discards the frame (loss
	// injection for retransmission tests).
	Drop func(f *Frame) bool

	// QueueLimit bounds the output queue (frames, including the one
	// serializing); 0 means unbounded. Frames sent into a full queue
	// are tail-dropped — the congested-switch failure mode.
	QueueLimit int

	// ExtraLatency is added to the propagation delay of every frame
	// (longer cable runs, inter-switch trunks). Zero costs nothing.
	ExtraLatency sim.Duration

	// imp, when non-nil, perturbs the direction (loss, reorder,
	// duplication, jitter, rate asymmetry). See Impairment.
	imp *impairState

	// Stats.
	FramesSent      int64
	BytesSent       int64
	FramesDropped   int64
	FramesLost      int64
	FramesDuped     int64
	FramesReordered int64
	TailDrops       int64
	MaxQueue        int
}

// NewHose returns a transmit hose towards peer.
func NewHose(e *sim.Engine, p *platform.Platform, peer Port) *Hose {
	h := &Hose{E: e, P: p, peer: peer}
	h.serializeFn = h.serialized
	h.arriveFn = func(f any) { h.peer.Arrive(f.(*Frame)) }
	h.sendFn = func(f any) { h.Send(f.(*Frame)) }
	return h
}

// Peer returns the receiving port of this hose.
func (h *Hose) Peer() Port { return h.peer }

// SerializeTime reports the wire occupancy of a frame with the given
// payload length (adding Ethernet framing overhead), honouring the
// direction's rate asymmetry.
func (h *Hose) SerializeTime(wireLen int) sim.Duration {
	bits := float64(wireLen + h.P.EthFrameOverhead)
	rate := float64(h.P.WireRate)
	if h.imp != nil && h.imp.prof.RateScale > 0 {
		rate *= h.imp.prof.RateScale
	}
	return sim.Duration(bits / rate)
}

// Send queues a frame for transmission. The frame arrives at the peer
// after all previously queued frames serialize, plus this frame's own
// serialization time, plus propagation. When QueueLimit is set and the
// queue is full, the frame is tail-dropped instead.
func (h *Hose) Send(f *Frame) {
	if f.WireLen < 0 {
		panic(fmt.Sprintf("wire: negative frame length %d", f.WireLen))
	}
	if h.QueueLimit > 0 && h.occupancy() >= h.QueueLimit {
		h.TailDrops++
		return
	}
	h.queue = append(h.queue, f)
	if occ := h.occupancy(); occ > h.MaxQueue {
		h.MaxQueue = occ
	}
	if !h.busy {
		h.busy = true
		h.startNext()
	}
}

// occupancy counts frames in the device: waiting plus the one being
// serialized (startNext pops that one off the queue while it's on
// the wire).
func (h *Hose) occupancy() int {
	n := len(h.queue) - h.head
	if h.busy {
		n++
	}
	return n
}

// QueueLen reports frames in the device (including the one
// serializing).
func (h *Hose) QueueLen() int { return h.occupancy() }

func (h *Hose) startNext() {
	if h.head == len(h.queue) {
		h.queue = h.queue[:0]
		h.head = 0
		h.busy = false
		return
	}
	f := h.queue[h.head]
	h.queue[h.head] = nil
	h.head++
	h.cur = f
	h.E.Schedule(h.SerializeTime(f.WireLen), h.serializeFn)
}

// serialized runs when the last bit of cur is on the wire: the frame
// is dropped, impaired or sent on to the peer, and the next starts.
func (h *Hose) serialized() {
	f := h.cur
	h.cur = nil
	switch {
	case h.Drop != nil && h.Drop(f):
		h.FramesDropped++
	case h.imp != nil:
		h.impairedDeliver(f)
	default:
		h.FramesSent++
		h.BytesSent += int64(f.WireLen)
		h.E.ScheduleArg(sim.Duration(h.P.WirePropagation)+h.ExtraLatency, h.arriveFn, f)
	}
	h.startNext()
}

// impairedDeliver applies the impairment profile to one serialized
// frame: loss, then per-copy jitter/reorder delay, then duplication.
// Draw order is fixed (loss, delay, dup) so streams are reproducible.
func (h *Hose) impairedDeliver(f *Frame) {
	im := h.imp
	if im.chance(im.prof.LossRate) {
		h.FramesLost++
		return
	}
	h.FramesSent++
	h.BytesSent += int64(f.WireLen)
	h.deliverImpaired(f)
	if im.chance(im.prof.DupRate) {
		h.FramesDuped++
		h.deliverImpaired(f)
	}
}

// deliverImpaired schedules one copy of f at the peer after the
// propagation delay plus its drawn jitter and reorder delay.
func (h *Hose) deliverImpaired(f *Frame) {
	im := h.imp
	d := sim.Duration(h.P.WirePropagation) + h.ExtraLatency + im.extraDelay(im.prof.JitterMax)
	if im.chance(im.prof.ReorderRate) {
		h.FramesReordered++
		d += im.prof.ReorderDelay
	}
	h.E.ScheduleArg(d, h.arriveFn, f)
}

// Connect builds a full-duplex point-to-point link between two ports
// and returns the two transmit hoses (a→b, b→a).
func Connect(e *sim.Engine, p *platform.Platform, a, b Port) (ab, ba *Hose) {
	return NewHose(e, p, b), NewHose(e, p, a)
}

// LaneAddr is the network address of a host's lane-th NIC. Lane 0
// keeps the bare host name, so single-NIC clusters are bit-identical
// to the pre-multi-NIC wire format; extra NICs get "host#lane".
// Striping peers assume symmetric lane numbering: lane k of one host
// talks to lane k of the other (cluster.Link enforces equal counts;
// switched multi-NIC topologies must use equal counts per host).
func LaneAddr(host string, lane int) string {
	if lane == 0 {
		return host
	}
	return fmt.Sprintf("%s#%d", host, lane)
}

// Switch is a minimal store-and-forward Ethernet switch: each attached
// port gets a dedicated full-duplex link to the switch; the switch
// forwards by destination address with one additional serialization on
// the output link (plus a fixed forwarding latency). Output queues may
// be bounded (OutputQueueFrames) to model a congested switch that
// tail-drops, and every output port can carry an impairment profile.
//
// Switches also interconnect: ConnectTrunk joins two switches with an
// inter-switch link, AddRoute pins remote addresses to a specific
// trunk (a spine's down-link per leaf), and AddUplink registers
// default-route candidates among which flows spread ECMP-style (a
// leaf's up-links, one per spine). Uplink selection is flow-sticky —
// every (src, dst) pair rides one uplink for the simulation's lifetime
// — so a flow's frames stay ordered per path exactly as the host-side
// stripe policies keep per-lane order.
type Switch struct {
	E *sim.Engine
	P *platform.Platform
	// ForwardLatency is the switch's own cut-through/lookup latency.
	ForwardLatency sim.Duration
	// OutputQueueFrames bounds each output port's queue (0 =
	// unbounded). Applied to ports attached after it is set.
	OutputQueueFrames int
	// PortImpair, when enabled, is installed on every subsequently
	// attached output port, reseeded per port address.
	PortImpair Impairment
	// ECMPPolicy selects how flows spread over the uplinks: ECMPHash
	// (default) hashes the (src, dst) pair like an L3/L4 flow hash;
	// ECMPRoundRobin assigns uplinks round-robin at first sight. Both
	// are flow-sticky, preserving per-flow frame order.
	ECMPPolicy string

	byAddr map[string]*Hose // dest address → output hose (switch→NIC)
	order  []string         // attach order, for deterministic stats

	routes      map[string]*Hose // remote address → trunk hose (spine down-routes)
	uplinks     []*Hose          // default-route candidates (leaf up-links)
	uplinkNames []string
	trunkNames  []string // all trunk hoses originating here, registration order
	trunkHoses  []*Hose
	flows       map[flowKey]int // sticky flow → uplink index
	nextUplink  int             // roundrobin first-sight counter

	// FramesForwarded counts successfully routed frames; unroutable
	// frames are counted in FramesUnknown and discarded.
	FramesForwarded int64
	FramesUnknown   int64
}

// ECMP uplink-selection policies, mirroring the host stripe policies.
const (
	ECMPHash       = "hash"
	ECMPRoundRobin = "roundrobin"
)

// flowKey identifies one unidirectional flow for uplink stickiness.
type flowKey struct {
	src, dst string
}

// NewSwitch returns an empty switch.
func NewSwitch(e *sim.Engine, p *platform.Platform) *Switch {
	return &Switch{E: e, P: p, ForwardLatency: 300, byAddr: make(map[string]*Hose)}
}

// switchPort is the switch's receive side for one attached device.
type switchPort struct {
	sw   *Switch
	addr string
}

func (sp *switchPort) Address() string { return sp.addr }

func (sp *switchPort) Arrive(f *Frame) { sp.sw.route(f) }

// route forwards one arrived frame: local attached port first, then an
// explicit remote route, then ECMP over the uplinks.
func (s *Switch) route(f *Frame) {
	out := s.lookup(f)
	if out == nil {
		s.FramesUnknown++
		return
	}
	s.FramesForwarded++
	s.E.ScheduleArg(s.ForwardLatency, out.sendFn, f)
}

func (s *Switch) lookup(f *Frame) *Hose {
	if out, ok := s.byAddr[f.DstAddr]; ok {
		return out
	}
	if out, ok := s.routes[f.DstAddr]; ok {
		return out
	}
	if len(s.uplinks) > 0 {
		return s.uplinks[s.pickUplink(f)]
	}
	return nil
}

// pickUplink returns the sticky uplink index for the frame's flow,
// assigning one on first sight according to ECMPPolicy.
func (s *Switch) pickUplink(f *Frame) int {
	if len(s.uplinks) == 1 {
		return 0
	}
	key := flowKey{src: f.SrcAddr, dst: f.DstAddr}
	if i, ok := s.flows[key]; ok {
		return i
	}
	var i int
	switch s.ECMPPolicy {
	case ECMPRoundRobin:
		i = s.nextUplink % len(s.uplinks)
		s.nextUplink++
	default: // hash
		i = int(flowHash(f.SrcAddr, f.DstAddr) % uint64(len(s.uplinks)))
	}
	if s.flows == nil {
		s.flows = make(map[flowKey]int)
	}
	s.flows[key] = i
	return i
}

// flowHash is a deterministic L3/L4-style flow hash: FNV-1a over the
// two addresses, finished with the same multiplicative scramble the
// host stripe hash uses.
func flowHash(src, dst string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(src); i++ {
		h = (h ^ uint64(src[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(dst); i++ {
		h = (h ^ uint64(dst[i])) * prime64
	}
	return h * 0x9E3779B97F4A7C15 >> 1
}

// FlowPaths snapshots the sticky flow table (flow → uplink name), for
// determinism tests and diagnostics.
func (s *Switch) FlowPaths() map[[2]string]string {
	out := make(map[[2]string]string, len(s.flows))
	for k, i := range s.flows {
		out[[2]string{k.src, k.dst}] = s.uplinkNames[i]
	}
	return out
}

// trunkPort is the receiving end of an inter-switch link: arriving
// frames re-enter the peer switch's routing.
type trunkPort struct {
	sw   *Switch
	addr string
}

func (tp *trunkPort) Address() string { return tp.addr }

func (tp *trunkPort) Arrive(f *Frame) { tp.sw.route(f) }

// ConnectTrunk joins two switches with a full-duplex inter-switch link
// named name and returns the two transmit hoses (a→b, b→a). Each hose
// inherits its sending switch's output-queue bound; the caller then
// registers it as an uplink (AddUplink) or a pinned route (AddRoute)
// on that switch.
func ConnectTrunk(a, b *Switch, name string) (ab, ba *Hose) {
	ab = NewHose(a.E, a.P, &trunkPort{sw: b, addr: "trunk:" + name + ">"})
	ab.QueueLimit = a.OutputQueueFrames
	ba = NewHose(b.E, b.P, &trunkPort{sw: a, addr: "trunk:" + name + "<"})
	ba.QueueLimit = b.OutputQueueFrames
	a.registerTrunk(name+">", ab)
	b.registerTrunk(name+"<", ba)
	return ab, ba
}

func (s *Switch) registerTrunk(name string, h *Hose) {
	s.trunkNames = append(s.trunkNames, name)
	s.trunkHoses = append(s.trunkHoses, h)
}

// AddUplink registers out (a trunk hose originating at s) as a
// default-route candidate: frames to addresses s knows no route for
// spread over the uplinks ECMP-style.
func (s *Switch) AddUplink(name string, out *Hose) {
	s.uplinks = append(s.uplinks, out)
	s.uplinkNames = append(s.uplinkNames, name)
}

// AddRoute pins a remote address to a specific trunk hose (a spine's
// down-link towards the leaf that owns addr).
func (s *Switch) AddRoute(addr string, out *Hose) {
	if s.routes == nil {
		s.routes = make(map[string]*Hose)
	}
	s.routes[addr] = out
}

// Attach connects a device port to the switch and returns the hose the
// device must transmit on (device → switch). The output (switch →
// device) hose inherits the switch's queue bound and per-port
// impairment profile.
func (s *Switch) Attach(dev Port) *Hose {
	out := NewHose(s.E, s.P, dev)
	out.QueueLimit = s.OutputQueueFrames
	if s.PortImpair.Enabled() {
		out.SetImpairment(s.PortImpair.WithPortSeed(dev.Address()))
	}
	s.byAddr[dev.Address()] = out
	s.order = append(s.order, dev.Address())
	sp := &switchPort{sw: s, addr: "switch:" + dev.Address()}
	return NewHose(s.E, s.P, sp)
}

// PortStats is a per-output-port counter snapshot.
type PortStats struct {
	Addr string
	HoseStats
}

// Ports snapshots every output port's counters in attach order,
// followed by trunk hoses in registration order.
func (s *Switch) Ports() []PortStats {
	out := make([]PortStats, 0, len(s.order)+len(s.trunkHoses))
	for _, addr := range s.order {
		out = append(out, PortStats{Addr: addr, HoseStats: s.byAddr[addr].Stats()})
	}
	for i, h := range s.trunkHoses {
		out = append(out, PortStats{Addr: "trunk:" + s.trunkNames[i], HoseStats: h.Stats()})
	}
	return out
}

// Trunks snapshots only the trunk hoses originating at this switch.
func (s *Switch) Trunks() []PortStats {
	out := make([]PortStats, 0, len(s.trunkHoses))
	for i, h := range s.trunkHoses {
		out = append(out, PortStats{Addr: s.trunkNames[i], HoseStats: h.Stats()})
	}
	return out
}

// OutHose returns the output hose towards addr, or nil (for tests and
// the cluster stats snapshot).
func (s *Switch) OutHose(addr string) *Hose { return s.byAddr[addr] }
