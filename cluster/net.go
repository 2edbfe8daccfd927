package cluster

// This file is the network-impairment and congestion surface: every
// link direction and every switch output port can carry a seeded
// deterministic misbehaviour profile (frame loss, duplication,
// reordering, latency jitter, rate asymmetry), switch output queues
// can be bounded to model congestion tail-drop, and background
// cross-traffic generators can share the links with the measured
// workload. NetStats snapshots every counter in one deterministic
// structure.
//
// All impairment randomness is drawn from private seeded streams, so
// an impaired experiment is exactly as reproducible as a clean one:
// same seed, same losses, same figures.

import (
	"fmt"
	"sort"

	"omxsim/internal/wire"
	"omxsim/sim"
)

// Impairment is the misbehaviour profile of one link direction or
// switch port. The zero value is a perfect link and costs nothing.
type Impairment struct {
	// Seed selects the deterministic random stream.
	Seed int64
	// LossRate is the per-frame probability of silent loss.
	LossRate float64
	// DupRate is the per-frame probability of duplicate delivery.
	DupRate float64
	// ReorderRate is the per-frame probability of an extra
	// ReorderDelay, letting later frames overtake.
	ReorderRate float64
	// ReorderDelay is the delay applied to reordered frames
	// (default 20 µs when ReorderRate is set).
	ReorderDelay sim.Duration
	// JitterMax adds uniform [0, JitterMax) latency jitter per frame.
	JitterMax sim.Duration
	// RateScale scales the direction's signalling rate (0.1 = the
	// link negotiated down to 1 GbE in this direction).
	RateScale float64
}

func (im Impairment) wire() wire.Impairment {
	return wire.Impairment{
		Seed:         im.Seed,
		LossRate:     im.LossRate,
		DupRate:      im.DupRate,
		ReorderRate:  im.ReorderRate,
		ReorderDelay: im.ReorderDelay,
		JitterMax:    im.JitterMax,
		RateScale:    im.RateScale,
	}
}

// Enabled reports whether the profile perturbs anything.
func (im Impairment) Enabled() bool { return im.wire().Enabled() }

// netOpts collects the unified network options accepted by links
// (Link), switches (NewSwitch) and inter-switch trunks (Trunk). Each
// applier reads the fields that are meaningful for it.
type netOpts struct {
	ab, ba         Impairment
	laneAB, laneBA map[int]Impairment
	queueLimit     int
	latency        sim.Duration
	hasLatency     bool
	ecmp           string
}

// laneSeed derives lane i's instance of a link-wide profile: lane 0
// keeps the configured seed verbatim (single-NIC runs are
// bit-identical to the pre-aggregation wire), later lanes reseed so
// parallel cables never lose the same pattern.
func laneSeed(im Impairment, lane int) Impairment {
	im.Seed ^= int64(lane) * 0x9E3779B97F4A7C1
	return im
}

// NetOption is the single option vocabulary for every network element:
// the same Impair/Queue/Latency options configure point-to-point links,
// switches (where they apply to every output port) and fat-tree
// trunks, so a topology tier can be impaired without a per-element
// spelling. Directional (ImpairAB/ImpairBA) and per-lane (ImpairLane)
// options are meaningful on links and trunks only; ECMP is meaningful
// on switches only. Options that do not apply to an element are
// ignored by its applier.
type NetOption func(*netOpts)

// Impair installs the profile on the element: both directions of a
// link or trunk (the reverse direction independently reseeded so the
// two do not lose the same pattern), or every output port of a switch
// (reseeded per port).
func Impair(im Impairment) NetOption {
	return func(o *netOpts) {
		o.ab = im
		o.ba = im
		o.ba.Seed = im.Seed ^ 0x5DEECE66D
	}
}

// ImpairAB impairs only the a→b direction of a link or trunk.
func ImpairAB(im Impairment) NetOption { return func(o *netOpts) { o.ab = im } }

// ImpairBA impairs only the b→a direction of a link or trunk.
func ImpairBA(im Impairment) NetOption { return func(o *netOpts) { o.ba = im } }

// Queue bounds the element's transmit queues to the given frame count;
// frames beyond it are tail-dropped (congestion loss). On a link or
// trunk it applies to both directions, on a switch to every output
// port attached afterwards.
func Queue(frames int) NetOption { return func(o *netOpts) { o.queueLimit = frames } }

// Latency adds fixed latency to the element: a switch's forwarding
// latency (overriding the default), or extra propagation delay on both
// directions of a link or trunk (a longer cable run).
func Latency(d sim.Duration) NetOption {
	return func(o *netOpts) {
		o.latency = d
		o.hasLatency = true
	}
}

// ECMP selects a switch's uplink-selection policy (wire.ECMPHash or
// wire.ECMPRoundRobin). Meaningful for switches with multiple uplinks
// (fat-tree leaves); ignored elsewhere.
func ECMP(policy string) NetOption { return func(o *netOpts) { o.ecmp = policy } }

// ImpairLane impairs both directions of one lane of an aggregated
// link (the reverse direction independently reseeded), leaving every
// other cable clean — the "one NIC's cable is bad" scenario the
// striping stress battery attributes per NIC. The profile's seed is
// used verbatim, overriding any link-wide profile on that lane.
func ImpairLane(lane int, im Impairment) NetOption {
	return func(o *netOpts) {
		if o.laneAB == nil {
			o.laneAB = make(map[int]Impairment)
			o.laneBA = make(map[int]Impairment)
		}
		o.laneAB[lane] = im
		im.Seed ^= 0x5DEECE66D
		o.laneBA[lane] = im
	}
}

// linkRec remembers one point-to-point (possibly aggregated) link for
// NetStats, one lane per NIC pair.
type linkRec struct {
	from, to string
	lanes    []linkLane
}

type linkLane struct{ ab, ba *wire.Hose }

// DirStats is one link direction's counter snapshot.
type DirStats struct {
	// FramesSent and BytesSent count traffic that made it onto the
	// wire (after loss).
	FramesSent int64
	BytesSent  int64
	// FramesDropped counts targeted Drop-predicate discards,
	// FramesLost impairment loss, TailDrops queue-overflow loss.
	// The three are disjoint, and all happen before the receiving
	// NIC — they never double-count a frame the NIC also dropped.
	FramesDropped int64
	FramesLost    int64
	TailDrops     int64
	// FramesDuped and FramesReordered count impairment misdelivery.
	FramesDuped     int64
	FramesReordered int64
	// MaxQueue is the transmit queue's high-water mark.
	MaxQueue int
}

func dirStats(h wire.HoseStats) DirStats {
	return DirStats{
		FramesSent:      h.FramesSent,
		BytesSent:       h.BytesSent,
		FramesDropped:   h.FramesDropped,
		FramesLost:      h.FramesLost,
		TailDrops:       h.TailDrops,
		FramesDuped:     h.FramesDuped,
		FramesReordered: h.FramesReordered,
		MaxQueue:        h.MaxQueue,
	}
}

// LaneStats snapshots one lane (one NIC-pair cable) of an aggregated
// link.
type LaneStats struct {
	Lane   int
	AB, BA DirStats
}

// LinkStats snapshots one point-to-point link. AB and BA aggregate
// every lane (counters summed, queue high-water maxed) — identical to
// the single cable's counters on a 1-NIC link — and Lanes attributes
// them per NIC pair, so loss or tail-drop on one lane of an
// aggregated link is visible on exactly that lane.
type LinkStats struct {
	From, To string
	AB, BA   DirStats
	Lanes    []LaneStats
}

// addDir aggregates one lane direction into a link-wide total.
func addDir(sum *DirStats, d DirStats) {
	sum.FramesSent += d.FramesSent
	sum.BytesSent += d.BytesSent
	sum.FramesDropped += d.FramesDropped
	sum.FramesLost += d.FramesLost
	sum.TailDrops += d.TailDrops
	sum.FramesDuped += d.FramesDuped
	sum.FramesReordered += d.FramesReordered
	if d.MaxQueue > sum.MaxQueue {
		sum.MaxQueue = d.MaxQueue
	}
}

// PortStats snapshots one switch port (Out is the congestible
// switch→host direction; In is host→switch).
type PortStats struct {
	Host    string
	In, Out DirStats
}

// SwitchStats snapshots one switch.
type SwitchStats struct {
	Forwarded int64
	Unknown   int64
	Ports     []PortStats
}

// NICStats snapshots one NIC of a host. RxDrops counts receive-ring
// overflow at that NIC — a drop that happened after the wire
// delivered the frame, disjoint from every wire-level counter, and
// attributable to exactly one NIC's ring.
type NICStats struct {
	NIC      string
	TxFrames int64
	RxFrames int64
	RxDrops  int64
}

// HostStats snapshots one host's NICs: per-NIC counters in lane
// order, plus host-wide sums (which equal the single NIC's counters
// on a 1-NIC host).
type HostStats struct {
	Host     string
	TxFrames int64
	RxFrames int64
	// RxDrops counts receive-ring overflow — drops that happened after
	// the wire delivered the frame, and therefore disjoint from every
	// wire-level counter.
	RxDrops int64
	// NICs attributes the sums per NIC (index = lane).
	NICs []NICStats
}

// NetStats is a whole-testbed network counter snapshot, ordered
// deterministically (hosts by name, links and switch ports in
// creation order).
type NetStats struct {
	Hosts    []HostStats
	Links    []LinkStats
	Switches []SwitchStats
}

// NetStats snapshots every NIC, link and switch counter in the
// cluster.
func (c *Cluster) NetStats() NetStats {
	var ns NetStats
	names := make([]string, 0, len(c.hosts))
	for n := range c.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		hs := HostStats{Host: n}
		for _, nic := range c.hosts[n].m.NICs {
			hs.NICs = append(hs.NICs, NICStats{
				NIC: nic.Name, TxFrames: nic.TxFrames, RxFrames: nic.RxFrames, RxDrops: nic.RxDrops,
			})
			hs.TxFrames += nic.TxFrames
			hs.RxFrames += nic.RxFrames
			hs.RxDrops += nic.RxDrops
		}
		ns.Hosts = append(ns.Hosts, hs)
	}
	for _, l := range c.links {
		ls := LinkStats{From: l.from, To: l.to}
		for lane, lh := range l.lanes {
			st := LaneStats{Lane: lane, AB: dirStats(lh.ab.Stats()), BA: dirStats(lh.ba.Stats())}
			addDir(&ls.AB, st.AB)
			addDir(&ls.BA, st.BA)
			ls.Lanes = append(ls.Lanes, st)
		}
		ns.Links = append(ns.Links, ls)
	}
	for _, s := range c.switches {
		st := SwitchStats{Forwarded: s.sw.FramesForwarded, Unknown: s.sw.FramesUnknown}
		for _, p := range s.sw.Ports() {
			ps := PortStats{Host: p.Addr, Out: dirStats(p.HoseStats)}
			if up := s.uplinks[p.Addr]; up != nil {
				ps.In = dirStats(up.Stats())
			}
			st.Ports = append(st.Ports, ps)
		}
		ns.Switches = append(ns.Switches, st)
	}
	return ns
}

// TotalWireLoss sums every wire-level discard (targeted drops,
// impairment loss and congestion tail-drops) across the testbed.
func (ns NetStats) TotalWireLoss() int64 {
	sum := func(d DirStats) int64 { return d.FramesDropped + d.FramesLost + d.TailDrops }
	var total int64
	for _, l := range ns.Links {
		total += sum(l.AB) + sum(l.BA)
	}
	for _, s := range ns.Switches {
		for _, p := range s.Ports {
			total += sum(p.In) + sum(p.Out)
		}
	}
	return total
}

// crossFrame marks background cross-traffic payloads. Both protocol
// stacks discard frames they do not recognize, so cross traffic
// consumes wire time, switch queues, NIC rings and bottom-half CPU —
// and nothing else.
type crossFrame struct{ Seq int64 }

// CrossTraffic is a running background traffic generator.
type CrossTraffic struct {
	FramesSent int64
	BytesSent  int64
	stopped    bool
}

// Stop ends generation at the next scheduled frame.
func (ct *CrossTraffic) Stop() { ct.stopped = true }

// CrossTrafficConfig shapes a background flow.
type CrossTrafficConfig struct {
	// Seed selects the deterministic gap/size stream.
	Seed int64
	// BytesPerSec is the average offered payload load.
	BytesPerSec float64
	// FrameBytes is the payload size per frame (default 1500).
	FrameBytes int
	// Duration bounds generation (required: the generator must not
	// outlive the experiment, or Run would never drain).
	Duration sim.Duration
}

// StartCrossTraffic injects a background flow of unmatched frames
// from one host to another (both must have a protocol stack attached,
// which will discard them on arrival). Inter-frame gaps are jittered
// ±50% around the configured average, from a seeded stream.
func (c *Cluster) StartCrossTraffic(from, to *Host, cfg CrossTrafficConfig) *CrossTraffic {
	if cfg.BytesPerSec <= 0 || cfg.Duration <= 0 {
		panic(fmt.Sprintf("cluster: cross traffic needs positive BytesPerSec and Duration, got %v and %v",
			cfg.BytesPerSec, cfg.Duration))
	}
	if cfg.FrameBytes <= 0 {
		cfg.FrameBytes = 1500
	}
	ct := &CrossTraffic{}
	rng := wire.NewRand(cfg.Seed)
	deadline := c.E.Now() + cfg.Duration
	meanGap := float64(cfg.FrameBytes) / cfg.BytesPerSec * float64(sim.Second)
	var tick func()
	tick = func() {
		if ct.stopped || c.E.Now() >= deadline {
			return
		}
		ct.FramesSent++
		ct.BytesSent += int64(cfg.FrameBytes)
		from.m.NIC.Transmit(&wire.Frame{
			Data:    make([]byte, cfg.FrameBytes),
			WireLen: cfg.FrameBytes + c.P.OMXHeaderBytes,
			Msg:     &crossFrame{Seq: ct.FramesSent},
			DstAddr: to.Name,
		})
		gap := sim.Duration(meanGap * (0.5 + rng.Float64()))
		if gap < 1 {
			gap = 1
		}
		c.E.Schedule(gap, tick)
	}
	c.E.Schedule(0, tick)
	return ct
}
