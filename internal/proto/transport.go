package proto

import (
	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// The per-peer transport core both stacks embed. Open-MX's driver
// (internal/core) runs it in the host's bottom half and native MX
// (internal/mxoe) runs it in NIC firmware: one protocol in two
// execution contexts (see the package comment for what is shared).

// Stripe policies for multi-NIC hosts. Round-robin (the default)
// spreads the units of one message — eager fragments, pull blocks —
// across lanes for maximum aggregate bandwidth; hash pins each
// message to one seeded lane (classic L3/L4 link-aggregation
// hashing: per-flow ordering, no per-message striping win); single
// forces lane 0 (aggregation disabled, the control baseline).
const (
	StripeRoundRobin = "roundrobin"
	StripeHash       = "hash"
	StripeSingle     = "single"
)

// Adaptive-tier bounds. MinRTO floors the derived retransmission
// timeout: even on a very fast link the timer must ride out the
// deferred-ack delay and self-induced queueing behind a full pull
// window. The AIMD pull window spans the paper's two pipelined blocks
// (WinMin) up to WinPerLane blocks per NIC lane.
const (
	MinRTO     = sim.Millisecond
	WinMin     = 2
	WinPerLane = 4
)

// Retransmission defaults for unset Config fields: a 50 ms base, ×2
// backoff per unanswered attempt, capped at RtxMaxScale times the
// base (four doublings at the default backoff).
const (
	RtxTimeout  = 50 * sim.Millisecond
	RtxBackoff  = 2
	RtxMaxScale = 16
)

// TraceEvent is one span or counter sample of a stack's trace stream,
// emitted through Transport.Trace. The receive-path kinds ("process",
// "memcpy", "submit", "dma-copy", "wait", "notify") are the paper's
// Figures 5/6 timeline; the protocol kinds ("eager", "rndv", "pull",
// "retransmit") span whole exchanges with their lane, sequence and
// window annotations; Kind "counter" carries a named scalar sample
// (cwnd, srtt, queue-depth) for timeline export.
type TraceEvent struct {
	// Kind: "process", "memcpy", "submit", "dma-copy", "wait",
	// "notify", "eager", "rndv", "pull", "collective", "retransmit",
	// "counter" (counter Names: "cwnd", "srtt", "pull-queue").
	Kind  string
	Frag  int // fragment id for receive-path spans, -1 otherwise
	Start sim.Time
	End   sim.Time

	// Protocol-span annotations (zero for receive-path spans).
	Lane   int    // transmit lane of the spanned unit
	Seq    uint32 // channel or rendezvous sequence
	Block  int    // pull block index ("pull"/"retransmit" on a block)
	Window int    // pull window in blocks when the span closed

	// Counter samples (Kind "counter") only.
	Name  string
	Value float64
}

// Counters are the protocol counters both stacks keep; each stack's
// Stats embeds them next to its own.
type Counters struct {
	EagerSent        int64
	RndvSent         int64
	EagerRetransmits int64
	RndvRetransmits  int64
	PullRetransmits  int64
	DupFrags         int64
	// NICTxFrames counts frames transmitted per NIC lane — the
	// striping balance (index = lane; single-NIC stacks have one
	// entry). Receive-side per-NIC counters live in cluster.NetStats.
	NICTxFrames []int64
}

// Retransmits sums every retransmission class.
func (c Counters) Retransmits() int64 {
	return c.EagerRetransmits + c.RndvRetransmits + c.PullRetransmits
}

// TransportConfig is the part of a stack's Config the transport core
// reads. Zero retransmission fields take the defaults above; neither
// stack sets RetransmitBackoff or RetransmitMax, which exist so the
// transport's own tests can pin other backoff schedules.
type TransportConfig struct {
	StripePolicy      string
	RegCache          bool
	RetransmitTimeout sim.Duration
	RetransmitBackoff float64
	RetransmitMax     sim.Duration
	// Adaptive derives timeouts from measured RTTs (unless
	// RetransmitTimeout pins the base) and allocates the per-peer
	// estimator and pull-window maps.
	Adaptive bool
}

// RndvKey identifies one rendezvous for duplicate suppression: the
// requesting peer, the local endpoint it addressed, and its sequence.
type RndvKey struct {
	Src Addr
	Dst int
	Seq uint32
}

// rndvState remembers a handled rendezvous so retransmitted requests
// do not restart transfers, and finished ones can be re-acked.
type rndvState struct {
	sender int // data sender's handle, for re-acks
	done   bool
}

// Transport is the per-peer transport state of one stack on one host.
type Transport struct {
	H *host.Host
	// Lanes is the host's NIC count; striping decisions are modulo it.
	Lanes int
	// Trace, when non-nil, receives the stack's spans and counter
	// samples (see TraceEvent); nil in normal runs.
	Trace func(TraceEvent)

	stripe string
	// reg is the per-stack registration cache; nil when disabled and
	// every post pins afresh.
	reg *hostmem.RegCache
	ctr *Counters

	rtxBase, rtxMax sim.Duration
	rtxBackoff      float64

	// Adaptive-tier state: whether timeouts derive from measured RTTs,
	// and the per-peer estimators and pull windows (nil maps unless
	// adaptive).
	adaptiveRTO bool
	rtt         map[Addr]*RTTEstimator
	pullWin     map[Addr]*AIMDWindow

	// Rendezvous dedup: handled rendezvous by key, so retransmitted
	// requests don't restart transfers. Completed entries are kept (to
	// re-ack lost final acks) in the done FIFO, which evicts the oldest
	// past RndvDedupWindow so the map cannot grow without bound and a
	// wrapped-around sequence number cannot hit an ancient entry.
	seen map[RndvKey]*rndvState
	done EvictRing[RndvKey]

	// frameFree lists the frames whose last copy was released, for the
	// next transmission to reuse (see txFrame).
	frameFree *txFrame
}

// NewTransport returns the transport core of a stack on h. It counts
// into ctr (the stack's Stats.Counters), allocating one NICTxFrames
// entry per lane.
func NewTransport(h *host.Host, ctr *Counters, cfg TransportConfig) Transport {
	t := Transport{
		H:           h,
		Lanes:       h.Lanes(),
		stripe:      cfg.StripePolicy,
		ctr:         ctr,
		rtxBase:     cfg.RetransmitTimeout,
		rtxMax:      cfg.RetransmitMax,
		rtxBackoff:  cfg.RetransmitBackoff,
		adaptiveRTO: cfg.Adaptive && cfg.RetransmitTimeout == 0,
	}
	if t.rtxBase == 0 {
		t.rtxBase = RtxTimeout
	}
	if t.rtxBackoff == 0 {
		t.rtxBackoff = RtxBackoff
	}
	if t.rtxMax == 0 {
		t.rtxMax = RtxMaxScale * t.rtxBase
	}
	if cfg.Adaptive {
		t.rtt = make(map[Addr]*RTTEstimator)
		t.pullWin = make(map[Addr]*AIMDWindow)
	}
	if cfg.RegCache {
		t.reg = hostmem.NewRegCache()
	}
	ctr.NICTxFrames = make([]int64, t.Lanes)
	return t
}

// LaneOf picks the transmit lane for one unit of a message under the
// stripe policy. seq identifies the message (the channel or
// rendezvous sequence), unit the stripeable piece within it — the
// eager fragment index or the pull block index. Retransmissions
// recompute the same lane, so a lossy lane is retried on itself and
// per-lane impairment stays attributable.
func (t *Transport) LaneOf(seq uint32, unit int) int {
	if t.Lanes <= 1 {
		return 0
	}
	switch t.stripe {
	case StripeHash:
		// Per-message lane: a seeded multiplicative hash of the
		// message identity, like a switch's L3/L4 flow hash.
		return int((uint64(seq) * 0x9E3779B97F4A7C15 >> 33) % uint64(t.Lanes))
	case StripeSingle:
		return 0
	default: // round-robin
		return (int(seq) + unit) % t.Lanes
	}
}

// Transmit sends a control frame (acks, rendezvous completion) on
// lane 0. payload may be nil; wire accounting always includes the
// MXoE header.
func (t *Transport) Transmit(dst Addr, msg any, payload []byte) {
	t.TransmitOn(0, dst, msg, payload)
}

// TransmitOn sends a frame on the given NIC lane, addressed to the
// peer's same-numbered lane (striping peers use symmetric lane
// numbering; see wire.LaneAddr). The frame comes from the transport's
// free list and goes back there when its last copy is released; msg
// and payload are the caller's and are not reused.
func (t *Transport) TransmitOn(lane int, dst Addr, msg any, payload []byte) {
	r := t.newFrame()
	r.Data, r.Msg = payload, msg
	t.TransmitFrameOn(lane, dst, &r.Frame)
}

// TransmitFrameOn is TransmitOn for a frame the caller built and
// owns, with Data and Msg set: it fills in the wire length and the
// destination.
func (t *Transport) TransmitFrameOn(lane int, dst Addr, f *wire.Frame) {
	t.ctr.NICTxFrames[lane]++
	f.WireLen = len(f.Data) + t.H.P.OMXHeaderBytes
	f.DstAddr = wire.LaneAddr(dst.Host, lane)
	t.H.NICs[lane].Transmit(f)
}

// RtxTimeout returns the retransmission timeout towards peer after
// the given number of consecutive unanswered attempts. Static stacks
// (and adaptive ones whose Config pins RetransmitTimeout) back off
// from the configured base; adaptive stacks back off from the peer's
// estimated RTO — srtt + 4·rttvar with a safety margin — clamped
// between MinRTO and the static base, so an untuned channel never
// times out later than the static default and a measured one
// recovers at RTT scale.
func (t *Transport) RtxTimeout(peer Addr, attempts int) sim.Duration {
	base := t.rtxBase
	if t.adaptiveRTO {
		if e := t.rtt[peer]; e != nil {
			base = e.RTO(MinRTO, t.rtxBase)
		}
	}
	return Backoff(base, t.rtxMax, t.rtxBackoff, attempts)
}

// ObserveRTT feeds one clean (never-retransmitted) round-trip sample
// into peer's estimator and publishes the new SRTT to the trace
// stream. Static stacks keep no estimators and ignore it.
func (t *Transport) ObserveRTT(peer Addr, rtt sim.Duration) {
	if t.rtt == nil || rtt < 0 {
		return
	}
	e := t.rtt[peer]
	if e == nil {
		e = &RTTEstimator{}
		t.rtt[peer] = e
	}
	e.Observe(rtt)
	t.TraceCounter("srtt", sim.Time(e.SRTT()).Micros())
}

// PullWindowFor returns (creating on first use) the AIMD controller
// for pulls from peer, bounded by WinMin below and WinPerLane blocks
// per lane above. The controller is per peer, not per transfer: the
// window a transfer earned persists into the next one, so repeated
// messages converge instead of re-ramping from the minimum every time.
func (t *Transport) PullWindowFor(peer Addr) *AIMDWindow {
	aw := t.pullWin[peer]
	if aw == nil {
		aw = NewAIMDWindow(WinMin, WinPerLane*t.Lanes)
		t.pullWin[peer] = aw
	}
	return aw
}

// TraceRetransmit publishes one retransmission as a zero-length span.
func (t *Transport) TraceRetransmit(seq uint32, block, lane int) {
	if t.Trace == nil {
		return
	}
	now := t.H.E.Now()
	t.Trace(TraceEvent{
		Kind: "retransmit", Frag: -1, Start: now, End: now,
		Seq: seq, Block: block, Lane: lane,
	})
}

// TraceCounter publishes a named counter sample at the current time.
func (t *Transport) TraceCounter(name string, v float64) {
	if t.Trace == nil {
		return
	}
	now := t.H.E.Now()
	t.Trace(TraceEvent{Kind: "counter", Frag: -1, Start: now, End: now, Name: name, Value: v})
}

// PinCost returns the time to register the n-byte region of buf at
// perPage per page, honouring the registration cache, and takes the
// pin reference. A cache hit costs nothing; a miss pays perPage over
// the region.
func (t *Transport) PinCost(buf *hostmem.Buffer, n int, perPage int64) sim.Duration {
	p := t.H.P
	if t.reg != nil {
		return sim.Duration(t.reg.Acquire(buf, n) * perPage)
	}
	buf.Pin()
	return sim.Duration(pagesSpanned(n, p.PageSize) * perPage)
}

// UnpinCost returns the time to release the region after a transfer
// (zero with the registration cache, which defers deregistration).
func (t *Transport) UnpinCost(buf *hostmem.Buffer, n int) sim.Duration {
	if t.reg != nil {
		return 0
	}
	buf.Unpin()
	return sim.Duration(pagesSpanned(n, t.H.P.PageSize) * t.H.P.UnpinPerPage)
}

// pagesSpanned is the page count of an n-byte region (what the
// driver actually pins — not the whole buffer); at least one.
func pagesSpanned(n, pageSize int) int64 {
	return int64((max(n, 1) + pageSize - 1) / pageSize)
}

// RegStats snapshots the registration cache's counters (zero value
// when the cache is off).
func (t *Transport) RegStats() hostmem.RegStats {
	if t.reg == nil {
		return hostmem.RegStats{}
	}
	return t.reg.Stats()
}

// rndvSeen looks up a handled rendezvous: ok reports whether key was
// seen, done whether its transfer finished, and sender the data
// sender's handle to re-ack a finished transfer with.
func (t *Transport) rndvSeen(key RndvKey) (sender int, done, ok bool) {
	st := t.seen[key]
	if st == nil {
		return 0, false, false
	}
	return st.sender, st.done, true
}

// rndvInsert remembers a rendezvous request from the sender handle;
// an already remembered key keeps its state.
func (t *Transport) rndvInsert(key RndvKey, sender int) {
	if t.seen[key] == nil {
		Insert(&t.seen, key, &rndvState{sender: sender})
	}
}

// AdmitRndv deduplicates an arriving rendezvous request and reports
// whether it is fresh, remembering it if so. A request already seen
// is a retransmission: if its transfer finished, the final ack was
// lost and is sent again; otherwise the pull-block timers drive
// recovery and the request is dropped.
func (t *Transport) AdmitRndv(m *RndvRequest) bool {
	key := RndvKey{Src: m.Src, Dst: m.Dst.EP, Seq: m.Seq}
	if sender, done, ok := t.rndvSeen(key); ok {
		if done {
			t.Transmit(m.Src, &RndvAck{Src: Addr{Host: t.H.Name, EP: m.Dst.EP}, Dst: m.Src, SenderHandle: sender}, nil)
		}
		return false
	}
	t.rndvInsert(key, m.SenderHandle)
	return true
}

// RndvMarkDone flags a rendezvous as complete so duplicate requests
// get re-acked instead of restarting the transfer, evicting the
// oldest completed entry beyond RndvDedupWindow.
func (t *Transport) RndvMarkDone(key RndvKey) {
	st := t.seen[key]
	if st == nil {
		return
	}
	st.done = true
	EvictOldest(t.seen, &t.done, key, RndvDedupWindow)
}

// Matches implements MX matching: the receive's masked match value
// must equal the message's masked match value.
func Matches(recvMatch, recvMask, msgMatch uint64) bool {
	return recvMatch&recvMask == msgMatch&recvMask
}
