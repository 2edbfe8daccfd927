// Package core implements the Open-MX stack — the paper's subject —
// split, like the real implementation, into a user-space library
// (matching, eager reassembly, rendezvous decisions, registration
// cache) and a kernel driver (send path, receive callback running in
// the NIC's bottom half, pull protocol for large messages, one-copy
// local communication, retransmission).
//
// The paper's contribution lives in the receive paths:
//
//   - large-message fragments are copied from skbuffs into the
//     (already pinned) destination either by memcpy on the bottom-half
//     core or — with Config.IOAT — by submitting asynchronous I/OAT
//     copies and releasing the CPU immediately; the last fragment
//     waits for the DMA engine, then reports a single completion event
//     (Section III-A, Figures 5/6);
//   - a cleanup routine bounds the pool of skbuffs queued behind
//     pending copies, invoked whenever a new pull block is requested
//     and on retransmission timeouts (Section III-B);
//   - small and medium fragments are always copied by memcpy: each
//     raises its own event, so an offload of theirs would have to be
//     synchronous (Section III-C);
//   - local (intra-node) messages use a one-copy transfer inside a
//     system call, performed by memcpy or, beyond a threshold, by a
//     blocking I/OAT copy (Config.IOATShm, Section III-C, Figure 10).
package core

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/host"
	"omxsim/internal/ioat"
	"omxsim/internal/nic"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// Config selects the stack's optimizations and thresholds. The zero
// value is the plain memcpy-based Open-MX; Defaults() fills in the
// paper's thresholds.
type Config struct {
	// IOAT offloads large-message receive copies asynchronously.
	IOAT bool
	// IOATShm offloads the one-copy local communication beyond
	// ShmIOATThreshold, busy-polling completion.
	IOATShm bool
	// RegCache enables the registration cache: pin once per buffer,
	// defer unpinning (Figure 11's "regcache" curves). The cache is
	// per-stack (all endpoints share it, like the per-driver cache of
	// the real implementation) and unbounded, as in Open-MX.
	RegCache bool
	// SkipBHCopy is the Figure 3 prediction knob: data still moves
	// (so integrity holds) but the bottom-half copy costs nothing.
	SkipBHCopy bool
	// Adaptive turns on the self-tuning transport tier: per-peer
	// SRTT/RTTVAR estimators (sampled from eager acks and pull-block
	// round trips) derive the retransmission timeout in place of the
	// fixed RetransmitTimeout default, an AIMD controller sizes each
	// transfer's pull window within [2, 4 x lanes] from measured block
	// round trips, and on multi-NIC hosts bottom-half work is steered
	// off saturated cores at quantized epochs. Explicit settings still
	// win: a nonzero RetransmitTimeout pins the timeout and a nonzero
	// PullBlocks pins the window even with Adaptive set. Off (the
	// default), the stack is bit-identical to the static transport.
	Adaptive bool

	// LargeThreshold: messages strictly larger use the rendezvous
	// pull protocol (paper: 32 kB). Capped at 64 eager fragments
	// (256 kB): the driver's per-message dedup/assembly bitmaps are
	// 64 bits wide, so fillDefaults clamps larger values.
	LargeThreshold int
	// IOATMinMsg / IOATMinFrag: offload copies only for messages ≥
	// IOATMinMsg whose fragments are ≥ IOATMinFrag ("we have
	// empirically chosen to offload memory copies of fragments larger
	// than 1 kB for messages larger than 64 kB").
	IOATMinMsg  int
	IOATMinFrag int
	// ShmIOATThreshold: local messages of at least this size use the
	// I/OAT engine when IOATShm is set. Figure 10 was measured with
	// the large-message threshold (32 kB); the shipped default became
	// 1 MB — both are expressible.
	ShmIOATThreshold int
	// PullBlockFrags fragments per pull block, PullBlocks blocks
	// outstanding ("two pipelined blocks of 8 fragments").
	PullBlockFrags int
	PullBlocks     int
	// RetransmitTimeout for pull blocks, rendezvous requests and
	// unacked eager messages. Every consecutive unanswered
	// retransmission doubles it, up to 16 times the base; attempt
	// counters reset on any acknowledged progress.
	RetransmitTimeout sim.Duration

	// ---- Section V/VI "future work" extensions ----

	// HybridWarmupBytes, when nonzero, copies the first bytes of each
	// offloaded large message with memcpy (warming the consumer's
	// cache) before switching to I/OAT — the Section V/VI idea of
	// using memcpy "for the beginning of larger messages".
	HybridWarmupBytes int
	// PredictiveSleep makes synchronous I/OAT waits in process
	// context (the shared-memory path) sleep for a predicted
	// completion time instead of busy-polling (Section VI).
	PredictiveSleep bool
	// StripeChannels stripes one local I/OAT copy across this many
	// DMA channels (1 = the paper's one-channel-per-message policy;
	// using all four buys ≈40 %, per reference [22]).
	StripeChannels int

	// ---- Multi-NIC link aggregation ----

	// StripePolicy selects how traffic spreads across a multi-NIC
	// host's lanes (proto.StripeRoundRobin, StripeHash or StripeSingle,
	// re-exported by openmx). It is ignored on single-NIC hosts, where
	// every frame takes lane 0.
	StripePolicy string
}

// Defaults returns the paper's configuration (memcpy everywhere; turn
// on IOAT/RegCache/etc. per experiment).
func Defaults() Config {
	return Config{
		LargeThreshold:    32 * 1024,
		IOATMinMsg:        64 * 1024,
		IOATMinFrag:       1024,
		ShmIOATThreshold:  32 * 1024,
		PullBlockFrags:    8,
		PullBlocks:        2,
		RetransmitTimeout: proto.RtxTimeout,
	}
}

// deferredAckDelay is how long a receive channel waits before emitting
// an explicit ack frame when no reverse traffic piggybacks it.
const deferredAckDelay = 100 * sim.Microsecond

// maxEagerBytes is the largest message the eager path can carry: the
// per-message fragment dedup and assembly bitmaps are 64 bits wide.
const maxEagerBytes = 64 * proto.MediumFragSize

func (c *Config) fillDefaults() {
	d := Defaults()
	if c.LargeThreshold == 0 {
		c.LargeThreshold = d.LargeThreshold
	}
	if c.LargeThreshold > maxEagerBytes {
		c.LargeThreshold = maxEagerBytes
	}
	if c.IOATMinMsg == 0 {
		c.IOATMinMsg = d.IOATMinMsg
	}
	if c.IOATMinFrag == 0 {
		c.IOATMinFrag = d.IOATMinFrag
	}
	if c.ShmIOATThreshold == 0 {
		c.ShmIOATThreshold = d.ShmIOATThreshold
	}
	if c.PullBlockFrags == 0 {
		c.PullBlockFrags = d.PullBlockFrags
	}
	if c.PullBlocks == 0 {
		c.PullBlocks = d.PullBlocks
	}
	switch c.StripePolicy {
	case "", proto.StripeRoundRobin, proto.StripeHash, proto.StripeSingle:
	default:
		panic(fmt.Sprintf("openmx: unknown stripe policy %q", c.StripePolicy))
	}
}

// Stats counts protocol activity for tests and diagnostics: the
// counters shared with the native stack, plus the driver's own.
type Stats struct {
	proto.Counters
	PullsSent       int64
	LargeFragsSent  int64
	AcksSent        int64
	RingDrops       int64
	IOATSubmits     int64
	CleanupFrees    int64
	LocalMsgs       int64
	LocalIOATCopies int64
	// CollDropped counts NIC-collective frames (CollData/CollAck)
	// dropped because this stack runs collectives on the host — only a
	// firmware-mode stack (internal/mxoe) terminates them.
	CollDropped int64
}

// Stack is the Open-MX driver+library instance of one host. The
// embedded transport core holds the host, lanes, trace sink,
// registration cache, retransmission timing and rendezvous dedup it
// shares with the native stack.
type Stack struct {
	proto.Transport
	Cfg Config

	// Maps are made on first insert: a stack that never sends a large
	// message never makes its rendezvous maps.
	endpoints map[int]*Endpoint

	// Driver-side large message state.
	nextHandle int
	sends      map[int]*largeSend // by sender handle
	pulls      map[int]*largePull // by receiver handle

	// adaptiveWin records whether the pull window is derived online
	// (Config.Adaptive; an explicit PullBlocks pins the static value
	// even with Adaptive set).
	adaptiveWin bool
	// IRQ/bottom-half steering epochs (multi-NIC adaptive hosts).
	steerEvery  sim.Duration // 0 = steering disabled
	steerNext   sim.Time     // next quantized decision boundary
	steerLastAt sim.Time     // time of the previous ledger sample
	steerPrev   [][cpu.NumCategories]sim.Duration

	Stats Stats
}

// Attach builds an Open-MX stack on h and registers its receive
// callback with every NIC (generic Ethernet mode).
//
// On a multi-NIC host the pull window widens proportionally: an
// unset PullBlocks becomes the paper's two pipelined blocks times the
// NIC count, so every lane can keep a block in flight (the fixed
// 2-block window only ever occupies two lanes at once — set
// PullBlocks explicitly to measure that plateau). An explicit
// PullBlocks always wins.
func Attach(h *host.Host, cfg Config) *Stack {
	// The adaptive window applies only where no explicit PullBlocks
	// pins the static one — decided before any default is filled in.
	adaptiveWin := cfg.Adaptive && cfg.PullBlocks == 0
	if cfg.PullBlocks == 0 && h.Lanes() > 1 {
		cfg.PullBlocks = Defaults().PullBlocks * h.Lanes()
	}
	cfg.fillDefaults()
	s := &Stack{
		Cfg:         cfg,
		adaptiveWin: adaptiveWin,
	}
	s.Transport = proto.NewTransport(h, &s.Stats.Counters, proto.TransportConfig{
		StripePolicy: cfg.StripePolicy, RegCache: cfg.RegCache,
		RetransmitTimeout: cfg.RetransmitTimeout, Adaptive: cfg.Adaptive,
	})
	if cfg.Adaptive && s.Lanes > 1 {
		s.steerEvery = steerEpoch
	}
	for i, n := range h.NICs {
		lane := i
		n.SetRxHandler(func(p *sim.Proc, core *cpu.Core, skb *nic.Skb) {
			s.rxCallback(lane, p, core, skb)
		})
	}
	return s
}

// addr returns the address of a local endpoint.
func (s *Stack) addr(ep int) proto.Addr { return proto.Addr{Host: s.H.Name, EP: ep} }

// largeSend is the sender side of a rendezvous transfer: the shared
// state machine plus the sending endpoint and request.
type largeSend struct {
	proto.RndvSend
	ep  *Endpoint
	req *Request
}

// largePull is the receiver side of a rendezvous transfer: the shared
// pull state plus the paper's Section III state — the I/OAT channel
// assigned to the message and the pool of skbuffs pending copy that
// the cleanup routine bounds.
type largePull struct {
	proto.RndvPull
	ep  *Endpoint
	req *Request

	received int
	// lastWin tracks the last cwnd counter sample emitted to the trace.
	lastWin int

	useIOAT bool
	// chs holds one DMA channel per NIC lane: fragments arriving on
	// lane i submit to chs[i], so a striped message drives several
	// engine channels concurrently (single-NIC messages keep the
	// paper's one-channel-per-message policy). lastSeq[i] is the last
	// descriptor sequence submitted on lane i's channel.
	chs     []*ioat.Channel
	lastSeq []uint64
	pending []pendingCopy // skbuffs waiting for their copies to retire
}

type pendingCopy struct {
	skb skbRef
	ch  *ioat.Channel // channel the copies were submitted on
	seq uint64        // I/OAT sequence that must retire before freeing
}

// skbRef lets tests substitute fakes; concretely a *nic.Skb.
type skbRef interface{ Free() }

// pageChunks splits a destination range [start, start+n) into
// page-aligned chunk lengths — the unit of I/OAT descriptors, since
// the engine manipulates DMA (physical page) addresses. This is why
// chunk size matters so much in Figure 7.
func pageChunks(start, n, pageSize int) []int {
	if n <= 0 {
		return nil
	}
	var out []int
	first := pageSize - start%pageSize
	if first > n {
		first = n
	}
	out = append(out, first)
	n -= first
	for n > 0 {
		c := pageSize
		if c > n {
			c = n
		}
		out = append(out, c)
		n -= c
	}
	return out
}

func (s *Stack) String() string {
	return fmt.Sprintf("openmx(%s, ioat=%v)", s.H.Name, s.Cfg.IOAT)
}
