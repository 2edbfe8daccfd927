// Package proto is the MXoE protocol shared by the Open-MX stack
// (internal/core) and the native MX stack (internal/mxoe). Wire
// compatibility between Open-MX on commodity NICs and Myricom's
// native MXoE firmware is one of Open-MX's core features, so every
// rule a peer could observe on the wire is written once, here:
//
//   - the wire message formats and size classes (this file);
//   - sequence arithmetic, the receive window, backoff and the
//     rendezvous dedup window (window.go);
//   - the per-peer transport core both stacks embed (Transport,
//     transport.go): lane choice, control-frame transmit,
//     retransmission timeouts, RTT estimation, pull windows,
//     registration costs, rendezvous dedup and the shared counters;
//   - the eager transmit channel (TxChan, txchan.go): sequence
//     issue, the unacked list, cumulative-ack processing with Karn's
//     rule, and the backed-off retransmission timer;
//   - the eager receive channel (RxChan, rxchan.go): the cumulative
//     window plus the fragment bitmaps of the messages still
//     assembling — window and fragment duplicate suppression;
//   - the rendezvous state machines (rndv.go): the sender's request
//     watchdog and first-pull RTT sample, and the receiver's pull
//     blocks — fragment accept, block timers, block completion and
//     transfer completion;
//   - fragment reassembly (reassembly.go), the adaptive tier's
//     estimators (adaptive.go) and collective frames (coll.go).
//
// Each stack keeps only what its execution context changes, and hands
// it to the shared code as one function bound per channel, send or
// pull — never as a flag the shared code branches on:
//
//   - Open-MX charges host CPU: eager and pull-block retransmissions
//     are rebuilt on an interrupt core, receive copies run in the
//     bottom half (memcpy or I/OAT), and the pull window refills one
//     block per completion after a CPU charge;
//   - MXoE runs in NIC firmware at no host cost: deposits pay DMA
//     delays, pull replies are paced by the firmware's control
//     overhead, and the static window refills on deposit;
//   - the endpoint library (matching, Wait/Test/Progress) and MXoE's
//     collective offload stay per stack.
//
// Header sizes are abstracted: every frame pays
// platform.OMXHeaderBytes of wire time, and the decoded fields ride in
// wire.Frame.Msg as one of the structs below.
package proto

// Addr identifies an endpoint: a NIC address (host name) plus an
// endpoint index on that host.
type Addr struct {
	Host string
	EP   int
}

// Message size class boundaries (bytes), matching MX semantics.
const (
	// TinyMax: payload rides inline in the completion event.
	TinyMax = 32
	// SmallMax: single frame, copied through the receive ring.
	SmallMax = 128
	// MediumFragSize: eager fragment payload (one page).
	MediumFragSize = 4096
	// LargeFragSize: rendezvous pull fragment payload (two pages —
	// jumbo frames on an MTU-9000 network).
	LargeFragSize = 8192
)

// RingSlots is the capacity, in MediumFragSize slots, of each
// endpoint's eager receive ring (Open-MX) or receive queue (native
// MX).
const RingSlots = 512

// Eager carries a tiny/small message or one fragment of a medium
// message. Fragments of one message share Seq; FragID identifies the
// piece. Reliability: the receiver acknowledges cumulative sequence
// numbers per (source endpoint → destination endpoint) channel, either
// piggybacked (AckSeq on any reverse frame) or via explicit Ack.
type Eager struct {
	Src, Dst  Addr
	Match     uint64
	Seq       uint32 // per-channel message sequence
	MsgLen    int
	FragID    int
	FragCount int
	Offset    int // payload offset of this fragment
	AckSeq    uint32
}

// Ack explicitly acknowledges all eager messages with Seq ≤ AckSeq on
// the channel Src→Dst (Src is the original data sender).
type Ack struct {
	Src, Dst Addr
	AckSeq   uint32
}

// RndvRequest initiates a large-message rendezvous (RTS). The sender
// has pinned its buffer; SenderHandle names the send on the sender so
// pulls and the final ack can refer to it.
type RndvRequest struct {
	Src, Dst     Addr
	Match        uint64
	Seq          uint32
	MsgLen       int
	SenderHandle int
	AckSeq       uint32
}

// Pull asks the sender to transmit a block of large-message fragments.
// The receiver drives the transfer (MX pull model): two pipelined
// blocks of PullBlockFrags fragments are outstanding in the common
// case. NeedMask selects which fragments of the block are (re)needed —
// all of them initially, a subset on retransmission.
type Pull struct {
	Src, Dst     Addr // Src = receiver (requester), Dst = data sender
	SenderHandle int
	RecvHandle   int
	Block        int
	FirstFrag    int // global fragment index of the block's first frag
	FragCount    int
	NeedMask     uint64
}

// LargeFrag is one pulled data fragment.
type LargeFrag struct {
	Src, Dst   Addr // Src = data sender
	RecvHandle int
	Block      int
	FragID     int // global fragment index within the message
	Offset     int
	MsgLen     int
}

// RndvAck tells the data sender the whole message arrived and its
// buffer may be unpinned; it completes the send.
type RndvAck struct {
	Src, Dst     Addr
	SenderHandle int
}

// FragsOf reports how many fragments a large message of n bytes needs.
func FragsOf(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + LargeFragSize - 1) / LargeFragSize
}

// MediumFragsOf reports how many fragments an eager message or a
// collective payload of n bytes needs (at least one: zero-byte
// messages and barriers still take one frame).
func MediumFragsOf(n int) int {
	return max(1, (n+MediumFragSize-1)/MediumFragSize)
}

// MediumFrag reports the payload offset and length of fragment f of
// an n-byte eager message or collective payload: every fragment but
// the last carries MediumFragSize bytes.
func MediumFrag(n, f int) (off, ln int) {
	off = f * MediumFragSize
	return off, min(MediumFragSize, n-off)
}
