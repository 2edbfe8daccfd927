// Package proto defines the MXoE protocol shared by the Open-MX stack
// (internal/core) and the native MX stack (internal/mxoe): the wire
// message formats, the reliability-window arithmetic, and the
// per-peer transport core (Transport) both stacks embed. Both speak
// the same protocol — wire compatibility between Open-MX on commodity
// NICs and Myricom's native MXoE firmware is one of Open-MX's core
// features, and the interop example depends on these being common.
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

// MediumFragsOf reports how many fragments an eager message of n bytes
// needs (at least one, even for zero-byte messages).
func MediumFragsOf(n int) int {
	if n <= SmallMax {
		return 1
	}
	return (n + MediumFragSize - 1) / MediumFragSize
}
