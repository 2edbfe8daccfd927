package proto

import (
	"omxsim/internal/hostmem"
	"omxsim/internal/wire"
)

// PoisonReleased makes the transport poison every frame it takes
// back: the frame's eager load is overwritten and its headers carry
// out-of-range handles, blocks and offsets, so that a receiver still
// reading a released frame gets wrong bytes or panics instead of the
// next message's. Without it a released frame only drops its payload.
// (The skbuff and wrap buffer of a frame are emptied whenever they are
// freed, so reading one always panics.) The MXoE firmware's
// collective buffers and hop and ack records obey it too. Tests set
// it; nothing else may.
var PoisonReleased bool

// txFrame is a frame the transport built. It is its own wire.Frame's
// owner and carries the per-frame headers by value, so an eager
// fragment, an ack, a pull request or a pull reply fragment costs no
// header object: Msg points at the header inside the record. An eager
// fragment's payload is copied into the record's own load buffer.
// When the wire's count of the frame's copies reaches zero (every
// receiver has released it and every link dropping a copy has too)
// the record goes back on its transport's free list, header and load
// included.
type txFrame struct {
	wire.Frame
	t    *Transport
	next *txFrame // free-list link

	eager Eager
	ack   Ack
	pull  Pull
	frag  LargeFrag
	load  []byte // eager payload storage, reused
}

// poisonInt fills a released header's integer fields when
// PoisonReleased is set: far out of range for any handle, block,
// fragment or offset, so a read through a stale header fails.
const poisonInt = -1 << 40

// poisonByte overwrites a released eager load when PoisonReleased is
// set.
const poisonByte = 0xdb

// poisonAddr is a released header's source and destination when
// PoisonReleased is set.
var poisonAddr = Addr{Host: "released-frame", EP: poisonInt}

// newFrame takes a frame record from the free list, or makes one.
func (t *Transport) newFrame() *txFrame {
	r := t.frameFree
	if r == nil {
		r = &txFrame{t: t}
		r.Owner = r
		return r
	}
	t.frameFree, r.next = r.next, nil
	return r
}

// FrameReleased takes the record back once no copy of its frame is
// left: nothing may read the frame, its header or its load any more.
// The frame drops its payload; with PoisonReleased set, its length,
// headers and load are poisoned too.
func (r *txFrame) FrameReleased(*wire.Frame) {
	t := r.t
	r.Frame = wire.Frame{Owner: r}
	if PoisonReleased {
		r.WireLen = poisonInt
		r.eager = Eager{Src: poisonAddr, Dst: poisonAddr, MsgLen: poisonInt,
			FragID: poisonInt, FragCount: poisonInt, Offset: poisonInt}
		r.ack = Ack{Src: poisonAddr, Dst: poisonAddr}
		r.pull = Pull{Src: poisonAddr, Dst: poisonAddr, SenderHandle: poisonInt, RecvHandle: poisonInt,
			Block: poisonInt, FirstFrag: poisonInt, FragCount: poisonInt}
		r.frag = LargeFrag{Src: poisonAddr, Dst: poisonAddr, RecvHandle: poisonInt,
			Block: poisonInt, FragID: poisonInt, Offset: poisonInt, MsgLen: poisonInt}
		r.Msg = &r.frag
		for i := range r.load {
			r.load[i] = poisonByte
		}
	}
	r.next = t.frameFree
	t.frameFree = r
}

// TransmitEager sends one eager fragment: hdr travels by value in the
// frame, and the n payload bytes at off in src are copied into the
// frame's own storage, which the frame keeps until its last copy is
// released.
func (t *Transport) TransmitEager(lane int, dst Addr, hdr Eager, src *hostmem.Buffer, off, n int) {
	r := t.newFrame()
	r.eager = hdr
	r.Msg = &r.eager
	if n > 0 {
		if cap(r.load) < n {
			r.load = make([]byte, max(n, MediumFragSize))
		}
		r.Data = r.load[:n:n]
		src.ReadAt(r.Data, off)
	}
	t.TransmitFrameOn(lane, dst, &r.Frame)
}

// TransmitAck sends an explicit ack on lane 0, its header by value in
// the frame.
func (t *Transport) TransmitAck(dst Addr, hdr Ack) {
	r := t.newFrame()
	r.ack = hdr
	r.Msg = &r.ack
	t.TransmitFrameOn(0, dst, &r.Frame)
}

// TransmitFrag sends fragment fragID of an msgLen-byte message from
// endpoint from, answering pull m (both stacks answer on the lane the
// pull arrived on). The LargeFrag header is filled in place in the
// frame; payload is the view of the lent send buffer.
func (t *Transport) TransmitFrag(lane int, m *Pull, from Addr, fragID, msgLen int, payload []byte) {
	r := t.newFrame()
	h := &r.frag
	h.Src, h.Dst = from, m.Src
	h.RecvHandle, h.Block = m.RecvHandle, m.Block
	h.FragID, h.Offset, h.MsgLen = fragID, fragID*LargeFragSize, msgLen
	r.Data, r.Msg = payload, h
	t.TransmitFrameOn(lane, m.Src, &r.Frame)
}
