package mxoe

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/proto"
	"omxsim/sim"
)

// MX intra-node communication: a user-space shared-memory channel.
// The sender copies the payload into a shared segment and signals the
// peer; the receiving library matches and copies the segment into the
// destination — the classic double-copy shm transport MX shipped with.
// (Open-MX's one-copy driver path, and its I/OAT variant, are what
// Figure 10 compares against this style of design.)
//
// The model reuses the unexpected-eager machinery: a fully assembled
// message whose temporary storage is the shared segment.

// shmChunk is the shared-segment granularity: messages stream through
// the channel in chunks, so for large messages the sender's copy of
// chunk k overlaps the receiver's copy of chunk k-1 and the critical
// path is roughly ONE copy plus one chunk.
const shmChunk = 32 * 1024

// shmSend copies the payload into a fresh shared segment on the
// sender's core and delivers it to the peer endpoint. The send
// completes at post time (buffered semantics, like MX shm). Only the
// pipeline-fill portion of the sender copy is on the critical path;
// the rest overlaps the receiver's copies, which is charged in full
// on the receiving side.
func (ep *Endpoint) shmSend(p *sim.Proc, r *Request) *Request {
	s := ep.S
	dst := s.endpoints[r.dst.EP]
	if dst == nil {
		panic(fmt.Sprintf("mxoe: local send to unopened endpoint %d on %s", r.dst.EP, s.H.Name))
	}
	ep.core().RunOn(p, cpu.UserLib, sim.Duration(s.H.P.MXPostCost))
	seg := s.H.Alloc(r.n)
	if r.n > 0 {
		// Bytes all move (integrity); time charged for the first
		// chunk only (pipeline fill) when the message spans chunks.
		fill := min(r.n, shmChunk)
		var d sim.Duration
		if r.n > fill {
			d = s.H.Copy.CopyTime(seg, r.buf, fill, ep.Core)
			s.H.Copy.Memcpy(seg, 0, r.buf, r.off, r.n, ep.Core)
		} else {
			d = s.H.Copy.Memcpy(seg, 0, r.buf, r.off, r.n, ep.Core)
		}
		ep.core().RunOn(p, cpu.UserLib, d)
	}
	dst.pushEvent(&event{
		kind: evShm, src: ep.Addr(), match: r.MatchInfo,
		msgLen: r.n, seg: seg,
	})
	r.done = true
	return r
}

// handleShm matches an incoming shared-memory message or queues it as
// unexpected (the segment doubles as the temporary storage).
func (ep *Endpoint) handleShm(p *sim.Proc, ev *event) {
	for i, r := range ep.posted {
		if proto.Matches(r.match, r.mask, ev.match) {
			ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
			n := min(ev.msgLen, r.n)
			if n > 0 {
				d := ep.S.H.Copy.Memcpy(r.buf, r.off, ev.seg, 0, n, ep.Core)
				ep.core().RunOn(p, cpu.UserLib, d)
			}
			r.Len, r.SenderAddr, r.MatchInfo, r.done = n, ev.src, ev.match, true
			return
		}
	}
	ep.ux = append(ep.ux, &uxMsg{kind: uxEager, src: ev.src, match: ev.match, msgLen: ev.msgLen, tmp: ev.seg})
}
