package mxoe

import (
	"fmt"
	"slices"

	"omxsim/internal/cpu"
	"omxsim/internal/f64"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// NIC-resident collectives: Barrier, Bcast, Allreduce and Scan run as
// tree state machines in firmware context, the way Quadrics and
// Myrinet NICs offloaded them. The host's entire involvement is one
// descriptor post (PostBarrier/PostBcast/PostAllreduce/PostScan) and
// one completion event; every tree hop — fan-in combining, fan-out
// forwarding, per-hop acks, retransmission, duplicate suppression —
// runs at frame-arrival or timer time and charges zero host CPU.
//
// A CollGroup is registered locally per endpoint from the full member
// list; the group ID is a hash of that list, so every NIC derives the
// same ID with no wire traffic, and each posted collective consumes
// the group's next sequence number (MPI requires identical collective
// order on every rank, so the counters agree). Tree frames may arrive
// before the local descriptor post — even before the local CollJoin —
// and are buffered in firmware state until the post supplies the
// destination buffer; forwarding down-tree never waits for the local
// post, so one slow rank does not serialize its subtree.
//
// Reductions combine in firmware at platform.NICReduceRate — the
// embedded core is slower than a host core, and the win is the freed
// host CPU, not faster arithmetic. Combining order is fixed (own
// contribution, then children in member order), so results are
// independent of frame arrival timing.
//
// Collective state is NIC-resident and reused, the way a firmware sizes
// its collective tables once. A call's bytes live in payload buffers
// from its stack's pool, and every hop it sends is a view of them,
// never a copy:
//   - contrib is the NIC's snapshot of the local contribution. A
//     reduction combines into it in place (own contribution first,
//     then children in member order), so after the combine it holds
//     the partial or the result the call sends and deposits.
//   - Each child's contribution assembles in a vector of its own until
//     the combine.
//   - down stores each arrived fan-out fragment before the call
//     forwards and deposits it (store-and-forward), so a relayed hop
//     views this NIC's copy, not the upstream sender's buffer.
//   - Nothing writes a buffer range after it is first sent, so a view
//     stays valid for every retransmission.
//
// A buffer goes back to the pool (give) only once nothing can read it
// again. A peer reads a hop's bytes only on the first arrival (stash
// copies them), which precedes its ack; any later copy, such as a
// duplicate still on the wire, fails the fragment bitmap or the done
// set before its data is read. So a child's vector is released once
// the combine has summed it, and everything else at retirement: the
// call is complete, so every deposit has landed and every step it
// scheduled has run, and every hop it sent is acked, so no
// retransmission can read its buffers again. Releasing earlier, say
// when the call completes, would let a retransmission carry the next
// call's bytes. A retired call goes on its group's free list, and the
// next call reuses its outs map and its child, vector and landing
// lists (recycle).
//
// The records that carry hops and acks are reused too, from free
// lists on the stack. Each record holds the one wire.Frame every
// transmission of its message shares, so a record may go back only
// once no delivery of that frame is pending: not a retransmission in
// a queue, not a duplicate an impaired link made, not a same-host
// loopback, not a frame parked for a later CollJoin. The wire counts
// those deliveries (wire.Frame.Hold, Release) and tells the record
// when the last one ends, whether a receiver handled it or a link
// dropped it.
//   - A hop record (collOut) goes back once its call has retired and
//     its frame's last delivery has ended, whichever comes last.
//     Retirement also ends its ack lookups and its timer: the call's
//     outs map is cleared, and every hop is acked, so its
//     retransmission timer is stopped. Releasing at call completion
//     instead would let a late ack or a retransmission act on a
//     record another call now uses.
//   - An ack record (collAck) goes back once its one delivery ends:
//     after the receiving firmware has handled it, or where the ack
//     was dropped.
//
// proto.PoisonReleased also poisons released records, and the firmware
// panics when it reads one or reuses one with a delivery pending.

// CollMaxBytes bounds an offloaded payload: fragment bitmaps are one
// 64-bit word (proto.CollMaxFrags eager fragments). The mpi layer's
// auto selection keeps larger payloads on the host algorithms.
const CollMaxBytes = proto.CollMaxFrags * proto.MediumFragSize

// collDoneWindow bounds the per-group completed-call set kept for
// re-acking stale retransmissions (mirrors proto.RndvDedupWindow).
const collDoneWindow = 128

// collPendingCap bounds frames buffered for a group whose local
// CollJoin has not happened yet; beyond it the sender's
// retransmission recovers the drop after the join.
const collPendingCap = 4096

// CollStats counts firmware-collective activity on one stack.
type CollStats struct {
	// Descriptors posted, by operation.
	Barriers   int64
	Bcasts     int64
	Allreduces int64
	Scans      int64
	// Tree traffic: fan-in (contribution) and fan-out (release,
	// data, result, scan prefix) fragments originated by this NIC.
	UpFrames   int64
	DownFrames int64
	// Hop-level acks sent, retransmitted fragments, and duplicate
	// fragments suppressed.
	Acks        int64
	Retransmits int64
	DupFrags    int64
	// CombinedBytes is the reduction volume summed in firmware.
	CombinedBytes int64
}

// Posts sums the posted descriptors across operations.
func (c CollStats) Posts() int64 { return c.Barriers + c.Bcasts + c.Allreduces + c.Scans }

// collKey routes collective state: group ID plus local endpoint.
type collKey struct {
	id uint64
	ep int
}

// CollGroup is one endpoint's membership in a collective group.
type CollGroup struct {
	ep      *Endpoint
	id      uint64
	members []proto.Addr
	me      int

	nextSeq uint32
	calls   map[uint32]*collCall
	done    proto.EvictRing[uint32] // the last collDoneWindow retired sequences
	free    *collCall               // retired calls, linked by next, reused by newCall
}

// CollJoin registers (or returns) this endpoint's membership in the
// group defined by members — every rank's endpoint address in rank
// order. All members derive the same group ID locally; no wire
// traffic is needed. Frames that raced ahead of the join are drained
// into the new group. The group keeps members: the caller must not
// modify it afterwards.
func (ep *Endpoint) CollJoin(members []proto.Addr) *CollGroup {
	s := ep.S
	key := collKey{id: collGroupID(members), ep: ep.ID}
	if g := s.collGroups[key]; g != nil {
		return g
	}
	me := -1
	self := ep.Addr()
	for i, m := range members {
		if m == self {
			me = i
			break
		}
	}
	if me < 0 {
		panic(fmt.Sprintf("mxoe: endpoint %v is not in the collective member list", self))
	}
	g := &CollGroup{
		ep: ep, id: key.id, members: members, me: me,
		calls: make(map[uint32]*collCall),
	}
	proto.Insert(&s.collGroups, key, g)
	for _, f := range s.collPending[key] {
		s.fwCollData(f, f.Msg.(*proto.CollData))
		f.Release()
	}
	delete(s.collPending, key)
	return g
}

// Size reports the group's member count.
func (g *CollGroup) Size() int { return len(g.members) }

// Rank reports this endpoint's index in the member list.
func (g *CollGroup) Rank() int { return g.me }

// collGroupID hashes the member list (FNV-1a over host names and
// endpoint indexes) so every member derives the same group ID.
func collGroupID(members []proto.Addr) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	byteIn := func(b byte) { h ^= uint64(b); h *= prime }
	for _, m := range members {
		for i := 0; i < len(m.Host); i++ {
			byteIn(m.Host[i])
		}
		byteIn(0)
		for s := 0; s < 64; s += 8 {
			byteIn(byte(uint64(m.EP) >> s))
		}
	}
	return h
}

// PostBarrier posts a firmware barrier descriptor: the NIC joins the
// binomial fan-in to member 0 and completes on the fan-out release.
func (g *CollGroup) PostBarrier(p *sim.Proc) *Request {
	return g.post(p, proto.CollBarrier, 0, nil, 0, nil, 0, 0)
}

// PostBcast posts a firmware broadcast descriptor. On the root, buf
// is the source (snapshot at post, eager-style: the send completes
// immediately); elsewhere it is the pinned destination the tree data
// is DMA-deposited into.
func (g *CollGroup) PostBcast(p *sim.Proc, root int, buf *hostmem.Buffer, off, n int) *Request {
	if g.me == root {
		return g.post(p, proto.CollBcast, root, buf, off, nil, 0, n)
	}
	return g.post(p, proto.CollBcast, root, nil, 0, buf, off, n)
}

// PostAllreduce posts a firmware allreduce descriptor: contributions
// climb the binomial tree, combined segment by segment in firmware,
// and the result fans back out into every rank's pinned rbuf.
func (g *CollGroup) PostAllreduce(p *sim.Proc, sbuf, rbuf *hostmem.Buffer, n int) *Request {
	return g.post(p, proto.CollAllreduce, 0, sbuf, 0, rbuf, 0, n)
}

// PostScan posts a firmware inclusive-scan descriptor: member i's
// result is the sum of contributions 0..i, pipelined down the rank
// chain (each NIC adds its contribution to the incoming prefix and
// forwards its own result).
func (g *CollGroup) PostScan(p *sim.Proc, sbuf, rbuf *hostmem.Buffer, n int) *Request {
	return g.post(p, proto.CollScan, 0, sbuf, 0, rbuf, 0, n)
}

// post is the one descriptor-post path: the host pays MXPostCost (plus
// pinning the destination), the firmware does everything else.
func (g *CollGroup) post(p *sim.Proc, op proto.CollOp, root int, sbuf *hostmem.Buffer, soff int, rbuf *hostmem.Buffer, roff, n int) *Request {
	ep := g.ep
	s := ep.S
	if n < 0 || n > CollMaxBytes {
		panic(fmt.Sprintf("mxoe: collective payload %d B out of range 0..%d (larger payloads stay on the host algorithms)", n, CollMaxBytes))
	}
	switch op {
	case proto.CollBarrier:
		s.Stats.Coll.Barriers++
	case proto.CollBcast:
		s.Stats.Coll.Bcasts++
	case proto.CollAllreduce:
		s.Stats.Coll.Allreduces++
	case proto.CollScan:
		s.Stats.Coll.Scans++
	}
	cr := &collReq{req: Request{ep: ep, isRecv: rbuf != nil, buf: rbuf, off: roff, n: n}}
	req := &cr.req
	if len(g.members) == 1 {
		// One-rank group: complete locally (the result is the local
		// contribution).
		ep.core().RunOn(p, cpu.UserLib, sim.Duration(s.H.P.MXPostCost))
		if rbuf != nil && sbuf != nil && n > 0 {
			hostmem.Copy(rbuf, roff, sbuf, soff, n)
		}
		req.buf = nil // nothing was pinned
		req.Len, req.done = n, true
		return req
	}
	g.nextSeq++
	seq := g.nextSeq
	c := g.calls[seq]
	if c == nil {
		c = g.newCall(seq, op, root, n)
	} else if c.op != op || c.root != root || c.n != n {
		panic(fmt.Sprintf("mxoe: collective post mismatch on group %#x seq %d: local %v root %d n %d, peers sent %v root %d n %d",
			g.id, seq, op, root, n, c.op, c.root, c.n))
	}
	cost := sim.Duration(s.H.P.MXPostCost)
	if rbuf != nil {
		cost += s.PinCost(rbuf, n, s.H.P.MXPinPerPage)
	}
	ep.core().RunOn(p, cpu.UserLib, cost)
	c.posted = true
	c.req = req
	c.doneEv = &cr.ev
	c.rbuf, c.roff = rbuf, roff
	switch {
	case sbuf != nil:
		// NIC snapshot of the contribution (like an eager send: the
		// host buffer is immediately reusable).
		c.contrib = s.take(n)
		sbuf.ReadAt(c.contrib, soff)
	case op == proto.CollAllreduce || op == proto.CollScan:
		c.contrib = s.take(n)
		clear(c.contrib)
	}
	if op == proto.CollBcast {
		if g.me == root {
			// Root sends complete at post; the firmware fans the
			// snapshot out on its own.
			req.done = true
			c.haveDown, c.forwarded = true, true
			s.collFanout(c, c.contrib)
			c.complete = true
			s.collMaybeRetire(c)
			return req
		}
		// Deposit whatever arrived before the post.
		if c.down.Frags != 0 {
			for fid := 0; fid < c.frags; fid++ {
				if c.down.Got&(uint64(1)<<uint(fid)) != 0 {
					s.collDeposit(c, fid, fragOf(c.down.data, c.n, fid))
				}
			}
		}
	}
	s.collAdvance(c)
	return req
}

// collCall is one in-flight collective on one member's NIC, keyed by
// (group, sequence). It may be created by the local descriptor post
// or by the first tree frame to arrive — whichever happens first.
type collCall struct {
	g     *CollGroup
	seq   uint32
	op    proto.CollOp
	root  int
	n     int
	frags int

	posted  bool
	req     *Request
	doneEv  *event // req's completion event, allocated with it
	rbuf    *hostmem.Buffer
	roff    int
	contrib []byte // local contribution, combined in place

	parent   int
	children []int

	// Fan-in: upv[i] assembles children[i]'s contribution; haveUp
	// counts the complete ones.
	upv    []collVec
	haveUp int
	sentUp bool

	// Fan-out / chain: the assembling down payload and its DMA state.
	down      collVec
	haveDown  bool
	forwarded bool
	landed    int
	finishing bool
	complete  bool

	// Hop reliability: outstanding fragments awaiting per-hop acks.
	outs    map[collOutKey]*collOut
	unacked int

	// lands holds one pending result DMA per fragment (collDeposit).
	lands []collLand

	// startedAt is the call's creation time: collFinish publishes the
	// [startedAt, finish] interval as a "collective" trace span.
	startedAt sim.Time

	next *collCall // free-list link
}

// collReq is a collective's host request together with its completion
// event: one allocation per post.
type collReq struct {
	req Request
	ev  event
}

// collLand is one result fragment's DMA into the posted destination.
type collLand struct {
	c    *collCall
	off  int
	data []byte
}

// collVec assembles one fragmented tree payload (a child contribution
// or the down data); the embedded bitmap suppresses duplicates. The
// zero value, with Frags 0, is a vector the call has not opened yet.
type collVec struct {
	proto.Reassembly
	data []byte // the payload's n bytes, from the stack's pool
}

// open starts assembling cnt fragments into data.
func (v *collVec) open(cnt int, data []byte) {
	*v = collVec{Reassembly: proto.Reassembly{Frags: cnt}, data: data}
}

// stash copies an arrived fragment into the vector's buffer.
func (v *collVec) stash(off int, data []byte) {
	copy(v.data[off:], data)
}

// fragOf views fragment fid of the n-byte payload b (nil when empty).
// The view is cap-limited: nothing can append into the next fragment
// through it.
func fragOf(b []byte, n, fid int) []byte {
	off, ln := proto.MediumFrag(n, fid)
	if ln <= 0 {
		return nil
	}
	return b[off : off+ln : off+ln]
}

// fit returns b resized to n elements, reusing its backing array when
// it is large enough. The contents are unspecified.
func fit[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// collPoison overwrites every buffer give releases while
// proto.PoisonReleased is set, so a read after release shows up as
// wrong bytes.
const collPoison = 0xdb

// take hands out an n-byte payload buffer (nil for n 0), reusing a
// released one when there is one. The contents are unspecified. The
// pool is the NIC's: every group of every endpoint on the stack draws
// from it, so a buffer one group releases serves the next group that
// needs one.
func (s *Stack) take(n int) []byte {
	if n == 0 {
		return nil
	}
	k := len(s.collBufs)
	if k == 0 {
		return make([]byte, n)
	}
	b := s.collBufs[k-1]
	s.collBufs[k-1] = nil
	s.collBufs = s.collBufs[:k-1]
	return fit(b, n)
}

// give releases a payload buffer to the stack's pool. The caller
// guarantees nothing reads it again (see the package comment on
// collective state).
func (s *Stack) give(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if proto.PoisonReleased {
		for i := range b {
			b[i] = collPoison
		}
	}
	s.collBufs = append(s.collBufs, b)
}

// collOutKey identifies one outgoing fragment hop: destination member,
// direction, fragment.
type collOutKey struct {
	dst  int
	down bool
	frag int
}

// collFrame is the part of a hop or ack record that goes on the wire:
// the one frame every transmission of the message shares, and the
// stack and lane that send it.
type collFrame struct {
	s     *Stack
	lane  int
	frame wire.Frame
}

// collOut is a fragment awaiting its hop ack, with the firmware
// retransmission timer. Every transmission of the hop, retransmissions
// included, sends frame, whose Msg is msg and whose Data views the
// call's buffer; duplicate deliveries share one Frame on the wire too.
// It goes back on its stack's free list once its call has retired and
// no delivery of its frame is pending (see the package comment).
type collOut struct {
	collFrame
	msg      proto.CollData
	timer    sim.Timer
	attempts int
	acked    bool
	retired  bool     // the call has retired; free at the last release
	next     *collOut // free-list link
}

// collAck is a hop ack and the frame that carries it. It goes back on
// its stack's free list when the frame's one delivery ends.
type collAck struct {
	collFrame
	m    proto.CollAck
	next *collAck // free-list link
}

// collPoisonGroup marks a released record's message when
// proto.PoisonReleased is set: no member list hashes to it in practice.
const collPoisonGroup = 0xdbdbdbdbdbdbdbdb

// collCheckLive panics if a poisoned record's message is being read.
func collCheckLive(group uint64) {
	if proto.PoisonReleased && group == collPoisonGroup {
		panic("mxoe: a released collective hop or ack record was read")
	}
}

// collCheckIdle panics if a record leaves the free list while a
// delivery of its frame is still pending.
func collCheckIdle(f *wire.Frame) {
	if proto.PoisonReleased && f.Copies() != 0 {
		panic(fmt.Sprintf("mxoe: a collective record was reused with %d deliveries of its frame pending", f.Copies()))
	}
}

// newOut takes a hop record from the free list, or makes one.
func (s *Stack) newOut() *collOut {
	o := s.outFree
	if o == nil {
		s.outsMade++
		o = &collOut{collFrame: collFrame{s: s}}
		o.frame.Owner = o
		return o
	}
	collCheckIdle(&o.frame)
	s.outFree, o.next = o.next, nil
	return o
}

// retireOut marks a hop record of a retired call, and frees it now if
// no delivery of its frame is pending.
func (o *collOut) retireOut() {
	o.retired = true
	if o.frame.Copies() == 0 {
		o.free()
		return
	}
	o.s.outsHeld++
}

// FrameReleased frees the hop record once its call has retired.
func (o *collOut) FrameReleased(*wire.Frame) {
	if o.retired {
		o.free()
	}
}

// free puts the hop record on its stack's free list, poisoned when
// proto.PoisonReleased is set.
func (o *collOut) free() {
	s := o.s
	*o = collOut{
		collFrame: collFrame{s: s, frame: wire.Frame{Owner: o}},
		next:      s.outFree,
	}
	if proto.PoisonReleased {
		o.msg.Group = collPoisonGroup
		o.frame.Msg = &o.msg
	}
	s.outFree = o
}

// newAck takes an ack record from the free list, or makes one.
func (s *Stack) newAck() *collAck {
	a := s.ackFree
	if a == nil {
		s.acksMade++
		a = &collAck{collFrame: collFrame{s: s}}
		a.frame.Owner = a
		return a
	}
	collCheckIdle(&a.frame)
	s.ackFree, a.next = a.next, nil
	return a
}

// FrameReleased frees the ack record: its one delivery has ended.
func (a *collAck) FrameReleased(*wire.Frame) {
	s := a.s
	*a = collAck{
		collFrame: collFrame{s: s, frame: wire.Frame{Owner: a}},
		next:      s.ackFree,
	}
	if proto.PoisonReleased {
		a.m.Group = collPoisonGroup
		a.frame.Msg = &a.m
	}
	s.ackFree = a
}

func (g *CollGroup) newCall(seq uint32, op proto.CollOp, root, n int) *collCall {
	c := g.free
	if c != nil {
		g.free, c.next = c.next, nil
	} else {
		c = &collCall{g: g, outs: make(map[collOutKey]*collOut)}
	}
	c.seq, c.op, c.root, c.n = seq, op, root, n
	c.frags = proto.MediumFragsOf(n)
	c.parent = -1
	c.startedAt = g.ep.S.H.E.Now()
	c.initTree()
	g.calls[seq] = c
	return c
}

// recycle releases a retired call's buffers and puts it on the group's
// free list. It may run only at retirement (see the package comment on
// collective state). The outs map is cleared, not re-made, and the
// child, vector and landing lists keep their backing arrays.
func (g *CollGroup) recycle(c *collCall) {
	s := g.ep.S
	s.give(c.contrib)
	s.give(c.down.data)
	for i := range c.upv {
		s.give(c.upv[i].data)
	}
	for _, o := range c.outs {
		o.retireOut()
	}
	clear(c.upv)
	clear(c.lands)
	clear(c.outs)
	*c = collCall{
		g: g, outs: c.outs,
		children: c.children[:0],
		upv:      c.upv[:0],
		lands:    c.lands[:0],
		next:     g.free,
	}
	g.free = c
}

// initTree computes this member's parent and children: the binomial
// tree over virtual ranks (root rotated to index 0) for tree
// collectives, the rank chain for Scan.
func (c *collCall) initTree() {
	p := len(c.g.members)
	if c.op == proto.CollScan {
		return // chain: prefix from me−1, result to me+1
	}
	vr := (c.g.me - c.root + p) % p
	if vr != 0 {
		c.parent = ((vr &^ (vr & -vr)) + c.root) % p
	}
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			break
		}
		if child := vr + mask; child < p {
			c.children = append(c.children, (child+c.root)%p)
		}
	}
	c.upv = fit(c.upv, len(c.children))
}

// combineDelay is the firmware time to sum bytes of reduction input
// at the NIC's (slow) combining rate.
func (s *Stack) combineDelay(bytes int) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(float64(bytes) / float64(s.H.P.NICReduceRate))
}

// ---------------------------------------------------------------
// Firmware receive paths
// ---------------------------------------------------------------

// fwCollData handles one collective tree fragment in firmware: ack
// the hop, deduplicate, and feed the call's state machine. A frame for
// a group not yet joined locally is parked for the join, and
// fwCollData reports that it kept the frame.
func (s *Stack) fwCollData(f *wire.Frame, m *proto.CollData) (parked bool) {
	collCheckLive(m.Group)
	key := collKey{id: m.Group, ep: m.Dst.EP}
	g := s.collGroups[key]
	if g == nil {
		if len(s.collPending[key]) < collPendingCap {
			proto.Insert(&s.collPending, key, append(s.collPending[key], f))
			return true
		}
		return false
	}
	// Hop-level ack, duplicates included: a duplicate proves the
	// sender missed the previous ack.
	s.Stats.Coll.Acks++
	a := s.newAck()
	a.lane = s.LaneOf(m.Seq, m.FragID)
	a.m = proto.CollAck{
		Src: proto.Addr{Host: s.H.Name, EP: m.Dst.EP}, Dst: m.Src,
		Group: m.Group, Seq: m.Seq, Down: m.Down, SrcRank: g.me, FragID: m.FragID,
	}
	a.frame.Msg = &a.m
	s.collEmit(&a.collFrame, m.Src)
	// A live call is never in the done set (a call retires only after
	// its local post, and posts issue fresh sequences), so only a
	// frame with no live call needs the done lookup.
	c := g.calls[m.Seq]
	if c == nil {
		if g.done.Contains(m.Seq) {
			s.Stats.Coll.DupFrags++
			return false
		}
		c = g.newCall(m.Seq, m.Op, m.Root, m.MsgLen)
	}
	if m.Down {
		s.fwCollDown(c, m, f.Data)
	} else {
		s.fwCollUp(c, m, f.Data)
	}
	return false
}

// fwCollUp assembles a child's fan-in contribution; when complete it
// counts toward the combine barrier.
func (s *Stack) fwCollUp(c *collCall, m *proto.CollData, data []byte) {
	i := slices.Index(c.children, m.SrcRank)
	if i < 0 {
		return // not a child in this call's tree: nothing to combine
	}
	v := &c.upv[i]
	if v.Frags == 0 {
		v.open(m.FragCount, s.take(c.n))
	}
	if !v.Mark(m.FragID) {
		s.Stats.Coll.DupFrags++
		return
	}
	v.stash(m.Offset, data)
	if !v.Done() {
		return
	}
	c.haveUp++
	s.collAdvance(c)
}

// fwCollDown handles a fan-out fragment: barrier release, bcast data,
// allreduce result, or scan prefix. Data fragments are stored in the
// call's down vector, forwarded down-tree from there immediately
// (store-and-forward pipelining, no wait for the local post) and
// DMA-deposited into the posted destination.
func (s *Stack) fwCollDown(c *collCall, m *proto.CollData, data []byte) {
	if c.down.Frags == 0 {
		c.down.open(c.frags, s.take(c.n))
	}
	if !c.down.Mark(m.FragID) {
		s.Stats.Coll.DupFrags++
		return
	}
	switch c.op {
	case proto.CollBarrier:
		c.haveDown = true
		s.collAdvance(c)
	case proto.CollScan:
		// The incoming prefix is combine input, not the result: no
		// forwarding, no deposit — advance runs the combine when both
		// the prefix and the local post are in.
		c.down.stash(m.Offset, data)
		if c.down.Done() {
			c.haveDown = true
			s.collAdvance(c)
		}
	default: // bcast data, allreduce result
		c.down.stash(m.Offset, data)
		frag := fragOf(c.down.data, c.n, m.FragID)
		s.collForwardFrag(c, m, frag)
		if c.posted {
			s.collDeposit(c, m.FragID, frag)
		}
		if c.down.Done() {
			c.haveDown = true
		}
	}
}

// fwCollAck retires one outstanding hop fragment.
func (s *Stack) fwCollAck(m *proto.CollAck) {
	collCheckLive(m.Group)
	g := s.collGroups[collKey{id: m.Group, ep: m.Dst.EP}]
	if g == nil {
		return
	}
	c := g.calls[m.Seq]
	if c == nil {
		return // call already retired
	}
	o := c.outs[collOutKey{dst: m.SrcRank, down: m.Down, frag: m.FragID}]
	if o == nil {
		return
	}
	collCheckLive(o.msg.Group)
	if o.acked {
		return
	}
	o.acked = true
	o.timer.Stop()
	c.unacked--
	s.collMaybeRetire(c)
}

// ---------------------------------------------------------------
// State machine
// ---------------------------------------------------------------

// collAdvance runs the call's operation-specific state machine after
// any input change (post, completed child vector, down payload).
func (s *Stack) collAdvance(c *collCall) {
	switch c.op {
	case proto.CollBarrier:
		s.advBarrier(c)
	case proto.CollAllreduce:
		s.advAllreduce(c)
	case proto.CollScan:
		s.advScan(c)
	}
	// Bcast has no fan-in phase: fwCollDown and post drive it.
}

// advBarrier: join the fan-in once posted and all children joined;
// the root turns the last join into the fan-out release; completion
// is the release's event-queue DMA.
func (s *Stack) advBarrier(c *collCall) {
	if c.posted && c.haveUp == len(c.children) && !c.sentUp {
		c.sentUp = true
		if c.g.me != c.root {
			s.collSendVec(c, c.parent, false, nil)
		} else {
			c.haveDown = true
		}
	}
	if c.haveDown && !c.forwarded {
		c.forwarded = true
		s.collFanout(c, nil)
	}
	if c.haveDown && c.posted && !c.finishing {
		c.finishing = true
		s.H.E.ScheduleArg(s.dmaDelay(0), collStep, c)
	}
}

// advAllreduce: once posted and every child vector is in, combine
// into the contribution in place (own contribution, then children in
// member order — arrival timing never changes the result) at the
// firmware's reduce rate, then send the partial up; the root's combine
// is the full sum, which fans out and deposits locally.
func (s *Stack) advAllreduce(c *collCall) {
	if !c.posted || c.haveUp != len(c.children) || c.sentUp {
		return
	}
	c.sentUp = true
	combined := 0
	for i := range c.upv {
		// Summed, a child's contribution is never read again (a late
		// duplicate fails mark before its stash): release it now.
		v := &c.upv[i]
		f64.Sum(c.contrib, v.data)
		s.give(v.data)
		v.data = nil
		combined += c.n
	}
	s.Stats.Coll.CombinedBytes += int64(combined)
	d := sim.Duration(s.H.P.MXFirmwareMatchCost) + s.combineDelay(combined)
	s.H.E.ScheduleArg(d, collStep, c)
}

// collStep runs the one step a call schedules for itself: a barrier's
// completion after the release's DMA, or the send that follows an
// allreduce's or a scan's combine.
func collStep(arg any) {
	c := arg.(*collCall)
	s := c.g.ep.S
	switch c.op {
	case proto.CollBarrier:
		s.collFinish(c)
	case proto.CollAllreduce:
		s.allreduceSend(c)
	case proto.CollScan:
		s.scanSend(c)
	}
}

// allreduceSend sends the combined partial up, or, on the root, fans
// the result out and deposits it locally.
func (s *Stack) allreduceSend(c *collCall) {
	if c.g.me != c.root {
		s.collSendVec(c, c.parent, false, c.contrib)
		return
	}
	c.haveDown, c.forwarded = true, true
	s.collFanout(c, c.contrib)
	s.collDepositLocal(c)
}

// advScan: once posted and the upstream prefix is in (member 0 needs
// none), add the prefix into the contribution in place, deposit the
// result, and forward it as the next member's prefix.
func (s *Stack) advScan(c *collCall) {
	if !c.posted || c.sentUp || (c.g.me > 0 && !c.haveDown) {
		return
	}
	c.sentUp = true
	combined := 0
	if c.g.me > 0 {
		f64.Sum(c.contrib, c.down.data)
		combined = c.n
	}
	s.Stats.Coll.CombinedBytes += int64(combined)
	d := sim.Duration(s.H.P.MXFirmwareMatchCost) + s.combineDelay(combined)
	s.H.E.ScheduleArg(d, collStep, c)
}

// scanSend forwards a scan member's result to the next member and
// deposits it locally.
func (s *Stack) scanSend(c *collCall) {
	if next := c.g.me + 1; next < len(c.g.members) {
		s.collSendVec(c, next, true, c.contrib)
	}
	s.collDepositLocal(c)
}

// collDeposit DMAs result fragment fid, a view of a buffer the call
// owns, into the posted destination; the last landed fragment
// completes the call.
func (s *Stack) collDeposit(c *collCall, fid int, data []byte) {
	if len(c.lands) < c.frags {
		c.lands = fit(c.lands, c.frags)
	}
	l := &c.lands[fid]
	l.c, l.off, l.data = c, fid*proto.MediumFragSize, data
	s.H.E.ScheduleArg(s.dmaDelay(len(data)), collLanded, l)
}

// collLanded completes one result fragment's DMA.
func collLanded(arg any) {
	l := arg.(*collLand)
	c := l.c
	s := c.g.ep.S
	if len(l.data) > 0 && c.rbuf != nil {
		c.rbuf.WriteAt(l.data, c.roff+l.off)
		c.rbuf.WrittenByDMA()
	}
	c.landed++
	if c.landed == c.frags {
		s.collFinish(c)
	}
}

// collDepositLocal deposits the whole combined contribution (the
// root's allreduce result, a scan member's own result).
func (s *Stack) collDepositLocal(c *collCall) {
	for fid := 0; fid < c.frags; fid++ {
		s.collDeposit(c, fid, fragOf(c.contrib, c.n, fid))
	}
}

// collFinish raises the single host-visible completion event.
func (s *Stack) collFinish(c *collCall) {
	if c.complete {
		return
	}
	c.complete = true
	if s.Trace != nil {
		s.Trace(proto.TraceEvent{
			Kind: "collective", Frag: -1, Seq: c.seq,
			Name: c.op.String(), Start: c.startedAt, End: s.H.E.Now(),
		})
	}
	if c.req != nil && !c.req.done {
		c.req.Len = c.n
		*c.doneEv = event{kind: evCollDone, req: c.req}
		c.g.ep.pushEvent(c.doneEv)
	}
	s.collMaybeRetire(c)
}

// collMaybeRetire retires a call once it is complete and every hop it
// originated has been acked, keeping the sequence in the bounded done
// set so stale retransmissions are re-acked, not replayed.
func (s *Stack) collMaybeRetire(c *collCall) {
	if !c.complete || c.unacked > 0 {
		return
	}
	g := c.g
	if _, live := g.calls[c.seq]; !live {
		return
	}
	delete(g.calls, c.seq)
	g.done.Push(c.seq, collDoneWindow)
	g.recycle(c)
}

// ---------------------------------------------------------------
// Hop transmission and reliability
// ---------------------------------------------------------------

// collSendVec originates every fragment of a payload to one member
// (fragments already sent — e.g. forwarded at arrival — are skipped).
// Each fragment's payload is a view of the call's buffer.
func (s *Stack) collSendVec(c *collCall, dst int, down bool, payload []byte) {
	for fid := 0; fid < c.frags; fid++ {
		s.collOutSend(c, collOutKey{dst: dst, down: down, frag: fid}, proto.CollData{
			Src: c.g.ep.Addr(), Dst: c.g.members[dst], Group: c.g.id, Seq: c.seq,
			Op: c.op, Down: down, SrcRank: c.g.me, Root: c.root, MsgLen: c.n,
			FragID: fid, FragCount: c.frags, Offset: fid * proto.MediumFragSize,
		}, fragOf(payload, c.n, fid))
	}
}

// collFanout sends a payload to every tree child.
func (s *Stack) collFanout(c *collCall, payload []byte) {
	for _, child := range c.children {
		s.collSendVec(c, child, true, payload)
	}
}

// collForwardFrag relays one arrived down fragment, data being its
// view in the call's down vector, to every child immediately —
// per-fragment store-and-forward, so deep trees pipeline instead of
// waiting for whole payloads. The relayed hop views this call's copy,
// not the upstream frame: the upstream sender recycles its buffers
// once its own hops are acked, which says nothing of this call's.
func (s *Stack) collForwardFrag(c *collCall, m *proto.CollData, data []byte) {
	for _, child := range c.children {
		key := collOutKey{dst: child, down: true, frag: m.FragID}
		if c.outs[key] != nil {
			continue
		}
		s.collOutSend(c, key, proto.CollData{
			Src: c.g.ep.Addr(), Dst: c.g.members[child], Group: c.g.id, Seq: c.seq,
			Op: c.op, Down: true, SrcRank: c.g.me, Root: c.root, MsgLen: m.MsgLen,
			FragID: m.FragID, FragCount: m.FragCount, Offset: m.Offset,
		}, data)
	}
}

// collOutSend transmits one hop fragment and arms its retransmission
// timer; the hop retires on the peer's CollAck.
func (s *Stack) collOutSend(c *collCall, key collOutKey, m proto.CollData, payload []byte) {
	if c.outs[key] != nil {
		return
	}
	o := s.newOut()
	o.msg, o.lane = m, s.LaneOf(m.Seq, m.FragID)
	o.frame.Data, o.frame.Msg = payload, &o.msg
	c.outs[key] = o
	c.unacked++
	if m.Down {
		s.Stats.Coll.DownFrames++
	} else {
		s.Stats.Coll.UpFrames++
	}
	s.collEmit(&o.collFrame, m.Dst)
	s.armCollRtx(o)
}

// armCollRtx (re)arms one hop fragment's retransmission timer with
// the firmware's standard backoff.
func (s *Stack) armCollRtx(o *collOut) {
	o.timer = s.H.E.ScheduleArg(s.RtxTimeout(o.msg.Dst, o.attempts), collRtx, o)
}

// collRtx is a hop fragment's retransmission timeout.
func collRtx(arg any) {
	o := arg.(*collOut)
	collCheckLive(o.msg.Group)
	if o.acked {
		return
	}
	s := o.s
	o.attempts++
	s.Stats.Coll.Retransmits++
	s.TraceRetransmit(o.msg.Seq, o.msg.FragID, o.lane)
	s.collEmit(&o.collFrame, o.msg.Dst)
	s.armCollRtx(o)
}

// collEmit puts a record's frame (Data and Msg set) on the wire on the
// record's lane — or, between endpoints of the same host, through the
// NIC's internal loopback (fixed NIC latency, no wire), which holds a
// delivery of its own.
func (s *Stack) collEmit(r *collFrame, dst proto.Addr) {
	if dst.Host == s.H.Name {
		r.frame.WireLen = len(r.frame.Data) + s.H.P.OMXHeaderBytes
		r.frame.Hold()
		s.H.E.ScheduleArg(sim.Duration(s.H.P.NICFixedLatency), collLoopback, r)
		return
	}
	s.TransmitFrameOn(r.lane, dst, &r.frame)
}

// collLoopback delivers a looped-back record's frame to the firmware
// of the lane that sent it.
func collLoopback(arg any) {
	r := arg.(*collFrame)
	r.s.FirmwareRx(r.lane, &r.frame)
}
