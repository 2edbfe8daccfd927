package mxoe

import (
	"encoding/binary"
	"fmt"
	"math"

	"omxsim/internal/cpu"
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
	done    map[uint32]bool
	doneQ   []uint32
}

// CollJoin registers (or returns) this endpoint's membership in the
// group defined by members — every rank's endpoint address in rank
// order. All members derive the same group ID locally; no wire
// traffic is needed. Frames that raced ahead of the join are drained
// into the new group.
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
		ep: ep, id: key.id, members: append([]proto.Addr(nil), members...), me: me,
		calls: make(map[uint32]*collCall),
		done:  make(map[uint32]bool),
	}
	s.collGroups[key] = g
	for _, f := range s.collPending[key] {
		if m, ok := f.Msg.(*proto.CollData); ok {
			s.fwCollData(f, m)
		}
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
	req := &Request{ep: ep, isRecv: rbuf != nil, buf: rbuf, off: roff, n: n}
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
	c.rbuf, c.roff = rbuf, roff
	if sbuf != nil {
		// NIC snapshot of the contribution (like an eager send: the
		// host buffer is immediately reusable).
		c.contrib = make([]byte, n)
		sbuf.ReadAt(c.contrib, soff)
	} else {
		c.contrib = make([]byte, n)
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
		if c.down != nil {
			for fid := 0; fid < c.frags; fid++ {
				if c.down.got&(uint64(1)<<uint(fid)) != 0 {
					off := fid * proto.MediumFragSize
					s.collDeposit(c, off, c.down.slice(off, collFragLen(c.n, fid)))
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
	rbuf    *hostmem.Buffer
	roff    int
	contrib []byte

	parent   int
	children []int

	// Fan-in: per-child contribution vectors, completed-child count,
	// and the combined accumulator.
	up     map[int]*collVec
	haveUp int
	sentUp bool
	acc    []byte

	// Fan-out / chain: the assembling down payload and its DMA state.
	down      *collVec
	haveDown  bool
	forwarded bool
	landed    int
	finishing bool
	complete  bool

	// Hop reliability: outstanding fragments awaiting per-hop acks.
	outs    map[collOutKey]*collOut
	unacked int

	// startedAt is the call's creation time: collFinish publishes the
	// [startedAt, finish] interval as a "collective" trace span.
	startedAt sim.Time
}

// collVec assembles one fragmented tree payload (a child contribution
// or the down data), with the duplicate-suppression bitmap.
type collVec struct {
	data    []byte
	got     uint64
	arrived int
	cnt     int
}

func (v *collVec) mark(frag int) bool {
	bit := uint64(1) << uint(frag)
	if v.got&bit != 0 {
		return false
	}
	v.got |= bit
	v.arrived++
	return true
}

func (v *collVec) done() bool { return v.arrived == v.cnt }

// stash copies an arrived fragment into the vector's buffer.
func (v *collVec) stash(n, off int, data []byte) {
	if len(data) == 0 {
		return
	}
	if v.data == nil {
		v.data = make([]byte, n)
	}
	copy(v.data[off:], data)
}

// slice returns the stashed bytes [off, off+ln) (empty for ln 0).
func (v *collVec) slice(off, ln int) []byte {
	if ln <= 0 {
		return nil
	}
	return v.data[off : off+ln]
}

// collOutKey identifies one outgoing fragment hop: destination member,
// direction, fragment.
type collOutKey struct {
	dst  int
	down bool
	frag int
}

// collOut is a fragment awaiting its hop ack, with the firmware
// retransmission timer.
type collOut struct {
	m        *proto.CollData
	payload  []byte
	lane     int
	timer    sim.Timer
	attempts int
	acked    bool
}

func (g *CollGroup) newCall(seq uint32, op proto.CollOp, root, n int) *collCall {
	c := &collCall{
		g: g, seq: seq, op: op, root: root, n: n,
		frags:     proto.CollFragsOf(n),
		up:        make(map[int]*collVec),
		outs:      make(map[collOutKey]*collOut),
		parent:    -1,
		startedAt: g.ep.S.H.E.Now(),
	}
	c.initTree()
	g.calls[seq] = c
	return c
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
}

// collFragLen is the payload length of fragment fid of an n-byte
// collective payload.
func collFragLen(n, fid int) int {
	off := fid * proto.MediumFragSize
	if n <= off {
		return 0
	}
	return min(proto.MediumFragSize, n-off)
}

// combineDelay is the firmware time to sum bytes of reduction input
// at the NIC's (slow) combining rate.
func (s *Stack) combineDelay(bytes int) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(float64(bytes) / float64(s.H.P.NICReduceRate))
}

// collSumInto adds src's float64 words into dst (little-endian), the
// same reduction the host algorithms run; a trailing partial word is
// left untouched (it stays the local contribution, as on the host).
func collSumInto(dst, src []byte) {
	n := min(len(dst), len(src)) / 8 * 8
	for i := 0; i < n; i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
	}
}

// ---------------------------------------------------------------
// Firmware receive paths
// ---------------------------------------------------------------

// fwCollData handles one collective tree fragment in firmware: ack
// the hop, deduplicate, and feed the call's state machine. Frames for
// groups not yet joined locally wait for the join.
func (s *Stack) fwCollData(f *wire.Frame, m *proto.CollData) {
	key := collKey{id: m.Group, ep: m.Dst.EP}
	g := s.collGroups[key]
	if g == nil {
		if len(s.collPending[key]) < collPendingCap {
			s.collPending[key] = append(s.collPending[key], f)
		}
		return
	}
	// Hop-level ack, duplicates included: a duplicate proves the
	// sender missed the previous ack.
	s.Stats.Coll.Acks++
	s.collEmit(s.LaneOf(m.Seq, m.FragID), m.Src, &proto.CollAck{
		Src: proto.Addr{Host: s.H.Name, EP: m.Dst.EP}, Dst: m.Src,
		Group: m.Group, Seq: m.Seq, Down: m.Down, SrcRank: g.me, FragID: m.FragID,
	}, nil)
	if g.done[m.Seq] {
		s.Stats.Coll.DupFrags++
		return
	}
	c := g.calls[m.Seq]
	if c == nil {
		c = g.newCall(m.Seq, m.Op, m.Root, m.MsgLen)
	}
	if m.Down {
		s.fwCollDown(c, m, f.Data)
	} else {
		s.fwCollUp(c, m, f.Data)
	}
}

// fwCollUp assembles a child's fan-in contribution; when complete it
// counts toward the combine barrier.
func (s *Stack) fwCollUp(c *collCall, m *proto.CollData, data []byte) {
	v := c.up[m.SrcRank]
	if v == nil {
		v = &collVec{cnt: m.FragCount}
		c.up[m.SrcRank] = v
	}
	if !v.mark(m.FragID) {
		s.Stats.Coll.DupFrags++
		return
	}
	v.stash(c.n, m.Offset, data)
	if !v.done() {
		return
	}
	for _, ch := range c.children {
		if ch == m.SrcRank {
			c.haveUp++
			break
		}
	}
	s.collAdvance(c)
}

// fwCollDown handles a fan-out fragment: barrier release, bcast data,
// allreduce result, or scan prefix. Data fragments forward down-tree
// immediately (store-and-forward pipelining, no wait for the local
// post) and DMA-deposit into the posted destination.
func (s *Stack) fwCollDown(c *collCall, m *proto.CollData, data []byte) {
	if c.down == nil {
		c.down = &collVec{cnt: c.frags}
	}
	if !c.down.mark(m.FragID) {
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
		c.down.stash(c.n, m.Offset, data)
		if c.down.done() {
			c.haveDown = true
			s.collAdvance(c)
		}
	default: // bcast data, allreduce result
		s.collForwardFrag(c, m, data)
		if c.posted {
			s.collDeposit(c, m.Offset, data)
		} else {
			c.down.stash(c.n, m.Offset, data)
		}
		if c.down.done() {
			c.haveDown = true
		}
	}
}

// fwCollAck retires one outstanding hop fragment.
func (s *Stack) fwCollAck(m *proto.CollAck) {
	g := s.collGroups[collKey{id: m.Group, ep: m.Dst.EP}]
	if g == nil {
		return
	}
	c := g.calls[m.Seq]
	if c == nil {
		return // call already retired
	}
	o := c.outs[collOutKey{dst: m.SrcRank, down: m.Down, frag: m.FragID}]
	if o == nil || o.acked {
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
		s.H.E.Schedule(s.dmaDelay(0), func() { s.collFinish(c) })
	}
}

// advAllreduce: once posted and every child vector is in, combine
// (own contribution, then children in member order — arrival timing
// never changes the result) at the firmware's reduce rate, then send
// the partial up; the root's combine is the full sum, which fans out
// and deposits locally.
func (s *Stack) advAllreduce(c *collCall) {
	if !c.posted || c.haveUp != len(c.children) || c.sentUp {
		return
	}
	c.sentUp = true
	acc := make([]byte, c.n)
	copy(acc, c.contrib)
	combined := 0
	for _, ch := range c.children {
		if v := c.up[ch]; v != nil && v.data != nil {
			collSumInto(acc, v.data)
		}
		combined += c.n
	}
	c.acc = acc
	s.Stats.Coll.CombinedBytes += int64(combined)
	d := sim.Duration(s.H.P.MXFirmwareMatchCost) + s.combineDelay(combined)
	s.H.E.Schedule(d, func() {
		if c.g.me != c.root {
			s.collSendVec(c, c.parent, false, c.acc)
			return
		}
		c.haveDown, c.forwarded = true, true
		s.collFanout(c, c.acc)
		s.collDepositLocal(c)
	})
}

// advScan: once posted and the upstream prefix is in (member 0 needs
// none), add the local contribution, deposit the result, and forward
// it as the next member's prefix.
func (s *Stack) advScan(c *collCall) {
	if !c.posted || c.sentUp || (c.g.me > 0 && !c.haveDown) {
		return
	}
	c.sentUp = true
	acc := make([]byte, c.n)
	copy(acc, c.contrib)
	combined := 0
	if c.g.me > 0 {
		if c.down != nil && c.down.data != nil {
			collSumInto(acc, c.down.data)
		}
		combined = c.n
	}
	c.acc = acc
	s.Stats.Coll.CombinedBytes += int64(combined)
	d := sim.Duration(s.H.P.MXFirmwareMatchCost) + s.combineDelay(combined)
	s.H.E.Schedule(d, func() {
		if next := c.g.me + 1; next < len(c.g.members) {
			s.collSendVec(c, next, true, c.acc)
		}
		s.collDepositLocal(c)
	})
}

// collDeposit DMAs one result fragment into the posted destination;
// the last landed fragment completes the call.
func (s *Stack) collDeposit(c *collCall, off int, data []byte) {
	n := len(data)
	s.H.E.Schedule(s.dmaDelay(n), func() {
		if n > 0 && c.rbuf != nil {
			c.rbuf.WriteAt(data, c.roff+off)
			c.rbuf.WrittenByDMA()
		}
		c.landed++
		if c.landed == c.frags {
			s.collFinish(c)
		}
	})
}

// collDepositLocal deposits the whole combined accumulator (the root's
// allreduce result, a scan member's own result).
func (s *Stack) collDepositLocal(c *collCall) {
	for fid := 0; fid < c.frags; fid++ {
		off := fid * proto.MediumFragSize
		ln := collFragLen(c.n, fid)
		var d []byte
		if ln > 0 {
			d = c.acc[off : off+ln]
		}
		s.collDeposit(c, off, d)
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
		c.g.ep.pushEvent(&event{kind: evCollDone, req: c.req})
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
	g.done[c.seq] = true
	g.doneQ = append(g.doneQ, c.seq)
	if len(g.doneQ) > collDoneWindow {
		old := g.doneQ[0]
		g.doneQ = g.doneQ[1:]
		delete(g.done, old)
	}
}

// ---------------------------------------------------------------
// Hop transmission and reliability
// ---------------------------------------------------------------

// collSendVec originates every fragment of a payload to one member
// (fragments already sent — e.g. forwarded at arrival — are skipped).
func (s *Stack) collSendVec(c *collCall, dst int, down bool, payload []byte) {
	for fid := 0; fid < c.frags; fid++ {
		off := fid * proto.MediumFragSize
		ln := collFragLen(c.n, fid)
		var data []byte
		if ln > 0 {
			data = make([]byte, ln)
			copy(data, payload[off:off+ln])
		}
		s.collOutSend(c, collOutKey{dst: dst, down: down, frag: fid}, &proto.CollData{
			Src: c.g.ep.Addr(), Dst: c.g.members[dst], Group: c.g.id, Seq: c.seq,
			Op: c.op, Down: down, SrcRank: c.g.me, Root: c.root, MsgLen: c.n,
			FragID: fid, FragCount: c.frags, Offset: off,
		}, data)
	}
}

// collFanout sends a payload to every tree child.
func (s *Stack) collFanout(c *collCall, payload []byte) {
	for _, child := range c.children {
		s.collSendVec(c, child, true, payload)
	}
}

// collForwardFrag relays one arrived down fragment to every child
// immediately — per-fragment store-and-forward, so deep trees
// pipeline instead of waiting for whole payloads.
func (s *Stack) collForwardFrag(c *collCall, m *proto.CollData, data []byte) {
	for _, child := range c.children {
		key := collOutKey{dst: child, down: true, frag: m.FragID}
		if c.outs[key] != nil {
			continue
		}
		var payload []byte
		if len(data) > 0 {
			payload = make([]byte, len(data))
			copy(payload, data)
		}
		s.collOutSend(c, key, &proto.CollData{
			Src: c.g.ep.Addr(), Dst: c.g.members[child], Group: c.g.id, Seq: c.seq,
			Op: c.op, Down: true, SrcRank: c.g.me, Root: c.root, MsgLen: m.MsgLen,
			FragID: m.FragID, FragCount: m.FragCount, Offset: m.Offset,
		}, payload)
	}
}

// collOutSend transmits one hop fragment and arms its retransmission
// timer; the hop retires on the peer's CollAck.
func (s *Stack) collOutSend(c *collCall, key collOutKey, m *proto.CollData, payload []byte) {
	if c.outs[key] != nil {
		return
	}
	o := &collOut{m: m, payload: payload, lane: s.LaneOf(m.Seq, m.FragID)}
	c.outs[key] = o
	c.unacked++
	if m.Down {
		s.Stats.Coll.DownFrames++
	} else {
		s.Stats.Coll.UpFrames++
	}
	s.collEmit(o.lane, m.Dst, m, payload)
	s.armCollRtx(o)
}

// armCollRtx (re)arms one hop fragment's retransmission timer with
// the firmware's standard backoff.
func (s *Stack) armCollRtx(o *collOut) {
	o.timer = s.H.E.Schedule(s.RtxTimeout(o.m.Dst, o.attempts), func() {
		if o.acked {
			return
		}
		o.attempts++
		s.Stats.Coll.Retransmits++
		s.TraceRetransmit(o.m.Seq, o.m.FragID, o.lane)
		s.collEmit(o.lane, o.m.Dst, o.m, o.payload)
		s.armCollRtx(o)
	})
}

// collEmit puts one collective frame on the wire — or, between
// endpoints of the same host, through the NIC's internal loopback
// (fixed NIC latency, no wire).
func (s *Stack) collEmit(lane int, dst proto.Addr, msg any, payload []byte) {
	if dst.Host == s.H.Name {
		f := &wire.Frame{Data: payload, WireLen: len(payload) + s.H.P.OMXHeaderBytes, Msg: msg}
		s.H.E.Schedule(sim.Duration(s.H.P.NICFixedLatency), func() { s.firmwareRx(lane, f) })
		return
	}
	s.TransmitOn(lane, dst, msg, payload)
}
