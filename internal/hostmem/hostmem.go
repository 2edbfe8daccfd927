// Package hostmem models host memory: buffers that carry real payload
// bytes, page pinning state, and a cache-warmth tracker.
//
// Warmth is tracked with a streaming-LRU approximation: every L2 cache
// domain (and every core's L1) has a monotonically increasing byte
// clock advanced by each access. A buffer is warm in a cache if the
// traffic since its last touch, plus its own footprint, still fits in
// that cache. This one-line model reproduces the cache falloffs the
// paper observes (e.g. the shared-memory ping-pong of Fig. 10 drops off
// beyond 1 MiB messages: four buffers of that size stream through one
// 4 MiB L2).
package hostmem

import (
	"bytes"
	"fmt"

	"omxsim/platform"
)

// Memory is the physical memory and cache state of one host.
type Memory struct {
	P *platform.Platform

	nextAddr  int64
	l2Clocks  []int64 // per L2 domain
	l1Clocks  []int64 // per core
	allocated int64

	// wrapFree holds the buffers Unwrap gave back, for Wrap to reuse.
	wrapFree []*Buffer
}

// New returns the memory system for a host described by p.
func New(p *platform.Platform) *Memory {
	return &Memory{
		P:        p,
		nextAddr: 0x1000,
		l2Clocks: make([]int64, p.L2Domains()),
		l1Clocks: make([]int64, p.NumCores()),
	}
}

// Allocated reports total bytes allocated so far.
func (m *Memory) Allocated() int64 { return m.allocated }

// Buffer is a contiguous, addressable region of host memory holding
// real bytes. Its storage is allocated on first write; until then the
// buffer reads as zeros, so a simulation pays only for the payload
// bytes it actually writes. Every size and warmth computation uses the
// logical size, whether or not the storage exists.
//
// A sender lends a buffer to the stack for the life of a zero-copy
// send (Lend, then Return once the peer has consumed it). While it is
// lent, View hands out read-only slices of its storage for frames to
// carry. A write that overlaps a range viewed while lent first moves
// the buffer onto a private copy of its storage, so every view keeps
// the bytes it had when it was taken; writes elsewhere, and every
// write after the last Return, go to the storage in place.
//
// Buffers remember which core last touched them (for warmth and
// cross-socket decisions), how much of them the current warm episode
// actually covers, whether a device DMA produced their current
// contents (and how much of that deposit has been snooped back), any
// pending DCA push, their NUMA home socket, and their pin refcount.
type Buffer struct {
	Mem  *Memory
	Addr int64

	data     []byte // nil until the first write
	size     int
	readOnly bool // Wrap: the bytes belong to someone else

	// lent counts outstanding Lend calls. [viewLo, viewHi) bounds the
	// Views of data taken while lent; a write into that range copies
	// data first. The range is empty when no view of data can be live.
	lent           int
	viewLo, viewHi int

	pinRef int
	home   int // NUMA home socket of the backing pages

	lastCore    int   // -1 until first touch
	l1TouchMark int64 // core L1 clock at last touch
	l2TouchMark int64 // domain L2 clock at last touch
	// covL2 bounds, per L2 domain, how many bytes of the buffer that
	// domain's touches have covered; covL1 does the same for the last
	// touching core's L1 (reset when a different core takes over). A
	// 4 kiB fragment touch can therefore never make a whole multi-MB
	// buffer copy out warm, while repeated chunked touches accumulate
	// to full coverage.
	covL2 []int
	covL1 int

	dmaCold    bool // device-DMA'd lines not yet snooped remain
	dmaSnooped int  // bytes touched (snooped back) since the DMA write

	// DCA push state: dcaDom < 0 means no deposit is pending.
	dcaDom  int   // L2 domain the last device deposit was pushed into
	dcaLen  int   // bytes actually pushed (bounded by DCALLCBudget)
	dcaMark int64 // target domain's L2 clock at push time
}

// Alloc returns a new buffer of the given size, homed on the chipset's
// local socket (the default NUMA placement). It reads as zero; storage
// is allocated on first write.
func (m *Memory) Alloc(size int) *Buffer {
	return m.AllocOn(size, m.P.DMAHomeSocket)
}

// AllocOn returns a new buffer of the given size homed on the given
// NUMA node (socket). It reads as zero; storage is allocated on first
// write. Device DMA deposits into remote-socket buffers pay the
// platform's remote-DMA penalty.
func (m *Memory) AllocOn(size, socket int) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("hostmem: negative alloc %d", size))
	}
	if socket < 0 || socket >= m.P.Sockets {
		panic(fmt.Sprintf("hostmem: alloc on socket %d of %d", socket, m.P.Sockets))
	}
	return &Buffer{
		Mem: m, Addr: m.place(size), size: size,
		lastCore: -1, home: socket, dcaDom: -1,
		covL2: make([]int, m.P.L2Domains()),
	}
}

// place reserves the address range of a size-byte buffer and counts
// it as allocated.
func (m *Memory) place(size int) int64 {
	addr := m.nextAddr
	m.nextAddr += int64(size) + int64(m.P.PageSize) // pad to keep addresses distinct
	m.allocated += int64(size)
	return addr
}

// Wrap returns a read-only buffer over p, placed and accounted like
// Alloc(len(p)): it takes the next address range and counts as
// allocated whether it is new or one Unwrap gave back, so addresses
// and warmth never depend on the reuse. It shares p rather than
// copying it, so p must not change while the buffer is in use; a
// write into the buffer panics. The receive path wraps each frame's
// payload in its skbuff and unwraps it when the skbuff is freed.
func (m *Memory) Wrap(p []byte) *Buffer {
	k := len(m.wrapFree)
	if k == 0 {
		b := m.Alloc(len(p))
		b.data, b.readOnly = p, true
		return b
	}
	b := m.wrapFree[k-1]
	m.wrapFree[k-1] = nil
	m.wrapFree = m.wrapFree[:k-1]
	covL2 := b.covL2
	clear(covL2)
	*b = Buffer{}
	b.Mem, b.Addr, b.size = m, m.place(len(p)), len(p)
	b.data, b.readOnly = p, true
	b.lastCore, b.home, b.dcaDom = -1, m.P.DMAHomeSocket, -1
	b.covL2 = covL2
	return b
}

// released is the size of a buffer Unwrap gave back: every range
// check on it fails.
const released = -1

// Unwrap gives back a buffer Wrap made, once nothing reads it any
// more; the next Wrap reuses it. The released buffer drops its bytes
// and has no size, so a read through a stale pointer panics until
// the buffer is reused. Unwrapping a buffer Wrap did not make, or one
// already given back, panics.
func (m *Memory) Unwrap(b *Buffer) {
	switch {
	case b.size == released:
		panic("hostmem: unwrap of a released buffer")
	case !b.readOnly || b.Mem != m:
		panic("hostmem: unwrap of a buffer this memory did not wrap")
	}
	b.data, b.size = nil, released
	m.wrapFree = append(m.wrapFree, b)
}

// HomeSocket reports the NUMA node the buffer's pages live on.
func (b *Buffer) HomeSocket() int { return b.home }

// Size reports the buffer length in bytes.
func (b *Buffer) Size() int { return b.size }

// Pages reports the number of pages the buffer spans (for pin costs).
func (b *Buffer) Pages() int {
	ps := b.Mem.P.PageSize
	return (b.size + ps - 1) / ps
}

// Pin increments the pin refcount and reports whether this call
// actually pinned the pages (refcount went 0→1), i.e. whether the
// caller must pay the pinning cost.
func (b *Buffer) Pin() bool {
	b.pinRef++
	return b.pinRef == 1
}

// Unpin decrements the pin refcount. It panics on underflow.
func (b *Buffer) Unpin() {
	if b.pinRef == 0 {
		panic("hostmem: unpin of unpinned buffer")
	}
	b.pinRef--
}

// Pinned reports whether the buffer is currently pinned.
func (b *Buffer) Pinned() bool { return b.pinRef > 0 }

// Touch records an access of n bytes by the given core, updating the
// warmth clocks. Use n = the bytes actually read or written: warmth
// coverage extends only over the touched bytes (a domain's touches
// accumulate), and a pending device-DMA deposit is snooped back only
// up to n — a partial read leaves the untouched remainder carrying
// the snoop penalty.
func (b *Buffer) Touch(core int, n int) {
	m := b.Mem
	dom := m.P.L2DomainOf(core)
	m.l2Clocks[dom] += int64(n)
	m.l1Clocks[core] += int64(n)
	span := min(n, b.size)
	b.covL2[dom] = min(b.size, b.covL2[dom]+span)
	if b.lastCore == core {
		b.covL1 = min(b.size, b.covL1+span)
	} else {
		b.covL1 = span
	}
	b.lastCore = core
	b.l2TouchMark = m.l2Clocks[dom]
	b.l1TouchMark = m.l1Clocks[core]
	if b.dmaCold {
		b.dmaSnooped += n
		if b.dmaSnooped >= b.size {
			b.dmaCold = false
			b.dmaSnooped = 0
		}
	}
	b.dcaDom = -1 // pushed lines, once read, are ordinary warmth
}

// WrittenByDMA marks the buffer's contents as produced by device DMA:
// cold to every cache and carrying the snoop penalty on first read.
func (b *Buffer) WrittenByDMA() {
	b.lastCore = -1
	b.clearCoverage()
	b.dmaCold = true
	b.dmaSnooped = 0
	b.dcaDom = -1
}

// clearCoverage forgets all warm-span coverage (the buffer's cached
// lines were invalidated by a device write).
func (b *Buffer) clearCoverage() {
	for i := range b.covL2 {
		b.covL2[i] = 0
	}
	b.covL1 = 0
}

// WrittenByDCA marks a device deposit of n bytes steered by Direct
// Cache Access toward the given core: up to the platform's LLC budget
// of the deposit is pushed directly into that core's L2 domain
// (displacing other lines there — the push advances the domain's
// traffic clock), and no snoop penalty is owed by a consumer in that
// domain. Callers gate on Platform.HasDCA.
func (b *Buffer) WrittenByDCA(targetCore, n int) {
	m := b.Mem
	dom := m.P.L2DomainOf(targetCore)
	push := min(n, b.size)
	if budget := int(m.P.DCALLCBudget); budget > 0 && push > budget {
		push = budget
	}
	m.l2Clocks[dom] += int64(push)
	b.lastCore = -1
	b.clearCoverage()
	b.dmaCold = false
	b.dmaSnooped = 0
	b.dcaDom = dom
	b.dcaLen = push
	b.dcaMark = m.l2Clocks[dom]
}

// DMACold reports whether any device-DMA'd lines remain unsnooped.
func (b *Buffer) DMACold() bool { return b.dmaCold }

// DMAColdFor reports whether a copy of n bytes out of the buffer
// would still hit unsnooped device-written lines: true while cold
// bytes remain and the copy reaches beyond the bytes already read
// back. A Touch covering only a prefix of a deposit therefore does
// not launder the snoop penalty off the untouched remainder.
func (b *Buffer) DMAColdFor(n int) bool {
	return b.dmaCold && n > b.dmaSnooped
}

// DCADomain reports the L2 domain the last device deposit was pushed
// into by DCA, or -1 when no pushed deposit is pending.
func (b *Buffer) DCADomain() int { return b.dcaDom }

// DCALen reports the bytes of the pending deposit that were actually
// pushed into the target cache (bounded by the platform budget).
func (b *Buffer) DCALen() int {
	if b.dcaDom < 0 {
		return 0
	}
	return b.dcaLen
}

// DCAResident reports whether the pushed lines of a pending DCA
// deposit are still in the L2 domain reachable from the given core:
// the core must share the target domain and the traffic since the
// push, plus the pushed footprint, must still fit the cache.
func (b *Buffer) DCAResident(core int) bool {
	if b.dcaDom < 0 {
		return false
	}
	m := b.Mem
	if m.P.L2DomainOf(core) != b.dcaDom {
		return false
	}
	traffic := m.l2Clocks[b.dcaDom] - b.dcaMark
	return traffic+int64(b.dcaLen) <= m.P.L2Size
}

// DCAWrongSocket reports whether a pending DCA deposit's pushed lines
// sit dirty in a cache on a different socket than the given core —
// the consumer must snoop them out across the FSB, which is worse
// than never having pushed them at all. Evicted deposits (written
// back to memory) are no longer wrong-socket.
func (b *Buffer) DCAWrongSocket(core int) bool {
	if b.dcaDom < 0 {
		return false
	}
	m := b.Mem
	if m.P.SocketOfL2Domain(b.dcaDom) == m.P.SocketOf(core) {
		return false
	}
	traffic := m.l2Clocks[b.dcaDom] - b.dcaMark
	return traffic+int64(b.dcaLen) <= m.P.L2Size
}

// LastCore reports the core that last touched the buffer (-1 if none).
func (b *Buffer) LastCore() int { return b.lastCore }

// WarmLen reports how many bytes of the buffer the last touching
// core's L2 domain has covered; 0 when the buffer was never touched
// (or a device write cleared the coverage).
func (b *Buffer) WarmLen() int {
	if b.lastCore < 0 {
		return 0
	}
	return b.covL2[b.Mem.P.L2DomainOf(b.lastCore)]
}

// WarmL2 reports whether the buffer is still resident in the L2 cache
// reachable from the given core.
func (b *Buffer) WarmL2(core int) bool {
	if b.lastCore < 0 {
		return false
	}
	m := b.Mem
	if !m.P.SameL2(core, b.lastCore) {
		return false
	}
	dom := m.P.L2DomainOf(core)
	traffic := m.l2Clocks[dom] - b.l2TouchMark
	return traffic+int64(b.size) <= m.P.L2Size
}

// WarmSpanL2 reports whether a copy of n bytes out of the buffer can
// run at L2 speed from the given core: the buffer must be L2-resident
// there AND the domain's accumulated coverage must span at least n
// bytes.
func (b *Buffer) WarmSpanL2(core, n int) bool {
	return b.WarmL2(core) && n <= b.covL2[b.Mem.P.L2DomainOf(core)]
}

// WarmL1 reports whether the buffer is still resident in the given
// core's L1 cache.
func (b *Buffer) WarmL1(core int) bool {
	if b.lastCore != core {
		return false
	}
	m := b.Mem
	traffic := m.l1Clocks[core] - b.l1TouchMark
	return traffic+int64(b.size) <= m.P.L1Size
}

// WarmSpanL1 is WarmL1 with the same coverage bound as WarmSpanL2,
// against the last touching core's accumulated L1 coverage.
func (b *Buffer) WarmSpanL1(core, n int) bool {
	return b.WarmL1(core) && n <= b.covL1
}

// RemoteSocket reports whether the buffer's data was last touched by a
// core on a different socket than the given core (triggering FSB
// coherence traffic on Clovertown).
func (b *Buffer) RemoteSocket(core int) bool {
	if b.lastCore < 0 {
		return false
	}
	return !b.Mem.P.SameSocket(core, b.lastCore)
}

// WriteAt copies p into the buffer at off, allocating the storage on
// first write. It panics if the range falls outside the buffer or the
// buffer is read-only.
func (b *Buffer) WriteAt(p []byte, off int) {
	b.check(off, len(p))
	if len(p) > 0 {
		copy(b.writable(off, len(p))[off:], p)
	}
}

// ReadAt fills p with the buffer's bytes at off: zeros while the
// buffer is unwritten. It panics if the range falls outside the buffer.
func (b *Buffer) ReadAt(p []byte, off int) {
	b.check(off, len(p))
	if b.data == nil {
		clear(p)
	} else {
		copy(p, b.data[off:])
	}
}

// Bytes returns the buffer's contents as one slice, allocating the
// storage first if the buffer is unwritten. It counts as a write of
// the whole buffer: a lent buffer with live views moves onto a copy
// of its storage first. Write through the slice straight away and
// never keep it across a send, since a later Bytes, WriteAt, Copy or
// Fill may replace the storage it points into. The slice of a Wrap
// buffer is the wrapped one and must not be modified.
func (b *Buffer) Bytes() []byte {
	if b.readOnly {
		return b.data
	}
	return b.writable(0, b.size)
}

// Copy copies n bytes from src at sOff to dst at dOff. An unwritten
// source reads as zeros, so it only has to clear the range when dst
// already holds storage. It panics if either range falls outside its
// buffer or it would write into a read-only dst.
func Copy(dst *Buffer, dOff int, src *Buffer, sOff, n int) {
	dst.check(dOff, n)
	src.check(sOff, n)
	switch {
	case n == 0:
	case src.data != nil:
		copy(dst.writable(dOff, n)[dOff:dOff+n], src.data[sOff:sOff+n])
	case dst.data != nil:
		clear(dst.writable(dOff, n)[dOff : dOff+n])
	}
}

// zeroBlock backs the views of unwritten buffers: read-only, shared,
// and large enough for any pull fragment.
var zeroBlock [64 << 10]byte

// Lend marks the buffer as lent to a zero-copy send, which may then
// take Views of it. Every Lend needs one Return.
func (b *Buffer) Lend() { b.lent++ }

// Return ends one Lend. Once the last one is returned no view of the
// buffer may still be read, so later writes go to the storage in
// place. It panics if the buffer is not lent.
func (b *Buffer) Return() {
	if b.lent == 0 {
		panic("hostmem: return of a buffer that is not lent")
	}
	b.lent--
	if b.lent == 0 {
		b.viewLo, b.viewHi = 0, 0
	}
}

// View returns the n bytes at off as a read-only slice, capped at its
// length, without copying them: a sub-slice of the storage, or of a
// shared zero block while the buffer is unwritten (so a view allocates
// no storage). The bytes it shows never change, because a write into
// a viewed range while the buffer is lent first moves the buffer onto
// a copy. It panics if the buffer is not lent or the range falls
// outside it.
func (b *Buffer) View(off, n int) []byte {
	if b.lent == 0 {
		panic("hostmem: view of a buffer that is not lent")
	}
	b.check(off, n)
	if b.data == nil {
		if n > len(zeroBlock) {
			return make([]byte, n)
		}
		return zeroBlock[:n:n]
	}
	if b.viewLo >= b.viewHi {
		b.viewLo, b.viewHi = off, off+n
	} else {
		b.viewLo, b.viewHi = min(b.viewLo, off), max(b.viewHi, off+n)
	}
	return b.data[off : off+n : off+n]
}

// check panics unless [off, off+n) lies within the buffer.
func (b *Buffer) check(off, n int) {
	if off < 0 || n < 0 || off > b.size-n {
		if b.size == released {
			panic("hostmem: use of a released wrap buffer")
		}
		panic(fmt.Sprintf("hostmem: range [%d:%d] outside a %d-byte buffer", off, off+n, b.size))
	}
}

// writable returns the storage for a write of n bytes at off,
// allocating it on first use. If the write overlaps a range a lent
// buffer has handed out views of, the storage is replaced by a copy
// first, so those views keep their bytes.
func (b *Buffer) writable(off, n int) []byte {
	if b.readOnly {
		panic("hostmem: write into a read-only buffer")
	}
	switch {
	case b.data == nil:
		b.data = make([]byte, b.size)
	case off < b.viewHi && b.viewLo < off+n:
		b.data = bytes.Clone(b.data)
		b.viewLo, b.viewHi = 0, 0
	}
	return b.data
}

// Fill writes a deterministic pattern derived from seed into the
// buffer (test and example helper; does not touch warmth clocks). The
// pattern repeats every 256 bytes, so one period is written and then
// doubled.
func (b *Buffer) Fill(seed byte) {
	d := b.writable(0, b.size)
	n := min(len(d), 256)
	for i := range n {
		d[i] = seed + byte(i*131)
	}
	for ; n < len(d); n *= 2 {
		copy(d[n:], d[:n])
	}
}

// Equal reports whether two buffers hold identical bytes. It never
// allocates storage: an unwritten buffer equals an all-zero one.
func Equal(a, b *Buffer) bool {
	switch {
	case a.size != b.size:
		return false
	case a.data == nil:
		return isZero(b.data)
	case b.data == nil:
		return isZero(a.data)
	}
	return bytes.Equal(a.data, b.data)
}

// isZero reports whether every byte of p is zero.
func isZero(p []byte) bool { return bytes.Count(p, []byte{0}) == len(p) }
