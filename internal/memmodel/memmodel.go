// Package memmodel implements the processor memcpy cost model.
//
// A copy's rate depends on where its operands currently live (the
// hostmem warmth tracker), on whether the source was just written by
// device DMA (snoop penalty — unless the platform has Direct Cache
// Access and the deposit was pushed into the consuming core's LLC),
// and on whether the data has to cross the front-side bus between
// sockets. Rates are the calibrated platform constants.
//
// Memcpy really moves the payload bytes, so every higher layer can be
// integrity-checked end to end.
package memmodel

import (
	"fmt"

	"omxsim/internal/hostmem"
	"omxsim/platform"
	"omxsim/sim"
)

// Model computes memcpy durations for one host.
type Model struct {
	P *platform.Platform
}

// New returns a model using p's constants.
func New(p *platform.Platform) *Model { return &Model{P: p} }

// RateFor reports the copy rate the model would use right now for a
// copy of n bytes from src to dst executed on the given core, before
// any warmth update. Exposed for diagnostics and tests.
func (m *Model) RateFor(dst, src *hostmem.Buffer, n, core int) platform.Rate {
	p := m.P
	if src.DCAResident(core) {
		// Direct Cache Access pushed the deposit into this core's own
		// LLC: the pushed fraction reads at L2 speed, the remainder
		// (past the push fraction or the LLC budget) still pays the
		// snoop-and-fetch path. Harmonic blend of the two segments.
		warm := p.DCAPushFraction * float64(min(src.DCALen(), n)) / float64(n)
		l2 := float64(p.MemcpyL2Rate)
		snoop := float64(p.MemcpyColdRate) * p.DMAColdPenalty
		return platform.Rate(1 / (warm/l2 + (1-warm)/snoop))
	}
	if src.DCAWrongSocket(core) {
		// The deposit was pushed into a cache on the other socket: the
		// consumer must snoop dirty lines out across the FSB, which is
		// slower than fetching a plain memory-resident DMA deposit —
		// DCA aimed at the wrong socket is worse than no DCA at all.
		return platform.Rate(float64(p.MemcpyColdRate) * p.DCAWrongSocketPenalty)
	}
	if src.DMAColdFor(n) {
		// Freshly device-DMA'd source: every line must be snooped and
		// fetched from memory, which dominates the copy no matter how
		// warm the destination is. This is the bottom-half receive
		// copy rate at the heart of the paper.
		return platform.Rate(float64(p.MemcpyColdRate) * p.DMAColdPenalty)
	}
	// A copy bigger than half the L2 evicts its own working set as it
	// streams, so cache warmth cannot be exploited.
	big := int64(n) > p.L2Size/2
	var rate platform.Rate
	switch {
	case src.RemoteSocket(core):
		// Data lives on the other socket: coherence traffic over the
		// FSB dominates; Clovertown has no fast cache-to-cache path.
		// Only the source side is consulted here — deliberately
		// asymmetric with the local branches: the cross-socket cost is
		// snooping the producer's dirty lines over the FSB, so what
		// matters is whether they are still in the remote cache.
		// Destination write-allocate traffic is local to this socket
		// and already folded into the calibrated CrossSocket rates.
		if !big && src.WarmSpanL2(src.LastCore(), n) {
			rate = p.MemcpyCrossSocketWarm
		} else {
			rate = p.MemcpyCrossSocketCold
		}
	case !big && src.WarmSpanL1(core, n) && dst.WarmSpanL1(core, n):
		rate = p.MemcpyL1Rate
	case !big && src.WarmSpanL2(core, n) && dst.WarmSpanL2(core, n):
		rate = p.MemcpyL2Rate
	case !big && (src.WarmSpanL2(core, n) || dst.WarmSpanL2(core, n)):
		rate = p.MemcpyHalfWarmRate
	default:
		rate = p.MemcpyColdRate
	}
	if big && rate > p.MemcpyBigRate {
		rate = p.MemcpyBigRate
	}
	return rate
}

// CopyTime reports the duration of copying n bytes from src to dst on
// the given core without performing the copy or updating warmth.
func (m *Model) CopyTime(dst, src *hostmem.Buffer, n, core int) sim.Duration {
	if n < 0 {
		panic(fmt.Sprintf("memmodel: negative copy size %d", n))
	}
	rate := m.RateFor(dst, src, n, core)
	return sim.Duration(m.P.MemcpyCallCost) + sim.Duration(float64(n)/float64(rate))
}

// Memcpy copies n bytes from src[srcOff:] to dst[dstOff:], updates the
// warmth clocks, and returns the simulated duration of the copy. The
// caller is responsible for charging that duration to a CPU core.
func (m *Model) Memcpy(dst *hostmem.Buffer, dstOff int, src *hostmem.Buffer, srcOff, n, core int) sim.Duration {
	d := m.CopyTime(dst, src, n, core)
	hostmem.Copy(dst, dstOff, src, srcOff, n)
	src.Touch(core, n)
	dst.Touch(core, n)
	return d
}

// RawTime reports the duration of copying n bytes at a fixed rate plus
// the per-call overhead. Used by microbenchmarks that control cache
// state explicitly.
func (m *Model) RawTime(n int, rate platform.Rate) sim.Duration {
	return sim.Duration(m.P.MemcpyCallCost) + sim.Duration(float64(n)/float64(rate))
}
