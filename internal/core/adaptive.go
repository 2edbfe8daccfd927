package core

import (
	"omxsim/internal/cpu"
	"omxsim/sim"
)

// The host side of the self-tuning transport tier (Config.Adaptive).
// RTT-derived timeouts and the per-peer AIMD pull windows live in the
// shared transport core (proto.Transport); what is Open-MX's own is
// the per-transfer window bookkeeping and — on multi-NIC hosts —
// bottom-half work steered off saturated cores at quantized epochs
// from CPU-ledger snapshots. Everything here reads only simulated
// state, so adaptive runs stay bit-reproducible.

// Steering epochs: decisions are taken at most once per steerEpoch of
// simulated time, each from the delta of two ledger snapshots. A NIC's
// bottom half moves only when its interrupt core spent nearly the
// whole epoch busy (steerSrcBusyFrac) with a real softirq share
// (steerSrcSoftFrac), contended by other work or a second NIC, and an
// almost-idle target core exists (steerDstBusyFrac).
const (
	steerEpoch       = 5 * sim.Millisecond
	steerSrcBusyFrac = 0.95
	steerSrcSoftFrac = 0.40
	steerShareFrac   = 0.30
	steerDstBusyFrac = 0.25
)

// traceCwnd publishes a transfer's window to the trace stream when it
// changed since the last sample.
func (s *Stack) traceCwnd(lp *largePull) {
	if s.Trace == nil || lp.AW == nil {
		return
	}
	if w := lp.AW.Window(); w != lp.lastWin {
		lp.lastWin = w
		s.TraceCounter("cwnd", float64(w))
	}
}

// maybeSteer runs the steering decision when the current time has
// crossed the next quantized epoch boundary. It is called from the
// receive callback, so an idle host never schedules anything and the
// simulation still drains to completion.
func (s *Stack) maybeSteer(now sim.Time) {
	if s.steerEvery == 0 || now < s.steerNext {
		return
	}
	s.steerNext = (now/sim.Time(s.steerEvery) + 1) * sim.Time(s.steerEvery)
	cur := make([][cpu.NumCategories]sim.Duration, len(s.H.Sys.Cores))
	for i, c := range s.H.Sys.Cores {
		for _, cat := range cpu.Categories() {
			cur[i][cat] = c.BusyNs(cat)
		}
	}
	prev, prevAt := s.steerPrev, s.steerLastAt
	s.steerPrev, s.steerLastAt = cur, now
	if prev == nil {
		return // first boundary: baseline only
	}
	window := sim.Duration(now - prevAt)
	if window <= 0 {
		return
	}
	// Per-core busy deltas over the epoch. A mid-run ResetAccounting
	// (benchmark phases) makes deltas negative; skip the epoch.
	soft := make([]sim.Duration, len(cur))
	total := make([]sim.Duration, len(cur))
	for i := range cur {
		for _, cat := range cpu.Categories() {
			d := cur[i][cat] - prev[i][cat]
			if d < 0 {
				return
			}
			total[i] += d
			if cat == cpu.BHProc || cat == cpu.BHCopy || cat == cpu.IOATSubmit {
				soft[i] += d
			}
		}
	}
	// Source: the most loaded interrupt core (lowest id on ties), its
	// lanes counted to require real contention before moving one.
	src := -1
	for _, n := range s.H.NICs {
		if c := n.IRQCore; src < 0 || soft[c] > soft[src] || (soft[c] == soft[src] && c < src) {
			src = c
		}
	}
	if src < 0 {
		return
	}
	lanesOnSrc := 0
	for _, n := range s.H.NICs {
		if n.IRQCore == src {
			lanesOnSrc++
		}
	}
	other := total[src] - soft[src]
	saturated := float64(total[src]) >= steerSrcBusyFrac*float64(window)
	softEnough := float64(soft[src]) >= steerSrcSoftFrac*float64(window)
	contended := lanesOnSrc > 1 || float64(other) >= steerShareFrac*float64(window)
	if !saturated || !softEnough || !contended {
		return
	}
	// Target: the least-busy core that serves no NIC already (lowest
	// id on ties) and is close to idle.
	irq := make(map[int]bool, len(s.H.NICs))
	for _, n := range s.H.NICs {
		irq[n.IRQCore] = true
	}
	dst := -1
	for i := range total {
		if irq[i] {
			continue
		}
		if dst < 0 || total[i] < total[dst] {
			dst = i
		}
	}
	if dst < 0 || float64(total[dst]) > steerDstBusyFrac*float64(window) {
		return
	}
	// Move the highest lane served by the saturated core; lane 0 stays
	// anchored whenever any other lane qualifies. The bottom half
	// resolves IRQCore at the start of each run, so the move takes
	// effect at the next interrupt.
	for lane := len(s.H.NICs) - 1; lane >= 0; lane-- {
		if s.H.NICs[lane].IRQCore == src {
			s.H.NICs[lane].IRQCore = dst
			return
		}
	}
}
