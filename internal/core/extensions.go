package core

import (
	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/ioat"
	"omxsim/platform"
	"omxsim/sim"
)

// This file implements the paper's Section V/VI "future work" items,
// each behind a Config knob so the ablation benchmarks can quantify
// them:
//
//   - threshold auto-tuning from startup microbenchmarks (AutoTune);
//   - copying the head of a large message with memcpy to warm the
//     target application's cache before switching to I/OAT
//     (Config.HybridWarmupBytes);
//   - predicting synchronous copy completion and sleeping instead of
//     busy-polling (Config.PredictiveSleep), applicable in process
//     context (the shared-memory path — bottom halves cannot sleep);
//   - striping one local copy across multiple DMA channels
//     (Config.StripeChannels; the paper's reference [22] reports
//     ≈+40 % from using all four channels).

// Thresholds is the full set of offload/protocol thresholds the
// adaptive autotuner derives from the platform's cost curves. The
// paper fixes all four by hand (Section III/IV: 1 kB fragments, 64 kB
// offload floor, 32 kB rendezvous switch, 32 kB local I/OAT switch);
// ProbeThresholds recovers them from first principles so a different
// modelled platform re-tunes itself.
type Thresholds struct {
	// IOATMinFrag / IOATMinMsg gate the asynchronous receive offload
	// (paper defaults 1 kB / 64 kB).
	IOATMinFrag int
	IOATMinMsg  int
	// LargeThreshold is the eager→rendezvous protocol switch (paper
	// default 32 kB).
	LargeThreshold int
	// ShmIOATThreshold is the local one-copy memcpy→I/OAT switch
	// (paper default 32 kB, Figure 10).
	ShmIOATThreshold int
}

// ProbeThresholds runs the Section VI startup microbenchmarks against
// the platform's cost models and picks every crossover point:
//
//   - IOATMinFrag / IOATMinMsg exactly as AutoTune always has;
//   - LargeThreshold where the rendezvous protocol's fixed costs
//     (request/ack handshake round trip plus destination pinning) are
//     amortized by the copy it saves — eager delivery crosses payload
//     memory twice (NIC ring and then ring→user), the pull protocol
//     once, directly into the pinned destination;
//   - ShmIOATThreshold where a blocking I/OAT copy (start latency,
//     doorbell, per-page descriptor setup, engine rate) overtakes the
//     processor copy of the local one-copy path.
//
// Both new probes scan at page granularity, the unit the driver pins
// and the engine's descriptors address.
func ProbeThresholds(p *platform.Platform) Thresholds {
	t := Thresholds{}
	t.IOATMinFrag, t.IOATMinMsg = AutoTune(p)

	pageNs := func(per int64, n int) float64 {
		return float64(per) * float64((n+p.PageSize-1)/p.PageSize)
	}
	// One-way software latency of a control frame: NIC store-and-DMA on
	// both ends, the wire, interrupt delivery, and the driver's generic
	// + protocol processing of the frame.
	oneWayNs := float64(2*p.NICFixedLatency + p.WirePropagation + p.IRQLatency +
		p.SkbPerFrameCost + p.OMXRecvCallbackCost)
	// Rendezvous handshake: the request travels forward, the first pull
	// request back, plus the receiver's syscall/event bookkeeping.
	handshakeNs := 2*oneWayNs + float64(p.SyscallCost+p.OMXEventCost+p.OMXLibPickupCost)
	// The half-warm processor copy is the yardstick for both probes:
	// the eager ring is constantly reused (ring→user copy), and the
	// typical local one-copy has one side warm.
	halfWarmMemcpyNs := func(n int) float64 {
		return float64(p.MemcpyCallCost) + float64(n)/float64(p.MemcpyHalfWarmRate)
	}
	// Copy the eager path pays on top of the pull path: the ring→user
	// library copy.
	rndvExtraNs := func(n int) float64 {
		return handshakeNs + pageNs(p.PinPerPage, n)
	}
	// The probe is bounded by the eager path's hard capacity (the
	// 64-bit per-message fragment bitmaps): past it, rendezvous is
	// mandatory whatever the cost curves say. Dispatch sends messages
	// *strictly larger* than the threshold through rendezvous, so the
	// threshold is one page below the probed crossover — the largest
	// size where eager still wins.
	t.LargeThreshold = probePages(p, maxEagerBytes, func(n int) bool {
		return rndvExtraNs(n) <= halfWarmMemcpyNs(n)
	}) - p.PageSize

	// Local one-copy: processor memcpy versus a blocking I/OAT copy
	// of page-sized descriptors.
	ioatShmNs := func(n int) float64 {
		return float64(p.IOATStartLatency+p.IOATDoorbellCost) +
			pageNs(p.IOATPerDescSubmit+p.IOATDescSetup, n) +
			float64(n)/float64(p.IOATEngineRate)
	}
	t.ShmIOATThreshold = probePages(p, 16<<20, func(n int) bool {
		return ioatShmNs(n) <= halfWarmMemcpyNs(n)
	})
	return t
}

// probePages returns the smallest page multiple (up to limit) where
// better holds, or limit when it never does.
func probePages(p *platform.Platform, limit int, better func(n int) bool) int {
	for n := p.PageSize; n < limit; n += p.PageSize {
		if better(n) {
			return n
		}
	}
	return limit
}

// AutoTune derives the I/OAT offload thresholds from the platform's
// copy models, the way Section VI proposes running microbenchmarks at
// startup: the minimum fragment size is where an offloaded chunk
// beats the uncached memcpy of the same chunk, and the minimum
// message size is where the submission overhead of a fragment is
// amortized several times over by the freed CPU time.
func AutoTune(p *platform.Platform) (minFrag, minMsg int) {
	memcpyNs := func(n int) float64 {
		return float64(p.MemcpyCallCost) + float64(n)/float64(p.MemcpyColdRate)/p.DMAColdPenalty
	}
	ioatNs := func(n int) float64 {
		return float64(p.IOATDescSetup) + float64(n)/float64(p.IOATEngineRate)
	}
	submitNs := float64(p.IOATDoorbellCost + p.IOATPerDescSubmit)

	// Smallest chunk the engine moves at least as fast as the CPU
	// would, and whose submission costs less CPU than the copy.
	minFrag = 256
	for ; minFrag <= 64*1024; minFrag *= 2 {
		if ioatNs(minFrag) <= memcpyNs(minFrag) && submitNs < memcpyNs(minFrag) {
			break
		}
	}
	// Offload pays once a message saves at least ~16 fragment copies
	// worth of CPU (amortizing rendezvous and tracking overheads).
	fragSave := memcpyNs(8192) - submitNs
	const targetSaveNs = 100_000 // ≈100 µs of freed CPU per message
	frags := int(targetSaveNs/fragSave) + 1
	minMsg = frags * 8192
	return minFrag, minMsg
}

// AutoTuned returns a configuration whose offload and protocol
// thresholds all come from ProbeThresholds instead of the paper's
// empirical constants.
func AutoTuned(p *platform.Platform) Config {
	cfg := Defaults()
	cfg.IOAT = true
	cfg.RegCache = true
	th := ProbeThresholds(p)
	cfg.IOATMinFrag, cfg.IOATMinMsg = th.IOATMinFrag, th.IOATMinMsg
	cfg.LargeThreshold = th.LargeThreshold
	cfg.ShmIOATThreshold = th.ShmIOATThreshold
	return cfg
}

// predictIOAT estimates how long the engine will take to retire a
// batch of chunk lengths on one idle channel: the Section VI idea of
// benchmarking the hardware to predict completion times.
func (s *Stack) predictIOAT(chunks []int) sim.Duration {
	p := s.H.P
	ns := float64(p.IOATStartLatency)
	for _, c := range chunks {
		ns += float64(p.IOATDescSetup) + float64(c)/float64(p.IOATEngineRate)
	}
	return sim.Duration(ns)
}

// stripedSubmit distributes page chunks of one copy over k channels
// round-robin and returns the per-channel completion sequences.
func (s *Stack) stripedSubmit(dst *hostmem.Buffer, dstOff int, src *hostmem.Buffer, srcOff int, chunks []int, k int) map[*ioat.Channel]uint64 {
	if k < 1 {
		k = 1
	}
	if k > s.H.IOAT.Channels() {
		k = s.H.IOAT.Channels()
	}
	chans := make([]*ioat.Channel, k)
	reqs := make([][]ioat.CopyReq, k)
	for i := range chans {
		chans[i] = s.H.IOAT.PickChannel()
	}
	o := 0
	for i, c := range chunks {
		w := i % k
		reqs[w] = append(reqs[w], ioat.CopyReq{Dst: dst, DstOff: dstOff + o, Src: src, SrcOff: srcOff + o, N: c})
		o += c
	}
	out := make(map[*ioat.Channel]uint64)
	for i, ch := range chans {
		if len(reqs[i]) == 0 {
			continue
		}
		s.Stats.IOATSubmits += int64(len(reqs[i]))
		out[ch] = ch.Submit(reqs[i]...)
	}
	return out
}

// waitStriped blocks the process until every channel's batch retires.
// With PredictiveSleep the process sleeps for the predicted duration
// (CPU idle — the whole point of Section VI's proposal) and only
// busy-polls the residue; otherwise it busy-polls throughout, like
// the paper's implementation.
func (ep *Endpoint) waitStriped(p *sim.Proc, cat cpu.Category, seqs map[*ioat.Channel]uint64, predicted sim.Duration) {
	s := ep.S
	if s.Cfg.PredictiveSleep && predicted > 0 {
		p.Sleep(predicted)
	}
	for ch, seq := range seqs {
		if ch.Completed() >= seq {
			// One cookie read to observe the completion.
			ep.core().RunOn(p, cat, s.H.IOAT.PollCost())
			continue
		}
		ep.core().RunOnDyn(p, cat, func(finish func(extra sim.Duration)) {
			ch.NotifyAt(seq, func() { finish(s.H.IOAT.PollCost()) })
		})
	}
}
