package ioat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"omxsim/internal/hostmem"
	"omxsim/platform"
	"omxsim/sim"
)

func setup() (*sim.Engine, *platform.Platform, *hostmem.Memory, *Engine) {
	e := sim.New()
	p := platform.Clovertown()
	return e, p, hostmem.New(p), NewEngine(e, p)
}

func TestSubmitCostMatchesPaper(t *testing.T) {
	_, _, _, eng := setup()
	if got := eng.SubmitCost(1); got != 350 {
		t.Fatalf("single-descriptor submit = %v, want 350 ns", got)
	}
	if eng.SubmitCost(0) != 0 {
		t.Fatal("zero-descriptor submit should be free")
	}
	if eng.SubmitCost(3) <= eng.SubmitCost(1) {
		t.Fatal("multi-descriptor submit not increasing")
	}
}

func TestCopyMovesBytesAndCompletes(t *testing.T) {
	e, _, mem, eng := setup()
	src, dst := mem.Alloc(4096), mem.Alloc(4096)
	src.Fill(9)
	ch := eng.Channel(0)
	seq := ch.Submit(CopyReq{Dst: dst, Src: src, N: 4096})
	done := sim.Time(0)
	ch.NotifyAt(seq, func() { done = e.Now() })
	e.Run()
	if !hostmem.Equal(src, dst) {
		t.Fatal("bytes not copied")
	}
	if ch.Completed() != seq {
		t.Fatalf("cookie = %d, want %d", ch.Completed(), seq)
	}
	// startLatency(1200) + descSetup(300) + 4096B/3GiB/s(≈1272) ≈ 2.8 µs
	if done < 2500 || done > 3700 {
		t.Fatalf("completion at %v, want ≈2.8 µs", done)
	}
}

func TestFourKiBChunkStreamingRate(t *testing.T) {
	// Paper Fig. 7: ~2.4 GiB/s sustained with 4 kiB page chunks.
	e, _, mem, eng := setup()
	const chunk, total = 4096, 1 << 20
	src, dst := mem.Alloc(total), mem.Alloc(total)
	ch := eng.Channel(0)
	var reqs []CopyReq
	for off := 0; off < total; off += chunk {
		reqs = append(reqs, CopyReq{Dst: dst, DstOff: off, Src: src, SrcOff: off, N: chunk})
	}
	seq := ch.Submit(reqs...)
	var done sim.Time
	ch.NotifyAt(seq, func() { done = e.Now() })
	e.Run()
	rate := platform.Rate(float64(total) / float64(done)).InGiBps()
	if rate < 2.2 || rate > 2.6 {
		t.Fatalf("4 kiB chunk rate = %.2f GiB/s, want ≈2.4", rate)
	}
}

func TestSmallChunksAreSlow(t *testing.T) {
	// Paper Fig. 7: 256 B chunks are far below memcpy.
	e, _, mem, eng := setup()
	const chunk, total = 256, 256 * 1024
	src, dst := mem.Alloc(total), mem.Alloc(total)
	ch := eng.Channel(0)
	var reqs []CopyReq
	for off := 0; off < total; off += chunk {
		reqs = append(reqs, CopyReq{Dst: dst, DstOff: off, Src: src, SrcOff: off, N: chunk})
	}
	seq := ch.Submit(reqs...)
	var done sim.Time
	ch.NotifyAt(seq, func() { done = e.Now() })
	e.Run()
	rate := platform.Rate(float64(total) / float64(done)).InGiBps()
	if rate > 0.8 {
		t.Fatalf("256 B chunk rate = %.2f GiB/s, want < 0.8", rate)
	}
}

func TestInOrderCompletionWithinChannel(t *testing.T) {
	e, _, mem, eng := setup()
	src, dst := mem.Alloc(1<<20), mem.Alloc(1<<20)
	ch := eng.Channel(0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		n := 512 * (10 - i) // decreasing sizes: later descs are smaller
		ch.Submit(CopyReq{Dst: dst, DstOff: i * 65536, Src: src, SrcOff: i * 65536, N: n,
			OnDone: func() { order = append(order, i) }})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v", order)
		}
	}
}

func TestChannelsProgressIndependently(t *testing.T) {
	e, _, mem, eng := setup()
	src, dst := mem.Alloc(1<<20), mem.Alloc(1<<20)
	var t0, t1 sim.Time
	s0 := eng.Channel(0).Submit(CopyReq{Dst: dst, Src: src, N: 512 * 1024})
	s1 := eng.Channel(1).Submit(CopyReq{Dst: dst, DstOff: 524288, Src: src, SrcOff: 524288, N: 4096})
	eng.Channel(0).NotifyAt(s0, func() { t0 = e.Now() })
	eng.Channel(1).NotifyAt(s1, func() { t1 = e.Now() })
	e.Run()
	if t1 >= t0 {
		t.Fatalf("small copy on idle channel (%v) not faster than big copy (%v)", t1, t0)
	}
}

func TestAggregateCapAcrossChannels(t *testing.T) {
	// Four channels at once must share IOATAggregateRate (3.4 GiB/s),
	// not run at 4×3.0 GiB/s.
	e, p, mem, eng := setup()
	const per = 1 << 20
	src, dst := mem.Alloc(4*per), mem.Alloc(4*per)
	var last sim.Time
	for i := 0; i < 4; i++ {
		ch := eng.Channel(i)
		seq := ch.Submit(CopyReq{Dst: dst, DstOff: i * per, Src: src, SrcOff: i * per, N: per})
		ch.NotifyAt(seq, func() {
			if e.Now() > last {
				last = e.Now()
			}
		})
	}
	e.Run()
	aggregate := platform.Rate(float64(4*per) / float64(last))
	if aggregate.InGiBps() > p.IOATAggregateRate.InGiBps()*1.02 {
		t.Fatalf("aggregate %.2f GiB/s beats cap %.2f", aggregate.InGiBps(), p.IOATAggregateRate.InGiBps())
	}
	// And still meaningfully above a single channel's 2.4 GiB/s at 1 MiB descs.
	if aggregate.InGiBps() < 3.0 {
		t.Fatalf("aggregate %.2f GiB/s too low", aggregate.InGiBps())
	}
}

func TestStartLatencyOnlyWhenIdle(t *testing.T) {
	e, p, mem, eng := setup()
	src, dst := mem.Alloc(8192), mem.Alloc(8192)
	ch := eng.Channel(0)
	var t1, t2 sim.Time
	s1 := ch.Submit(CopyReq{Dst: dst, Src: src, N: 4096})
	s2 := ch.Submit(CopyReq{Dst: dst, DstOff: 4096, Src: src, SrcOff: 4096, N: 4096})
	ch.NotifyAt(s1, func() { t1 = e.Now() })
	ch.NotifyAt(s2, func() { t2 = e.Now() })
	e.Run()
	perDesc := sim.Duration(p.IOATDescSetup) + sim.Duration(4096.0/float64(p.IOATEngineRate))
	// Second descriptor should take ≈perDesc, with no extra start latency.
	gap := t2 - t1
	if gap < perDesc-10 || gap > perDesc+10 {
		t.Fatalf("second desc gap = %v, want ≈%v", gap, perDesc)
	}
	if t1 < sim.Time(p.IOATStartLatency) {
		t.Fatalf("first desc finished before start latency: %v", t1)
	}
}

func TestNotifyAtAlreadyComplete(t *testing.T) {
	e, _, mem, eng := setup()
	src, dst := mem.Alloc(128), mem.Alloc(128)
	ch := eng.Channel(0)
	seq := ch.Submit(CopyReq{Dst: dst, Src: src, N: 128})
	e.Run()
	ran := false
	ch.NotifyAt(seq, func() { ran = true })
	if !ran {
		t.Fatal("NotifyAt on retired seq did not fire immediately")
	}
}

func TestDestinationLeftCacheCold(t *testing.T) {
	e, _, mem, eng := setup()
	src, dst := mem.Alloc(4096), mem.Alloc(4096)
	dst.Touch(0, 4096) // warm it first
	ch := eng.Channel(0)
	ch.Submit(CopyReq{Dst: dst, Src: src, N: 4096})
	e.Run()
	if dst.WarmL2(0) || dst.WarmL1(0) {
		t.Fatal("I/OAT copy warmed the destination cache")
	}
	if !dst.DMACold() {
		t.Fatal("destination should be DMA-cold")
	}
}

func TestPickChannelRoundRobin(t *testing.T) {
	_, p, _, eng := setup()
	seen := map[int]int{}
	for i := 0; i < 2*p.IOATChannels; i++ {
		seen[eng.PickChannel().ID()]++
	}
	for i := 0; i < p.IOATChannels; i++ {
		if seen[i] != 2 {
			t.Fatalf("channel %d picked %d times: %v", i, seen[i], seen)
		}
	}
}

// Property: for any batch, completions are in order, all bytes arrive,
// and total time ≥ bytes/aggregateRate.
func TestPropertyBatchIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e, p, mem, eng := setup()
		_ = p
		total := 0
		nDesc := 1 + rng.Intn(30)
		src := mem.Alloc(1 << 20)
		dst := mem.Alloc(1 << 20)
		src.Fill(byte(seed))
		ch := eng.Channel(rng.Intn(4))
		off := 0
		var reqs []CopyReq
		for i := 0; i < nDesc; i++ {
			n := 1 + rng.Intn(8192)
			if off+n > 1<<20 {
				break
			}
			reqs = append(reqs, CopyReq{Dst: dst, DstOff: off, Src: src, SrcOff: off, N: n})
			off += n
			total += n
		}
		seq := ch.Submit(reqs...)
		var done sim.Time
		ch.NotifyAt(seq, func() { done = e.Now() })
		e.Run()
		if ch.Completed() != seq {
			return false
		}
		for i := 0; i < total; i++ {
			if dst.Bytes()[i] != src.Bytes()[i] {
				return false
			}
		}
		minTime := float64(total) / float64(eng.P.IOATAggregateRate)
		return float64(done) >= minTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_, _, mem, eng := setup()
	b := mem.Alloc(10)
	eng.Channel(0).Submit(CopyReq{Dst: b, Src: b, N: -1})
}
