package ioat

import (
	"fmt"
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

// TestSubmitPagesSplitsAtDestinationPages checks SubmitPages against
// PageDescs: one descriptor per destination page touched, the bytes
// all moved, and onDone run once, with the last descriptor.
func TestSubmitPagesSplitsAtDestinationPages(t *testing.T) {
	for _, c := range []struct{ dstOff, srcOff, n, descs int }{
		{0, 0, 8192, 2},
		{0, 0, 4096, 1},
		{100, 0, 8192, 3},
		{4000, 7, 200, 2},
		{0, 0, 1, 1},
		{4095, 0, 2, 2},
		{0, 0, 0, 0},
	} {
		e, _, mem, eng := setup()
		src, dst := mem.Alloc(c.srcOff+c.n), mem.Alloc(c.dstOff+c.n)
		src.Fill(3)
		if got := eng.PageDescs(c.dstOff, c.n); got != c.descs {
			t.Fatalf("PageDescs(%d, %d) = %d, want %d", c.dstOff, c.n, got, c.descs)
		}
		ch := eng.Channel(0)
		var doneSeq []uint64
		seq := ch.SubmitPages(dst, c.dstOff, src, c.srcOff, c.n, func() { doneSeq = append(doneSeq, ch.Completed()) })
		if int(seq) != c.descs || ch.Pending() != c.descs {
			t.Fatalf("%+v: last seq %d, %d pending, want %d descriptors", c, seq, ch.Pending(), c.descs)
		}
		e.Run()
		if eng.BytesCopied != int64(c.n) {
			t.Fatalf("%+v: copied %d bytes", c, eng.BytesCopied)
		}
		if c.n > 0 && (len(doneSeq) != 1 || doneSeq[0] != seq) {
			t.Fatalf("%+v: onDone ran at cookies %v, want once at %d", c, doneSeq, seq)
		}
		got, want := make([]byte, c.n), make([]byte, c.n)
		dst.ReadAt(got, c.dstOff)
		src.ReadAt(want, c.srcOff)
		if string(got) != string(want) {
			t.Fatalf("%+v: destination differs from source", c)
		}
	}
}

// TestSubmitFromOnDoneRetiresInOrder submits from inside a
// descriptor's OnDone while later descriptors are still queued: the
// queue is reused across callbacks, so the new descriptor must take
// the next sequence and retire after every earlier one.
func TestSubmitFromOnDoneRetiresInOrder(t *testing.T) {
	e, _, mem, eng := setup()
	src, dst := mem.Alloc(4096), mem.Alloc(4096)
	ch := eng.Channel(0)
	var order []uint64
	note := func() { order = append(order, ch.Completed()) }
	var extra uint64
	ch.Submit(CopyReq{Dst: dst, Src: src, N: 1024, OnDone: func() {
		note()
		extra = ch.Submit(CopyReq{Dst: dst, DstOff: 3072, Src: src, N: 1024, OnDone: note})
	}})
	ch.Submit(
		CopyReq{Dst: dst, DstOff: 1024, Src: src, N: 1024, OnDone: note},
		CopyReq{Dst: dst, DstOff: 2048, Src: src, N: 1024, OnDone: note},
	)
	e.Run()
	if extra != 4 {
		t.Fatalf("descriptor submitted from OnDone got sequence %d, want 4", extra)
	}
	if got := fmt.Sprint(order); got != "[1 2 3 4]" {
		t.Fatalf("retired in order %s, want [1 2 3 4]", got)
	}
	if ch.Pending() != 0 {
		t.Fatalf("%d descriptors left pending", ch.Pending())
	}
}

// TestNotifyAtFromWatcher registers watchers from inside a watcher: one
// for a sequence already retired runs at once, one for a later
// sequence runs when that one retires, and the watcher list reused
// across the firing keeps every other watcher.
func TestNotifyAtFromWatcher(t *testing.T) {
	e, _, mem, eng := setup()
	src, dst := mem.Alloc(4096), mem.Alloc(4096)
	ch := eng.Channel(0)
	var reqs []CopyReq
	for i := range 4 {
		reqs = append(reqs, CopyReq{Dst: dst, DstOff: i * 1024, Src: src, N: 1024})
	}
	ch.Submit(reqs...)
	var got []string
	at := func(name string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", name, ch.Completed())) }
	}
	ch.NotifyAt(1, func() {
		at("w1")()
		ch.NotifyAt(1, at("nested-now"))
		ch.NotifyAt(3, at("nested-3"))
	})
	ch.NotifyAt(2, at("w2"))
	ch.NotifyAt(4, at("w4"))
	e.Run()
	want := "[w1@1 nested-now@1 w2@2 nested-3@3 w4@4]"
	if fmt.Sprint(got) != want {
		t.Fatalf("watchers ran as %v, want %s", got, want)
	}
}

// BenchmarkIOATDescriptor is the descriptor life of the bottom-half
// offload on a warm channel: a two-page batch submitted, run through
// the arbiter until it retires, and one NotifyAt on the batch. The
// allocation gate (make benchalloc) requires 0 allocs/op.
func BenchmarkIOATDescriptor(b *testing.B) {
	e, p, mem, eng := setup()
	src, dst := mem.Alloc(2*p.PageSize), mem.Alloc(2*p.PageSize)
	src.Fill(1)
	ch := eng.Channel(0)
	notified := 0
	notify := func() { notified++ }
	batch := []CopyReq{
		{Dst: dst, Src: src, N: p.PageSize},
		{Dst: dst, DstOff: p.PageSize, Src: src, SrcOff: p.PageSize, N: p.PageSize},
	}
	op := func() {
		seq := ch.Submit(batch...)
		ch.NotifyAt(seq, notify)
		e.Run()
	}
	for range 100 {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		op()
	}
	b.StopTimer()
	if notified != b.N+100 {
		b.Fatalf("notified %d times, want %d", notified, b.N+100)
	}
}
