package memmodel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"omxsim/internal/hostmem"
	"omxsim/platform"
)

func setup() (*platform.Platform, *hostmem.Memory, *Model) {
	p := platform.Clovertown()
	return p, hostmem.New(p), New(p)
}

func TestColdCopyRate(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(1<<20), mem.Alloc(1<<20)
	if got, want := m.RateFor(dst, src, 4096, 0), p.MemcpyColdRate; got != want {
		t.Fatalf("cold rate = %v, want %v", got, want)
	}
}

func TestWarmL2AfterTouch(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(64*1024), mem.Alloc(64*1024)
	src.Touch(0, src.Size())
	dst.Touch(0, dst.Size())
	// Core 1 shares core 0's L2.
	if got := m.RateFor(dst, src, 4096, 1); got != p.MemcpyL2Rate {
		t.Fatalf("shared-L2 warm rate = %v, want %v", got, p.MemcpyL2Rate)
	}
	// Core 2 is another subchip: cold.
	if got := m.RateFor(dst, src, 4096, 2); got != p.MemcpyColdRate {
		t.Fatalf("other-subchip rate = %v, want cold %v", got, p.MemcpyColdRate)
	}
}

func TestHalfWarmRate(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(64*1024), mem.Alloc(64*1024)
	dst.Touch(0, dst.Size())
	if got := m.RateFor(dst, src, 4096, 0); got != p.MemcpyHalfWarmRate {
		t.Fatalf("half-warm rate = %v, want %v", got, p.MemcpyHalfWarmRate)
	}
}

func TestDMAPenalty(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(8192), mem.Alloc(8192)
	src.WrittenByDMA()
	got := float64(m.RateFor(dst, src, 4096, 0))
	want := float64(p.MemcpyColdRate) * p.DMAColdPenalty
	if got != want {
		t.Fatalf("DMA-cold rate = %v, want %v", got, want)
	}
}

func TestCrossSocketRates(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(64*1024), mem.Alloc(64*1024)
	src.Touch(4, src.Size()) // socket 1
	if got := m.RateFor(dst, src, 4096, 0); got != p.MemcpyCrossSocketWarm {
		t.Fatalf("cross-socket warm = %v, want %v", got, p.MemcpyCrossSocketWarm)
	}
	// Stream enough traffic through socket 1's L2 domain to evict.
	evict := mem.Alloc(int(p.L2Size) * 2)
	evict.Touch(4, evict.Size())
	if got := m.RateFor(dst, src, 4096, 0); got != p.MemcpyCrossSocketCold {
		t.Fatalf("cross-socket cold = %v, want %v", got, p.MemcpyCrossSocketCold)
	}
}

func TestL1Rate(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(4096), mem.Alloc(4096)
	src.Touch(0, src.Size())
	dst.Touch(0, dst.Size())
	if got := m.RateFor(dst, src, 4096, 0); got != p.MemcpyL1Rate {
		t.Fatalf("L1 rate = %v, want %v", got, p.MemcpyL1Rate)
	}
	// Same data viewed from the L2 sibling is only L2-warm.
	if got := m.RateFor(dst, src, 4096, 1); got != p.MemcpyL2Rate {
		t.Fatalf("sibling rate = %v, want L2 %v", got, p.MemcpyL2Rate)
	}
}

func TestEvictionByStreaming(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(1<<20), mem.Alloc(1<<20)
	src.Touch(0, src.Size())
	dst.Touch(0, dst.Size())
	// Stream 8 MiB (2× L2) through the same domain.
	big := mem.Alloc(int(p.L2Size) * 2)
	big.Touch(1, big.Size())
	if got := m.RateFor(dst, src, 4096, 0); got != p.MemcpyColdRate {
		t.Fatalf("after eviction rate = %v, want cold", got)
	}
}

func TestMemcpyMovesBytes(t *testing.T) {
	_, mem, m := setup()
	src, dst := mem.Alloc(1000), mem.Alloc(1000)
	src.Fill(7)
	d := m.Memcpy(dst, 0, src, 0, 1000, 0)
	if d <= 0 {
		t.Fatal("no duration")
	}
	if !hostmem.Equal(src, dst) {
		t.Fatal("bytes not copied")
	}
}

func TestMemcpyPartialRanges(t *testing.T) {
	_, mem, m := setup()
	src, dst := mem.Alloc(100), mem.Alloc(100)
	src.Fill(3)
	m.Memcpy(dst, 10, src, 20, 30, 0)
	for i := 0; i < 30; i++ {
		if dst.Bytes()[10+i] != src.Bytes()[20+i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	if dst.Bytes()[9] != 0 || dst.Bytes()[40] != 0 {
		t.Fatal("out-of-range bytes written")
	}
}

func TestMemcpyClearsDMACold(t *testing.T) {
	_, mem, m := setup()
	src, dst := mem.Alloc(100), mem.Alloc(100)
	src.WrittenByDMA()
	m.Memcpy(dst, 0, src, 0, 100, 0)
	if src.DMACold() {
		t.Fatal("DMA-cold not cleared by read")
	}
}

func TestShmFalloffAt1MiB(t *testing.T) {
	// The Fig. 10 scenario: four buffers of the message size cycle
	// through one shared L2 per ping-pong iteration. Warm at 1 MiB,
	// cold above.
	p, mem, m := setup()
	check := func(size int, wantWarm bool) {
		t.Helper()
		bufs := make([]*hostmem.Buffer, 4)
		for i := range bufs {
			bufs[i] = mem.Alloc(size)
		}
		// A few warm-up rounds of touching all four in turn.
		for round := 0; round < 3; round++ {
			for _, b := range bufs {
				b.Touch(0, size)
			}
		}
		rate := m.RateFor(bufs[1], bufs[0], 4096, 0)
		isWarm := rate == p.MemcpyL2Rate || rate == p.MemcpyL1Rate
		if isWarm != wantWarm {
			t.Fatalf("size %d: rate %.2f GiB/s, wantWarm=%v", size, rate.InGiBps(), wantWarm)
		}
	}
	check(1<<20, true)    // 1 MiB: 4 MiB working set fits L2 exactly
	check(1<<21, false)   // 2 MiB: evicted
	check(256*1024, true) // comfortably warm
}

func TestPinAccounting(t *testing.T) {
	_, mem, _ := setup()
	b := mem.Alloc(10000)
	if b.Pages() != 3 {
		t.Fatalf("pages = %d, want 3", b.Pages())
	}
	if !b.Pin() {
		t.Fatal("first pin should pay")
	}
	if b.Pin() {
		t.Fatal("second pin should be free")
	}
	b.Unpin()
	b.Unpin()
	if b.Pinned() {
		t.Fatal("still pinned")
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_, mem, _ := setup()
	mem.Alloc(10).Unpin()
}

// Property: duration is monotonically nondecreasing in size for a
// fixed cache situation, and warm copies are never slower than cold.
func TestPropertyMonotoneAndWarmFaster(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, mem, m := setup()
		a, b := rng.Intn(1<<20)+1, rng.Intn(1<<20)+1
		if a > b {
			a, b = b, a
		}
		srcCold, dstCold := mem.Alloc(b), mem.Alloc(b)
		dCold1 := m.CopyTime(dstCold, srcCold, a, 0)
		dCold2 := m.CopyTime(dstCold, srcCold, b, 0)
		if dCold1 > dCold2 {
			return false
		}
		srcWarm, dstWarm := mem.Alloc(64*1024), mem.Alloc(64*1024)
		srcWarm.Touch(0, srcWarm.Size())
		dstWarm.Touch(0, dstWarm.Size())
		n := rng.Intn(64*1024) + 1
		if n > b {
			n = b
		}
		return m.CopyTime(dstWarm, srcWarm, n, 0) <= m.CopyTime(dstCold, srcCold, n, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Memcpy always makes dst's range equal src's range.
func TestPropertyCopyIntegrity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		_, mem, m := setup()
		size := rng.Intn(10000) + 100
		src, dst := mem.Alloc(size), mem.Alloc(size)
		src.Fill(byte(rng.Intn(256)))
		n := rng.Intn(size) + 1
		off := rng.Intn(size - n + 1)
		m.Memcpy(dst, off, src, off, n, rng.Intn(8))
		for i := 0; i < n; i++ {
			if dst.Bytes()[off+i] != src.Bytes()[off+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Decision table over every (src warmth, dst warmth, placement)
// combination for a small same-size copy, pinning the deliberate
// cross-socket asymmetry: the remote branch consults only the
// source's residency in the producer's cache (the FSB snoop of dirty
// lines is the cost), never the destination — destination
// write-allocate traffic is local and folded into the calibrated
// CrossSocket constants.
func TestRateDecisionTable(t *testing.T) {
	p, _, _ := setup()
	const n = 8192
	// Warmth preparations. "warm" touches the full buffer from the
	// producing core; "cold" leaves it untouched; "partial" touches
	// one page of it (resident but without span coverage for n).
	prep := map[string]func(mem *hostmem.Memory, b *hostmem.Buffer, core int){
		"cold":    func(mem *hostmem.Memory, b *hostmem.Buffer, core int) {},
		"partial": func(mem *hostmem.Memory, b *hostmem.Buffer, core int) { b.Touch(core, 4096) },
		"warm":    func(mem *hostmem.Memory, b *hostmem.Buffer, core int) { b.Touch(core, b.Size()) },
		// Touched by the producer but since evicted by streaming
		// traffic: still owned by that core (lastCore sticks), no
		// longer resident in its cache.
		"evicted": func(mem *hostmem.Memory, b *hostmem.Buffer, core int) {
			b.Touch(core, b.Size())
			tr := mem.Alloc(int(p.L2Size))
			tr.Touch(core, tr.Size())
		},
	}
	cases := []struct {
		src, dst string
		producer int // core that prepared the buffers
		consumer int // core running the copy
		want     func() platform.Rate
	}{
		// Local, same core: both fully warm -> L1 (buffers fit L1).
		{"warm", "warm", 0, 0, func() platform.Rate { return p.MemcpyL1Rate }},
		// Same L2 domain, other core: L2.
		{"warm", "warm", 0, 1, func() platform.Rate { return p.MemcpyL2Rate }},
		{"warm", "cold", 0, 1, func() platform.Rate { return p.MemcpyHalfWarmRate }},
		{"cold", "warm", 0, 1, func() platform.Rate { return p.MemcpyHalfWarmRate }},
		{"cold", "cold", 0, 1, func() platform.Rate { return p.MemcpyColdRate }},
		// Partial coverage never upgrades past its span.
		{"partial", "warm", 0, 1, func() platform.Rate { return p.MemcpyHalfWarmRate }},
		{"partial", "partial", 0, 1, func() platform.Rate { return p.MemcpyColdRate }},
		// Other subchip, same socket: residency is per L2 domain.
		{"warm", "warm", 0, 2, func() platform.Rate { return p.MemcpyColdRate }},
		// Cross socket: src warmth in the PRODUCER's cache decides.
		{"warm", "warm", 0, 4, func() platform.Rate { return p.MemcpyCrossSocketWarm }},
		{"warm", "cold", 0, 4, func() platform.Rate { return p.MemcpyCrossSocketWarm }},
		// ... and dst warmth is deliberately ignored (the asymmetry):
		{"evicted", "warm", 0, 4, func() platform.Rate { return p.MemcpyCrossSocketCold }},
		{"evicted", "cold", 0, 4, func() platform.Rate { return p.MemcpyCrossSocketCold }},
		// Partial src coverage falls back to the cold FSB path.
		{"partial", "warm", 0, 4, func() platform.Rate { return p.MemcpyCrossSocketCold }},
		// An UNTOUCHED src has no owner (LastCore is -1), so there is
		// no producer cache to snoop: the copy is plain cold, not
		// cross-socket, wherever the consumer runs.
		{"cold", "warm", 0, 4, func() platform.Rate { return p.MemcpyColdRate }},
		{"cold", "cold", 0, 4, func() platform.Rate { return p.MemcpyColdRate }},
	}
	for _, tc := range cases {
		name := tc.src + "/" + tc.dst
		mem := hostmem.New(p)
		src, dst := mem.Alloc(n), mem.Alloc(n)
		prep[tc.src](mem, src, tc.producer)
		prep[tc.dst](mem, dst, tc.producer)
		model := New(p)
		if got, want := model.RateFor(dst, src, n, tc.consumer), tc.want(); got != want {
			t.Errorf("%s on core %d: rate = %v, want %v", name, tc.consumer, got, want)
		}
	}
}

// Regression (warmth granularity): a rendezvous-sized buffer touched
// by one small fragment must not copy out at a warm rate.
func TestPartialTouchDoesNotWarmLargeCopy(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(1<<20), mem.Alloc(1<<20)
	src.Touch(0, 4096)
	dst.Touch(0, dst.Size())
	if got := m.RateFor(dst, src, 1<<20, 0); got != p.MemcpyHalfWarmRate {
		t.Fatalf("rate = %v, want half-warm %v (dst only)", got, p.MemcpyHalfWarmRate)
	}
	dst2 := mem.Alloc(1 << 20)
	if got := m.RateFor(dst2, src, 1<<20, 0); got != p.MemcpyColdRate {
		t.Fatalf("rate = %v, want cold %v", got, p.MemcpyColdRate)
	}
}

// Regression (DMACold vs partial touch): a prefix read does not skip
// the snoop penalty for the untouched remainder.
func TestDMAPenaltyAfterPartialTouch(t *testing.T) {
	p, mem, m := setup()
	src, dst := mem.Alloc(8192), mem.Alloc(8192)
	src.WrittenByDMA()
	src.Touch(0, 4096)
	want := platform.Rate(float64(p.MemcpyColdRate) * p.DMAColdPenalty)
	if got := m.RateFor(dst, src, 8192, 0); got != want {
		t.Fatalf("suffix copy rate = %v, want snoop %v", got, want)
	}
	// The snooped prefix itself is past the penalty.
	if got := m.RateFor(dst, src, 4096, 0); got == want {
		t.Fatal("snooped prefix still paying the snoop penalty")
	}
}

// DCA branch: a deposit pushed at the consumer's domain beats the
// snoop path; pushed at the wrong socket it is WORSE than no DCA at
// all; evicted it degrades to a plain cold copy.
func TestDCARates(t *testing.T) {
	p := platform.ClovertownDCA()
	mem := hostmem.New(p)
	m := New(p)
	n := 64 * 1024
	snoop := platform.Rate(float64(p.MemcpyColdRate) * p.DMAColdPenalty)

	src, dst := mem.Alloc(n), mem.Alloc(n)
	src.WrittenByDCA(0, n)
	right := m.RateFor(dst, src, n, 0)
	if right <= snoop {
		t.Fatalf("DCA-resident rate %v not better than snoop %v", right, snoop)
	}
	if right >= p.MemcpyL2Rate {
		t.Fatalf("DCA-resident rate %v should stay below pure L2 %v (partial push)", right, p.MemcpyL2Rate)
	}
	// Consumer on the other socket: the misdirected-DCA cliff.
	wrong := m.RateFor(dst, src, n, 4)
	wantWrong := platform.Rate(float64(p.MemcpyColdRate) * p.DCAWrongSocketPenalty)
	if wrong != wantWrong {
		t.Fatalf("wrong-socket rate = %v, want %v", wrong, wantWrong)
	}
	if wrong >= snoop {
		t.Fatalf("wrong-socket DCA %v must be worse than no DCA %v", wrong, snoop)
	}
	// Evict the push: back to a plain cold copy, no snoop debt.
	tr := mem.Alloc(int(p.L2Size))
	tr.Touch(0, tr.Size())
	if got := m.RateFor(dst, src, n, 0); got != p.MemcpyColdRate {
		t.Fatalf("evicted-DCA rate = %v, want plain cold %v", got, p.MemcpyColdRate)
	}
}

// Without HasDCA nothing changes: WrittenByDMA still pays the classic
// snoop penalty and WrittenByDCA is never called by the stacks.
func TestNoDCADefaultUnchanged(t *testing.T) {
	p, mem, m := setup()
	if p.HasDCA {
		t.Fatal("Clovertown default must not have DCA")
	}
	src, dst := mem.Alloc(8192), mem.Alloc(8192)
	src.WrittenByDMA()
	want := platform.Rate(float64(p.MemcpyColdRate) * p.DMAColdPenalty)
	if got := m.RateFor(dst, src, 8192, 0); got != want {
		t.Fatalf("default snoop rate = %v, want %v", got, want)
	}
}
