package hostmem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"omxsim/platform"
)

func mem() (*platform.Platform, *Memory) {
	p := platform.Clovertown()
	return p, New(p)
}

func TestAllocDistinctAddresses(t *testing.T) {
	_, m := mem()
	a, b := m.Alloc(100), m.Alloc(100)
	if a.Addr == b.Addr {
		t.Fatal("overlapping addresses")
	}
	if m.Allocated() != 200 {
		t.Fatalf("allocated = %d", m.Allocated())
	}
}

func TestFillAndEqual(t *testing.T) {
	_, m := mem()
	a, b := m.Alloc(1000), m.Alloc(1000)
	a.Fill(3)
	if Equal(a, b) {
		t.Fatal("different contents reported equal")
	}
	b.WriteAt(a.Bytes(), 0)
	if !Equal(a, b) {
		t.Fatal("identical contents reported unequal")
	}
	if Equal(a, m.Alloc(999)) {
		t.Fatal("different lengths reported equal")
	}
}

func TestWarmthBasics(t *testing.T) {
	_, m := mem()
	b := m.Alloc(64 * 1024)
	if b.WarmL2(0) || b.WarmL1(0) {
		t.Fatal("fresh buffer warm")
	}
	b.Touch(0, b.Size())
	if !b.WarmL2(0) || !b.WarmL2(1) {
		t.Fatal("not warm in shared L2 after touch")
	}
	if b.WarmL2(2) {
		t.Fatal("warm in another subchip's L2")
	}
	if b.WarmL1(0) {
		t.Fatal("64 kiB buffer cannot fit a 32 kiB L1")
	}
	small := m.Alloc(4096)
	small.Touch(0, small.Size())
	if !small.WarmL1(0) || small.WarmL1(1) {
		t.Fatal("L1 warmth wrong (own core only)")
	}
}

func TestDMAColdSemantics(t *testing.T) {
	_, m := mem()
	b := m.Alloc(4096)
	b.Touch(0, 4096)
	b.WrittenByDMA()
	if !b.DMACold() || b.WarmL2(0) {
		t.Fatal("DMA write should clear warmth")
	}
	b.Touch(1, 4096)
	if b.DMACold() {
		t.Fatal("touch should clear DMA-cold")
	}
	if b.LastCore() != 1 {
		t.Fatalf("last core = %d", b.LastCore())
	}
}

func TestRemoteSocket(t *testing.T) {
	_, m := mem()
	b := m.Alloc(100)
	if b.RemoteSocket(0) {
		t.Fatal("untouched buffer cannot be remote")
	}
	b.Touch(4, 100) // socket 1
	if !b.RemoteSocket(0) || b.RemoteSocket(5) {
		t.Fatal("remote-socket detection wrong")
	}
}

func TestOversizeBufferNeverWarm(t *testing.T) {
	p, m := mem()
	b := m.Alloc(int(p.L2Size) + 1)
	b.Touch(0, b.Size())
	if b.WarmL2(0) {
		t.Fatal("buffer larger than L2 reported warm")
	}
}

// Property: warmth monotonically decays — once traffic evicts a
// buffer it never becomes warm again without a touch.
func TestPropertyEvictionIsPermanent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, m := mem()
		b := m.Alloc(rng.Intn(1<<20) + 1)
		b.Touch(0, b.Size())
		evicted := false
		for i := 0; i < 20; i++ {
			tr := m.Alloc(rng.Intn(int(p.L2Size)))
			tr.Touch(rng.Intn(2), tr.Size()) // same L2 domain
			warm := b.WarmL2(0)
			if evicted && warm {
				return false
			}
			if !warm {
				evicted = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_, m := mem()
	m.Alloc(-1)
}

// Regression (warmth granularity): a small fragment touch must not
// make a whole multi-MB buffer warm for larger copies — coverage
// extends only over the touched bytes, accumulating across touches.
func TestWarmSpanGranularity(t *testing.T) {
	_, m := mem()
	b := m.Alloc(1 << 20)
	b.Touch(0, 4096)
	if !b.WarmL2(0) {
		t.Fatal("residency lost by a touch")
	}
	if b.WarmSpanL2(0, b.Size()) {
		t.Fatal("4 kiB touch reported as warming a 1 MiB copy")
	}
	if !b.WarmSpanL2(0, 4096) {
		t.Fatal("touched prefix should be span-warm")
	}
	if b.WarmLen() != 4096 {
		t.Fatalf("WarmLen = %d, want 4096", b.WarmLen())
	}
	// Chunked touches accumulate to full coverage.
	for off := 4096; off < b.Size(); off += 4096 {
		b.Touch(0, 4096)
	}
	if b.WarmLen() != b.Size() {
		t.Fatalf("WarmLen = %d after full chunked pass, want %d", b.WarmLen(), b.Size())
	}
	// 1 MiB fits the 4 MiB L2 but streams past the touches above;
	// span coverage is necessary, residency still decides.
	if !b.WarmSpanL2(0, b.Size()) {
		t.Fatal("fully covered resident buffer should be span-warm")
	}
}

// Coverage is per L2 domain: another domain's touches neither grant
// nor destroy this domain's accumulated coverage.
func TestWarmSpanPerDomain(t *testing.T) {
	_, m := mem()
	b := m.Alloc(64 * 1024)
	b.Touch(0, 32*1024) // domain 0
	b.Touch(2, 4096)    // domain 1 interleaves
	b.Touch(0, 32*1024) // domain 0 finishes its pass
	if !b.WarmSpanL2(0, 64*1024) {
		t.Fatal("interleaved foreign-domain touch destroyed accumulated coverage")
	}
	if b.WarmSpanL2(2, 64*1024) {
		t.Fatal("domain 1 only touched 4 kiB but claims full coverage")
	}
}

// Regression (L1 span): L1 coverage follows the single touching core
// and resets when another core takes over.
func TestWarmSpanL1(t *testing.T) {
	_, m := mem()
	b := m.Alloc(16 * 1024)
	b.Touch(0, 8*1024)
	b.Touch(0, 8*1024)
	if !b.WarmSpanL1(0, 16*1024) {
		t.Fatal("same-core touches should accumulate L1 coverage")
	}
	b.Touch(1, 4096) // other core takes over
	b.Touch(0, 4096) // back: a fresh 4 kiB episode
	if b.WarmSpanL1(0, 16*1024) {
		t.Fatal("core switch should reset L1 coverage")
	}
	if !b.WarmSpanL1(0, 4096) {
		t.Fatal("new episode's own span should be L1-warm")
	}
}

// Regression (DMACold vs partial touch): reading a prefix of a device
// deposit must not launder the snoop penalty off the untouched
// remainder.
func TestDMAColdPartialTouch(t *testing.T) {
	_, m := mem()
	b := m.Alloc(8192)
	b.WrittenByDMA()
	b.Touch(0, 4096)
	if !b.DMACold() {
		t.Fatal("prefix touch cleared DMA-cold for the whole buffer")
	}
	if b.DMAColdFor(4096) {
		t.Fatal("already-snooped prefix still reported cold")
	}
	if !b.DMAColdFor(8192) {
		t.Fatal("copy past the snooped prefix must still pay the snoop")
	}
	b.Touch(0, 4096)
	if b.DMACold() || b.DMAColdFor(8192) {
		t.Fatal("full coverage should retire the deposit")
	}
	// A fresh deposit restarts the ledger.
	b.WrittenByDMA()
	if !b.DMAColdFor(1) {
		t.Fatal("fresh deposit not cold")
	}
}

// DCA state machine: a pushed deposit is resident for the target
// domain, wrong-socket for the other socket, and plain memory (no
// snoop debt) once evicted by traffic.
func TestDCAStates(t *testing.T) {
	p, m := mem()
	b := m.Alloc(64 * 1024)
	b.WrittenByDCA(0, b.Size())
	if b.DCALen() != b.Size() {
		t.Fatalf("DCALen = %d, want %d", b.DCALen(), b.Size())
	}
	if !b.DCAResident(0) || !b.DCAResident(1) {
		t.Fatal("deposit should be resident for the target L2 domain")
	}
	if b.DCAResident(2) {
		t.Fatal("resident for a domain it was not pushed into")
	}
	if b.DCAWrongSocket(2) {
		t.Fatal("core 2 shares the socket: not wrong-socket")
	}
	if !b.DCAWrongSocket(4) {
		t.Fatal("core 4 is the other socket: should be wrong-socket")
	}
	if b.DMACold() {
		t.Fatal("DCA deposit should not carry the plain snoop penalty")
	}
	// Stream traffic through the target domain until eviction.
	tr := m.Alloc(int(p.L2Size))
	tr.Touch(0, tr.Size())
	if b.DCAResident(0) || b.DCAWrongSocket(4) {
		t.Fatal("evicted deposit still reported pushed")
	}
	// A consumer touch retires the push into ordinary warmth.
	b.WrittenByDCA(0, b.Size())
	b.Touch(0, b.Size())
	if b.DCADomain() != -1 {
		t.Fatal("touch should consume the DCA push")
	}
}

// The push is bounded by the platform's LLC budget.
func TestDCABudget(t *testing.T) {
	p := platform.ClovertownDCA()
	m := New(p)
	b := m.Alloc(int(p.DCALLCBudget) * 2)
	b.WrittenByDCA(0, b.Size())
	if int64(b.DCALen()) != p.DCALLCBudget {
		t.Fatalf("DCALen = %d, want budget %d", b.DCALen(), p.DCALLCBudget)
	}
}

func TestAllocOnHomeSocket(t *testing.T) {
	_, m := mem()
	if m.Alloc(10).HomeSocket() != 0 {
		t.Fatal("default allocation not on the chipset socket")
	}
	if m.AllocOn(10, 1).HomeSocket() != 1 {
		t.Fatal("AllocOn ignored the socket")
	}
}

func TestAllocOnBadSocketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_, m := mem()
	m.AllocOn(10, 2)
}

func TestFillMatchesNaiveLoop(t *testing.T) {
	_, m := mem()
	for _, size := range []int{0, 1, 255, 256, 257, 1<<20 + 3} {
		for _, seed := range []byte{0, 1, 7, 131, 255} {
			b := m.Alloc(size)
			b.Fill(seed)
			got := b.Bytes()
			for i := range got {
				if want := seed + byte(i*131); got[i] != want {
					t.Fatalf("size %d seed %d: byte %d = %d, want %d", size, seed, i, got[i], want)
				}
			}
			if len(got) != size {
				t.Fatalf("size %d: Fill left %d bytes", size, len(got))
			}
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	_, m := mem()
	b := m.Alloc(5000)
	p := []byte{9, 9, 9, 9}
	b.ReadAt(p, 4000)
	if !bytes.Equal(p, make([]byte, 4)) {
		t.Fatalf("ReadAt of an unwritten buffer = %v", p)
	}

	// Copy out of an unwritten buffer clears a written destination
	// and leaves an unwritten one unallocated.
	dst := m.Alloc(100)
	dst.Fill(1)
	Copy(dst, 10, b, 0, 20)
	for i, v := range dst.Bytes() {
		if want := 1 + byte(i*131); (i >= 10 && i < 30 && v != 0) || ((i < 10 || i >= 30) && v != want) {
			t.Fatalf("byte %d = %d after a copy of zeros into [10:30]", i, v)
		}
	}
	lazy := m.Alloc(100)
	Copy(lazy, 0, b, 0, 100)
	if lazy.data != nil {
		t.Fatal("copying zeros allocated an unwritten destination")
	}

	zeros := m.Alloc(5000)
	zeros.WriteAt(make([]byte, 5000), 0)
	if !Equal(b, zeros) || !Equal(zeros, b) || !Equal(b, m.Alloc(5000)) {
		t.Fatal("unwritten buffer differs from a zero buffer of its size")
	}
	nonzero := m.Alloc(5000)
	nonzero.WriteAt([]byte{1}, 4999)
	if Equal(b, nonzero) || Equal(nonzero, b) {
		t.Fatal("unwritten buffer equals a buffer holding a non-zero byte")
	}
	if Equal(b, m.Alloc(4999)) {
		t.Fatal("different lengths reported equal")
	}
	if b.data != nil {
		t.Fatal("reads allocated the storage of an unwritten buffer")
	}
}

func TestWrapIsReadOnly(t *testing.T) {
	_, m := mem()
	p := []byte{1, 2, 3, 4, 5}
	w := m.Wrap(p)
	if w.Size() != len(p) || m.Allocated() != int64(len(p)) {
		t.Fatalf("wrap size %d, allocated %d", w.Size(), m.Allocated())
	}
	got := make([]byte, 3)
	w.ReadAt(got, 2)
	if !bytes.Equal(got, p[2:]) {
		t.Fatalf("ReadAt of a wrapped buffer = %v", got)
	}
	src := m.Alloc(5)
	src.Fill(3)
	for name, write := range map[string]func(){
		"WriteAt":         func() { w.WriteAt([]byte{0}, 0) },
		"Copy":            func() { Copy(w, 0, src, 0, 1) },
		"Copy of zeros":   func() { Copy(w, 0, m.Alloc(5), 0, 1) },
		"Fill":            func() { w.Fill(1) },
		"Fill of nothing": func() { m.Wrap(nil).Fill(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s into a wrapped buffer did not panic", name)
				}
			}()
			write()
		}()
	}
	if !bytes.Equal(p, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("wrapped bytes changed to %v", p)
	}
}

func TestAccessorsRangeChecked(t *testing.T) {
	_, m := mem()
	b, c := m.Alloc(10), m.Alloc(10)
	for name, access := range map[string]func(){
		"ReadAt past end":  func() { b.ReadAt(make([]byte, 2), 9) },
		"WriteAt past end": func() { b.WriteAt(make([]byte, 11), 0) },
		"negative offset":  func() { b.ReadAt(nil, -1) },
		"Copy src range":   func() { Copy(b, 0, c, 5, 6) },
		"Copy dst range":   func() { Copy(b, 5, c, 0, 6) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			access()
		}()
	}
}

func TestViewOfUnwrittenBufferAllocatesNoStorage(t *testing.T) {
	_, m := mem()
	b := m.Alloc(1 << 20)
	b.Lend()
	var v []byte
	if allocs := testing.AllocsPerRun(100, func() { v = b.View(4096, 8192) }); allocs != 0 {
		t.Fatalf("View of an unwritten buffer made %.0f allocations, want 0", allocs)
	}
	if b.data != nil {
		t.Fatal("View allocated the storage of an unwritten buffer")
	}
	if len(v) != 8192 || cap(v) != 8192 || !isZero(v) {
		t.Fatalf("view of an unwritten buffer: len %d cap %d, zero %v", len(v), cap(v), isZero(v))
	}
	// A write while lent allocates fresh storage; the zero view stays zero.
	b.WriteAt([]byte{7}, 4096)
	if v[0] != 0 {
		t.Fatal("a write into the buffer reached a view of its unwritten state")
	}
	b.Return()
}

func TestWriteWhileLentKeepsViews(t *testing.T) {
	_, m := mem()
	src := m.Alloc(300)
	src.Fill(9)
	for name, write := range map[string]func(b *Buffer){
		"WriteAt": func(b *Buffer) { b.WriteAt([]byte{0xee, 0xee}, 100) },
		"Copy":    func(b *Buffer) { Copy(b, 0, src, 0, 300) },
		"Fill":    func(b *Buffer) { b.Fill(200) },
		"Bytes":   func(b *Buffer) { b.Bytes()[100] = 0xee },
	} {
		b := m.Alloc(300)
		b.Fill(1)
		b.Lend()
		v := b.View(50, 200)
		if cap(v) != len(v) {
			t.Fatalf("%s: view capacity %d exceeds its length %d", name, cap(v), len(v))
		}
		want := bytes.Clone(v)
		write(b)
		if !bytes.Equal(v, want) {
			t.Errorf("%s while lent changed a view taken before it", name)
		}
		if got := b.View(50, 200); bytes.Equal(got, want) {
			t.Errorf("%s while lent did not reach the buffer itself", name)
		}
		// The copy is made once: further writes with no new view stay
		// in place.
		before := &b.Bytes()[0]
		b.WriteAt([]byte{1}, 0)
		if &b.Bytes()[0] != before {
			t.Errorf("%s: a write with no view since the last copy moved the storage again", name)
		}
		b.Return()
	}
}

func TestWriteAfterReturnIsInPlace(t *testing.T) {
	_, m := mem()
	b := m.Alloc(8192)
	b.Fill(1)
	b.Lend()
	b.Lend()
	v := b.View(0, 4096)
	b.Return()
	b.WriteAt([]byte{0xee}, 0)
	if v[0] == 0xee {
		t.Fatal("a write while still lent once reached an earlier view")
	}
	v = b.View(0, 4096)
	b.Return()
	p := []byte{0xdd}
	if allocs := testing.AllocsPerRun(100, func() { b.WriteAt(p, 0) }); allocs != 0 {
		t.Fatalf("a write after the last Return made %.0f allocations, want 0", allocs)
	}
	if v[0] != 0xdd {
		t.Fatal("a write after the last Return did not land in the storage in place")
	}
}

func TestWriteOutsideViewsIsInPlace(t *testing.T) {
	_, m := mem()
	b := m.Alloc(3 * 4096)
	b.Fill(1)
	b.Lend()
	v, w := b.View(0, 4096), b.View(8192, 100)
	want := bytes.Clone(v)
	p := make([]byte, 4096)
	// [4096, 8192) lies between the two views: no copy.
	if allocs := testing.AllocsPerRun(100, func() { b.WriteAt(p, 4096) }); allocs != 0 {
		t.Fatalf("a write between the viewed ranges made %.0f allocations, want 0", allocs)
	}
	if !bytes.Equal(v, want) {
		t.Fatal("a write between the viewed ranges changed a view")
	}
	// The views' bounds cover [0, 8292): a write that touches it copies.
	b.WriteAt([]byte{0xee}, 8291)
	if w[99] == 0xee {
		t.Fatal("a write into a viewed range reached the view")
	}
	b.Return()
}

func TestViewRequiresLend(t *testing.T) {
	_, m := mem()
	b := m.Alloc(100)
	b.Fill(1)
	for name, misuse := range map[string]func(){
		"View without Lend":   func() { b.View(0, 10) },
		"Return without Lend": func() { b.Return() },
		"View after Return": func() {
			b.Lend()
			b.Return()
			b.View(0, 10)
		},
		"View past end": func() {
			b.Lend()
			defer b.Return()
			b.View(95, 10)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse()
		}()
	}
}

// A wrap buffer Unwrap gave back is reused by the next Wrap, which
// still takes the next address range, counts as allocated and starts
// cold: addresses and warmth are those of a fresh buffer. A released
// buffer panics on use, and unwrapping it again or unwrapping a
// buffer Wrap did not make panics too.
func TestUnwrapRecyclesLikeAFreshWrap(t *testing.T) {
	p, m := mem()
	fresh := New(p)
	w := m.Wrap(make([]byte, 8192))
	fresh.Wrap(make([]byte, 8192))
	w.Touch(2, 8192)
	w.WrittenByDCA(0, 8192)
	m.Unwrap(w)
	one := m.Alloc(1)
	fresh.Alloc(1)
	for name, use := range map[string]func(){
		"ReadAt":                    func() { w.ReadAt(make([]byte, 1), 0) },
		"Copy":                      func() { Copy(one, 0, w, 0, 1) },
		"Unwrap":                    func() { m.Unwrap(w) },
		"Unwrap of an Alloc buffer": func() { m.Unwrap(one) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released wrap buffer did not panic", name)
				}
			}()
			use()
		}()
	}

	p2 := []byte{9, 8, 7}
	again := m.Wrap(p2)
	want := fresh.Wrap(p2)
	if again != w {
		t.Fatal("Wrap did not reuse the released buffer")
	}
	if again.Addr != want.Addr || m.Allocated() != fresh.Allocated() {
		t.Fatalf("reused wrap at %#x with %d allocated, a fresh one at %#x with %d",
			again.Addr, m.Allocated(), want.Addr, fresh.Allocated())
	}
	if again.Size() != 3 || again.WarmLen() != 0 || again.LastCore() != -1 || again.DCADomain() != -1 ||
		again.DMACold() || again.WarmSpanL2(2, 1) || again.HomeSocket() != want.HomeSocket() {
		t.Fatal("a reused wrap buffer kept the warmth or placement of its last use")
	}
	got := make([]byte, 3)
	again.ReadAt(got, 0)
	if !bytes.Equal(got, p2) {
		t.Fatalf("reused wrap reads %v, want %v", got, p2)
	}
}
