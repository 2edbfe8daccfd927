package proto

import (
	"testing"
	"testing/quick"
)

func TestSizeClassConstants(t *testing.T) {
	// The MX wire geometry the whole stack is built around.
	if TinyMax != 32 || SmallMax != 128 || MediumFragSize != 4096 || LargeFragSize != 8192 {
		t.Fatal("size classes drifted from the MX wire format")
	}
}

func TestFragsOf(t *testing.T) {
	cases := map[int]int{
		0:     1,
		1:     1,
		8192:  1,
		8193:  2,
		65536: 8,
		65537: 9,
	}
	for n, want := range cases {
		if got := FragsOf(n); got != want {
			t.Fatalf("FragsOf(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestMediumFragsOf(t *testing.T) {
	cases := map[int]int{
		0:     1,
		128:   1, // small: single frame regardless
		129:   1,
		4096:  1,
		4097:  2,
		32768: 8,
	}
	for n, want := range cases {
		if got := MediumFragsOf(n); got != want {
			t.Fatalf("MediumFragsOf(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: fragment counts always cover the message with no excess
// fragment.
func TestPropertyFragCoverage(t *testing.T) {
	f := func(n uint32) bool {
		size := int(n % (64 << 20))
		frags := FragsOf(size)
		if size == 0 {
			return frags == 1
		}
		return (frags-1)*LargeFragSize < size && size <= frags*LargeFragSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrComparable(t *testing.T) {
	a := Addr{Host: "n0", EP: 1}
	b := Addr{Host: "n0", EP: 1}
	if a != b {
		t.Fatal("identical addrs differ")
	}
	m := map[Addr]int{a: 7}
	if m[b] != 7 {
		t.Fatal("addr not usable as map key")
	}
}

// TestMatches pins MX matching: the receive's masked match value must
// equal the message's under the receive's mask.
func TestMatches(t *testing.T) {
	cases := []struct {
		name                   string
		recvMatch, mask, match uint64
		want                   bool
	}{
		{"exact", 0xFF, 0xFF, 0xFF, true},
		{"mismatch", 0xFF, 0xFF, 0xFE, false},
		{"wildcard mask 0", 0, 0, 0xDEADBEEF, true},
		{"masked", 0x1200, 0xFF00, 0x12AB, true},
	}
	for _, c := range cases {
		if got := Matches(c.recvMatch, c.mask, c.match); got != c.want {
			t.Errorf("%s: Matches(%#x, %#x, %#x) = %v, want %v", c.name, c.recvMatch, c.mask, c.match, got, c.want)
		}
	}
}

// TestClaimBefore pins the order wildcard receives claim in-progress
// assemblies in: source host, then endpoint, then sequence in serial
// order (so a sequence just past the wraparound comes after one just
// before it).
func TestClaimBefore(t *testing.T) {
	a0, a1, b0 := Addr{Host: "a", EP: 0}, Addr{Host: "a", EP: 1}, Addr{Host: "b", EP: 0}
	cases := []struct {
		name string
		aSrc Addr
		aSeq uint32
		bSrc Addr
		bSeq uint32
		want bool
	}{
		{"host first", a1, 9, b0, 1, true},
		{"host first, reversed", b0, 1, a1, 9, false},
		{"then endpoint", a0, 9, a1, 1, true},
		{"then sequence", a0, 1, a0, 2, true},
		{"later sequence", a0, 2, a0, 1, false},
		{"same claim", a0, 5, a0, 5, false},
		{"across wraparound", a0, ^uint32(0), a0, 1, true},
		{"across wraparound, reversed", a0, 1, a0, ^uint32(0), false},
	}
	for _, c := range cases {
		if got := ClaimBefore(c.aSrc, c.aSeq, c.bSrc, c.bSeq); got != c.want {
			t.Errorf("%s: ClaimBefore(%v/%d, %v/%d) = %v, want %v", c.name, c.aSrc, c.aSeq, c.bSrc, c.bSeq, got, c.want)
		}
	}
}
