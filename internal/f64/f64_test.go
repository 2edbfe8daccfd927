package f64

import (
	"encoding/binary"
	"math"
	"testing"
)

func words(vs ...float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func TestSum(t *testing.T) {
	for _, tc := range []struct {
		name          string
		dst, src, out []byte
	}{
		{"empty", nil, nil, nil},
		{"one word", words(1.5), words(2.25), words(3.75)},
		{"three words", words(1, 2, 3), words(10, 20, 30), words(11, 22, 33)},
		{"negative and zero", words(-1, 0), words(1, -0.5), words(0, -0.5)},
		{"shorter src", words(1, 2, 3), words(10), words(11, 2, 3)},
		{"shorter dst", words(1), words(10, 20), words(11)},
		{"trailing partial word untouched", append(words(1), 0xaa, 0xbb), append(words(2), 1, 2), append(words(3), 0xaa, 0xbb)},
		{"only a partial word", []byte{1, 2, 3}, []byte{4, 5, 6}, []byte{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := append([]byte(nil), tc.src...)
			Sum(tc.dst, tc.src)
			if string(tc.dst) != string(tc.out) {
				t.Fatalf("dst = %v, want %v", tc.dst, tc.out)
			}
			if string(tc.src) != string(src) {
				t.Fatal("Sum changed src")
			}
		})
	}
}

// BenchmarkSum sums one 4 kB vector into another, the payload of one
// firmware collective fragment and of IMB's 4 kB Allreduce.
func BenchmarkSum(b *testing.B) {
	dst, src := make([]byte, 4096), make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(int64(len(dst)))
	for range b.N {
		Sum(dst, src)
	}
}
