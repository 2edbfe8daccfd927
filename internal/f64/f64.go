// Package f64 holds the float64 reduction both the host collectives
// (mpi) and the NIC firmware collectives (internal/mxoe) run: the
// MPI_SUM of MPI_DOUBLE vectors that IMB's Allreduce, Reduce and Scan
// use, on little-endian byte buffers.
package f64

import (
	"encoding/binary"
	"math"
)

// Sum adds src's float64 words into dst's, little-endian, over the
// shorter of the two. A trailing partial word is left untouched, so
// it keeps the local contribution. Both slices are cut to the summed
// length first and each word is taken as a fixed 8-byte slice, so the
// loop checks two slice bounds per word and no index.
func Sum(dst, src []byte) {
	n := min(len(dst), len(src)) &^ 7
	dst, src = dst[:n], src[:n]
	for i := 0; i < n; i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		a := math.Float64frombits(binary.LittleEndian.Uint64(d))
		b := math.Float64frombits(binary.LittleEndian.Uint64(s))
		binary.LittleEndian.PutUint64(d, math.Float64bits(a+b))
	}
}
