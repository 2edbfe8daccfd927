package proto

import "testing"

// FuzzStripeReassembly drives the shared reassembly primitives
// (Reassembly, CopyPlan) with adversarial cross-NIC
// fragment interleavings against a shadow model. The input program
// picks a lane count and fragment count, assigns fragments to lanes
// round-robin exactly like the striping transmit path, then replays
// deliveries lane by lane in arbitrary interleaved order — including
// duplicate re-deliveries, the retransmission-races-fresh-data case.
// A shadow set checks:
//
//   - Mark reports a fragment fresh exactly once; duplicates never
//     count twice (Arrived always equals the shadow's cardinality);
//   - Done holds exactly when every fragment arrived, and Missing is
//     always the precise complement bitmap (what a pull NeedMask
//     would re-request);
//   - CopyPlan — merged-prefix and per-fragment flavours — covers
//     exactly the bytes of the arrived fragments clipped to the
//     destination limit: no overlap, no hole mis-copied, nothing
//     beyond the limit, regardless of where the holes are.
//
// The committed seed corpus (testdata/fuzz/FuzzStripeReassembly)
// runs as plain tests in the fast CI job, like FuzzReliabilityWindow.
func FuzzStripeReassembly(f *testing.F) {
	f.Add([]byte{})
	// 2 lanes, 8 frags, in-order delivery on alternating lanes.
	f.Add([]byte{1, 7, 0, 1, 0, 1, 0, 1, 0, 1})
	// 4 lanes, 16 frags, one lane drained completely first (maximum
	// skew), then duplicates on another.
	f.Add([]byte{3, 15, 0, 0, 0, 0, 1, 1, 0x81, 0x89, 2, 3, 2, 3})
	// 3 lanes, 64 frags, interleaving with dup replays sprinkled in.
	long := []byte{2, 63}
	for i := 0; i < 96; i++ {
		long = append(long, byte(i*5+i%3), byte(0x80|i*7))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		lanes, frags := 1, 1
		var limit int
		if len(data) > 0 {
			lanes = 1 + int(data[0])%4
		}
		if len(data) > 1 {
			frags = 1 + int(data[1])%64
		}
		const fragSize = 8
		if len(data) > 2 {
			limit = int(data[2]) * (frags*fragSize + fragSize) / 256
		} else {
			limit = frags * fragSize
		}

		// Per-lane FIFOs of undelivered fragments (round-robin lane
		// assignment, as the transmit path stripes them) plus the
		// already-delivered list each lane can replay duplicates from.
		queues := make([][]int, lanes)
		replayable := make([][]int, lanes)
		for frag := 0; frag < frags; frag++ {
			queues[frag%lanes] = append(queues[frag%lanes], frag)
		}

		r := NewReassembly(frags)
		shadow := make(map[int]bool)

		deliver := func(frag int) {
			fresh := r.Mark(frag)
			if fresh == shadow[frag] {
				t.Fatalf("Mark(%d) fresh=%v, shadow delivered=%v", frag, fresh, shadow[frag])
			}
			shadow[frag] = true
		}

		var ops []byte
		if len(data) > 3 {
			ops = data[3:]
		}
		for _, op := range ops {
			lane := int(op) % lanes
			if op&0x80 != 0 && len(replayable[lane]) > 0 {
				// Retransmitted duplicate of something this lane
				// already delivered.
				deliver(replayable[lane][int(op>>3)%len(replayable[lane])])
			} else if len(queues[lane]) > 0 {
				frag := queues[lane][0]
				queues[lane] = queues[lane][1:]
				replayable[lane] = append(replayable[lane], frag)
				deliver(frag)
			}

			// Standing invariants against the shadow.
			if r.Arrived != len(shadow) {
				t.Fatalf("Arrived %d != shadow %d", r.Arrived, len(shadow))
			}
			if r.Done() != (len(shadow) == frags) {
				t.Fatalf("Done %v with %d/%d delivered", r.Done(), len(shadow), frags)
			}
			for frag := 0; frag < frags; frag++ {
				gotBit := r.Got&(uint64(1)<<uint(frag)) != 0
				if gotBit != shadow[frag] {
					t.Fatalf("Got bit %d = %v, shadow %v", frag, gotBit, shadow[frag])
				}
				missBit := r.Missing()&(uint64(1)<<uint(frag)) != 0
				if missBit == shadow[frag] {
					t.Fatalf("Missing bit %d = %v, shadow delivered=%v", frag, missBit, shadow[frag])
				}
			}
		}

		// The copy plans must move exactly the arrived bytes within
		// the limit — both the merged-prefix flavour (Open-MX's claim
		// fast path) and the per-fragment one (mxoe's).
		want := make([]bool, frags*fragSize)
		for frag := range shadow {
			for o := frag * fragSize; o < (frag+1)*fragSize && o < limit; o++ {
				want[o] = true
			}
		}
		for _, merge := range []bool{true, false} {
			covered := make([]bool, frags*fragSize)
			for _, run := range CopyPlan(r.Got, r.Arrived, fragSize, limit, merge) {
				if run.N <= 0 || run.Off < 0 || run.Off+run.N > limit {
					t.Fatalf("merge=%v: run %+v outside destination limit %d", merge, run, limit)
				}
				for o := run.Off; o < run.Off+run.N; o++ {
					if covered[o] {
						t.Fatalf("merge=%v: byte %d copied twice", merge, o)
					}
					covered[o] = true
				}
			}
			for o := range want {
				if covered[o] != want[o] {
					t.Fatalf("merge=%v: byte %d covered=%v, want %v (got=%#x arrived=%d limit=%d)",
						merge, o, covered[o], want[o], r.Got, r.Arrived, limit)
				}
			}
		}
	})
}
