package proto

import "fmt"

// Hole-aware fragment reassembly, shared by both stacks.
//
// With traffic striped across multiple NICs, fragments of one message
// arrive arbitrarily interleaved: lanes queue independently, one lane
// may be impaired while another is clean, and retransmissions overtake
// fresh data. Reassembly therefore cannot assume contiguous arrival
// anywhere — the bitmap below is the single bookkeeping primitive
// behind every per-message fragment set in both stacks: the eager
// receive channel's dedup bitmaps (RxChan), both libraries' eager
// assemblies, the pull blocks (PullBlock) and MXoE's collective
// payload vectors. CopyPlan turns an arbitrary arrival bitmap into the
// exact set of copies needed to move what arrived, holes and all.
// FuzzStripeReassembly drives these against a shadow model over
// adversarial cross-lane interleavings.

// Reassembly tracks which fragments of one message (or one pull
// block) have been accepted. Fragment identifiers are 0-based and
// bounded by 64 (the wire NeedMask width).
type Reassembly struct {
	// Got is the accepted-fragment bitmap (bit i = fragment i).
	Got uint64
	// Arrived counts accepted fragments.
	Arrived int
	// Frags is the total fragment count.
	Frags int
}

// NewReassembly starts tracking a message of frags fragments.
func NewReassembly(frags int) Reassembly {
	if frags < 1 || frags > 64 {
		panic(fmt.Sprintf("proto: fragment count %d out of range 1..64", frags))
	}
	return Reassembly{Frags: frags}
}

// Mark accepts fragment i and reports whether it was fresh (false
// means a duplicate, which must not be double-counted or re-copied).
func (r *Reassembly) Mark(i int) bool {
	bit := uint64(1) << uint(i)
	if r.Got&bit != 0 {
		return false
	}
	r.Got |= bit
	r.Arrived++
	return true
}

// Done reports whether every fragment arrived.
func (r *Reassembly) Done() bool { return r.Arrived == r.Frags }

// FullMask is the bitmap of a complete message.
func (r *Reassembly) FullMask() uint64 { return (uint64(1) << uint(r.Frags)) - 1 }

// Missing is the bitmap of fragments still outstanding — the NeedMask
// of a retransmission request.
func (r *Reassembly) Missing() uint64 { return ^r.Got & r.FullMask() }

// Run is one contiguous copy of a reassembly plan: N bytes at message
// offset Off.
type Run struct{ Off, N int }

// CopyPlan computes the copies that move the arrived fragments of a
// partially assembled message into its final destination: the claim
// path, where a posted receive adopts an in-progress unexpected
// assembly. got/arrived describe the arrival bitmap, fragSize the
// per-fragment payload, and limit the destination capacity (truncated
// receives copy nothing beyond it).
//
// With mergePrefix, a hole-free prefix (the loss-free common case)
// collapses into one run — the single memcpy the Open-MX library
// performs. Otherwise, and always beyond the first hole, each arrived
// fragment is its own run at its own offset: a prefix copy would
// silently drop data that arrived beyond a hole and will never be
// retransmitted.
func CopyPlan(got uint64, arrived, fragSize, limit int, mergePrefix bool) []Run {
	if mergePrefix && got == (uint64(1)<<uint(arrived))-1 {
		n := arrived * fragSize
		if n > limit {
			n = limit
		}
		if n <= 0 {
			return nil
		}
		return []Run{{Off: 0, N: n}}
	}
	var plan []Run
	for f := 0; got>>uint(f) != 0; f++ {
		if got&(uint64(1)<<uint(f)) == 0 {
			continue
		}
		off := f * fragSize
		n := fragSize
		if off+n > limit {
			n = limit - off
		}
		if n <= 0 {
			continue
		}
		plan = append(plan, Run{Off: off, N: n})
	}
	return plan
}
