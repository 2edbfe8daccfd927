// Collective operations over the Rank point-to-point primitives.
//
// Every collective has (at least) two host algorithms — a
// latency-oriented tree/recursive-doubling form for small messages
// and small worlds, and a bandwidth-oriented ring/pipelined form for
// large messages — and Barrier, Bcast, Allreduce and Scan also run in
// NIC firmware (AlgNIC, see nic.go). Each operation has one unexported
// entry that runs a named algorithm (r.bcast(alg, ...)); the public
// dispatcher hands it the name its selector (BcastAlg, ...) picks from
// fixed (message size, world size) thresholds, exactly how MPICH-MX
// switched algorithms, unless World.Offload sends the call to the NIC.
//
// All host algorithms are built purely on ISend/IRecv/Wait, so they
// run unchanged over every stack (native MXoE, Open-MX, shared memory,
// I/OAT offload on or off). Tag discipline: each host collective call
// reserves one fresh 256-value tag block via nextCollTag (all ranks
// call collectives in the same order, an MPI requirement, so their
// counters agree); phases inside one call use globally unique
// sub-channel constants below the block. The firmware path takes no
// tag.
package mpi

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/internal/f64"
	"omxsim/openmx"
)

// Algorithm names returned by the *Alg selectors, accepted by the
// operations' entries and printed in figure annotations.
const (
	AlgBinomial          = "binomial"
	AlgScatterAllgather  = "scatter-allgather"
	AlgRecursiveDoubling = "recursive-doubling"
	AlgRing              = "ring"
	AlgReduceScatter     = "reduce-scatter"
	AlgBruck             = "bruck"
	AlgPairwise          = "pairwise"
	AlgPosted            = "posted"
	AlgLinear            = "linear"
	AlgDissemination     = "dissemination"
	AlgTree              = "tree"
	// AlgNIC is the firmware-offloaded variant: the whole collective
	// runs as a tree state machine on the NIC (openmx.CollCapable),
	// the host posting one descriptor and waiting for one completion.
	AlgNIC = "nic"
)

// Offload tiers for World.Offload: where Barrier, Bcast, Allreduce
// and Scan execute. OffloadAuto (also the zero value "") resolves per
// call — the NIC when every endpoint is collective-capable and
// CollOffload picks it; the host algorithms otherwise. OffloadHost
// pins the host algorithms; OffloadNIC pins the firmware path
// (panicking if the transport cannot offload).
const (
	OffloadAuto = "auto"
	OffloadHost = "host"
	OffloadNIC  = "nic"
)

// Sub-channel constants: the low byte of a collective's tag block,
// one per (operation, phase), so concurrent phases of one call can
// never cross-match.
const (
	subBarrier       = 1  // dissemination rounds / tree gather
	subBarrierRel    = 2  // tree release broadcast
	subBcastTree     = 3  // binomial broadcast
	subBcastScatter  = 4  // scatter-allgather: binomial scatter phase
	subBcastGather   = 5  // scatter-allgather: ring allgather phase
	subReduceTree    = 6  // binomial reduce
	subReduceRS      = 7  // reduce-scatter phase of large reduce
	subReduceGather  = 8  // chunk gather to root
	subARFold        = 9  // allreduce non-power-of-two fold
	subARDoubling    = 10 // allreduce recursive doubling rounds
	subARUnfold      = 11 // allreduce result return to folded ranks
	subARRingRS      = 12 // ring allreduce: reduce-scatter phase
	subARRingAG      = 13 // ring allreduce: allgather phase
	subAllgatherRing = 14
	subAllgatherRD   = 15
	subA2APairwise   = 16
	subA2ABruck      = 17
	subA2AVPairwise  = 18
	subA2AVPosted    = 19
	subGatherLinear  = 20
	subGatherTree    = 21
	subScatterLinear = 22
	subScatterTree   = 23
	subScan          = 24 // inclusive-scan doubling rounds
)

// MPICH-style selection thresholds, read only by the selectors below.
const (
	// At or above both, Bcast switches from the binomial tree to van
	// de Geijn scatter + ring allgather (moves 2·n instead of n·log p
	// per rank).
	bcastSegMinBytes = 64 << 10
	bcastSegMinRanks = 4
	// At or above, Allreduce switches from recursive doubling to ring
	// reduce-scatter + allgather (bandwidth-optimal, each rank moves
	// ≈2·n regardless of p) ...
	allreduceRingMinBytes = 32 << 10
	// ... provided the ring's per-rank chunk (n/p) also reaches this
	// floor: on very large worlds the ring's 2(p−1) rounds of tiny
	// chunks are latency-dominated and recursive doubling's log p
	// rounds win even for large n.
	allreduceRingMinChunkBytes = 1 << 10
	// At or above, Reduce switches from the binomial tree to
	// reduce-scatter + chunk gather (Rabenseifner).
	reduceRSMinBytes = 64 << 10
	// At or below this total (p·n) on a power-of-two world, Allgather
	// uses recursive doubling (log p rounds) instead of the ring (p−1
	// rounds).
	allgatherRDMaxBytes = 64 << 10
	// At or below the per-pair size and at or above the rank count,
	// Alltoall uses Bruck's log p rounds of aggregated blocks instead
	// of p−1 pairwise exchanges.
	alltoallBruckMaxBytes = 1 << 10
	alltoallBruckMinRanks = 8
	// At or below, Alltoallv posts every receive and send at once
	// (full overlap); above, it runs the congestion-bounded pairwise
	// schedule.
	alltoallvPostedMaxRanks = 4
	// At or below the block size and at or above the rank count,
	// Gather and Scatter use the binomial tree (log p latency) instead
	// of the linear root loop.
	gatherTreeMaxBytes = 16 << 10
	gatherTreeMinRanks = 4
	// At or above, Barrier uses the gather/release tree (2(p−1)
	// messages) instead of dissemination (p·log p messages, but lower
	// latency on small worlds).
	barrierTreeMinRanks = 16
	// Under OffloadAuto, worlds below this stay on the host algorithms:
	// on small worlds the log p hops are cheap and the host CPU saved
	// is negligible, while the NIC's slower combining rate still
	// applies.
	nicCollMinRanks = 32
	// Under OffloadAuto, payloads above this stay on the host (the
	// firmware's segment state is bounded; bulk data prefers the
	// bandwidth-optimal host rings anyway).
	nicCollMaxBytes = 256 << 10
)

// CollOffload is the offload tier OffloadAuto picks for an n-byte
// Barrier, Bcast, Allreduce or Scan on p ranks over a
// collective-capable transport. The dispatchers (through
// Rank.offload), the tests and the figure footers all consult it.
func CollOffload(n, p int) string {
	if p >= nicCollMinRanks && n <= nicCollMaxBytes {
		return OffloadNIC
	}
	return OffloadHost
}

// ScanAlg selects the host scan algorithm for n bytes on p ranks
// (one host variant exists: recursive doubling, Hillis-Steele).
func ScanAlg(n, p int) string { return AlgRecursiveDoubling }

// BcastAlg selects the broadcast algorithm for n bytes on p ranks.
func BcastAlg(n, p int) string {
	if n >= bcastSegMinBytes && p >= bcastSegMinRanks {
		return AlgScatterAllgather
	}
	return AlgBinomial
}

// ReduceAlg selects the reduce algorithm for n bytes on p ranks.
// The reduce-scatter path needs word-aligned chunks, so byte counts
// that are not a multiple of 8 always reduce over the tree.
func ReduceAlg(n, p int) string {
	if n >= reduceRSMinBytes && n%8 == 0 && p > 2 {
		return AlgReduceScatter
	}
	return AlgBinomial
}

// AllreduceAlg selects the allreduce algorithm for n bytes on p ranks.
func AllreduceAlg(n, p int) string {
	if n >= allreduceRingMinBytes && n/p >= allreduceRingMinChunkBytes && n%8 == 0 && p > 2 {
		return AlgRing
	}
	return AlgRecursiveDoubling
}

// AllgatherAlg selects the allgather algorithm for n bytes per rank
// on p ranks.
func AllgatherAlg(n, p int) string {
	if p*n <= allgatherRDMaxBytes && isPow2(p) {
		return AlgRecursiveDoubling
	}
	return AlgRing
}

// AlltoallAlg selects the all-to-all algorithm for n bytes per pair
// on p ranks.
func AlltoallAlg(n, p int) string {
	if n <= alltoallBruckMaxBytes && p >= alltoallBruckMinRanks {
		return AlgBruck
	}
	return AlgPairwise
}

// AlltoallvAlg selects the vector all-to-all schedule for p ranks.
func AlltoallvAlg(p int) string {
	if p <= alltoallvPostedMaxRanks {
		return AlgPosted
	}
	return AlgPairwise
}

// GatherAlg selects the gather algorithm for n-byte blocks on p ranks.
func GatherAlg(n, p int) string {
	if n <= gatherTreeMaxBytes && p >= gatherTreeMinRanks {
		return AlgBinomial
	}
	return AlgLinear
}

// ScatterAlg selects the scatter algorithm for n-byte blocks on p
// ranks (same trade-off as Gather).
func ScatterAlg(n, p int) string { return GatherAlg(n, p) }

// BarrierAlg selects the barrier algorithm for p ranks.
func BarrierAlg(p int) string {
	if p >= barrierTreeMinRanks {
		return AlgTree
	}
	return AlgDissemination
}

// noAlg is the panic message of an entry handed a name it has no
// algorithm for.
func noAlg(op, alg string) string {
	return fmt.Sprintf("mpi: %s has no algorithm %q", op, alg)
}

func isPow2(p int) bool { return p > 0 && p&(p-1) == 0 }

// ceilPow2 returns the smallest power of two ≥ p.
func ceilPow2(p int) int {
	m := 1
	for m < p {
		m <<= 1
	}
	return m
}

// floorPow2 returns the largest power of two ≤ p.
func floorPow2(p int) int {
	m := 1
	for m*2 <= p {
		m <<= 1
	}
	return m
}

// ringChunk returns the byte range [lo, hi) of chunk i when n bytes
// (a whole number of 8-byte reduction words) split into p contiguous
// word-aligned chunks. Chunks stay word-aligned so reduction values
// are never split across a chunk boundary.
func ringChunk(i, n, p int) (lo, hi int) {
	words := n / 8
	return i * words / p * 8, (i + 1) * words / p * 8
}

// vrank maps a virtual rank (root rotated to 0) back to a real rank.
func vrank(v, root, p int) int { return (v + root) % p }

// ---------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------

// Barrier synchronizes all ranks. The execution tier — NIC firmware
// or host — and the host algorithm (dissemination or gather/release
// tree) are picked from World.Offload and BarrierAlg.
func (r *Rank) Barrier() { r.barrier(r.offload(0, BarrierAlg(r.Size()))) }

// barrier runs the named barrier algorithm.
func (r *Rank) barrier(alg string) {
	if r.Size() == 1 {
		return
	}
	switch alg {
	case AlgNIC:
		r.Wait(r.IbarrierNIC())
	case AlgDissemination:
		r.barrierDissemination(r.nextCollTag())
	case AlgTree:
		r.barrierTree(r.nextCollTag())
	default:
		panic(noAlg("Barrier", alg))
	}
}

// barrierDissemination: log₂ p rounds, every rank active in every
// round.
func (r *Rank) barrierDissemination(tag int) {
	p := r.Size()
	for k := 1; k < p; k <<= 1 {
		dst := (r.ID + k) % p
		src := (r.ID - k + p) % p
		r.SendRecv(dst, tag|subBarrier, r.scratch, 0, 0, src, tag|subBarrier, r.scratch, 0, 0)
	}
}

func (r *Rank) barrierTree(tag int) {
	p, vr := r.Size(), r.ID
	// Gather phase: leaves report up the binomial tree to rank 0.
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			r.Send(vr&^mask, tag|subBarrier, r.scratch, 0, 0)
			break
		}
		if vr+mask < p {
			r.Recv(vr+mask, tag|subBarrier, r.scratch, 0, 0)
		}
	}
	// Release phase: rank 0 broadcasts the go signal back down.
	r.bcastBinomial(tag|subBarrierRel, 0, r.scratch, 0, 0)
}

// ---------------------------------------------------------------
// Bcast
// ---------------------------------------------------------------

// Bcast broadcasts n bytes at buf[off:] from root. Small messages run
// the binomial tree; large ones on enough ranks run van de Geijn
// scatter + ring allgather (2·n bytes per rank instead of n·log p);
// World.Offload may send the call to the NIC firmware instead.
func (r *Rank) Bcast(root int, buf *cluster.Buffer, off, n int) {
	r.bcast(r.offload(n, BcastAlg(n, r.Size())), root, buf, off, n)
}

// bcast runs the named broadcast algorithm. On the NIC the root's
// buffer is snapshot at post; elsewhere the tree data is
// DMA-deposited into it.
func (r *Rank) bcast(alg string, root int, buf *cluster.Buffer, off, n int) {
	if r.Size() == 1 {
		return
	}
	switch alg {
	case AlgNIC:
		r.Wait(r.IbcastNIC(root, buf, off, n))
	case AlgBinomial:
		r.bcastBinomial(r.nextCollTag()|subBcastTree, root, buf, off, n)
	case AlgScatterAllgather:
		r.bcastScatterAllgather(r.nextCollTag(), root, buf, off, n)
	default:
		panic(noAlg("Bcast", alg))
	}
}

// bcastBinomial: receive from the parent at the level of our lowest
// set bit (virtual ranks, root rotated to 0), forward to children
// below that level. tag is the complete message tag.
func (r *Rank) bcastBinomial(tag, root int, buf *cluster.Buffer, off, n int) {
	p := r.Size()
	vr := (r.ID - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			r.Recv(vrank(vr&^mask, root, p), tag, buf, off, n)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			r.Send(vrank(vr+mask, root, p), tag, buf, off, n)
		}
		mask >>= 1
	}
}

// bcastScatterAllgather splits the message into p segments (segment i
// = bytes [i·n/p, (i+1)·n/p)), binomial-scatters each subtree's
// segments down the tree, then ring-allgathers the segments among all
// ranks.
func (r *Rank) bcastScatterAllgather(tag, root int, buf *cluster.Buffer, off, n int) {
	p := r.Size()
	vr := (r.ID - root + p) % p
	seg := func(i int) int { return i * n / p }
	// Scatter phase: the parent sends each child the byte range of
	// the child's whole subtree [child, child+mask).
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			lo, hi := seg(vr), seg(min(vr+mask, p))
			r.Recv(vrank(vr&^mask, root, p), tag|subBcastScatter, buf, off+lo, hi-lo)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if child := vr + mask; child < p {
			lo, hi := seg(child), seg(min(child+mask, p))
			r.Send(vrank(child, root, p), tag|subBcastScatter, buf, off+lo, hi-lo)
		}
		mask >>= 1
	}
	// Allgather phase: ring over virtual ranks; in round k each rank
	// forwards the segment it received in round k−1.
	right := vrank((vr+1)%p, root, p)
	left := vrank((vr-1+p)%p, root, p)
	blk := vr
	for k := 0; k < p-1; k++ {
		next := (blk - 1 + p) % p
		r.SendRecv(right, tag|subBcastGather, buf, off+seg(blk), seg(blk+1)-seg(blk),
			left, tag|subBcastGather, buf, off+seg(next), seg(next+1)-seg(next))
		blk = next
	}
}

// ---------------------------------------------------------------
// Reduce / Allreduce
// ---------------------------------------------------------------

// Reduce sums n bytes of float64s from every rank's sbuf into root's
// rbuf. Non-root ranks may pass a nil rbuf. Small messages climb the
// binomial tree; large word-aligned ones run reduce-scatter followed
// by a chunk gather to the root (Rabenseifner).
func (r *Rank) Reduce(root int, sbuf, rbuf *cluster.Buffer, n int) {
	r.reduce(ReduceAlg(n, r.Size()), root, sbuf, rbuf, n)
}

// reduce runs the named reduce algorithm. Both algorithms handle a
// one-rank world themselves, so it takes no shortcut.
func (r *Rank) reduce(alg string, root int, sbuf, rbuf *cluster.Buffer, n int) {
	switch alg {
	case AlgBinomial:
		r.reduceBinomial(r.nextCollTag()|subReduceTree, root, sbuf, rbuf, n)
	case AlgReduceScatter:
		r.reduceRSGather(r.nextCollTag(), root, sbuf, rbuf, n)
	default:
		panic(noAlg("Reduce", alg))
	}
}

func (r *Rank) reduceBinomial(tag, root int, sbuf, rbuf *cluster.Buffer, n int) {
	p := r.Size()
	// Accumulate into a local temporary.
	acc := r.Host.Alloc(n)
	copy(acc.Bytes(), sbuf.Bytes()[:n])
	vr := (r.ID - root + p) % p
	tmp := r.Host.Alloc(n)
	for k := 1; k < p; k <<= 1 {
		if vr&k != 0 {
			r.Send(vrank(vr&^k, root, p), tag, acc, 0, n)
			break
		}
		if vr+k < p {
			r.Recv(vrank(vr+k, root, p), tag, tmp, 0, n)
			f64.Sum(acc.Bytes()[:n], tmp.Bytes()[:n])
			r.chargeCompute(n)
		}
	}
	if r.ID == root && rbuf != nil {
		copy(rbuf.Bytes()[:n], acc.Bytes()[:n])
	}
}

func (r *Rank) reduceRSGather(tag, root int, sbuf, rbuf *cluster.Buffer, n int) {
	p := r.Size()
	if n%8 != 0 {
		panic(fmt.Sprintf("mpi: reduce-scatter path needs 8-byte-aligned length, got %d", n))
	}
	if p == 1 {
		if rbuf != nil {
			copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		}
		return
	}
	acc := r.Host.Alloc(n)
	copy(acc.Bytes(), sbuf.Bytes()[:n])
	r.ringReduceScatter(tag|subReduceRS, acc, n)
	// After the ring, rank i holds the fully reduced chunk (i+1) mod p.
	own := (r.ID + 1) % p
	lo, hi := ringChunk(own, n, p)
	if r.ID == root {
		out := rbuf
		if out == nil {
			out = acc // keep the schedule identical even with no rbuf
		} else {
			copy(out.Bytes()[lo:hi], acc.Bytes()[lo:hi])
		}
		for src := 0; src < p; src++ {
			if src == root {
				continue
			}
			slo, shi := ringChunk((src+1)%p, n, p)
			if shi > slo {
				r.Recv(src, tag|subReduceGather, out, slo, shi-slo)
			}
		}
	} else if hi > lo {
		r.Send(root, tag|subReduceGather, acc, lo, hi-lo)
	}
}

// ringReduceScatter runs p−1 ring steps over acc's word-aligned
// chunks; afterwards chunk (ID+1) mod p of acc holds the full sum.
func (r *Rank) ringReduceScatter(tag int, acc *cluster.Buffer, n int) {
	p := r.Size()
	right := (r.ID + 1) % p
	left := (r.ID - 1 + p) % p
	maxChunk := (n/8 + p - 1) / p * 8 // upper bound on any chunk size
	tmp := r.Host.Alloc(maxChunk)
	for step := 0; step < p-1; step++ {
		sendC := ((r.ID-step)%p + p) % p
		recvC := ((r.ID-step-1)%p + p) % p
		slo, shi := ringChunk(sendC, n, p)
		rlo, rhi := ringChunk(recvC, n, p)
		r.SendRecv(right, tag, acc, slo, shi-slo, left, tag, tmp, 0, rhi-rlo)
		f64.Sum(acc.Bytes()[rlo:rhi], tmp.Bytes()[:rhi-rlo])
		r.chargeCompute(rhi - rlo)
	}
}

// Allreduce sums n bytes of float64s across all ranks into every
// rank's rbuf. Small messages run recursive doubling (with a fold to
// the nearest power of two); large word-aligned ones run the
// bandwidth-optimal ring (reduce-scatter + allgather); World.Offload
// may send the call to the NIC firmware instead, which combines
// contributions segment by segment on the way up its tree.
func (r *Rank) Allreduce(sbuf, rbuf *cluster.Buffer, n int) {
	r.allreduce(r.offload(n, AllreduceAlg(n, r.Size())), sbuf, rbuf, n)
}

// allreduce runs the named allreduce algorithm.
func (r *Rank) allreduce(alg string, sbuf, rbuf *cluster.Buffer, n int) {
	if r.Size() == 1 {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		return
	}
	switch alg {
	case AlgNIC:
		r.Wait(r.IallreduceNIC(sbuf, rbuf, n))
	case AlgRecursiveDoubling:
		r.allreduceRD(r.nextCollTag(), sbuf, rbuf, n)
	case AlgRing:
		r.allreduceRing(r.nextCollTag(), sbuf, rbuf, n)
	default:
		panic(noAlg("Allreduce", alg))
	}
}

// allreduceRD: fold the ranks beyond the largest power of two into
// their even neighbours, recursive-double among the power-of-two set,
// then return the result to the folded ranks.
func (r *Rank) allreduceRD(tag int, sbuf, rbuf *cluster.Buffer, n int) {
	p, id := r.Size(), r.ID
	copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
	tmp := r.Host.Alloc(n)
	pof2 := floorPow2(p)
	rem := p - pof2
	newID := -1
	switch {
	case id < 2*rem && id%2 == 0:
		r.Send(id+1, tag|subARFold, rbuf, 0, n)
	case id < 2*rem:
		r.Recv(id-1, tag|subARFold, tmp, 0, n)
		f64.Sum(rbuf.Bytes()[:n], tmp.Bytes()[:n])
		r.chargeCompute(n)
		newID = id / 2
	default:
		newID = id - rem
	}
	if newID >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			pn := newID ^ mask
			partner := pn + rem
			if pn < rem {
				partner = pn*2 + 1
			}
			r.SendRecv(partner, tag|subARDoubling, rbuf, 0, n,
				partner, tag|subARDoubling, tmp, 0, n)
			f64.Sum(rbuf.Bytes()[:n], tmp.Bytes()[:n])
			r.chargeCompute(n)
		}
	}
	if id < 2*rem {
		if id%2 == 0 {
			r.Recv(id+1, tag|subARUnfold, rbuf, 0, n)
		} else {
			r.Send(id-1, tag|subARUnfold, rbuf, 0, n)
		}
	}
}

// allreduceRing: ring reduce-scatter, then ring allgather of the
// reduced chunks. Every rank sends and receives ≈2·n bytes total
// regardless of world size.
func (r *Rank) allreduceRing(tag int, sbuf, rbuf *cluster.Buffer, n int) {
	p := r.Size()
	if n%8 != 0 {
		panic(fmt.Sprintf("mpi: ring allreduce needs 8-byte-aligned length, got %d", n))
	}
	copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
	r.ringReduceScatter(tag|subARRingRS, rbuf, n)
	right := (r.ID + 1) % p
	left := (r.ID - 1 + p) % p
	for step := 0; step < p-1; step++ {
		sendC := ((r.ID+1-step)%p + p) % p
		recvC := ((r.ID-step)%p + p) % p
		slo, shi := ringChunk(sendC, n, p)
		rlo, rhi := ringChunk(recvC, n, p)
		r.SendRecv(right, tag|subARRingAG, rbuf, slo, shi-slo,
			left, tag|subARRingAG, rbuf, rlo, rhi-rlo)
	}
}

// Scan computes the inclusive prefix sum: rank i's rbuf receives the
// float64 sum of every rank's n-byte sbuf from ranks 0..i (MPI_Scan
// with MPI_SUM). The execution tier — NIC firmware chain or the host
// recursive-doubling algorithm — is picked from World.Offload.
func (r *Rank) Scan(sbuf, rbuf *cluster.Buffer, n int) {
	r.scan(r.offload(n, ScanAlg(n, r.Size())), sbuf, rbuf, n)
}

// scan runs the named scan algorithm.
func (r *Rank) scan(alg string, sbuf, rbuf *cluster.Buffer, n int) {
	if r.Size() == 1 {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		return
	}
	switch alg {
	case AlgNIC:
		r.Wait(r.IscanNIC(sbuf, rbuf, n))
	case AlgRecursiveDoubling:
		r.scanRD(r.nextCollTag()|subScan, sbuf, rbuf, n)
	default:
		panic(noAlg("Scan", alg))
	}
}

// scanRD: in round k (distance d = 2^k) rank i sends its running
// prefix to rank i+d and folds in the prefix from rank i−d; after
// log₂ p rounds every rank holds the sum of contributions 0..i. The
// outgoing prefix is snapshot before the round's exchange so the
// incoming addition never leaks into it.
func (r *Rank) scanRD(tag int, sbuf, rbuf *cluster.Buffer, n int) {
	p, id := r.Size(), r.ID
	copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
	snap := r.Host.Alloc(max(n, 1))
	tmp := r.Host.Alloc(max(n, 1))
	for d := 1; d < p; d <<= 1 {
		copy(snap.Bytes()[:n], rbuf.Bytes()[:n])
		var sreq, rreq openmx.Request
		if id+d < p {
			sreq = r.Isend(id+d, tag, snap, 0, n)
		}
		if id-d >= 0 {
			rreq = r.Irecv(id-d, tag, tmp, 0, n)
		}
		if rreq != nil {
			r.Wait(rreq)
			f64.Sum(rbuf.Bytes()[:n], tmp.Bytes()[:n])
			r.chargeCompute(n)
		}
		if sreq != nil {
			r.Wait(sreq)
		}
	}
}

// ReduceScatter reduces p·chunk bytes and scatters one chunk to each
// rank: rank i receives chunk i of the sum in rbuf. Composed from the
// tuned Reduce and Scatter, so both phases pick their own algorithm.
func (r *Rank) ReduceScatter(sbuf, rbuf *cluster.Buffer, chunk int) {
	p := r.Size()
	total := chunk * p
	var full *cluster.Buffer
	if r.ID == 0 {
		full = r.Host.Alloc(total)
	}
	r.Reduce(0, sbuf, full, total)
	r.Scatter(0, full, chunk, rbuf)
}

// ---------------------------------------------------------------
// Allgather
// ---------------------------------------------------------------

// Allgather gathers n bytes from every rank into rbuf (p·n bytes,
// rank i's block at offset i·n). Small totals on power-of-two worlds
// run recursive doubling; everything else runs the ring.
func (r *Rank) Allgather(sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	r.allgather(AllgatherAlg(n, r.Size()), sbuf, n, rbuf)
}

// allgather runs the named allgather algorithm; recursive doubling
// needs a power-of-two world.
func (r *Rank) allgather(alg string, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	if r.Size() == 1 {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		return
	}
	switch alg {
	case AlgRecursiveDoubling:
		r.allgatherRD(r.nextCollTag()|subAllgatherRD, sbuf, n, rbuf)
	case AlgRing:
		sizes := make([]int, r.Size())
		for i := range sizes {
			sizes[i] = n
		}
		r.Allgatherv(sbuf, n, rbuf, sizes)
	default:
		panic(noAlg("Allgather", alg))
	}
}

func (r *Rank) allgatherRD(tag int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	p, id := r.Size(), r.ID
	if !isPow2(p) {
		panic(fmt.Sprintf("mpi: recursive-doubling allgather needs a power-of-two world, got %d", p))
	}
	copy(rbuf.Bytes()[id*n:(id+1)*n], sbuf.Bytes()[:n])
	// At step mask, each rank holds the mask consecutive blocks of
	// its group [base, base+mask) and swaps them with its partner's.
	for mask := 1; mask < p; mask <<= 1 {
		partner := id ^ mask
		base := id &^ (mask - 1)
		pbase := base ^ mask
		r.SendRecv(partner, tag, rbuf, base*n, mask*n,
			partner, tag, rbuf, pbase*n, mask*n)
	}
}

// Allgatherv is Allgather with per-rank block sizes (ring schedule:
// in round k, forward the block received in round k−1).
func (r *Rank) Allgatherv(sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer, sizes []int) {
	p := r.Size()
	offs := make([]int, p+1)
	for i := 0; i < p; i++ {
		offs[i+1] = offs[i] + sizes[i]
	}
	copy(rbuf.Bytes()[offs[r.ID]:offs[r.ID]+sizes[r.ID]], sbuf.Bytes()[:sizes[r.ID]])
	if p == 1 {
		return
	}
	tag := r.nextCollTag()
	right := (r.ID + 1) % p
	left := (r.ID - 1 + p) % p
	blk := r.ID
	for k := 0; k < p-1; k++ {
		recvBlk := (blk - 1 + p) % p
		r.SendRecv(right, tag|subAllgatherRing, rbuf, offs[blk], sizes[blk],
			left, tag|subAllgatherRing, rbuf, offs[recvBlk], sizes[recvBlk])
		blk = recvBlk
	}
}

// ---------------------------------------------------------------
// Alltoall / Alltoallv
// ---------------------------------------------------------------

// Alltoall exchanges n-byte chunks between every pair: sbuf holds p
// chunks (chunk j for rank j), rbuf receives p chunks (chunk i from
// rank i). Small chunks on large worlds run Bruck's algorithm (log p
// rounds of aggregated blocks); otherwise the pairwise exchange.
func (r *Rank) Alltoall(sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	r.alltoall(AlltoallAlg(n, r.Size()), sbuf, n, rbuf)
}

// alltoall runs the named all-to-all algorithm.
func (r *Rank) alltoall(alg string, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	copy(rbuf.Bytes()[r.ID*n:(r.ID+1)*n], sbuf.Bytes()[r.ID*n:(r.ID+1)*n])
	if r.Size() == 1 {
		return
	}
	switch alg {
	case AlgPairwise:
		r.alltoallPairwise(r.nextCollTag()|subA2APairwise, sbuf, n, rbuf)
	case AlgBruck:
		r.alltoallBruck(r.nextCollTag()|subA2ABruck, sbuf, n, rbuf)
	default:
		panic(noAlg("Alltoall", alg))
	}
}

func (r *Rank) alltoallPairwise(tag int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	p := r.Size()
	for k := 1; k < p; k++ {
		dst := (r.ID + k) % p
		src := (r.ID - k + p) % p
		r.SendRecv(dst, tag, sbuf, dst*n, n, src, tag, rbuf, src*n, n)
	}
}

// alltoallBruck: rotate chunks so index i is the data for rank ID+i,
// then in round 2^k ship every chunk whose index has bit k set
// forward by 2^k ranks (packed into one message), and finally unpick
// the arrived chunks — index i then holds the data from rank ID−i.
func (r *Rank) alltoallBruck(tag int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	p, id := r.Size(), r.ID
	tmp := r.Host.Alloc(p * n)
	pack := r.Host.Alloc((p/2 + 1) * n)
	unpack := r.Host.Alloc((p/2 + 1) * n)
	for i := 0; i < p; i++ {
		src := (id + i) % p
		copy(tmp.Bytes()[i*n:(i+1)*n], sbuf.Bytes()[src*n:(src+1)*n])
	}
	for mask := 1; mask < p; mask <<= 1 {
		k := 0
		for i := 0; i < p; i++ {
			if i&mask != 0 {
				copy(pack.Bytes()[k*n:(k+1)*n], tmp.Bytes()[i*n:(i+1)*n])
				k++
			}
		}
		dst := (id + mask) % p
		src := (id - mask + p) % p
		r.SendRecv(dst, tag, pack, 0, k*n, src, tag, unpack, 0, k*n)
		k = 0
		for i := 0; i < p; i++ {
			if i&mask != 0 {
				copy(tmp.Bytes()[i*n:(i+1)*n], unpack.Bytes()[k*n:(k+1)*n])
				k++
			}
		}
	}
	for src := 0; src < p; src++ {
		i := (id - src + p) % p
		copy(rbuf.Bytes()[src*n:(src+1)*n], tmp.Bytes()[i*n:(i+1)*n])
	}
}

// Alltoallv is Alltoall with explicit per-destination send sizes and
// per-source receive sizes (used by the NAS IS bucket exchange).
// Small worlds post everything at once for maximal overlap; larger
// ones run the congestion-bounded pairwise schedule.
func (r *Rank) Alltoallv(sbuf *cluster.Buffer, soffs, scounts []int, rbuf *cluster.Buffer, roffs, rcounts []int) {
	r.alltoallv(AlltoallvAlg(r.Size()), sbuf, soffs, scounts, rbuf, roffs, rcounts)
}

// alltoallv runs the named vector all-to-all schedule.
func (r *Rank) alltoallv(alg string, sbuf *cluster.Buffer, soffs, scounts []int, rbuf *cluster.Buffer, roffs, rcounts []int) {
	copy(rbuf.Bytes()[roffs[r.ID]:roffs[r.ID]+rcounts[r.ID]],
		sbuf.Bytes()[soffs[r.ID]:soffs[r.ID]+scounts[r.ID]])
	if r.Size() == 1 {
		return
	}
	switch alg {
	case AlgPairwise:
		r.alltoallvPairwise(r.nextCollTag()|subA2AVPairwise, sbuf, soffs, scounts, rbuf, roffs, rcounts)
	case AlgPosted:
		r.alltoallvPosted(r.nextCollTag()|subA2AVPosted, sbuf, soffs, scounts, rbuf, roffs, rcounts)
	default:
		panic(noAlg("Alltoallv", alg))
	}
}

func (r *Rank) alltoallvPairwise(tag int, sbuf *cluster.Buffer, soffs, scounts []int, rbuf *cluster.Buffer, roffs, rcounts []int) {
	p := r.Size()
	for k := 1; k < p; k++ {
		dst := (r.ID + k) % p
		src := (r.ID - k + p) % p
		r.SendRecv(dst, tag, sbuf, soffs[dst], scounts[dst],
			src, tag, rbuf, roffs[src], rcounts[src])
	}
}

func (r *Rank) alltoallvPosted(tag int, sbuf *cluster.Buffer, soffs, scounts []int, rbuf *cluster.Buffer, roffs, rcounts []int) {
	p := r.Size()
	reqs := make([]openmx.Request, 0, 2*(p-1))
	for k := 1; k < p; k++ {
		src := (r.ID - k + p) % p
		reqs = append(reqs, r.Irecv(src, tag, rbuf, roffs[src], rcounts[src]))
	}
	for k := 1; k < p; k++ {
		dst := (r.ID + k) % p
		reqs = append(reqs, r.Isend(dst, tag, sbuf, soffs[dst], scounts[dst]))
	}
	for _, q := range reqs {
		r.Wait(q)
	}
}

// ---------------------------------------------------------------
// Gather / Scatter
// ---------------------------------------------------------------

// Gather collects n bytes from every rank into root's rbuf (rank i's
// block at offset i·n; non-root ranks may pass a nil rbuf). Small
// blocks on enough ranks climb the binomial tree; large ones run the
// linear root loop.
func (r *Rank) Gather(root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	r.gather(GatherAlg(n, r.Size()), root, sbuf, n, rbuf)
}

// gather runs the named gather algorithm.
func (r *Rank) gather(alg string, root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	if r.Size() == 1 {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		return
	}
	switch alg {
	case AlgLinear:
		r.gatherLinear(r.nextCollTag()|subGatherLinear, root, sbuf, n, rbuf)
	case AlgBinomial:
		r.gatherBinomial(r.nextCollTag()|subGatherTree, root, sbuf, n, rbuf)
	default:
		panic(noAlg("Gather", alg))
	}
}

func (r *Rank) gatherLinear(tag, root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	p := r.Size()
	if r.ID == root {
		copy(rbuf.Bytes()[root*n:(root+1)*n], sbuf.Bytes()[:n])
		for src := 0; src < p; src++ {
			if src != root {
				r.Recv(src, tag, rbuf, src*n, n)
			}
		}
	} else {
		r.Send(root, tag, sbuf, 0, n)
	}
}

// gatherBinomial collects blocks up the binomial tree in virtual-rank
// order (each subtree's blocks are contiguous), then the root rotates
// them into real-rank order.
func (r *Rank) gatherBinomial(tag, root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	p := r.Size()
	vr := (r.ID - root + p) % p
	ext := subtreeExtent(vr, p)
	tmp := r.Host.Alloc(ext * n)
	copy(tmp.Bytes()[:n], sbuf.Bytes()[:n])
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			have := min(mask, p-vr)
			r.Send(vrank(vr&^mask, root, p), tag, tmp, 0, have*n)
			break
		}
		if child := vr + mask; child < p {
			cnt := min(mask, p-child)
			r.Recv(vrank(child, root, p), tag, tmp, mask*n, cnt*n)
		}
	}
	if vr == 0 {
		for v := 0; v < p; v++ {
			dst := vrank(v, root, p)
			copy(rbuf.Bytes()[dst*n:(dst+1)*n], tmp.Bytes()[v*n:(v+1)*n])
		}
	}
}

// Scatter distributes root's sbuf (p blocks of n bytes, block i for
// rank i) so every rank receives its block in rbuf. Non-root ranks
// may pass a nil sbuf. Algorithm selection mirrors Gather.
func (r *Rank) Scatter(root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	r.scatter(ScatterAlg(n, r.Size()), root, sbuf, n, rbuf)
}

// scatter runs the named scatter algorithm.
func (r *Rank) scatter(alg string, root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	if r.Size() == 1 {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		return
	}
	switch alg {
	case AlgLinear:
		r.scatterLinear(r.nextCollTag()|subScatterLinear, root, sbuf, n, rbuf)
	case AlgBinomial:
		r.scatterBinomial(r.nextCollTag()|subScatterTree, root, sbuf, n, rbuf)
	default:
		panic(noAlg("Scatter", alg))
	}
}

func (r *Rank) scatterLinear(tag, root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	p := r.Size()
	if r.ID == root {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[root*n:(root+1)*n])
		for dst := 0; dst < p; dst++ {
			if dst != root {
				r.Send(dst, tag, sbuf, dst*n, n)
			}
		}
	} else {
		r.Recv(root, tag, rbuf, 0, n)
	}
}

// scatterBinomial is the inverse of gatherBinomial: the root rotates
// blocks into virtual-rank order, each parent forwards every child
// its whole subtree's blocks, and each rank keeps block 0.
func (r *Rank) scatterBinomial(tag, root int, sbuf *cluster.Buffer, n int, rbuf *cluster.Buffer) {
	p := r.Size()
	vr := (r.ID - root + p) % p
	ext := subtreeExtent(vr, p)
	tmp := r.Host.Alloc(ext * n)
	mask := 1
	if vr == 0 {
		for v := 0; v < p; v++ {
			src := vrank(v, root, p)
			copy(tmp.Bytes()[v*n:(v+1)*n], sbuf.Bytes()[src*n:(src+1)*n])
		}
		mask = ceilPow2(p)
	} else {
		for ; mask < p; mask <<= 1 {
			if vr&mask != 0 {
				r.Recv(vrank(vr&^mask, root, p), tag, tmp, 0, ext*n)
				break
			}
		}
	}
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if child := vr + mask; child < p {
			cnt := min(mask, p-child)
			r.Send(vrank(child, root, p), tag, tmp, mask*n, cnt*n)
		}
	}
	copy(rbuf.Bytes()[:n], tmp.Bytes()[:n])
}

// subtreeExtent is the number of binomial-tree blocks rank vr relays:
// its own plus every descendant's (the tree is over virtual ranks, so
// the blocks are contiguous and the extent clips at p).
func subtreeExtent(vr, p int) int {
	if vr == 0 {
		return p
	}
	return min(vr&-vr, p-vr)
}
