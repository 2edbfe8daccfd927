// Package mpi implements the message-passing middleware layer the
// paper benchmarks through (MPICH-MX in the original): ranks,
// tag/source matching, blocking and nonblocking point-to-point, and
// the collective operations the Intel MPI Benchmarks exercise (see
// coll.go for the collective algorithms and their selection).
//
// It is transport-neutral: a World is built from openmx.Endpoint
// values, which both the Open-MX stack and the native MXoE baseline
// provide, so every benchmark runs unchanged over either (exactly how
// MPICH-MX ran over both MX and Open-MX thanks to API compatibility).
//
// Reductions operate on real float64 data (little-endian), so
// collective results are integrity-checked in tests, and reduction
// compute time is charged to the rank's core.
package mpi

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/internal/cpu"
	"omxsim/openmx"
	"omxsim/sim"
)

// AnySource matches messages from any rank.
const AnySource = -1

// collTagBase separates collective traffic from user tags.
const collTagBase = 0x4000_0000

// World is a set of communicating ranks.
type World struct {
	C *cluster.Cluster
	// Offload selects where Barrier, Bcast, Allreduce and Scan
	// execute: OffloadAuto (the default) resolves per call,
	// OffloadHost and OffloadNIC pin a tier. Set it before Spawn.
	Offload string
	ranks   []*Rank

	// Cached NIC-collective capability: whether every rank's endpoint
	// implements openmx.CollCapable, and the smallest firmware payload
	// cap across them (resolved once, at the first collective).
	nicCap *bool
	nicMax int
	// nicMembers is every rank's endpoint address in rank order: the
	// member list all ranks join their firmware group with (built
	// once, at the first NIC collective).
	nicMembers []openmx.Addr
}

// NewWorld returns an empty world on the cluster.
func NewWorld(c *cluster.Cluster) *World {
	return &World{C: c}
}

// AddRank registers the next rank (IDs are assigned in call order),
// communicating through ep, running on the given host and core.
func (w *World) AddRank(ep openmx.Endpoint, h *cluster.Host, core int) *Rank {
	r := &Rank{w: w, ID: len(w.ranks), EP: ep, Host: h, Core: core}
	r.scratch = h.Alloc(8)
	w.ranks = append(w.ranks, r)
	return r
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank id.
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// Spawn starts one simulated process per rank running body. The
// caller then drives the cluster (c.Run / c.RunFor).
func (w *World) Spawn(body func(r *Rank)) {
	for _, r := range w.ranks {
		w.C.Go(fmt.Sprintf("rank%d", r.ID), func(p *sim.Proc) {
			r.p = p
			body(r)
		})
	}
}

// Rank is one MPI process.
type Rank struct {
	w    *World
	ID   int
	EP   openmx.Endpoint
	Host *cluster.Host
	Core int

	p       *sim.Proc
	collSeq uint32
	scratch *cluster.Buffer

	// nicGroup is the rank's firmware collective group, registered on
	// first use when the offload tier selects the NIC (see coll.go).
	nicGroup openmx.CollGroup
}

// Proc returns the simulated process running this rank (valid inside
// Spawn's body).
func (r *Rank) Proc() *sim.Proc { return r.p }

// Now returns the current simulated time.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Size reports the world size.
func (r *Rank) Size() int { return r.w.Size() }

// Produce marks buf as freshly written by this rank's application
// code (cache warmth on its core).
func (r *Rank) Produce(buf *cluster.Buffer) { buf.Produce(r.Core) }

// matchFor encodes (source rank, tag) into the 64-bit MX match space.
func matchFor(src int, tag int) (match, mask uint64) {
	match = uint64(src+1)<<32 | uint64(uint32(tag))
	mask = ^uint64(0)
	if src == AnySource {
		match = uint64(uint32(tag))
		mask = 0xFFFFFFFF
	}
	return match, mask
}

func (r *Rank) addrOf(rank int) openmx.Addr { return r.w.ranks[rank].EP.Addr() }

// Isend starts a nonblocking send to rank dst.
func (r *Rank) Isend(dst, tag int, buf *cluster.Buffer, off, n int) openmx.Request {
	match := uint64(r.ID+1)<<32 | uint64(uint32(tag))
	return r.EP.ISend(r.p, r.addrOf(dst), match, buf, off, n)
}

// Irecv starts a nonblocking receive from rank src (or AnySource).
func (r *Rank) Irecv(src, tag int, buf *cluster.Buffer, off, n int) openmx.Request {
	match, mask := matchFor(src, tag)
	return r.EP.IRecv(r.p, match, mask, buf, off, n)
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req openmx.Request) { r.EP.Wait(r.p, req) }

// Test drives a progress pass and reports whether the request
// completed — the polling half of the overlap methodology (compute in
// quanta, Test between them).
func (r *Rank) Test(req openmx.Request) bool { return r.EP.Test(r.p, req) }

// Send is a blocking send.
func (r *Rank) Send(dst, tag int, buf *cluster.Buffer, off, n int) {
	r.Wait(r.Isend(dst, tag, buf, off, n))
}

// Recv is a blocking receive; it returns the delivered length.
func (r *Rank) Recv(src, tag int, buf *cluster.Buffer, off, n int) int {
	req := r.Irecv(src, tag, buf, off, n)
	r.Wait(req)
	return req.Len()
}

// SendRecv posts the receive, sends, then waits for both (the
// deadlock-free MPI_Sendrecv shape).
func (r *Rank) SendRecv(dst, stag int, sbuf *cluster.Buffer, soff, sn int,
	src, rtag int, rbuf *cluster.Buffer, roff, rn int) {
	rreq := r.Irecv(src, rtag, rbuf, roff, rn)
	sreq := r.Isend(dst, stag, sbuf, soff, sn)
	r.Wait(rreq)
	r.Wait(sreq)
}

// nextCollTag reserves a fresh tag block for one collective call.
// All ranks invoke collectives in the same order (an MPI requirement),
// so their sequence counters agree.
func (r *Rank) nextCollTag() int {
	r.collSeq++
	return collTagBase | int(r.collSeq%0x100000)<<8
}

// chargeCompute accounts local computation (reduction arithmetic).
func (r *Rank) chargeCompute(bytes int) {
	d := sim.Duration(float64(bytes) / float64(r.Host.C.P.ReduceRate))
	r.Host.Machine().Sys.Core(r.Core).RunOn(r.p, cpu.AppCompute, d)
}

// Compute charges application computation time proportional to the
// bytes processed (at the platform's streaming compute rate). Used by
// application-level workloads such as the NAS IS proxy.
func (r *Rank) Compute(bytes int) { r.chargeCompute(bytes) }

// ComputeFor occupies the rank's core with application computation
// for exactly d, accounted to the app-compute CPU ledger (the
// methodology behind the `omxsim avail` figure). Slice long
// computations into quanta — calling ComputeFor repeatedly with
// Test/Progress in between — so bottom-half work can interleave, as
// it would under a preemptive kernel.
func (r *Rank) ComputeFor(d sim.Duration) {
	if d <= 0 {
		return
	}
	r.Host.Machine().Sys.Core(r.Core).RunOn(r.p, cpu.AppCompute, d)
}
