// NIC-offloaded collective variants: the firmware execution tier
// behind Tuning.CollOffload. Each variant posts one descriptor to the
// rank's collective-capable endpoint (openmx.CollCapable) and waits
// for the single completion event; every tree hop, combine and
// retransmission in between runs in NIC firmware and charges no host
// CPU. The nonblocking Ib* forms expose the post/poll split the
// overlap figures measure.
package mpi

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/openmx"
)

// nicCollCapable reports whether an n-byte collective can offload on
// this world: every endpoint implements openmx.CollCapable and n fits
// the smallest firmware payload cap among them. The capability scan
// runs once per world.
func (w *World) nicCollCapable(n int) bool {
	if w.nicCap == nil {
		capable := len(w.ranks) > 0
		w.nicMax = 0
		for i, r := range w.ranks {
			cc, ok := r.EP.(openmx.CollCapable)
			if !ok {
				capable = false
				break
			}
			if m := cc.CollMaxBytes(); i == 0 || m < w.nicMax {
				w.nicMax = m
			}
		}
		w.nicCap = &capable
	}
	return *w.nicCap && n <= w.nicMax
}

// collOffloadNIC resolves the offload tier for an n-byte collective
// call. Every rank evaluates the same inputs (size, world, tuning,
// capability), so the decision is identical everywhere — the MPI
// requirement that all ranks run the same collective path.
func (r *Rank) collOffloadNIC(n int) bool {
	return r.tune().CollOffload(n, r.Size(), r.w.nicCollCapable(n)) == OffloadNIC
}

// nicColl returns the rank's firmware collective group, registering
// it with the NIC on first use. It panics if the endpoint cannot
// offload — pinned NIC variants fail loudly on a host-only transport.
func (r *Rank) nicColl() openmx.CollGroup {
	if r.nicGroup != nil {
		return r.nicGroup
	}
	cc, ok := r.EP.(openmx.CollCapable)
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d endpoint (%T) does not support NIC-offloaded collectives", r.ID, r.EP))
	}
	w := r.w
	if w.nicMembers == nil {
		w.nicMembers = make([]openmx.Addr, r.Size())
		for i := range w.nicMembers {
			w.nicMembers[i] = w.ranks[i].EP.Addr()
		}
	}
	r.nicGroup = cc.CollJoin(w.nicMembers)
	return r.nicGroup
}

// BarrierNIC runs the firmware-offloaded barrier regardless of
// tuning: one descriptor post, one completion event.
func (r *Rank) BarrierNIC() {
	if r.Size() == 1 {
		return
	}
	r.Wait(r.IbarrierNIC())
}

// IbarrierNIC posts the firmware barrier descriptor and returns its
// request without waiting (poll with Test, finish with Wait).
func (r *Rank) IbarrierNIC() openmx.Request {
	return r.nicColl().PostBarrier(r.p)
}

// BcastNIC runs the firmware-offloaded broadcast regardless of
// tuning. On the root the buffer is snapshot at post; elsewhere the
// tree data is DMA-deposited into it.
func (r *Rank) BcastNIC(root int, buf *cluster.Buffer, off, n int) {
	if r.Size() == 1 {
		return
	}
	r.Wait(r.IbcastNIC(root, buf, off, n))
}

// IbcastNIC posts the firmware broadcast descriptor without waiting.
func (r *Rank) IbcastNIC(root int, buf *cluster.Buffer, off, n int) openmx.Request {
	return r.nicColl().PostBcast(r.p, root, buf, off, n)
}

// AllreduceNIC runs the firmware-offloaded allreduce regardless of
// tuning: contributions combine segment by segment in firmware on the
// way up the tree, and the result fans out into every rank's rbuf.
func (r *Rank) AllreduceNIC(sbuf, rbuf *cluster.Buffer, n int) {
	if r.Size() == 1 {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		return
	}
	r.Wait(r.IallreduceNIC(sbuf, rbuf, n))
}

// IallreduceNIC posts the firmware allreduce descriptor without
// waiting.
func (r *Rank) IallreduceNIC(sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return r.nicColl().PostAllreduce(r.p, sbuf, rbuf, n)
}

// ScanNIC runs the firmware-offloaded inclusive scan regardless of
// tuning: each NIC adds its contribution to the incoming prefix and
// forwards its result down the rank chain.
func (r *Rank) ScanNIC(sbuf, rbuf *cluster.Buffer, n int) {
	if r.Size() == 1 {
		copy(rbuf.Bytes()[:n], sbuf.Bytes()[:n])
		return
	}
	r.Wait(r.IscanNIC(sbuf, rbuf, n))
}

// IscanNIC posts the firmware scan descriptor without waiting.
func (r *Rank) IscanNIC(sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return r.nicColl().PostScan(r.p, sbuf, rbuf, n)
}
