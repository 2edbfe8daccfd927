// NIC-offloaded collectives: the firmware execution tier (AlgNIC)
// that World.Offload and CollOffload select for Barrier, Bcast,
// Allreduce and Scan. Each call posts one descriptor to the rank's
// collective-capable endpoint (openmx.CollCapable) and waits for the
// single completion event; every tree hop, combine and retransmission
// in between runs in NIC firmware and charges no host CPU. The
// nonblocking I*NIC forms expose the post/poll split the overlap
// figures measure.
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

// offload resolves the execution tier of an n-byte Barrier, Bcast,
// Allreduce or Scan: AlgNIC when World.Offload pins the NIC, or under
// OffloadAuto when CollOffload picks it and the transport can run it;
// host, the host algorithm's name, otherwise. Every rank evaluates the
// same inputs (size, world, setting, capability), so the decision is
// identical everywhere — the MPI requirement that all ranks run the
// same collective path.
func (r *Rank) offload(n int, host string) string {
	switch r.w.Offload {
	case OffloadNIC:
		return AlgNIC
	case OffloadHost:
		return host
	}
	if CollOffload(n, r.Size()) == OffloadNIC && r.w.nicCollCapable(n) {
		return AlgNIC
	}
	return host
}

// nicColl returns the rank's firmware collective group, registering
// it with the NIC on first use. It panics if the endpoint cannot
// offload — OffloadNIC fails loudly on a host-only transport.
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

// IbarrierNIC posts the firmware barrier descriptor and returns its
// request without waiting (poll with Test, finish with Wait).
func (r *Rank) IbarrierNIC() openmx.Request {
	return r.nicColl().PostBarrier(r.p)
}

// IbcastNIC posts the firmware broadcast descriptor without waiting.
func (r *Rank) IbcastNIC(root int, buf *cluster.Buffer, off, n int) openmx.Request {
	return r.nicColl().PostBcast(r.p, root, buf, off, n)
}

// IallreduceNIC posts the firmware allreduce descriptor without
// waiting.
func (r *Rank) IallreduceNIC(sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return r.nicColl().PostAllreduce(r.p, sbuf, rbuf, n)
}

// IscanNIC posts the firmware scan descriptor without waiting.
func (r *Rank) IscanNIC(sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return r.nicColl().PostScan(r.p, sbuf, rbuf, n)
}
