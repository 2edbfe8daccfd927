package proto

// NIC-offloaded collective wire messages. A collective group is a
// fixed member list every participant registers locally (the group ID
// is a hash of the list, so all NICs derive it without wire traffic);
// each posted collective consumes the group's next sequence number
// (MPI requires all ranks to invoke collectives in the same order, so
// the counters agree). The firmware then runs the operation as a tree
// of CollData hops — fan-in contributions toward the root, combined
// segment by segment, and a fan-out of the result — with per-hop acks
// and retransmission, all below the host's sight. Quadrics and
// Myrinet NICs ran barriers and broadcasts this way; the model
// follows that protocol family.

// CollOp identifies a firmware collective operation.
type CollOp uint8

const (
	CollBarrier CollOp = iota + 1
	CollBcast
	CollAllreduce
	CollScan
)

func (op CollOp) String() string {
	switch op {
	case CollBarrier:
		return "barrier"
	case CollBcast:
		return "bcast"
	case CollAllreduce:
		return "allreduce"
	case CollScan:
		return "scan"
	}
	return "?"
}

// CollMaxFrags bounds a collective payload: fragment bitmaps are one
// 64-bit word, so firmware collectives carry at most 64 eager-size
// fragments (256 kiB). Larger payloads stay on the host algorithms.
const CollMaxFrags = 64

// CollData is one hop of a firmware collective: Down=false carries a
// child's contribution up the tree (barrier join, allreduce partial);
// Down=true carries the root's payload down (barrier release, bcast
// data, allreduce result) or a scan prefix along the rank chain.
// SrcRank is the sender's index in the group's member list — the
// receiver's tree state is keyed by it. Payloads fragment at
// MediumFragSize with FragID/FragCount/Offset exactly like Eager.
type CollData struct {
	Src, Dst  Addr
	Group     uint64
	Seq       uint32
	Op        CollOp
	Down      bool
	SrcRank   int
	Root      int
	MsgLen    int
	FragID    int
	FragCount int
	Offset    int
}

// CollAck acknowledges one CollData fragment hop-by-hop (Src is the
// acking NIC). The sending firmware retransmits unacked fragments
// with backoff; receivers deduplicate via per-call bitmaps.
type CollAck struct {
	Src, Dst Addr
	Group    uint64
	Seq      uint32
	Down     bool
	SrcRank  int
	FragID   int
}
