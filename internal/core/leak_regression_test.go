package core

import (
	"testing"

	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/sim"
)

// TestRingSlotLeakRegression replays a seed that once leaked a ring
// slot: a retransmitted fragment of a still-assembling message
// arrived in the bottom half moments after the receiving process's
// last Wait drained the event queue; the duplicate consumed a slot
// and queued an event nobody would ever process. The driver's
// fragment dedup (proto.RxChan.FragSeen in rxEager) now rejects it
// before it can touch the ring. The seed depends on the timing of a
// since-deleted option, so TestRetransmittedFragmentTakesNoSlot is the
// deterministic guard of the same check.
func TestRingSlotLeakRegression(t *testing.T) {
	if !propertyStressRun(t, 4172331362154327243) {
		t.Fatal("seed regressed")
	}
}

// TestRetransmittedFragmentTakesNoSlot: fragment 0 of a two-fragment
// message reaches the bottom half twice — the original and a
// retransmission — while fragment 1 never arrives, so the message is
// still assembling and no process drains B's events. The duplicate
// must take no ring slot and queue no event, and counts once in
// DupFrags. The test holds the captured frame, so the sender's
// transport keeps it for the replay, whose delivery releases it.
func TestRetransmittedFragmentTakesNoSlot(t *testing.T) {
	pr := newPair(t, Config{}, Config{})
	var frag0 *wire.Frame
	pr.sa.H.NIC.Hose().Drop = func(f *wire.Frame) bool {
		m, ok := f.Msg.(*proto.Eager)
		if ok && m.FragID == 0 && frag0 == nil {
			f.Hold()
			frag0 = f
		}
		return ok && m.FragID == 1
	}
	src := pr.sa.H.Alloc(2 * proto.MediumFragSize)
	pr.e.Go("send", func(p *sim.Proc) {
		pr.epA.ISend(p, pr.epB.Addr(), 1, src, 0, src.Size())
	})
	// Well inside the retransmission timeout: only the originals flew.
	pr.e.RunUntil(pr.e.Now() + 500*sim.Microsecond)
	if frag0 == nil || len(pr.epB.evq) != 1 || pr.epB.slots.Free() != proto.RingSlots-1 {
		t.Fatalf("after the original: captured %v, %d events, %d free slots; want a frame, 1, %d",
			frag0 != nil, len(pr.epB.evq), pr.epB.slots.Free(), proto.RingSlots-1)
	}
	dups := pr.sb.Stats.DupFrags

	pr.sb.H.NIC.Arrive(frag0) // the retransmission
	pr.e.RunUntil(pr.e.Now() + 500*sim.Microsecond)
	if len(pr.epB.evq) != 1 || pr.epB.slots.Free() != proto.RingSlots-1 {
		t.Fatalf("the duplicate reached the ring: %d events, %d free slots; want 1, %d",
			len(pr.epB.evq), pr.epB.slots.Free(), proto.RingSlots-1)
	}
	if got := pr.sb.Stats.DupFrags - dups; got != 1 {
		t.Fatalf("DupFrags rose by %d, want 1", got)
	}
}
