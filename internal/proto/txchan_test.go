package proto

import (
	"testing"

	"omxsim/sim"
)

// TestTxChanStaleAckKeepsBackoff: only an ack that advances the acked
// edge resets the retransmission backoff; a duplicate or stale one
// leaves the timer's growth alone.
func TestTxChanStaleAckKeepsBackoff(t *testing.T) {
	tr, ctr := newTestTransport(t, 1, TransportConfig{RetransmitTimeout: testRtx, RetransmitBackoff: 2})
	var resent []sim.Time
	tc := NewTxChan(tr, Addr{Host: "peer"}, func(*TxChan[int]) { resent = append(resent, tr.H.E.Now()) })
	for i := 0; i < 4; i++ {
		tc.Sent(tc.Next(), i)
	}
	// The ack of 2 at 0.5 ms leaves 3 and 4 unacked. Unanswered
	// expiries at 1, 3, 7 and 15 ms (timeouts 1, 2, 4, 8 ms): the
	// duplicate and stale acks at 4 ms must not shorten them. The
	// fresh ack of 3 at 8 ms resets the backoff, so the expiry after
	// 15 ms comes after the base timeout again, at 17 ms.
	at(tr, testRtx/2, func() { tc.Ack(2) })
	at(tr, 4*testRtx, func() {
		if done := tc.Ack(2); done != nil {
			t.Errorf("duplicate ack completed %d sends", len(done))
		}
		if done := tc.Ack(1); done != nil {
			t.Errorf("stale ack completed %d sends", len(done))
		}
	})
	at(tr, 8*testRtx, func() { tc.Ack(3) })
	tr.H.E.RunUntil(17*testRtx + testRtx/2)
	want := []sim.Time{1 * testRtx, 3 * testRtx, 7 * testRtx, 15 * testRtx, 17 * testRtx}
	if !equalTimes(resent, want) {
		t.Fatalf("resends at %v, want %v", resent, want)
	}
	if tc.Edge() != 3 || ctr.EagerRetransmits != int64(len(want)) {
		t.Errorf("edge %d, EagerRetransmits %d; want 3 and %d", tc.Edge(), ctr.EagerRetransmits, len(want))
	}
	tc.Ack(4)
	if n := tr.H.E.Pending(); n != 0 {
		t.Errorf("%d events still scheduled after the last ack", n)
	}
}
