package proto

import "testing"

// FuzzReliabilityWindow drives the receive window and the transmit
// channel both stacks share (Window, TxChan) with an arbitrary
// operation program, starting just below the 32-bit sequence
// wraparound so every run crosses it. Operations: issue a new sequence, deliver an
// issued sequence (possibly again — a retransmission), apply the
// receiver's current cumulative ack, and replay an arbitrary stale
// ack. A shadow model checks the invariants the protocol relies on:
//
//   - a sequence is reported fresh exactly once (duplicates are
//     always flagged, fresh traffic never is);
//   - sequence 0 is never issued (it is the wire's no-ack sentinel);
//   - the cumulative edge only covers delivered sequences;
//   - acks complete each send exactly once, in serial order, and
//     stale or duplicate acks complete nothing;
//   - the channel's acked edge is the newest cumulative ack it was
//     given, so a stale or duplicate ack never moves it (it is what
//     keeps such an ack from resetting the retransmission backoff);
//   - every unacked send stays strictly after the acked edge.
//
// The committed seed corpus (testdata/fuzz/FuzzReliabilityWindow)
// runs as plain tests in the fast CI job.
func FuzzReliabilityWindow(f *testing.F) {
	// sendID names one issued send: the channel's payload, which the
	// shadow model checks is completed exactly once.
	type sendID int

	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 2, 0})
	// Issue a window's worth, deliver out of order, ack mid-stream.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 3, 1, 1, 1, 0, 2, 0, 1, 2, 2, 0})
	// Duplicate deliveries and stale acks.
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 7, 3, 0, 0, 0, 1, 1, 1, 1})
	// Long run: march the window well past the wraparound.
	long := make([]byte, 0, 512)
	for i := 0; i < 128; i++ {
		long = append(long, 0, 0, 1, byte(i), 2, 0, 3, byte(i*3))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = uint32(0xFFFFFF80) // 128 sequences before wrap
		win := NewWindowAt(base)
		tx := NewTxChanAt[sendID](nil, Addr{}, nil, base)
		acked := base // the model's cumulative ack edge

		delivered := make(map[uint32]bool)
		ackedSend := make(map[sendID]bool)
		var issued []uint32
		var ackValues []uint32 // cumulative edges seen, for stale replay

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%4, data[i+1]
			switch op {
			case 0: // sender issues a new message
				seq := tx.Next()
				if seq == 0 {
					t.Fatal("sequence 0 issued")
				}
				tx.Unacked = append(tx.Unacked, &Unacked[sendID]{Seq: seq, Data: sendID(len(issued))})
				issued = append(issued, seq)
			case 1: // deliver an issued sequence (dup if re-delivered)
				if len(issued) == 0 {
					continue
				}
				seq := issued[int(arg)%len(issued)]
				wasDup := win.IsDup(seq)
				if wasDup != delivered[seq] {
					t.Fatalf("IsDup(%d) = %v, model says delivered=%v", seq, wasDup, delivered[seq])
				}
				if !wasDup {
					win.MarkComplete(seq)
					delivered[seq] = true
					if !win.IsDup(seq) {
						t.Fatalf("seq %d not dup immediately after completion", seq)
					}
				}
			case 2: // receiver acks its current cumulative edge
				edge := win.Edge()
				ackValues = append(ackValues, edge)
				fresh := SeqAfter(edge, acked)
				done := tx.ApplyCumulative(edge)
				for _, u := range done {
					if ackedSend[u.Data] {
						t.Fatal("request completed twice")
					}
					ackedSend[u.Data] = true
					if SeqAfter(u.Seq, edge) {
						t.Fatalf("ack %d completed later seq %d", edge, u.Seq)
					}
				}
				if fresh {
					acked = edge
				} else if done != nil {
					t.Fatalf("non-advancing ack %d (edge %d) completed %d sends", edge, acked, len(done))
				}
			case 3: // replay an old ack (stale/duplicate)
				if len(ackValues) == 0 {
					continue
				}
				old := ackValues[int(arg)%len(ackValues)]
				if !SeqAfter(old, acked) {
					if done := tx.ApplyCumulative(old); done != nil {
						t.Fatalf("stale ack %d (edge %d) completed %d sends", old, acked, len(done))
					}
				}
			}
			// Standing invariants.
			if tx.Edge() != acked {
				t.Fatalf("channel acked edge %d, model says %d", tx.Edge(), acked)
			}
			for _, u := range tx.Unacked {
				if !SeqAfter(u.Seq, acked) {
					t.Fatalf("unacked seq %d not after acked edge %d", u.Seq, acked)
				}
			}
			if !win.IsDup(win.Edge()) && win.Edge() != base {
				t.Fatalf("cumulative edge %d not covered by its own window", win.Edge())
			}
		}
		// The cumulative edge must cover only delivered sequences:
		// walk back from the edge to the base.
		for s := win.Edge(); s != base; s-- {
			if s == 0 {
				continue // skipped sentinel
			}
			if !delivered[s] {
				t.Fatalf("edge %d covers undelivered seq %d", win.Edge(), s)
			}
		}
	})
}
