package proto

import "testing"

// TestRxChan drives the receive channel through accept/complete
// programs and checks, for each (sequence, fragment) afterwards, the
// two duplicate verdicts a stack takes in order: IsDup (the message
// completed) and FragSeen (the fragment of a message still
// assembling was accepted).
func TestRxChan(t *testing.T) {
	const last = ^uint32(0) // the final sequence before wraparound
	type op struct {
		complete bool // Complete(seq); otherwise Accept(seq, frag, frags)
		seq      uint32
		frag     int
		frags    int
		done     bool // Accept's verdict
	}
	type probe struct {
		seq       uint32
		frag      int
		dup, seen bool
	}
	for _, tc := range []struct {
		name     string
		edge     uint32
		ops      []op
		probes   []probe
		wantEdge uint32
	}{
		{
			name: "window-dup-versus-frag-dup",
			ops: []op{
				{seq: 1, frag: 0, frags: 2},
				{seq: 2, frag: 0, frags: 1, done: true},
				{complete: true, seq: 2},
			},
			probes: []probe{
				{seq: 1, frag: 0, seen: true}, // fragment duplicate
				{seq: 1, frag: 1},             // still missing
				{seq: 2, frag: 0, dup: true},  // window duplicate, ahead of the edge
			},
			wantEdge: 0,
		},
		{
			// A fragment the stack checked but dropped (no slot) was
			// never accepted: its retransmission must get through.
			name: "checked-but-not-accepted-stays-unseen",
			ops: []op{
				{seq: 1, frag: 1, frags: 3},
			},
			probes: []probe{
				{seq: 1, frag: 0},
				{seq: 1, frag: 1, seen: true},
				{seq: 1, frag: 2},
				{seq: 2, frag: 0},
			},
		},
		{
			name: "complete-retires-the-bitmap",
			ops: []op{
				{seq: 1, frag: 1, frags: 2},
				{seq: 1, frag: 0, frags: 2, done: true},
				{complete: true, seq: 1},
			},
			probes: []probe{
				{seq: 1, frag: 0, dup: true},
				{seq: 1, frag: 1, dup: true},
				{seq: 2, frag: 0},
			},
			wantEdge: 1,
		},
		{
			// The edge lands on the last sequence before the wrap,
			// then moves to 1, skipping the no-ack sentinel 0; the
			// next post-wrap sequence is not a duplicate.
			name: "wraparound",
			edge: last - 1,
			ops: []op{
				{seq: last, frag: 0, frags: 1, done: true},
				{complete: true, seq: last},
				{seq: 1, frag: 0, frags: 2},
				{seq: 1, frag: 1, frags: 2, done: true},
				{complete: true, seq: 1},
				{seq: 2, frag: 0, frags: 2},
			},
			probes: []probe{
				{seq: last, frag: 0, dup: true},
				{seq: 1, frag: 1, dup: true},
				{seq: 2, frag: 0, seen: true},
				{seq: 2, frag: 1},
			},
			wantEdge: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := RxChan{Window: NewWindowAt(tc.edge)}
			for i, o := range tc.ops {
				if o.complete {
					c.Complete(o.seq)
				} else if got := c.Accept(o.seq, o.frag, o.frags); got != o.done {
					t.Fatalf("op %d: Accept(%d, %d, %d) = %v, want %v", i, o.seq, o.frag, o.frags, got, o.done)
				}
			}
			for _, p := range tc.probes {
				if dup := c.IsDup(p.seq); dup != p.dup {
					t.Errorf("IsDup(%d) = %v, want %v", p.seq, dup, p.dup)
				}
				if seen := c.FragSeen(p.seq, p.frag); seen != p.seen {
					t.Errorf("FragSeen(%d, %d) = %v, want %v", p.seq, p.frag, seen, p.seen)
				}
			}
			if c.Edge() != tc.wantEdge {
				t.Errorf("edge %d, want %d", c.Edge(), tc.wantEdge)
			}
		})
	}
}
