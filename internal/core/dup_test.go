package core

import (
	"bytes"
	"testing"

	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// frameTap sits between a hose and the receiving NIC and records a
// private copy of every payload as first delivered. It holds each
// frame it records, so the sender's transport cannot reuse the frame
// before the test compares it; release gives the frames back.
type frameTap struct {
	wire.Port
	sent map[*wire.Frame][]byte
}

func (t *frameTap) Arrive(f *wire.Frame) {
	if _, seen := t.sent[f]; !seen {
		f.Hold()
		t.sent[f] = bytes.Clone(f.Data)
	}
	t.Port.Arrive(f)
}

// release ends the tap's hold on every recorded frame.
func (t *frameTap) release() {
	for f := range t.sent {
		f.Release()
	}
}

// The receive path wraps a frame's payload instead of copying it, so
// a duplicate delivery hands the same bytes to the NIC twice. Every
// A→B frame is duplicated here: each message must still arrive intact
// and no frame's payload may change after it was sent.
func TestDuplicateFramesShareImmutablePayload(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
	}{
		{"eager", Config{}, 9000},
		{"rendezvous", Config{}, 300 * 1024},
		{"rendezvous-ioat", Config{IOAT: true}, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.New()
			t.Cleanup(e.Close)
			p := platform.Clovertown()
			ha, hb := newHost(e, p, "hostA"), newHost(e, p, "hostB")
			tap := &frameTap{Port: hb.NIC, sent: map[*wire.Frame][]byte{}}
			ab, ba := wire.Connect(e, p, ha.NIC, tap)
			ab.SetImpairment(wire.Impairment{Seed: 1, DupRate: 1})
			ha.NIC.SetHose(ab)
			hb.NIC.SetHose(ba)
			sa, sb := Attach(ha, tc.cfg), Attach(hb, tc.cfg)
			pr := &pair{e: e, p: p, sa: sa, sb: sb, epA: sa.OpenEndpoint(0, 2), epB: sb.OpenEndpoint(0, 2)}

			sendRecv(t, pr, tc.n)
			if ab.FramesDuped == 0 || sb.Stats.DupFrags == 0 {
				t.Fatalf("no duplicates delivered: %d duped on the wire, %d dup fragments", ab.FramesDuped, sb.Stats.DupFrags)
			}
			for f, orig := range tap.sent {
				if !bytes.Equal(f.Data, orig) {
					t.Fatalf("a %T frame's payload changed after it was sent", f.Msg)
				}
			}
			tap.release()
		})
	}
}
