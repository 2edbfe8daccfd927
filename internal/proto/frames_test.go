package proto

import (
	"testing"
)

// A transport frame goes back on the free list, header and load
// included, when its last copy is released, and the next transmission
// reuses it. With PoisonReleased set, the released frame has no
// payload and its headers and load read as poison.
func TestReleasedFrameIsPoisonedAndReused(t *testing.T) {
	PoisonReleased = true
	t.Cleanup(func() { PoisonReleased = false })
	tr, _ := newTestTransport(t, 1, TransportConfig{})
	r := tr.newFrame()
	r.frag = LargeFrag{RecvHandle: 3, Block: 1, FragID: 9, Offset: 9 * LargeFragSize}
	r.load = append(r.load[:0], 1, 2, 3)
	r.Data, r.Msg = r.load, &r.frag
	r.Hold()
	r.Hold()
	r.Release()
	if tr.frameFree != nil {
		t.Fatal("the frame went back with a copy still held")
	}
	r.Release()
	if tr.frameFree != r {
		t.Fatal("the frame did not go back at its last release")
	}
	m, ok := r.Msg.(*LargeFrag)
	if !ok || r.Data != nil || r.WireLen >= 0 || m.Offset != poisonInt || m.FragID != poisonInt || r.eager.Offset != poisonInt || r.pull.FirstFrag != poisonInt {
		t.Fatalf("released frame not poisoned: data %v, length %d, header %+v", r.Data, r.WireLen, r.Msg)
	}
	for _, b := range r.load {
		if b != poisonByte {
			t.Fatalf("released load not poisoned: %v", r.load)
		}
	}
	if tr.newFrame() != r || tr.frameFree != nil {
		t.Fatal("the next frame did not reuse the released one")
	}
}
