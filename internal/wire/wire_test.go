package wire

import (
	"fmt"
	"testing"

	"omxsim/platform"
	"omxsim/sim"
)

type sink struct {
	name    string
	frames  []*Frame
	arrived []sim.Time
	e       *sim.Engine
}

func (s *sink) Address() string { return s.name }
func (s *sink) Arrive(f *Frame) {
	s.frames = append(s.frames, f)
	s.arrived = append(s.arrived, s.e.Now())
}

func setup() (*sim.Engine, *platform.Platform, *sink, *Hose) {
	e := sim.New()
	p := platform.Clovertown()
	dst := &sink{name: "dst", e: e}
	return e, p, dst, NewHose(e, p, dst)
}

func TestSerializeTime(t *testing.T) {
	_, p, _, h := setup()
	// 8224 wire bytes + 38 framing at 1.25 GB/s ≈ 6.6 µs.
	d := h.SerializeTime(8224)
	want := sim.Duration(float64(8224+p.EthFrameOverhead) / float64(p.WireRate))
	if d != want {
		t.Fatalf("serialize = %v, want %v", d, want)
	}
}

func TestDeliveryLatency(t *testing.T) {
	e, p, dst, h := setup()
	h.Send(&Frame{WireLen: 1000})
	e.Run()
	if len(dst.frames) != 1 {
		t.Fatal("frame lost")
	}
	want := h.SerializeTime(1000) + sim.Duration(p.WirePropagation)
	if dst.arrived[0] != want {
		t.Fatalf("arrived at %v, want %v", dst.arrived[0], want)
	}
}

func TestFIFOAndBackToBackPacing(t *testing.T) {
	e, _, dst, h := setup()
	for i := 0; i < 5; i++ {
		h.Send(&Frame{WireLen: 2000, Msg: i})
	}
	e.Run()
	if len(dst.frames) != 5 {
		t.Fatalf("delivered %d", len(dst.frames))
	}
	ser := h.SerializeTime(2000)
	for i := range dst.frames {
		if dst.frames[i].Msg.(int) != i {
			t.Fatalf("order broken: %v", dst.frames[i].Msg)
		}
		if i > 0 {
			gap := dst.arrived[i] - dst.arrived[i-1]
			if gap != ser {
				t.Fatalf("gap %d = %v, want %v", i, gap, ser)
			}
		}
	}
}

func TestStatsAndDrop(t *testing.T) {
	e, _, dst, h := setup()
	n := 0
	h.Drop = func(f *Frame) bool { n++; return n == 2 }
	for i := 0; i < 3; i++ {
		h.Send(&Frame{WireLen: 100})
	}
	e.Run()
	if len(dst.frames) != 2 || h.FramesDropped != 1 || h.FramesSent != 2 {
		t.Fatalf("frames=%d dropped=%d sent=%d", len(dst.frames), h.FramesDropped, h.FramesSent)
	}
	if h.BytesSent != 200 {
		t.Fatalf("bytes=%d", h.BytesSent)
	}
}

func TestQueueLen(t *testing.T) {
	e, _, _, h := setup()
	for i := 0; i < 4; i++ {
		h.Send(&Frame{WireLen: 8000})
	}
	if h.QueueLen() == 0 {
		t.Fatal("queue empty while serializing")
	}
	e.Run()
	if h.QueueLen() != 0 {
		t.Fatalf("queue = %d after drain", h.QueueLen())
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_, _, _, h := setup()
	h.Send(&Frame{WireLen: -1})
}

func TestSwitchRoutesByAddress(t *testing.T) {
	e := sim.New()
	p := platform.Clovertown()
	a := &sink{name: "a", e: e}
	b := &sink{name: "b", e: e}
	sw := NewSwitch(e, p)
	hoseA := sw.Attach(a)
	_ = sw.Attach(b)
	hoseA.Send(&Frame{WireLen: 100, DstAddr: "b"})
	hoseA.Send(&Frame{WireLen: 100, DstAddr: "a"}) // hairpin back
	hoseA.Send(&Frame{WireLen: 100, DstAddr: "zz"})
	e.Run()
	if len(b.frames) != 1 || len(a.frames) != 1 {
		t.Fatalf("a=%d b=%d", len(a.frames), len(b.frames))
	}
	if sw.FramesForwarded != 2 || sw.FramesUnknown != 1 {
		t.Fatalf("forwarded=%d unknown=%d", sw.FramesForwarded, sw.FramesUnknown)
	}
}

func TestSwitchAddsStoreAndForwardLatency(t *testing.T) {
	e := sim.New()
	p := platform.Clovertown()
	a := &sink{name: "a", e: e}
	b := &sink{name: "b", e: e}
	sw := NewSwitch(e, p)
	hoseA := sw.Attach(a)
	_ = sw.Attach(b)
	hoseA.Send(&Frame{WireLen: 1000, DstAddr: "b"})
	e.Run()
	direct := NewHose(e, p, b).SerializeTime(1000) + sim.Duration(p.WirePropagation)
	if b.arrived[0] <= direct {
		t.Fatalf("switched path (%v) not slower than direct (%v)", b.arrived[0], direct)
	}
}

// echoPort sends one extra frame back on its own incoming hose from
// inside Arrive, when the frame it is told about arrives.
type echoPort struct {
	sink
	h      *Hose
	on     any
	echoed bool
}

func (p *echoPort) Arrive(f *Frame) {
	p.sink.Arrive(f)
	if f.Msg == p.on && !p.echoed {
		p.echoed = true
		p.h.Send(&Frame{WireLen: 100, Msg: "echo"})
	}
}

// TestSendFromArriveKeepsFIFO sends a frame on a hose from inside the
// peer's Arrive for the first of three frames queued on that hose. The
// hose reuses its queue and its in-flight slot across callbacks, so
// the new frame must go out after the two still queued.
func TestSendFromArriveKeepsFIFO(t *testing.T) {
	e := sim.New()
	p := platform.Clovertown()
	dst := &echoPort{sink: sink{name: "dst", e: e}, on: 0}
	h := NewHose(e, p, dst)
	dst.h = h
	for i := range 3 {
		h.Send(&Frame{WireLen: 4000, Msg: i})
	}
	e.Run()
	var got []any
	for _, f := range dst.frames {
		got = append(got, f.Msg)
	}
	if fmt.Sprint(got) != "[0 1 2 echo]" {
		t.Fatalf("arrival order %v, want [0 1 2 echo]", got)
	}
	for i := 1; i < len(dst.arrived); i++ {
		if dst.arrived[i] <= dst.arrived[i-1] {
			t.Fatalf("arrival times %v not increasing", dst.arrived)
		}
	}
}

// countPort counts arrivals without keeping them.
type countPort struct {
	name string
	n    int
}

func (c *countPort) Address() string { return c.name }
func (c *countPort) Arrive(*Frame)   { c.n++ }

// BenchmarkHoseHop sends one frame through a hose into a switch, which
// forwards it over its output hose to a sink port: the per-frame hops
// of every switched transfer. The allocation gate (make benchalloc)
// requires 0 allocs/op.
func BenchmarkHoseHop(b *testing.B) {
	e := sim.New()
	p := platform.Clovertown()
	sw := NewSwitch(e, p)
	dst := &countPort{name: "dst"}
	in := sw.Attach(dst)
	f := &Frame{WireLen: 8224, DstAddr: dst.name, SrcAddr: "src"}
	for range 1000 {
		in.Send(f)
		e.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		in.Send(f)
		e.Run()
	}
	b.StopTimer()
	if dst.n != b.N+1000 {
		b.Fatalf("sink got %d frames, want %d", dst.n, b.N+1000)
	}
}
