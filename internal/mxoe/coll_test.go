package mxoe

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"omxsim/internal/host"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// collWorld is hosts×ppn MXoE endpoints on one switch, joined in one
// firmware collective group in host-major rank order.
type collWorld struct {
	e      *sim.Engine
	hosts  []*host.Host
	stacks []*Stack
	eps    []*Endpoint
	gs     []*CollGroup
}

// newCollWorld builds the world. A non-zero impairment is installed on
// every switch output port and every NIC→switch link, each with its
// own seed; same-host hops take the NIC loopback and stay clean.
func newCollWorld(t *testing.T, hosts, ppn int, cfg Config, im wire.Impairment) *collWorld {
	t.Helper()
	e := sim.New()
	t.Cleanup(e.Close)
	p := platform.Clovertown()
	sw := wire.NewSwitch(e, p)
	sw.PortImpair = im
	w := &collWorld{e: e}
	var members []proto.Addr
	for i := range hosts {
		h := host.New(e, p, fmt.Sprintf("cw%d", i))
		up := sw.Attach(h.NIC)
		if im.Enabled() {
			up.SetImpairment(im.WithPortSeed("up:" + h.NIC.Name))
		}
		h.NIC.SetHose(up)
		s := Attach(h, cfg)
		w.hosts, w.stacks = append(w.hosts, h), append(w.stacks, s)
		for j := range ppn {
			ep := s.OpenEndpoint(j, 2+2*j)
			w.eps = append(w.eps, ep)
			members = append(members, ep.Addr())
		}
	}
	for _, ep := range w.eps {
		w.gs = append(w.gs, ep.CollJoin(members))
	}
	return w
}

// run starts one proc per rank running body and runs the engine until
// every rank is done, or fails after a minute of simulated time.
func (w *collWorld) run(t *testing.T, body func(r int, p *sim.Proc)) {
	t.Helper()
	done := 0
	for r := range w.eps {
		w.e.Go(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			body(r, p)
			done++
		})
	}
	w.e.RunUntil(w.e.Now() + 60*sim.Second)
	if done != len(w.eps) {
		t.Fatalf("%d of %d ranks finished; blocked: %v", done, len(w.eps), w.e.BlockedProcs())
	}
}

// putFloats writes vals as little-endian float64s into b.
func putFloats(b *hostmem.Buffer, vals []float64) {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	b.WriteAt(raw, 0)
}

// floatsOf reads n float64s from b.
func floatsOf(b *hostmem.Buffer, n int) []float64 {
	raw := make([]byte, 8*n)
	b.ReadAt(raw, 0)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// contribution is rank r's input to collective call k: small integers,
// so every summation order gives the exact same float64 result.
func contribution(r, k, words int) []float64 {
	v := make([]float64, words)
	for j := range v {
		v[j] = float64((r+1)*1000 + k*7 + j%97)
	}
	return v
}

// poisonRounds runs rounds of firmware Allreduce, Bcast, Scan and
// Barrier calls of n bytes on every rank of w and returns the wrong
// results. Set proto.PoisonReleased first: a call whose buffers were
// released while something could still read them delivers poison
// instead of the exact result, and reading a released hop or ack
// record panics.
func poisonRounds(t *testing.T, w *collWorld, rounds, n int) []string {
	t.Helper()
	words := n / 8
	size := len(w.eps)
	ppn := size / len(w.hosts)
	var bad []string
	check := func(op string, r, k int, got, want []float64) {
		for j := range want {
			if got[j] != want[j] {
				bad = append(bad, fmt.Sprintf("%s round %d rank %d word %d: got %v, want %v", op, k, r, j, got[j], want[j]))
				return
			}
		}
	}
	w.run(t, func(r int, p *sim.Proc) {
		ep, g := w.eps[r], w.gs[r]
		h := w.hosts[r/ppn]
		sbuf, rbuf := h.Alloc(n), h.Alloc(n)
		for k := range rounds {
			// Allreduce: the sum over every rank.
			putFloats(sbuf, contribution(r, 3*k, words))
			ep.Wait(p, g.PostAllreduce(p, sbuf, rbuf, n))
			want := make([]float64, words)
			for q := range size {
				for j, v := range contribution(q, 3*k, words) {
					want[j] += v
				}
			}
			check("allreduce", r, k, floatsOf(rbuf, words), want)

			// Bcast from a rotating root.
			root := k % size
			if r == root {
				putFloats(sbuf, contribution(r, 3*k+1, words))
				ep.Wait(p, g.PostBcast(p, root, sbuf, 0, n))
			} else {
				ep.Wait(p, g.PostBcast(p, root, rbuf, 0, n))
				check("bcast", r, k, floatsOf(rbuf, words), contribution(root, 3*k+1, words))
			}

			// Inclusive scan: the sum over ranks 0..r.
			putFloats(sbuf, contribution(r, 3*k+2, words))
			ep.Wait(p, g.PostScan(p, sbuf, rbuf, n))
			want = make([]float64, words)
			for q := 0; q <= r; q++ {
				for j, v := range contribution(q, 3*k+2, words) {
					want[j] += v
				}
			}
			check("scan", r, k, floatsOf(rbuf, words), want)

			ep.Wait(p, g.PostBarrier(p))
		}
	})
	return bad
}

// TestCollRecyclePoisonStress runs back-to-back firmware Allreduce,
// Bcast, Scan and Barrier calls under loss, duplication and reordering
// while every released collective buffer is overwritten with a poison
// pattern. A call whose buffers were released while a retransmission,
// a forward or a deposit could still read them delivers poison instead
// of the exact result.
func TestCollRecyclePoisonStress(t *testing.T) {
	proto.PoisonReleased = true
	t.Cleanup(func() { proto.PoisonReleased = false })
	const n = 2*proto.MediumFragSize + 808 // three fragments
	w := newCollWorld(t, 5, 2, rtxCfg(), wire.Impairment{
		Seed: 23, LossRate: 0.05, DupRate: 0.05, ReorderRate: 0.1,
	})
	if bad := poisonRounds(t, w, 10, n); len(bad) > 0 {
		t.Fatalf("%d wrong results, first: %s", len(bad), bad[0])
	}
	var rtx, dups int64
	for _, s := range w.stacks {
		rtx += s.Stats.Coll.Retransmits
		dups += s.Stats.Coll.DupFrags
	}
	if rtx == 0 || dups == 0 {
		t.Fatalf("impairment exercised nothing: %d retransmits, %d duplicate fragments", rtx, dups)
	}
	t.Logf("%d retransmits, %d duplicate fragments", rtx, dups)
}

// TestCollRecordPoisonStress recycles hop and ack records under heavy
// duplication and long reordering, so that a duplicate often arrives
// after its call has retired, with every released record poisoned:
// reading one, or reusing one while a delivery of its frame is
// pending, panics. Same-host ranks exercise the loopback. Afterwards
// every record must be back on its stack's free list, and the stacks
// must have made far fewer records than they sent hops and acks.
func TestCollRecordPoisonStress(t *testing.T) {
	proto.PoisonReleased = true
	t.Cleanup(func() { proto.PoisonReleased = false })
	const n = proto.MediumFragSize + 808 // two fragments
	w := newCollWorld(t, 4, 2, rtxCfg(), wire.Impairment{
		Seed: 5, LossRate: 0.03, DupRate: 0.3, ReorderRate: 0.3, ReorderDelay: 300 * sim.Microsecond,
	})
	if bad := poisonRounds(t, w, 12, n); len(bad) > 0 {
		t.Fatalf("%d wrong results, first: %s", len(bad), bad[0])
	}
	var hops, acks, outsMade, acksMade, held int64
	for i, s := range w.stacks {
		var outsFree, acksFree int
		for o := s.outFree; o != nil; o = o.next {
			outsFree++
		}
		for a := s.ackFree; a != nil; a = a.next {
			acksFree++
		}
		if outsFree != s.outsMade || acksFree != s.acksMade {
			t.Fatalf("stack %d: %d of %d hop records and %d of %d ack records are back on the free lists",
				i, outsFree, s.outsMade, acksFree, s.acksMade)
		}
		hops += s.Stats.Coll.UpFrames + s.Stats.Coll.DownFrames
		acks += s.Stats.Coll.Acks
		outsMade += int64(s.outsMade)
		acksMade += int64(s.acksMade)
		held += int64(s.outsHeld)
	}
	if outsMade*4 > hops || acksMade*4 > acks {
		t.Fatalf("records made: %d for %d hops, %d for %d acks; want at most a quarter", outsMade, hops, acksMade, acks)
	}
	if held == 0 {
		t.Fatal("no hop record outlived its call: no duplicate was pending at retirement")
	}
	t.Logf("%d hop records for %d hops, %d ack records for %d acks, %d held past retirement", outsMade, hops, acksMade, acks, held)
}

// TestFirmwareCollAllocBound bounds the heap objects one warm 8-rank
// 4 kB firmware Allreduce makes in the whole world: hop payloads are
// views of NIC-resident buffers, retired calls and hop and ack records
// are recycled, timers and loopbacks are static callbacks, and the
// done window is a ring, so what is left is each rank's request plus
// slack for the rings still growing and the test's own procs.
// Copying payloads, re-making calls and building a closure per timer
// cost about 290 objects per call; a hop and an ack record each, about
// 30 more.
func TestFirmwareCollAllocBound(t *testing.T) {
	const (
		ranks   = 8
		n       = 4 << 10
		warm    = 4
		calls   = 50
		ceiling = 10
	)
	w := newCollWorld(t, ranks, 1, Config{}, wire.Impairment{})
	sbufs, rbufs := make([]*hostmem.Buffer, ranks), make([]*hostmem.Buffer, ranks)
	for r := range ranks {
		sbufs[r], rbufs[r] = w.hosts[r].Alloc(n), w.hosts[r].Alloc(n)
		putFloats(sbufs[r], contribution(r, 0, n/8))
	}
	allreduce := func(k int) {
		w.run(t, func(r int, p *sim.Proc) {
			for range k {
				w.eps[r].Wait(p, w.gs[r].PostAllreduce(p, sbufs[r], rbufs[r], n))
			}
		})
	}
	allreduce(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allreduce(calls)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("%.1f objects per 8-rank Allreduce", per)
	if per > ceiling {
		t.Fatalf("a warm 8-rank 4 kB firmware Allreduce makes %.1f objects, want ≤ %d", per, ceiling)
	}
	want := make([]float64, n/8)
	for r := range ranks {
		for j, v := range contribution(r, 0, n/8) {
			want[j] += v
		}
	}
	for r := range ranks {
		for j, v := range floatsOf(rbufs[r], n/8) {
			if v != want[j] {
				t.Fatalf("rank %d word %d: got %v, want %v", r, j, v, want[j])
			}
		}
	}
}

// TestCollDoneWindowBounded runs collDoneWindow+k barriers: each
// member's done ring then holds exactly the last collDoneWindow
// sequences, oldest evicted first.
func TestCollDoneWindowBounded(t *testing.T) {
	const k = 5
	w := newCollWorld(t, 2, 1, Config{}, wire.Impairment{})
	w.run(t, func(r int, p *sim.Proc) {
		for range collDoneWindow + k {
			w.eps[r].Wait(p, w.gs[r].PostBarrier(p))
		}
	})
	for r, g := range w.gs {
		if g.done.Len() != collDoneWindow || len(g.calls) != 0 {
			t.Fatalf("rank %d: done ring %d, live calls %d; want %d, 0",
				r, g.done.Len(), len(g.calls), collDoneWindow)
		}
		for seq := uint32(1); seq <= collDoneWindow+k; seq++ {
			if want := seq > k; g.done.Contains(seq) != want {
				t.Fatalf("rank %d: sequence %d in the done ring = %v, want %v", r, seq, !want, want)
			}
		}
	}
}
