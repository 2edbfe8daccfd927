package mpi

import (
	"fmt"
	"testing"

	"omxsim/cluster"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// nicWorldSizes covers the shapes the offload tier must get right:
// single rank, pairs, odd worlds (3/5), a shared-memory pair world,
// and non-power-of-two 6 ranks with co-hosted endpoints.
var nicWorldSizes = []struct{ nodes, ppn int }{
	{1, 1},
	{2, 1},
	{3, 1},
	{2, 2},
	{5, 1},
	{3, 2},
	{4, 2},
}

// TestNICollHostFirmwareEquality runs every offloadable collective
// once on the host algorithms and once in firmware, on the same
// world, and requires byte-identical results everywhere. Inputs are
// exactly representable small-integer float64s, so sums are exact in
// any combining order — byte equality is then a hard requirement, not
// a tolerance.
func TestNICollHostFirmwareEquality(t *testing.T) {
	for _, ws := range nicWorldSizes {
		p := ws.nodes * ws.ppn
		t.Run(fmt.Sprintf("%dx%d", ws.nodes, ws.ppn), func(t *testing.T) {
			const n = 9 * 1024 // multi-fragment, not fragment-aligned
			c, w := worldN(t, "mxoe", ws.nodes, ws.ppn)
			alloc := func(sz int) []*cluster.Buffer {
				bs := make([]*cluster.Buffer, p)
				for r := range bs {
					bs[r] = w.Rank(r).Host.Alloc(sz)
				}
				return bs
			}
			sb := alloc(n)
			bcH, bcN := alloc(n), alloc(n)
			arH, arN := alloc(n), alloc(n)
			scH, scN := alloc(n), alloc(n)
			runWorld(t, c, w, func(r *Rank) {
				vals := make([]float64, n/8)
				for i := range vals {
					vals[i] = float64(r.ID*3 + i%17 + 1)
				}
				putFloats(sb[r.ID], vals...)
				root := p - 1
				if r.ID == root {
					fillPattern(bcH[r.ID], root)
					fillPattern(bcN[r.ID], root)
				}
				r.bcast(AlgBinomial, root, bcH[r.ID], 0, n)
				r.bcast(AlgNIC, root, bcN[r.ID], 0, n)
				r.allreduce(AlgRecursiveDoubling, sb[r.ID], arH[r.ID], n)
				r.allreduce(AlgNIC, sb[r.ID], arN[r.ID], n)
				r.scan(AlgRecursiveDoubling, sb[r.ID], scH[r.ID], n)
				r.scan(AlgNIC, sb[r.ID], scN[r.ID], n)
				r.barrier(AlgNIC)
			})
			for r := 0; r < p; r++ {
				if !cluster.Equal(bcH[r], bcN[r]) {
					t.Errorf("rank %d: firmware bcast bytes differ from host", r)
				}
				if !cluster.Equal(arH[r], arN[r]) {
					t.Errorf("rank %d: firmware allreduce bytes differ from host", r)
				}
				if !cluster.Equal(scH[r], scN[r]) {
					t.Errorf("rank %d: firmware scan bytes differ from host", r)
				}
			}
		})
	}
}

// TestNICollDispatcherMatchesPinned runs Bcast, Allreduce, Scan and
// Barrier on a 32-rank MXoE world, where OffloadAuto (the zero value)
// sends a 2 KiB call to the NIC, through the dispatchers under each
// offload setting and through the entries pinned to AlgNIC and to the
// host algorithms. Every mode must produce the pinned NIC path's
// bytes; the NIC-resolving dispatchers must also return when the
// pinned NIC calls do, and OffloadHost when the pinned host calls do.
func TestNICollDispatcherMatchesPinned(t *testing.T) {
	const nodes, ppn = 16, 2
	p := nodes * ppn
	const n = 2048
	if CollOffload(n, p) != OffloadNIC {
		t.Fatalf("auto does not offload %d B on %d ranks", n, p)
	}
	ops := []string{"Bcast", "Allreduce", "Scan", "Barrier"}
	run := func(offload string, algs ...string) [][]collMark {
		c, w := worldN(t, "mxoe", nodes, ppn)
		w.Offload = offload
		calls := make([]collCall, len(ops))
		for i, op := range ops {
			calls[i] = collCall{op: op, n: n}
			if algs != nil {
				calls[i].alg = algs[i]
			}
		}
		return collRun(t, c, w, calls)
	}
	pinnedNIC := run("", AlgNIC, AlgNIC, AlgNIC, AlgNIC)
	pinnedHost := run("", AlgBinomial, AlgRecursiveDoubling, AlgRecursiveDoubling, AlgTree)
	for _, m := range []struct {
		name string
		got  [][]collMark
		same [][]collMark // the pinned run it must match call for call
	}{
		{"dispatch-auto", run(""), pinnedNIC},
		{"dispatch-nic", run(OffloadNIC), pinnedNIC},
		{"dispatch-host", run(OffloadHost), pinnedHost},
		{"pinned-host", pinnedHost, pinnedHost},
	} {
		for r := 0; r < p; r++ {
			for i, op := range ops {
				if m.got[r][i].sum != pinnedNIC[r][i].sum {
					t.Errorf("%s rank %d: %s bytes differ from pinned NIC", m.name, r, op)
				}
				if m.got[r][i] != m.same[r][i] {
					t.Errorf("%s rank %d: %s returned at %v, its pinned path at %v", m.name, r, op, m.got[r][i].at, m.same[r][i].at)
				}
			}
		}
	}
}

// TestNICollZeroByte runs every firmware collective with zero-length
// payloads: one control frame per hop, completion without deadlock,
// destination untouched.
func TestNICollZeroByte(t *testing.T) {
	for _, ws := range []struct{ nodes, ppn int }{{1, 1}, {2, 2}, {3, 1}} {
		t.Run(fmt.Sprintf("%dx%d", ws.nodes, ws.ppn), func(t *testing.T) {
			p := ws.nodes * ws.ppn
			c, w := worldN(t, "mxoe", ws.nodes, ws.ppn)
			bufs := make([]*cluster.Buffer, p)
			wide := make([]*cluster.Buffer, p)
			for r := range bufs {
				bufs[r] = w.Rank(r).Host.Alloc(64)
				wide[r] = w.Rank(r).Host.Alloc(64)
				fillPattern(wide[r], r)
			}
			runWorld(t, c, w, func(r *Rank) {
				r.bcast(AlgNIC, 0, bufs[r.ID], 0, 0)
				r.allreduce(AlgNIC, bufs[r.ID], wide[r.ID], 0)
				r.scan(AlgNIC, bufs[r.ID], wide[r.ID], 0)
				r.barrier(AlgNIC)
			})
			for r := 0; r < p; r++ {
				for i, b := range wide[r].Bytes() {
					if b != byte(r*37+i+1) {
						t.Fatalf("rank %d byte %d touched by zero-byte collective", r, i)
					}
				}
			}
		})
	}
}

// TestNICollTuningSelection pins the offload tier's decisions: the
// fixed thresholds on each side, and how World.Offload and the
// transport's capability resolve a call.
func TestNICollTuningSelection(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{CollOffload(4<<10, 64), OffloadNIC},
		{CollOffload(4<<10, 32), OffloadNIC},
		{CollOffload(4<<10, 31), OffloadHost}, // below rank floor
		{CollOffload(4<<10, 16), OffloadHost},
		{CollOffload(256<<10, 64), OffloadNIC},
		{CollOffload(256<<10+8, 64), OffloadHost}, // above byte cap
		{CollOffload(1<<20, 64), OffloadHost},
		{CollOffload(0, 256), OffloadNIC}, // barrier at scale
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: resolved %q, want %q", i, c.got, c.want)
		}
	}
	_, mx := world(t, "mxoe", 1)
	_, omx := world(t, "openmx", 1)
	for i, c := range []struct {
		w       *World
		offload string
		n       int
		want    string
	}{
		{mx, "", 4 << 10, "host"},           // 2 ranks: below the rank floor
		{mx, OffloadAuto, 4 << 10, "host"},  // explicit auto
		{mx, OffloadNIC, 1 << 20, AlgNIC},   // pinned past both thresholds
		{omx, OffloadNIC, 0, AlgNIC},        // pinned on an incapable stack
		{mx, OffloadHost, 0, "host"},        // pinned host
		{omx, OffloadAuto, 4 << 10, "host"}, // incapable stack
	} {
		c.w.Offload = c.offload
		if got := c.w.Rank(0).offload(c.n, "host"); got != c.want {
			t.Errorf("tier case %d: resolved %q, want %q", i, got, c.want)
		}
	}
}

// TestNICollOffloadIgnoredOnHostTransport: over Open-MX (no firmware
// collectives) the auto tier must fall back to the host algorithms on
// a 32-rank world, where the thresholds pick the NIC.
func TestNICollOffloadIgnoredOnHostTransport(t *testing.T) {
	const nodes, ppn = 16, 2
	p := nodes * ppn
	const n = 256
	if CollOffload(n, p) != OffloadNIC {
		t.Fatalf("auto does not offload %d B on %d ranks", n, p)
	}
	c, w := worldN(t, "openmx", nodes, ppn)
	sb := make([]*cluster.Buffer, p)
	ar := make([]*cluster.Buffer, p)
	sc := make([]*cluster.Buffer, p)
	for r := range sb {
		sb[r] = w.Rank(r).Host.Alloc(n)
		ar[r] = w.Rank(r).Host.Alloc(n)
		sc[r] = w.Rank(r).Host.Alloc(n)
	}
	runWorld(t, c, w, func(r *Rank) {
		putFloats(sb[r.ID], float64(r.ID+1), 10*float64(r.ID+1))
		r.Allreduce(sb[r.ID], ar[r.ID], n)
		r.Scan(sb[r.ID], sc[r.ID], n)
		r.Barrier()
	})
	for r := 0; r < p; r++ {
		checkSumWords(t, ar[r], p, fmt.Sprintf("allreduce rank %d", r))
		checkSumWords(t, sc[r], r+1, fmt.Sprintf("scan rank %d", r))
	}
}

// TestNICollLossRecovery drives every firmware collective across a
// lossy, reordering, duplicating link and requires exact results plus
// evidence the firmware's hop retransmission did the recovering.
func TestNICollLossRecovery(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := cluster.New(nil)
			h0, h1 := c.NewHost("n0"), c.NewHost("n1")
			cluster.Link(h0, h1, cluster.Impair(cluster.Impairment{
				Seed:        seed,
				LossRate:    0.05,
				DupRate:     0.02,
				ReorderRate: 0.05,
				JitterMax:   2 * sim.Microsecond,
			}))
			t.Cleanup(c.Close)
			cfg := mxoe.Config{RegCache: true, RetransmitTimeout: 100 * sim.Microsecond}
			s0, s1 := mxoe.Attach(h0, cfg), mxoe.Attach(h1, cfg)
			w := NewWorld(c)
			w.AddRank(s0.Open(0, 2), h0, 2)
			w.AddRank(s0.Open(1, 4), h0, 4)
			w.AddRank(s1.Open(0, 2), h1, 2)
			w.AddRank(s1.Open(1, 4), h1, 4)
			p := w.Size()
			const n = 6 * 1024
			sb := make([]*cluster.Buffer, p)
			ar := make([]*cluster.Buffer, p)
			sc := make([]*cluster.Buffer, p)
			bc := make([]*cluster.Buffer, p)
			for r := 0; r < p; r++ {
				sb[r] = w.Rank(r).Host.Alloc(n)
				ar[r] = w.Rank(r).Host.Alloc(n)
				sc[r] = w.Rank(r).Host.Alloc(n)
				bc[r] = w.Rank(r).Host.Alloc(n)
			}
			w.Spawn(func(r *Rank) {
				vals := make([]float64, n/8)
				for i := range vals {
					vals[i] = float64(r.ID + i%13 + 1)
				}
				putFloats(sb[r.ID], vals...)
				if r.ID == 0 {
					fillPattern(bc[0], 0)
				}
				for iter := 0; iter < 3; iter++ {
					r.barrier(AlgNIC)
					r.bcast(AlgNIC, 0, bc[r.ID], 0, n)
					r.allreduce(AlgNIC, sb[r.ID], ar[r.ID], n)
					r.scan(AlgNIC, sb[r.ID], sc[r.ID], n)
				}
			})
			c.Run()
			for r := 0; r < p; r++ {
				if !cluster.Equal(bc[0], bc[r]) {
					t.Errorf("rank %d bcast corrupted under loss", r)
				}
				if !cluster.Equal(ar[0], ar[r]) {
					t.Errorf("rank %d allreduce differs under loss", r)
				}
			}
			// Scans differ per rank; check the last rank's full sum
			// equals the allreduce sum.
			if !cluster.Equal(sc[p-1], ar[p-1]) {
				t.Errorf("last-rank scan differs from allreduce under loss")
			}
			st := s0.Stats().Coll
			st1 := s1.Stats().Coll
			if st.Retransmits+st1.Retransmits == 0 {
				t.Errorf("no firmware collective retransmissions under 5%% loss")
			}
			if st.Posts() == 0 || st1.Posts() == 0 {
				t.Errorf("collective descriptors not counted: %+v %+v", st, st1)
			}
		})
	}
}

// TestNICollDropOnHostStack sends firmware-collective frames at a
// host-mode Open-MX stack: it runs no NIC collective state machines,
// so it must count them in CollDropped and free the skbs (the sender's
// firmware keeps retransmitting into the drop — no crash, no leak,
// no silent ignore).
func TestNICollDropOnHostStack(t *testing.T) {
	c := cluster.New(nil)
	ha, hb := c.NewHost("fw"), c.NewHost("host")
	cluster.Link(ha, hb)
	t.Cleanup(c.Close)
	sa := mxoe.Attach(ha, mxoe.Config{RetransmitTimeout: 100 * sim.Microsecond})
	sb := openmx.Attach(hb, openmx.Config{})
	epA, epB := sa.Open(0, 2), sb.Open(0, 2)
	// Member order [host, firmware] makes the firmware endpoint the
	// tree leaf: posting a barrier sends an Up frame to the host-mode
	// parent immediately.
	g := epA.(openmx.CollCapable).CollJoin([]openmx.Addr{epB.Addr(), epA.Addr()})
	c.Go("post", func(p *sim.Proc) { g.PostBarrier(p) })
	c.RunFor(5 * sim.Millisecond)
	if got := sb.Stats().CollDropped; got < 2 {
		t.Fatalf("host stack CollDropped = %d, want the post plus retransmits", got)
	}
	if sa.Stats().Coll.Retransmits == 0 {
		t.Fatalf("firmware never retransmitted into the unresponsive parent")
	}
}

// TestNICollStatsAndHostCPU checks the firmware counters tick and —
// the paper's point — that a firmware barrier charges strictly less
// host CPU than the host tree barrier on the same 8-rank world.
func TestNICollStatsAndHostCPU(t *testing.T) {
	commCPU := func(pinNIC bool) sim.Duration {
		c := cluster.New(nil)
		hosts := make([]*cluster.Host, 4)
		sw := c.NewSwitch()
		stacks := make([]*mxoe.Stack, len(hosts))
		for i := range hosts {
			hosts[i] = c.NewHost(fmt.Sprintf("n%d", i))
			sw.Attach(hosts[i])
			stacks[i] = mxoe.Attach(hosts[i], mxoe.Config{RegCache: true})
		}
		defer c.Close()
		w := NewWorld(c)
		cores := []int{2, 4}
		for i, h := range hosts {
			for s := 0; s < 2; s++ {
				w.AddRank(stacks[i].Open(s, cores[s]), h, cores[s])
			}
		}
		w.Spawn(func(r *Rank) {
			for i := 0; i < 10; i++ {
				if pinNIC {
					r.barrier(AlgNIC)
				} else {
					r.barrier(AlgTree)
				}
			}
		})
		c.Run()
		var busy sim.Duration
		for _, s := range stacks {
			st := s.CPUStats()
			busy += st.Busy() - st.Busy(openmx.CPUAppCompute)
		}
		if pinNIC {
			var posts int64
			for _, s := range stacks {
				posts += s.Stats().Coll.Barriers
			}
			if posts != int64(len(hosts))*2*10 {
				t.Fatalf("barrier descriptors = %d, want %d", posts, len(hosts)*2*10)
			}
		}
		return busy
	}
	nic := commCPU(true)
	host := commCPU(false)
	if nic >= host {
		t.Errorf("firmware barrier host-CPU %v not below host tree %v", nic, host)
	}
}
