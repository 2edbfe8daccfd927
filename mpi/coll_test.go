package mpi

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"omxsim/cluster"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// worldN builds a world of nodes hosts × ppn ranks (block placement).
// Two hosts connect back to back; more go through a switch; a single
// host needs no wire (ranks talk over shared memory).
func worldN(t *testing.T, transport string, nodes, ppn int) (*cluster.Cluster, *World) {
	t.Helper()
	if ppn > 2 {
		t.Fatalf("worldN: ppn %d > 2", ppn)
	}
	c := cluster.New(nil)
	hosts := make([]*cluster.Host, nodes)
	for i := range hosts {
		hosts[i] = c.NewHost(fmt.Sprintf("n%d", i))
	}
	switch {
	case nodes == 2:
		cluster.Link(hosts[0], hosts[1])
	case nodes > 2:
		sw := c.NewSwitch()
		for _, h := range hosts {
			sw.Attach(h)
		}
	}
	cores := []int{2, 4}
	w := NewWorld(c)
	for _, h := range hosts {
		var tr openmx.Transport
		switch transport {
		case "openmx":
			tr = openmx.Attach(h, openmx.Config{RegCache: true})
		case "openmx-ioat":
			tr = openmx.Attach(h, openmx.Config{RegCache: true, IOAT: true, IOATShm: true})
		case "mxoe":
			tr = mxoe.Attach(h, mxoe.Config{RegCache: true})
		default:
			t.Fatalf("unknown transport %q", transport)
		}
		for s := 0; s < ppn; s++ {
			w.AddRank(tr.Open(s, cores[s]), h, cores[s])
		}
	}
	t.Cleanup(c.Close)
	return c, w
}

// fillPattern writes a per-(rank, index) recognizable byte.
func fillPattern(b *cluster.Buffer, rank int) {
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(rank*37 + i + 1)
	}
}

// collWorldSizes covers power-of-two, odd, and single-rank worlds as
// (nodes, ppn) pairs.
var collWorldSizes = []struct{ nodes, ppn int }{
	{1, 1}, // single rank
	{2, 1},
	{3, 1}, // odd world over a switch
	{2, 2},
	{5, 1}, // non-power-of-two, > AlltoallvPostedMaxRanks
	{3, 2}, // non-power-of-two with shared-memory pairs
	{4, 2}, // power of two, 8 ranks
}

// TestBcastVariantsAllWorlds checks both broadcast algorithms deliver
// the root's exact bytes on every world shape, roots included.
func TestBcastVariantsAllWorlds(t *testing.T) {
	for _, ws := range collWorldSizes {
		p := ws.nodes * ws.ppn
		for _, alg := range []string{AlgBinomial, AlgScatterAllgather} {
			t.Run(fmt.Sprintf("%dx%d/%s", ws.nodes, ws.ppn, alg), func(t *testing.T) {
				const n = 1000 // not a multiple of the segment count
				root := p - 1
				c, w := worldN(t, "openmx", ws.nodes, ws.ppn)
				bufs := make([]*cluster.Buffer, p)
				for r := range bufs {
					bufs[r] = w.Rank(r).Host.Alloc(n)
				}
				runWorld(t, c, w, func(r *Rank) {
					if r.ID == root {
						fillPattern(bufs[r.ID], root)
					}
					r.bcast(alg, root, bufs[r.ID], 0, n)
				})
				for r := 0; r < p; r++ {
					if !cluster.Equal(bufs[root], bufs[r]) {
						t.Fatalf("rank %d bytes differ from root", r)
					}
				}
			})
		}
	}
}

// expectedSum is the allreduce result for putFloats-style inputs
// where rank r contributes r+1 at word 0 and 10(r+1) at word 1.
func checkSumWords(t *testing.T, b *cluster.Buffer, p int, who string) {
	t.Helper()
	want0, want1 := 0.0, 0.0
	for r := 0; r < p; r++ {
		want0 += float64(r + 1)
		want1 += 10 * float64(r+1)
	}
	if getFloat(b, 0) != want0 || getFloat(b, 1) != want1 {
		t.Fatalf("%s: sum = (%v,%v), want (%v,%v)",
			who, getFloat(b, 0), getFloat(b, 1), want0, want1)
	}
}

// TestAllreduceVariantsAllWorlds checks recursive doubling (with its
// non-power-of-two fold) and the ring against exact float sums.
func TestAllreduceVariantsAllWorlds(t *testing.T) {
	for _, ws := range collWorldSizes {
		p := ws.nodes * ws.ppn
		for _, alg := range []string{AlgRecursiveDoubling, AlgRing} {
			t.Run(fmt.Sprintf("%dx%d/%s", ws.nodes, ws.ppn, alg), func(t *testing.T) {
				const n = 64 // 8 words: more words than ranks, unevenly chunked
				c, w := worldN(t, "openmx", ws.nodes, ws.ppn)
				sb := make([]*cluster.Buffer, p)
				rb := make([]*cluster.Buffer, p)
				for r := range sb {
					sb[r] = w.Rank(r).Host.Alloc(n)
					rb[r] = w.Rank(r).Host.Alloc(n)
				}
				runWorld(t, c, w, func(r *Rank) {
					putFloats(sb[r.ID], float64(r.ID+1), 10*float64(r.ID+1), 1, 1, 1, 1, 1, 1)
					r.allreduce(alg, sb[r.ID], rb[r.ID], n)
				})
				for r := 0; r < p; r++ {
					checkSumWords(t, rb[r], p, fmt.Sprintf("rank %d", r))
					if getFloat(rb[r], 7) != float64(p) {
						t.Fatalf("rank %d word 7 = %v, want %v", r, getFloat(rb[r], 7), float64(p))
					}
				}
			})
		}
	}
}

// TestReduceVariantsAllWorlds checks both reduce algorithms at every
// root on a non-power-of-two world.
func TestReduceVariantsAllWorlds(t *testing.T) {
	const nodes, ppn = 3, 2 // p = 6
	p := nodes * ppn
	const n = 48 // 6 words
	for root := 0; root < p; root++ {
		for _, alg := range []string{AlgBinomial, AlgReduceScatter} {
			t.Run(fmt.Sprintf("root%d/%s", root, alg), func(t *testing.T) {
				c, w := worldN(t, "openmx", nodes, ppn)
				sb := make([]*cluster.Buffer, p)
				rb := w.Rank(root).Host.Alloc(n)
				for r := range sb {
					sb[r] = w.Rank(r).Host.Alloc(n)
				}
				runWorld(t, c, w, func(r *Rank) {
					putFloats(sb[r.ID], float64(r.ID+1), 10*float64(r.ID+1), 1, 1, 1, 1)
					var out *cluster.Buffer
					if r.ID == root {
						out = rb
					}
					r.reduce(alg, root, sb[r.ID], out, n)
				})
				checkSumWords(t, rb, p, "root")
			})
		}
	}
}

// TestAlltoallVariantsAllWorlds checks pairwise and Bruck move every
// pair's exact chunk, including odd world sizes.
func TestAlltoallVariantsAllWorlds(t *testing.T) {
	for _, ws := range collWorldSizes {
		p := ws.nodes * ws.ppn
		for _, alg := range []string{AlgPairwise, AlgBruck} {
			t.Run(fmt.Sprintf("%dx%d/%s", ws.nodes, ws.ppn, alg), func(t *testing.T) {
				const n = 96
				c, w := worldN(t, "openmx", ws.nodes, ws.ppn)
				sb := make([]*cluster.Buffer, p)
				rb := make([]*cluster.Buffer, p)
				for r := range sb {
					sb[r] = w.Rank(r).Host.Alloc(p * n)
					rb[r] = w.Rank(r).Host.Alloc(p * n)
				}
				runWorld(t, c, w, func(r *Rank) {
					for dst := 0; dst < p; dst++ {
						for i := 0; i < n; i++ {
							sb[r.ID].Bytes()[dst*n+i] = byte(31*r.ID + 7*dst + i)
						}
					}
					r.alltoall(alg, sb[r.ID], n, rb[r.ID])
				})
				for r := 0; r < p; r++ {
					for src := 0; src < p; src++ {
						for i := 0; i < n; i++ {
							want := byte(31*src + 7*r + i)
							if got := rb[r].Bytes()[src*n+i]; got != want {
								t.Fatalf("rank %d chunk from %d byte %d = %#x, want %#x",
									r, src, i, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestAlltoallvVariants checks both vector schedules with skewed
// per-pair sizes (including empty exchanges).
func TestAlltoallvVariants(t *testing.T) {
	const nodes, ppn = 5, 1
	p := nodes * ppn
	for _, alg := range []string{AlgPairwise, AlgPosted} {
		t.Run(alg, func(t *testing.T) {
			c, w := worldN(t, "openmx", nodes, ppn)
			// size sent from rank s to rank d: (s+2d) mod 7 * 16 bytes
			// (zero for some pairs).
			sz := func(s, d int) int { return (s + 2*d) % 7 * 16 }
			sb := make([]*cluster.Buffer, p)
			rb := make([]*cluster.Buffer, p)
			for r := range sb {
				tot := 0
				for d := 0; d < p; d++ {
					tot += sz(r, d)
				}
				sb[r] = w.Rank(r).Host.Alloc(tot)
				tot = 0
				for s := 0; s < p; s++ {
					tot += sz(s, r)
				}
				rb[r] = w.Rank(r).Host.Alloc(tot)
			}
			runWorld(t, c, w, func(r *Rank) {
				soffs, scounts := make([]int, p), make([]int, p)
				off := 0
				for d := 0; d < p; d++ {
					soffs[d], scounts[d] = off, sz(r.ID, d)
					for i := 0; i < scounts[d]; i++ {
						sb[r.ID].Bytes()[off+i] = byte(13*r.ID + 5*d + i)
					}
					off += scounts[d]
				}
				roffs, rcounts := make([]int, p), make([]int, p)
				off = 0
				for s := 0; s < p; s++ {
					roffs[s], rcounts[s] = off, sz(s, r.ID)
					off += rcounts[s]
				}
				r.alltoallv(alg, sb[r.ID], soffs, scounts, rb[r.ID], roffs, rcounts)
			})
			for r := 0; r < p; r++ {
				off := 0
				for s := 0; s < p; s++ {
					for i := 0; i < sz(s, r); i++ {
						want := byte(13*s + 5*r + i)
						if got := rb[r].Bytes()[off+i]; got != want {
							t.Fatalf("rank %d from %d byte %d = %#x, want %#x", r, s, i, got, want)
						}
					}
					off += sz(s, r)
				}
			}
		})
	}
}

// TestGatherScatterVariantsAllRoots checks linear and binomial
// gather/scatter round-trip exact blocks at every root of an odd
// world.
func TestGatherScatterVariantsAllRoots(t *testing.T) {
	const nodes, ppn = 5, 1
	p := nodes * ppn
	const n = 128
	for root := 0; root < p; root += 2 {
		for _, alg := range []string{AlgLinear, AlgBinomial} {
			t.Run(fmt.Sprintf("root%d/%s", root, alg), func(t *testing.T) {
				c, w := worldN(t, "openmx", nodes, ppn)
				sb := make([]*cluster.Buffer, p)
				gb := w.Rank(root).Host.Alloc(p * n) // gather result at root
				rb := make([]*cluster.Buffer, p)     // scatter results
				for r := range sb {
					sb[r] = w.Rank(r).Host.Alloc(n)
					rb[r] = w.Rank(r).Host.Alloc(n)
				}
				runWorld(t, c, w, func(r *Rank) {
					fillPattern(sb[r.ID], r.ID)
					var g *cluster.Buffer
					if r.ID == root {
						g = gb
					}
					r.gather(alg, root, sb[r.ID], n, g)
					r.scatter(alg, root, g, n, rb[r.ID])
				})
				for r := 0; r < p; r++ {
					for i := 0; i < n; i++ {
						if gb.Bytes()[r*n+i] != sb[r].Bytes()[i] {
							t.Fatalf("gather: root block %d byte %d wrong", r, i)
						}
					}
					// Scatter sent each rank its own gathered block back.
					if !cluster.Equal(rb[r], sb[r]) {
						t.Fatalf("scatter: rank %d round-trip corrupted", r)
					}
				}
			})
		}
	}
}

// TestAllgatherRecursiveDoubling checks the power-of-two fast path
// against the ring on an 8-rank world.
func TestAllgatherRecursiveDoubling(t *testing.T) {
	const nodes, ppn = 4, 2
	p := nodes * ppn
	const n = 64
	c, w := worldN(t, "openmx", nodes, ppn)
	sb := make([]*cluster.Buffer, p)
	rd := make([]*cluster.Buffer, p)
	ring := make([]*cluster.Buffer, p)
	for r := range sb {
		sb[r] = w.Rank(r).Host.Alloc(n)
		rd[r] = w.Rank(r).Host.Alloc(p * n)
		ring[r] = w.Rank(r).Host.Alloc(p * n)
	}
	runWorld(t, c, w, func(r *Rank) {
		fillPattern(sb[r.ID], r.ID)
		r.allgather(AlgRecursiveDoubling, sb[r.ID], n, rd[r.ID])
		r.allgather(AlgRing, sb[r.ID], n, ring[r.ID])
	})
	for r := 0; r < p; r++ {
		if !cluster.Equal(rd[r], ring[r]) {
			t.Fatalf("rank %d: recursive doubling differs from ring", r)
		}
		for blk := 0; blk < p; blk++ {
			if rd[r].Bytes()[blk*n] != sb[blk].Bytes()[0] {
				t.Fatalf("rank %d block %d wrong", r, blk)
			}
		}
	}
}

// TestBarrierVariantsSynchronize proves both barrier algorithms hold
// every rank until the straggler arrives, on an odd world.
func TestBarrierVariantsSynchronize(t *testing.T) {
	for _, alg := range []string{AlgDissemination, AlgTree} {
		t.Run(alg, func(t *testing.T) {
			c, w := worldN(t, "openmx", 5, 1)
			var after []sim.Time
			var before sim.Time
			runWorld(t, c, w, func(r *Rank) {
				if r.ID == 3 {
					r.Proc().Sleep(500 * sim.Microsecond) // straggler
					before = r.Now()
				}
				r.barrier(alg)
				after = append(after, r.Now())
			})
			for _, ti := range after {
				if ti < before {
					t.Fatalf("rank left %s barrier at %v before straggler at %v", alg, ti, before)
				}
			}
		})
	}
}

// TestZeroByteCollectives runs every collective with zero-length
// payloads: they must complete (no deadlock) and touch nothing.
func TestZeroByteCollectives(t *testing.T) {
	for _, ws := range []struct{ nodes, ppn int }{{1, 1}, {2, 2}, {3, 1}} {
		t.Run(fmt.Sprintf("%dx%d", ws.nodes, ws.ppn), func(t *testing.T) {
			p := ws.nodes * ws.ppn
			c, w := worldN(t, "openmx", ws.nodes, ws.ppn)
			bufs := make([]*cluster.Buffer, p)
			wide := make([]*cluster.Buffer, p)
			for r := range bufs {
				bufs[r] = w.Rank(r).Host.Alloc(64)
				wide[r] = w.Rank(r).Host.Alloc(64)
			}
			runWorld(t, c, w, func(r *Rank) {
				b, wd := bufs[r.ID], wide[r.ID]
				r.Bcast(0, b, 0, 0)
				r.Allreduce(b, wd, 0)
				r.Reduce(0, b, wd, 0)
				r.Alltoall(b, 0, wd)
				r.Allgather(b, 0, wd)
				r.Gather(0, b, 0, wd)
				r.Scatter(0, b, 0, wd)
				r.Barrier()
			})
		})
	}
}

// TestSingleRankCollectives: a world of one rank must complete every
// collective locally with correct data and zero communication.
func TestSingleRankCollectives(t *testing.T) {
	c, w := worldN(t, "openmx", 1, 1)
	const n = 32
	sb := w.Rank(0).Host.Alloc(n)
	rb := w.Rank(0).Host.Alloc(n)
	wide := w.Rank(0).Host.Alloc(n)
	runWorld(t, c, w, func(r *Rank) {
		putFloats(sb, 3, 5, 7, 11)
		r.Barrier()
		r.Bcast(0, sb, 0, n)
		r.Allreduce(sb, rb, n)
		r.Alltoall(sb, n, wide)
		r.Gather(0, rb, n, wide)
		r.Scatter(0, wide, n, rb)
		r.ReduceScatter(sb, rb, n)
	})
	for i, want := range []float64{3, 5, 7, 11} {
		if getFloat(rb, i) != want {
			t.Fatalf("word %d = %v, want %v", i, getFloat(rb, i), want)
		}
	}
}

// collSelectors lists every operation with its selector as a function
// of (n, p) and whether World.Offload can send it to the NIC.
var collSelectors = []struct {
	op  string
	sel func(n, p int) string
	nic bool
}{
	{"Barrier", func(n, p int) string { return BarrierAlg(p) }, true},
	{"Bcast", BcastAlg, true},
	{"Reduce", ReduceAlg, false},
	{"Allreduce", AllreduceAlg, true},
	{"Scan", ScanAlg, true},
	{"Allgather", AllgatherAlg, false},
	{"Alltoall", AlltoallAlg, false},
	{"Alltoallv", func(n, p int) string { return AlltoallvAlg(p) }, false},
	{"Gather", GatherAlg, false},
	{"Scatter", ScatterAlg, false},
}

// selectorNames sweeps sel over sizes and world sizes on both sides of
// every threshold and returns the distinct names it picks, in first-
// seen order.
func selectorNames(sel func(n, p int) string) []string {
	var names []string
	for _, n := range []int{0, 8, 1 << 10, 1<<10 + 8, 4 << 10, 16 << 10, 16<<10 + 8,
		32<<10 - 8, 32 << 10, 64<<10 - 8, 64 << 10, 256 << 10, 1 << 20, 1<<20 + 4} {
		for p := 1; p <= 80; p++ {
			if alg := sel(n, p); !slices.Contains(names, alg) {
				names = append(names, alg)
			}
		}
	}
	return names
}

// collCall is one collective call of a test sequence: alg "" goes
// through the public dispatcher, any other name through the
// operation's entry.
type collCall struct {
	op, alg string
	n       int
}

// runColl makes one collective call on rank r with root rank 1 (0 on
// a one-rank world). sb holds the rank's input, rb (cleared first)
// receives its output; both hold p blocks of n bytes.
func runColl(r *Rank, cl collCall, sb, rb *cluster.Buffer) {
	p, n, alg := r.Size(), cl.n, cl.alg
	root := min(1, p-1)
	clear(rb.Bytes())
	atRoot := func(b *cluster.Buffer) *cluster.Buffer {
		if r.ID == root {
			return b
		}
		return nil
	}
	switch cl.op {
	case "Barrier":
		if alg == "" {
			r.Barrier()
		} else {
			r.barrier(alg)
		}
	case "Bcast":
		if r.ID == root {
			copy(rb.Bytes()[:n], sb.Bytes()[:n])
		}
		if alg == "" {
			r.Bcast(root, rb, 0, n)
		} else {
			r.bcast(alg, root, rb, 0, n)
		}
	case "Reduce":
		if alg == "" {
			r.Reduce(root, sb, atRoot(rb), n)
		} else {
			r.reduce(alg, root, sb, atRoot(rb), n)
		}
	case "Allreduce":
		if alg == "" {
			r.Allreduce(sb, rb, n)
		} else {
			r.allreduce(alg, sb, rb, n)
		}
	case "Scan":
		if alg == "" {
			r.Scan(sb, rb, n)
		} else {
			r.scan(alg, sb, rb, n)
		}
	case "Allgather":
		if alg == "" {
			r.Allgather(sb, n, rb)
		} else {
			r.allgather(alg, sb, n, rb)
		}
	case "Alltoall":
		if alg == "" {
			r.Alltoall(sb, n, rb)
		} else {
			r.alltoall(alg, sb, n, rb)
		}
	case "Alltoallv":
		offs, counts := make([]int, p), make([]int, p)
		for i := range offs {
			offs[i], counts[i] = i*n, n
		}
		if alg == "" {
			r.Alltoallv(sb, offs, counts, rb, offs, counts)
		} else {
			r.alltoallv(alg, sb, offs, counts, rb, offs, counts)
		}
	case "Gather":
		if alg == "" {
			r.Gather(root, sb, n, atRoot(rb))
		} else {
			r.gather(alg, root, sb, n, atRoot(rb))
		}
	case "Scatter":
		if alg == "" {
			r.Scatter(root, atRoot(sb), n, rb)
		} else {
			r.scatter(alg, root, atRoot(sb), n, rb)
		}
	default:
		panic("runColl: unknown operation " + cl.op)
	}
}

// collMark is what one rank saw of one call: the hash of its output
// buffer and the simulated time the call returned.
type collMark struct {
	sum uint64
	at  sim.Time
}

// collRun makes calls in order on every rank of w and returns the
// marks per rank and call. Inputs are exactly representable
// small-integer float64s, so every reduction algorithm produces the
// same bytes whatever its combining order.
func collRun(t *testing.T, c *cluster.Cluster, w *World, calls []collCall) [][]collMark {
	t.Helper()
	p := w.Size()
	size := 8
	for _, cl := range calls {
		size = max(size, p*cl.n)
	}
	sb := make([]*cluster.Buffer, p)
	rb := make([]*cluster.Buffer, p)
	for r := 0; r < p; r++ {
		sb[r] = w.Rank(r).Host.Alloc(size)
		rb[r] = w.Rank(r).Host.Alloc(size)
		vals := make([]float64, size/8)
		for i := range vals {
			vals[i] = float64(r + i%13 + 1)
		}
		putFloats(sb[r], vals...)
	}
	marks := make([][]collMark, p)
	runWorld(t, c, w, func(r *Rank) {
		for _, cl := range calls {
			runColl(r, cl, sb[r.ID], rb[r.ID])
			h := fnv.New64a()
			h.Write(rb[r.ID].Bytes())
			marks[r.ID] = append(marks[r.ID], collMark{h.Sum64(), r.Now()})
		}
	})
	return marks
}

// TestDispatcherMatchesPinnedVariants runs every dispatcher at sizes
// and world sizes on each side of each threshold: a 16-rank world
// reaches the large-message, Bruck, tree-barrier and pairwise-vector
// paths, a 3-rank world the small-world ones. Per call, the
// dispatcher must select the expected algorithm — same bytes and same
// return times as its entry pinned to that name — and the op's other
// host algorithm must produce the same bytes.
func TestDispatcherMatchesPinnedVariants(t *testing.T) {
	type step struct {
		op   string
		n    int
		want string
	}
	worlds := []struct {
		nodes, ppn int
		steps      []step
	}{
		{8, 2, []step{
			{"Barrier", 0, AlgTree},
			{"Bcast", 64<<10 - 8, AlgBinomial},
			{"Bcast", 64 << 10, AlgScatterAllgather},
			{"Reduce", 64<<10 - 8, AlgBinomial},
			{"Reduce", 64 << 10, AlgReduceScatter},
			{"Allreduce", 32<<10 - 8, AlgRecursiveDoubling},
			{"Allreduce", 32 << 10, AlgRing},
			{"Scan", 1 << 10, AlgRecursiveDoubling},
			{"Allgather", 4 << 10, AlgRecursiveDoubling},
			{"Allgather", 4<<10 + 8, AlgRing},
			{"Alltoall", 1 << 10, AlgBruck},
			{"Alltoall", 1<<10 + 8, AlgPairwise},
			{"Alltoallv", 1 << 10, AlgPairwise},
			{"Gather", 16 << 10, AlgBinomial},
			{"Gather", 16<<10 + 8, AlgLinear},
			{"Scatter", 16 << 10, AlgBinomial},
			{"Scatter", 16<<10 + 8, AlgLinear},
		}},
		{3, 1, []step{
			{"Barrier", 0, AlgDissemination},
			{"Bcast", 64 << 10, AlgBinomial},
			{"Reduce", 64 << 10, AlgReduceScatter},
			{"Allreduce", 32 << 10, AlgRing},
			{"Scan", 1 << 10, AlgRecursiveDoubling},
			{"Allgather", 4 << 10, AlgRing},
			{"Alltoall", 1 << 10, AlgPairwise},
			{"Alltoallv", 1 << 10, AlgPosted},
			{"Gather", 16 << 10, AlgLinear},
			{"Scatter", 16 << 10, AlgLinear},
		}},
	}
	for _, ws := range worlds {
		p := ws.nodes * ws.ppn
		t.Run(fmt.Sprintf("%dranks", p), func(t *testing.T) {
			var dispatch, pinned, other []collCall
			for _, s := range ws.steps {
				alt := s.want
				for _, sel := range collSelectors {
					if sel.op != s.op {
						continue
					}
					for _, alg := range selectorNames(sel.sel) {
						// Recursive-doubling allgather needs a power-of-two world.
						if alg != s.want && (s.op != "Allgather" || isPow2(p)) {
							alt = alg
						}
					}
				}
				dispatch = append(dispatch, collCall{s.op, "", s.n})
				pinned = append(pinned, collCall{s.op, s.want, s.n})
				other = append(other, collCall{s.op, alt, s.n})
			}
			run := func(calls []collCall) [][]collMark {
				c, w := worldN(t, "openmx", ws.nodes, ws.ppn)
				return collRun(t, c, w, calls)
			}
			got, want, alt := run(dispatch), run(pinned), run(other)
			for r := 0; r < p; r++ {
				for i, s := range ws.steps {
					if got[r][i] != want[r][i] {
						t.Errorf("rank %d %s %d B: dispatcher %+v, pinned %s %+v", r, s.op, s.n, got[r][i], s.want, want[r][i])
					}
					if got[r][i].sum != alt[r][i].sum {
						t.Errorf("rank %d %s %d B: %s bytes differ from %s", r, s.op, s.n, other[i].alg, s.want)
					}
				}
			}
		})
	}
}

// TestTuningSelection pins the fixed thresholds' decisions on each
// side of every constant.
func TestTuningSelection(t *testing.T) {
	cases := []struct{ got, want string }{
		{BcastAlg(1<<10, 8), AlgBinomial},
		{BcastAlg(64<<10-8, 8), AlgBinomial},
		{BcastAlg(64<<10, 8), AlgScatterAllgather},
		{BcastAlg(1<<20, 4), AlgScatterAllgather},
		{BcastAlg(1<<20, 3), AlgBinomial},
		{BcastAlg(1<<20, 2), AlgBinomial},
		{AllreduceAlg(1<<10, 8), AlgRecursiveDoubling},
		{AllreduceAlg(32<<10-8, 8), AlgRecursiveDoubling},
		{AllreduceAlg(32<<10, 8), AlgRing},
		{AllreduceAlg(1<<20, 8), AlgRing},
		{AllreduceAlg(1<<20, 2), AlgRecursiveDoubling},
		{AllreduceAlg(1<<20+4, 8), AlgRecursiveDoubling}, // unaligned
		{AllreduceAlg(32<<10, 32), AlgRing},              // 1 KiB chunks
		{AllreduceAlg(32<<10, 33), AlgRecursiveDoubling}, // chunks under 1 KiB
		{ReduceAlg(1<<20, 8), AlgReduceScatter},
		{ReduceAlg(64<<10, 8), AlgReduceScatter},
		{ReduceAlg(64<<10-8, 8), AlgBinomial},
		{ReduceAlg(1<<10, 8), AlgBinomial},
		{ReduceAlg(1<<20+4, 8), AlgBinomial}, // unaligned
		{AlltoallAlg(256, 16), AlgBruck},
		{AlltoallAlg(1<<10, 8), AlgBruck},
		{AlltoallAlg(1<<10+8, 8), AlgPairwise},
		{AlltoallAlg(1<<20, 16), AlgPairwise},
		{AlltoallAlg(256, 7), AlgPairwise},
		{AlltoallAlg(256, 4), AlgPairwise},
		{AlltoallvAlg(4), AlgPosted},
		{AlltoallvAlg(5), AlgPairwise},
		{AlltoallvAlg(8), AlgPairwise},
		{AllgatherAlg(64, 8), AlgRecursiveDoubling},
		{AllgatherAlg(8<<10, 8), AlgRecursiveDoubling}, // 64 KiB total
		{AllgatherAlg(8<<10+8, 8), AlgRing},
		{AllgatherAlg(64, 6), AlgRing}, // not a power of two
		{AllgatherAlg(1<<20, 8), AlgRing},
		{GatherAlg(1<<10, 8), AlgBinomial},
		{GatherAlg(16<<10, 4), AlgBinomial},
		{GatherAlg(16<<10+8, 4), AlgLinear},
		{GatherAlg(1<<10, 3), AlgLinear},
		{GatherAlg(1<<20, 8), AlgLinear},
		{ScatterAlg(1<<10, 2), AlgLinear},
		{ScatterAlg(1<<10, 4), AlgBinomial},
		{BarrierAlg(4), AlgDissemination},
		{BarrierAlg(15), AlgDissemination},
		{BarrierAlg(16), AlgTree},
		{ScanAlg(1<<20, 64), AlgRecursiveDoubling},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: selected %q, want %q", i, c.got, c.want)
		}
	}
}

// TestCollEntriesAcceptSelectorNames runs every name each selector can
// return — and AlgNIC for the four offloadable operations — through
// its operation's entry on a 4-rank MXoE world; all names of one
// operation must produce the same bytes. An unknown name must panic
// with the operation and the name.
func TestCollEntriesAcceptSelectorNames(t *testing.T) {
	const n = 64
	var calls []collCall
	for _, s := range collSelectors {
		names := selectorNames(s.sel)
		if s.nic {
			names = append(names, AlgNIC)
		}
		if len(names) < 2 {
			t.Fatalf("%s: entry reachable by only %v", s.op, names)
		}
		for _, alg := range names {
			calls = append(calls, collCall{s.op, alg, n})
		}
	}
	c, w := worldN(t, "mxoe", 2, 2)
	p := w.Size()
	marks := collRun(t, c, w, calls)
	for r := 0; r < p; r++ {
		for i, cl := range calls {
			if first := slices.IndexFunc(calls, func(o collCall) bool { return o.op == cl.op }); marks[r][i].sum != marks[r][first].sum {
				t.Errorf("rank %d %s: %s bytes differ from %s", r, cl.op, cl.alg, calls[first].alg)
			}
		}
	}

	c, w = worldN(t, "mxoe", 2, 2)
	got := make([][]any, p)
	runWorld(t, c, w, func(r *Rank) {
		for _, s := range collSelectors {
			func() {
				defer func() { got[r.ID] = append(got[r.ID], recover()) }()
				runColl(r, collCall{s.op, "bogus", 0}, r.scratch, r.scratch)
			}()
		}
	})
	for r := 0; r < p; r++ {
		for i, s := range collSelectors {
			if want := fmt.Sprintf("mpi: %s has no algorithm %q", s.op, "bogus"); got[r][i] != want {
				t.Errorf("rank %d %s(\"bogus\") panicked with %v, want %q", r, s.op, got[r][i], want)
			}
		}
	}
}

// TestCollectivesOverEveryTransport smoke-tests the dispatchers end
// to end over native MXoE, plain Open-MX and Open-MX with I/OAT on an
// 8-rank world, verifying the reduced payload.
func TestCollectivesOverEveryTransport(t *testing.T) {
	for _, tr := range []string{"openmx", "openmx-ioat", "mxoe"} {
		t.Run(tr, func(t *testing.T) {
			const nodes, ppn = 4, 2
			p := nodes * ppn
			const n = 256
			c, w := worldN(t, tr, nodes, ppn)
			sb := make([]*cluster.Buffer, p)
			rb := make([]*cluster.Buffer, p)
			for r := range sb {
				sb[r] = w.Rank(r).Host.Alloc(n)
				rb[r] = w.Rank(r).Host.Alloc(n)
			}
			runWorld(t, c, w, func(r *Rank) {
				putFloats(sb[r.ID], float64(r.ID+1), 10*float64(r.ID+1))
				r.Allreduce(sb[r.ID], rb[r.ID], n)
				r.Barrier()
			})
			for r := 0; r < p; r++ {
				checkSumWords(t, rb[r], p, fmt.Sprintf("%s rank %d", tr, r))
			}
		})
	}
}
