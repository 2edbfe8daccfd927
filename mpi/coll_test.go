package mpi

import (
	"fmt"
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
					if alg == AlgBinomial {
						r.BcastBinomial(root, bufs[r.ID], 0, n)
					} else {
						r.BcastScatterAllgather(root, bufs[r.ID], 0, n)
					}
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
					if alg == AlgRing {
						r.AllreduceRing(sb[r.ID], rb[r.ID], n)
					} else {
						r.AllreduceRecursiveDoubling(sb[r.ID], rb[r.ID], n)
					}
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
					if alg == AlgReduceScatter {
						r.ReduceRSGather(root, sb[r.ID], out, n)
					} else {
						r.ReduceBinomial(root, sb[r.ID], out, n)
					}
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
					if alg == AlgBruck {
						r.AlltoallBruck(sb[r.ID], n, rb[r.ID])
					} else {
						r.AlltoallPairwise(sb[r.ID], n, rb[r.ID])
					}
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
				if alg == AlgPosted {
					r.AlltoallvPosted(sb[r.ID], soffs, scounts, rb[r.ID], roffs, rcounts)
				} else {
					r.AlltoallvPairwise(sb[r.ID], soffs, scounts, rb[r.ID], roffs, rcounts)
				}
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
					if alg == AlgBinomial {
						r.GatherBinomial(root, sb[r.ID], n, g)
						r.ScatterBinomial(root, g, n, rb[r.ID])
					} else {
						r.GatherLinear(root, sb[r.ID], n, g)
						r.ScatterLinear(root, g, n, rb[r.ID])
					}
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
		r.AllgatherRecursiveDoubling(sb[r.ID], n, rd[r.ID])
		r.AllgatherRing(sb[r.ID], n, ring[r.ID])
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
				if alg == AlgTree {
					r.BarrierTree()
				} else {
					r.BarrierDissemination()
				}
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

// TestDispatcherMatchesPinnedVariants forces each tuned path via
// thresholds and checks the dispatcher's bytes equal the pinned
// variant's on a non-power-of-two world.
func TestDispatcherMatchesPinnedVariants(t *testing.T) {
	const nodes, ppn = 3, 2
	p := nodes * ppn
	const n = 2048 // multiple of 8, bigger than the forced thresholds
	force := func(w *World, large bool) {
		if large {
			// Everything takes the large-message / tree path.
			w.Tune.BcastSegMinBytes = 1
			w.Tune.BcastSegMinRanks = 2
			w.Tune.AllreduceRingMinBytes = 1
			w.Tune.ReduceRSMinBytes = 1
			w.Tune.GatherTreeMaxBytes = 1 << 30
			w.Tune.GatherTreeMinRanks = 2
			w.Tune.AlltoallBruckMaxBytes = 1 << 30
			w.Tune.AlltoallBruckMinRanks = 2
			w.Tune.BarrierTreeMinRanks = 2
		} else {
			w.Tune.BcastSegMinBytes = 1 << 30
			w.Tune.AllreduceRingMinBytes = 1 << 30
			w.Tune.ReduceRSMinBytes = 1 << 30
			w.Tune.GatherTreeMinRanks = 1 << 30
			w.Tune.AlltoallBruckMaxBytes = 0
			w.Tune.BarrierTreeMinRanks = 1 << 30
		}
	}
	run := func(large bool) (bcast, ar []*cluster.Buffer) {
		c, w := worldN(t, "openmx", nodes, ppn)
		force(w, large)
		bcast = make([]*cluster.Buffer, p)
		ar = make([]*cluster.Buffer, p)
		sb := make([]*cluster.Buffer, p)
		for r := 0; r < p; r++ {
			bcast[r] = w.Rank(r).Host.Alloc(n)
			ar[r] = w.Rank(r).Host.Alloc(n)
			sb[r] = w.Rank(r).Host.Alloc(n)
		}
		runWorld(t, c, w, func(r *Rank) {
			if r.ID == 1 {
				fillPattern(bcast[r.ID], 1)
			}
			r.Bcast(1, bcast[r.ID], 0, n)
			// Exact small-integer words: float addition is then exact,
			// so both algorithms must produce identical bytes despite
			// summing in different orders.
			vals := make([]float64, n/8)
			for i := range vals {
				vals[i] = float64(r.ID + i + 1)
			}
			putFloats(sb[r.ID], vals...)
			r.Allreduce(sb[r.ID], ar[r.ID], n)
			r.Barrier()
		})
		return bcast, ar
	}
	bL, arL := run(true)
	bS, arS := run(false)
	for r := 0; r < p; r++ {
		if !cluster.Equal(bL[r], bS[r]) {
			t.Errorf("rank %d: large-path bcast bytes differ from small-path", r)
		}
		if !cluster.Equal(arL[r], arS[r]) {
			t.Errorf("rank %d: ring allreduce bytes differ from recursive doubling", r)
		}
	}
}

// TestTuningSelection pins the default thresholds' decisions.
func TestTuningSelection(t *testing.T) {
	tn := DefaultTuning()
	cases := []struct{ got, want string }{
		{tn.BcastAlg(1<<10, 8), AlgBinomial},
		{tn.BcastAlg(1<<20, 8), AlgScatterAllgather},
		{tn.BcastAlg(1<<20, 2), AlgBinomial},
		{tn.AllreduceAlg(1<<10, 8), AlgRecursiveDoubling},
		{tn.AllreduceAlg(1<<20, 8), AlgRing},
		{tn.AllreduceAlg(1<<20, 2), AlgRecursiveDoubling},
		{tn.AllreduceAlg(1<<20+4, 8), AlgRecursiveDoubling}, // unaligned
		{tn.ReduceAlg(1<<20, 8), AlgReduceScatter},
		{tn.ReduceAlg(1<<10, 8), AlgBinomial},
		{tn.AlltoallAlg(256, 16), AlgBruck},
		{tn.AlltoallAlg(1<<20, 16), AlgPairwise},
		{tn.AlltoallAlg(256, 4), AlgPairwise},
		{tn.AlltoallvAlg(4), AlgPosted},
		{tn.AlltoallvAlg(8), AlgPairwise},
		{tn.AllgatherAlg(64, 8), AlgRecursiveDoubling},
		{tn.AllgatherAlg(64, 6), AlgRing}, // not a power of two
		{tn.AllgatherAlg(1<<20, 8), AlgRing},
		{tn.GatherAlg(1<<10, 8), AlgBinomial},
		{tn.GatherAlg(1<<20, 8), AlgLinear},
		{tn.ScatterAlg(1<<10, 2), AlgLinear},
		{tn.BarrierAlg(4), AlgDissemination},
		{tn.BarrierAlg(16), AlgTree},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: selected %q, want %q", i, c.got, c.want)
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
