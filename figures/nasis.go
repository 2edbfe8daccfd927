package figures

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"omxsim/cluster"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// The NAS Integer Sort proxy (Section IV-D: "We also observed up to
// 10 % performance increase on the NAS parallel benchmarks,
// especially on IS which relies on large messages").
//
// Each rank owns keysPerRank uint32 keys; one iteration bins the keys
// by owner range (local compute), exchanges the bins with Alltoallv
// (large messages — the path I/OAT accelerates), verifies the global
// key census with an Allreduce checksum (count and sum of the keys
// that actually arrived, like IS's partial-verification allreduce),
// and sorts the received keys (local compute). The run time is the
// maximum across ranks, collected with a Gather. The keys really move
// and both the per-rank ranges and the global checksum are verified,
// so this doubles as a cross-stack integrity test.

// NASISResult is the runtime of the IS proxy on one stack.
type NASISResult struct {
	Stack  string
	TimeMs float64
	// KeysVerified counts the key arrivals checked against the
	// Allreduce census across all iterations (p·keysPerRank each).
	KeysVerified int
}

// RunNASIS runs the IS proxy (iterations × bin/exchange/verify/sort)
// over the given stack on 2 nodes × 2 processes and reports the
// measured loop time (max across ranks). keysPerRank of 1<<18 gives
// ≈1 MiB per rank per exchange.
func RunNASIS(s Stack, name string, keysPerRank, iterations int) NASISResult {
	tb := newTestbed(s, 2)
	p := tb.w.Size()
	perRank := keysPerRank * 4 // bytes
	var elapsed sim.Duration
	verified := 0
	ok := true
	tb.w.Spawn(func(r *mpi.Rank) {
		// Deterministic key generation (keys in [0, 1<<20)).
		keys := make([]uint32, keysPerRank)
		st := uint32(r.ID*2654435761 + 12345)
		var genSum float64
		for i := range keys {
			st = st*1664525 + 1013904223
			keys[i] = st % (1 << 20)
			genSum += float64(keys[i])
		}
		sbuf := r.Host.Alloc(perRank)
		rbuf := r.Host.Alloc(perRank * p) // worst-case skew headroom
		stat := r.Host.Alloc(16)          // [count, sum] float64s
		globalGen := r.Host.Alloc(16)
		globalRecv := r.Host.Alloc(16)
		timeBuf := r.Host.Alloc(8)
		timesBuf := r.Host.Alloc(8 * p)
		// Global census of the generated keys: the reference every
		// iteration's exchange is checked against.
		putF64(stat, 0, float64(keysPerRank))
		putF64(stat, 1, genSum)
		r.Allreduce(stat, globalGen, 16)
		r.Barrier()
		t0 := r.Now()
		var recvKeys []uint32
		for it := 0; it < iterations; it++ {
			// Bin keys by owning rank (range partitioning).
			r.Compute(perRank) // histogram + scatter pass
			bins := make([][]uint32, p)
			for _, k := range keys {
				owner := int(k) * p / (1 << 20)
				bins[owner] = append(bins[owner], k)
			}
			soffs, scounts := make([]int, p), make([]int, p)
			off := 0
			for dst := 0; dst < p; dst++ {
				soffs[dst] = off
				scounts[dst] = 4 * len(bins[dst])
				for i, k := range bins[dst] {
					binary.LittleEndian.PutUint32(sbuf.Bytes()[off+4*i:], k)
				}
				off += scounts[dst]
			}
			// Exchange bin sizes, then the keys themselves.
			countBuf := r.Host.Alloc(8 * p)
			countOut := r.Host.Alloc(8 * p)
			for dst := 0; dst < p; dst++ {
				binary.LittleEndian.PutUint64(countBuf.Bytes()[8*dst:], uint64(scounts[dst]))
			}
			r.Alltoall(countBuf, 8, countOut)
			roffs, rcounts := make([]int, p), make([]int, p)
			off = 0
			for src := 0; src < p; src++ {
				rcounts[src] = int(binary.LittleEndian.Uint64(countOut.Bytes()[8*src:]))
				roffs[src] = off
				off += rcounts[src]
			}
			r.Alltoallv(sbuf, soffs, scounts, rbuf, roffs, rcounts)
			// Census of what actually arrived, reduced across ranks:
			// count and sum must match the generated keys exactly, or
			// the exchange corrupted payload bytes somewhere.
			total := off / 4
			var recvSum float64
			recvKeys = recvKeys[:0]
			for i := 0; i < total; i++ {
				k := binary.LittleEndian.Uint32(rbuf.Bytes()[4*i:])
				recvSum += float64(k)
				recvKeys = append(recvKeys, k)
			}
			putF64(stat, 0, float64(total))
			putF64(stat, 1, recvSum)
			r.Allreduce(stat, globalRecv, 16)
			if getF64(globalRecv, 0) != getF64(globalGen, 0) ||
				getF64(globalRecv, 1) != getF64(globalGen, 1) {
				ok = false
			}
			if r.ID == 0 {
				verified += int(getF64(globalRecv, 0))
			}
			// Local sort of received keys.
			sort.Slice(recvKeys, func(a, b int) bool { return recvKeys[a] < recvKeys[b] })
			r.Compute(off * 2) // counting-sort pass over received keys
		}
		// Collect every rank's loop time; the reported run time is
		// the slowest rank, like NPB's timer reduction.
		putF64(timeBuf, 0, float64(r.Now()-t0))
		r.Gather(0, timeBuf, 8, timesBuf)
		if r.ID == 0 {
			for i := 0; i < p; i++ {
				if d := sim.Duration(getF64(timesBuf, i)); d > elapsed {
					elapsed = d
				}
			}
		}
		// Verify: every received key belongs to this rank's range.
		lo := uint32(r.ID * (1 << 20) / p)
		hi := uint32((r.ID + 1) * (1 << 20) / p)
		for _, k := range recvKeys {
			if k < lo || k >= hi {
				ok = false
			}
		}
	})
	if blocked := tb.c.Run(); blocked != 0 {
		panic("figures: NAS IS deadlocked")
	}
	if !ok {
		panic("figures: NAS IS key distribution or Allreduce census incorrect")
	}
	return NASISResult{Stack: name, TimeMs: float64(elapsed) / 1e6, KeysVerified: verified}
}

func putF64(b *cluster.Buffer, i int, v float64) {
	binary.LittleEndian.PutUint64(b.Bytes()[8*i:], math.Float64bits(v))
}

func getF64(b *cluster.Buffer, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Bytes()[8*i:]))
}

// NASIS compares the IS proxy across the three stacks of Section IV,
// running the three (independent) stack proxies concurrently.
func NASIS(keysPerRank, iterations int) []NASISResult {
	cases := []struct {
		s    Stack
		name string
	}{
		{Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: true}}, "MXoE"},
		{Stack{Kind: "openmx", OMX: omxCfg(false)}, "Open-MX"},
		{Stack{Kind: "openmx", OMX: omxCfg(true)}, "Open-MX I/OAT"},
	}
	jobs := make([]runner.Job, len(cases))
	for i, c := range cases {
		c := c
		jobs[i] = runner.Job{
			Label: "nasis/" + c.name,
			Key:   runner.Key("nasis", c.s, c.name, keysPerRank, iterations),
			Run:   func() (any, error) { return RunNASIS(c.s, c.name, keysPerRank, iterations), nil },
		}
	}
	return sweep[NASISResult](jobs)
}

func omxCfg(ioat bool) openmx.Config {
	return openmx.Config{RegCache: true, IOAT: ioat, IOATShm: ioat}
}

// RenderNASIS formats the comparison.
func RenderNASIS(rs []NASISResult) string {
	out := "# NAS IS proxy (bucket exchange, 2 nodes x 2 ppn)\n"
	var base float64
	for _, r := range rs {
		if r.Stack == "Open-MX" {
			base = r.TimeMs
		}
	}
	for _, r := range rs {
		rel := ""
		if base > 0 && r.Stack != "Open-MX" {
			rel = fmt.Sprintf("  (%+.0f%% vs Open-MX)", (base/r.TimeMs-1)*100)
		}
		out += fmt.Sprintf("%-14s %8.2f ms%s\n", r.Stack, r.TimeMs, rel)
	}
	if len(rs) > 0 && rs[0].KeysVerified > 0 {
		out += fmt.Sprintf("(per stack: %d key arrivals verified via Alltoallv + Allreduce census)\n",
			rs[0].KeysVerified)
	}
	return out
}
