package figures

import (
	"slices"

	"omxsim/cluster"
	"omxsim/openmx"
	"omxsim/sim"
)

// pingPong is the verified two-host ping-pong the loss, adaptive and
// multinic figures measure: warmup unmeasured round trips, then iters
// measured ones, of size bytes from ea (on c's first host) to eb (on
// its second) and back, both ranks on core 2, for at most limit of
// simulated time. Each iteration fills both payloads with a fresh
// pattern, so a round trip counts as delivered only when both
// directions arrived intact — a stale echo fails. It returns the
// measured half-round-trip latencies, the delivered count, and the
// interval from the first measured send to the last measured
// completion.
func pingPong(c *cluster.Cluster, ea, eb openmx.Endpoint, size, warmup, iters int, limit sim.Duration) (lat []sim.Duration, delivered int, elapsed sim.Duration) {
	a, b := c.Hosts()[0], c.Hosts()[1]
	sendA, recvA := a.Alloc(size), a.Alloc(size)
	sendB, recvB := b.Alloc(size), b.Alloc(size)
	total := warmup + iters
	var tStart, tEnd sim.Time
	c.Go("rankB", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			eb.Wait(p, eb.IRecv(p, uint64(i), ^uint64(0), recvB, 0, size))
			sendB.Fill(byte(2*i + 2))
			sendB.Produce(2)
			eb.Wait(p, eb.ISend(p, ea.Addr(), uint64(1000+i), sendB, 0, size))
		}
	})
	c.Go("rankA", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			if i == warmup {
				tStart = p.Now()
			}
			t0 := p.Now()
			sendA.Fill(byte(2*i + 1))
			sendA.Produce(2)
			rs := ea.ISend(p, eb.Addr(), uint64(i), sendA, 0, size)
			rr := ea.IRecv(p, uint64(1000+i), ^uint64(0), recvA, 0, size)
			ea.Wait(p, rs)
			ea.Wait(p, rr)
			if i < warmup {
				continue
			}
			lat = append(lat, (p.Now()-t0)/2)
			if cluster.Equal(sendB, recvA) && cluster.Equal(sendA, recvB) {
				delivered++
			}
			tEnd = p.Now()
		}
	})
	c.RunFor(limit)
	if tEnd > tStart {
		elapsed = tEnd - tStart
	}
	return lat, delivered, elapsed
}

// percentiles returns the median and 99th-percentile latency in µs
// (zero for no samples). It sorts lat in place.
func percentiles(lat []sim.Duration) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	slices.Sort(lat)
	return lat[(len(lat)-1)/2].Micros(), lat[(99*len(lat)-1)/100].Micros()
}

// goodput is the one-way payload rate, in MiB/s, of delivered
// messages of size bytes over elapsed (zero for an empty interval).
func goodput(delivered, size int, elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(delivered*size) / (1 << 20) / elapsed.Seconds()
}

// wireLost counts the frames the cluster's impaired links ate, both
// directions.
func wireLost(c *cluster.Cluster) int64 {
	var lost int64
	for _, l := range c.NetStats().Links {
		lost += l.AB.FramesLost + l.BA.FramesLost
	}
	return lost
}
