package figures

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/metrics"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// Fig10 regenerates Figure 10: Open-MX one-copy shared-memory
// ping-pong throughput with
//
//   - memcpy between two processes on the same dual-core subchip
//     (shared L2: fast until the working set exceeds the cache),
//   - memcpy between processes on different sockets,
//   - blocking I/OAT copies (threshold at the 32 kB large-message
//     boundary, as in the measured figure).
func Fig10() *metrics.Table {
	t := metrics.NewTable(
		"Fig. 10: Open-MX one-copy shared-memory ping-pong",
		"msgsize", "MiB/s")
	sizes := WideSizes()
	cases := []struct {
		name  string
		cfg   openmx.Config
		coreA int
		coreB int
	}{
		{"Memcpy on the same dual-core subchip", openmx.Config{}, 0, 1},
		{"Memcpy between different processor sockets", openmx.Config{}, 0, 4},
		{"I/OAT offloaded synchronous copy", openmx.Config{IOATShm: true}, 0, 4},
	}
	// Every (case, size) point builds its own single-host cluster, so
	// the whole figure shards across the pool as one flat sweep.
	var jobs []runner.Job
	for _, c := range cases {
		for _, size := range sizes {
			jobs = append(jobs, job(fmt.Sprintf("fig10/%s/%s", c.name, sizeName(size)),
				runner.Key("fig10-shm", c.cfg, c.coreA, c.coreB, size),
				func() float64 { return shmPingPong(c.cfg, c.coreA, c.coreB, size) }))
		}
	}
	ys := sweep[float64](jobs...)
	for ci, c := range cases {
		s := t.AddSeries(c.name)
		for si, size := range sizes {
			s.Add(float64(size), ys[ci*len(sizes)+si])
		}
	}
	return t
}

// shmPingPong measures an intra-node ping-pong between two endpoints
// on the given cores and returns MiB/s (size over half round trip).
func shmPingPong(cfg openmx.Config, coreA, coreB, size int) float64 {
	c := cluster.New(nil)
	defer c.Close()
	h := c.NewHost("node0")
	st := openmx.Attach(h, cfg)
	ea := st.Open(0, coreA)
	eb := st.Open(1, coreB)
	bufA0, bufA1 := h.Alloc(size), h.Alloc(size)
	bufB0, bufB1 := h.Alloc(size), h.Alloc(size)
	iters := 8
	if size >= 1<<20 {
		iters = 4
	}
	var t0, t1 sim.Time
	c.Go("procB", func(p *sim.Proc) {
		for i := 0; i <= iters; i++ {
			r := eb.IRecv(p, 1, ^uint64(0), bufB0, 0, size)
			eb.Wait(p, r)
			bufB1.Produce(coreB)
			s := eb.ISend(p, ea.Addr(), 2, bufB1, 0, size)
			eb.Wait(p, s)
		}
	})
	c.Go("procA", func(p *sim.Proc) {
		for i := 0; i <= iters; i++ {
			if i == 1 {
				t0 = p.Now()
			}
			bufA0.Produce(coreA)
			s := ea.ISend(p, eb.Addr(), 1, bufA0, 0, size)
			ea.Wait(p, s)
			r := ea.IRecv(p, 2, ^uint64(0), bufA1, 0, size)
			ea.Wait(p, r)
		}
		t1 = p.Now()
	})
	if blocked := c.Run(); blocked != 0 {
		panic("figures: Fig10 ping-pong deadlocked")
	}
	half := float64(t1-t0) / float64(2*iters)
	return float64(size) / 1024 / 1024 / (half / 1e9)
}
