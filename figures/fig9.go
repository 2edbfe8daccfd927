package figures

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/metrics"
	"omxsim/mpi"
	"omxsim/openmx"
	"omxsim/runner"
	"omxsim/sim"
)

// Fig9Row is one bar of Figure 9: the receive-side CPU usage split
// while receiving a stream of synchronous large messages.
type Fig9Row struct {
	Bytes      int
	UserPct    float64 // user library
	DriverPct  float64 // driver command processing (incl. pinning)
	BHPct      float64 // bottom-half receive (processing + copies)
	ComputePct float64
}

// Total returns the stacked height.
func (r Fig9Row) Total() float64 { return r.UserPct + r.DriverPct + r.BHPct + r.ComputePct }

// Fig9 regenerates Figure 9: receiver CPU usage with the memcpy-based
// bottom half versus the overlapped I/OAT copy, for 64 kB – 16 MB
// messages. Like the paper, pinning happens per message (no
// registration cache), which is the driver share of the bars.
func Fig9() (memcpyRows, ioatRows []Fig9Row) {
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20}
	var jobs []runner.Job
	for _, withIOAT := range []bool{false, true} {
		for _, size := range sizes {
			jobs = append(jobs, job(fmt.Sprintf("fig9/%s/ioat=%v", sizeName(size), withIOAT),
				runner.Key("fig9-point", size, withIOAT), func() Fig9Row { return fig9Point(size, withIOAT) }))
		}
	}
	rows := sweep[Fig9Row](jobs...)
	return rows[:len(sizes)], rows[len(sizes):]
}

// fig9Point streams synchronous large messages from node0 to node1
// and accounts node1's CPU time by category.
func fig9Point(size int, withIOAT bool) Fig9Row {
	cfg := openmx.Config{IOAT: withIOAT}
	c, w := Testbed(Stack{Kind: "openmx", OMX: cfg}, 1)
	defer c.Close()
	iters := 6
	if size >= 4<<20 {
		iters = 3
	}
	recvHost := w.Rank(1).Host.Machine()
	var t0, t1 sim.Time
	w.Spawn(func(r *mpi.Rank) {
		sbuf := r.Host.Alloc(size)
		rbuf := r.Host.Alloc(size)
		// Warm-up message, then measure.
		if r.ID == 0 {
			r.Produce(sbuf)
			r.Send(1, 1, sbuf, 0, size)
		} else {
			r.Recv(0, 1, rbuf, 0, size)
		}
		r.Barrier()
		if r.ID == 1 {
			recvHost.Sys.ResetAccounting()
			t0 = r.Now()
		}
		for i := 0; i < iters; i++ {
			if r.ID == 0 {
				r.Produce(sbuf)
				r.Send(1, 2, sbuf, 0, size) // synchronous: wait completion
			} else {
				r.Recv(0, 2, rbuf, 0, size)
			}
		}
		if r.ID == 1 {
			t1 = r.Now()
		}
	})
	if blocked := c.Run(); blocked != 0 {
		panic("figures: Fig9 run deadlocked")
	}
	elapsed := float64(t1 - t0)
	by := recvHost.Sys.BusyByCategory()
	pct := func(cats ...cpu.Category) float64 {
		var ns sim.Duration
		for _, cat := range cats {
			ns += by[cat]
		}
		return float64(ns) / elapsed * 100
	}
	return Fig9Row{
		Bytes:      size,
		UserPct:    pct(cpu.UserLib),
		DriverPct:  pct(cpu.DriverCmd),
		BHPct:      pct(cpu.BHProc, cpu.BHCopy, cpu.IOATSubmit),
		ComputePct: pct(cpu.AppCompute, cpu.Other),
	}
}

// Fig9Tables renders both halves of Figure 9 as metric tables
// (stacked series per category).
func Fig9Tables() (*metrics.Table, *metrics.Table) {
	mem, io := Fig9()
	mk := func(title string, rows []Fig9Row) *metrics.Table {
		t := metrics.NewTable(title, "msgsize", "% CPU")
		u := t.AddSeries("User-library")
		d := t.AddSeries("Driver")
		b := t.AddSeries("BH receive")
		tot := t.AddSeries("Total")
		for _, r := range rows {
			u.Add(float64(r.Bytes), r.UserPct)
			d.Add(float64(r.Bytes), r.DriverPct)
			b.Add(float64(r.Bytes), r.BHPct)
			tot.Add(float64(r.Bytes), r.Total())
		}
		return t
	}
	return mk("Fig. 9a: CPU usage, BH receive with memcpy", mem),
		mk("Fig. 9b: CPU usage, BH receive with overlapped DMA copy", io)
}
