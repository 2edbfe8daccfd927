// pvfs-stream models the workload that motivated Open-MX's BlueGene/P
// deployment: parallel file-system traffic. Three compute nodes
// running Open-MX stream file chunks through a switch to one I/O node
// running native MXoE, first with memcpy receive copies on the reading
// side, then with I/OAT offload — showing why copy offload matters for
// storage servers (the paper cites PVFS file transfers as the
// established I/OAT use case).
package main

import (
	"fmt"

	"omxsim/cluster"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

const (
	chunk  = 1 << 20 // 1 MiB file chunks
	chunks = 6       // per compute node
	nodes  = 3
)

func main() {
	fmt.Printf("PVFS-style streaming: %d compute nodes write %d x 1 MiB chunks each,\n", nodes, chunks)
	fmt.Println("then read them back (read path = compute-node receive copies).")
	fmt.Println()
	for _, ioat := range []bool{false, true} {
		elapsed := run(ioat)
		total := float64(nodes*chunks*chunk*2) / (1 << 20) // write + read
		label := "memcpy receive"
		if ioat {
			label = "I/OAT receive"
		}
		fmt.Printf("%-16s %8.2f ms   aggregate %7.0f MiB/s\n",
			label, float64(elapsed)/1e6, total/elapsed.Seconds())
	}
}

func run(ioat bool) sim.Duration {
	c := cluster.New(nil)
	sw := c.NewSwitch()
	io := c.NewHost("ionode")
	sw.Attach(io)
	ioEP := mxoe.Attach(io, mxoe.Config{RegCache: true}).Open(0, 2)

	cfg := openmx.Config{IOAT: ioat, RegCache: true}
	var computeEPs []openmx.Endpoint
	var computeHosts []*cluster.Host
	for i := 0; i < nodes; i++ {
		h := c.NewHost(fmt.Sprintf("compute%d", i))
		sw.Attach(h)
		computeEPs = append(computeEPs, openmx.Attach(h, cfg).Open(0, 2))
		computeHosts = append(computeHosts, h)
	}

	// The I/O node serves all clients: for each client chunk, receive
	// the write, then send it back when the client reads.
	store := io.Alloc(nodes * chunks * chunk)
	c.Go("io-server", func(p *sim.Proc) {
		// Phase 1: collect all writes (any source order).
		for i := 0; i < nodes*chunks; i++ {
			r := ioEP.IRecv(p, 0, 0, store, i*chunk, chunk) // wildcard
			ioEP.Wait(p, r)
		}
		// Phase 2: serve reads in store order.
		for i := 0; i < nodes*chunks; i++ {
			node := i / chunks
			s := ioEP.ISend(p, computeEPs[node].Addr(), uint64(0x1000+i), store, i*chunk, chunk)
			ioEP.Wait(p, s)
		}
	})

	var finished sim.Time
	doneCount := 0
	for n := 0; n < nodes; n++ {
		ep := computeEPs[n]
		h := computeHosts[n]
		c.Go(fmt.Sprintf("client%d", n), func(p *sim.Proc) {
			out := h.Alloc(chunk)
			in := h.Alloc(chunk)
			out.Fill(byte(n + 1))
			for i := 0; i < chunks; i++ {
				s := ep.ISend(p, ioEP.Addr(), uint64(n*chunks+i), out, 0, chunk)
				ep.Wait(p, s)
			}
			for i := 0; i < chunks; i++ {
				r := ep.IRecv(p, uint64(0x1000+n*chunks+i), ^uint64(0), in, 0, chunk)
				ep.Wait(p, r)
			}
			doneCount++
			if p.Now() > finished {
				finished = p.Now()
			}
		})
	}
	if c.Run() != 0 {
		panic("deadlock")
	}
	if doneCount != nodes {
		panic("not all clients finished")
	}
	return finished
}
