package mpi_test

import (
	"encoding/binary"
	"fmt"
	"math"

	"omxsim/cluster"
	"omxsim/mpi"
	"omxsim/openmx"
)

// ExampleWorld builds a two-node MPI world over Open-MX and runs an
// Allreduce on real float64 payloads: each rank contributes its rank
// number plus one, so the sum every rank receives is 1+2 = 3. The
// collective algorithm is picked per call by message and world size
// from fixed thresholds (mpi.AllreduceAlg).
func ExampleWorld() {
	c := cluster.New(nil)
	defer c.Close()
	w := mpi.NewWorld(c)
	for i := 0; i < 2; i++ {
		h := c.NewHost(fmt.Sprintf("node%d", i))
		w.AddRank(openmx.Attach(h, openmx.Config{IOAT: true}).Open(0, 2), h, 2)
	}
	cluster.Link(c.Host("node0"), c.Host("node1"))

	sums := make([]float64, w.Size())
	w.Spawn(func(r *mpi.Rank) {
		sbuf, rbuf := r.Host.Alloc(8), r.Host.Alloc(8)
		binary.LittleEndian.PutUint64(sbuf.Bytes(), math.Float64bits(float64(r.ID+1)))
		r.Allreduce(sbuf, rbuf, 8) // MPI_SUM over little-endian float64s
		sums[r.ID] = math.Float64frombits(binary.LittleEndian.Uint64(rbuf.Bytes()))
		r.Barrier()
	})
	if blocked := c.Run(); blocked != 0 {
		panic("deadlock")
	}
	fmt.Printf("rank 0 sum: %.0f\n", sums[0])
	fmt.Printf("rank 1 sum: %.0f\n", sums[1])
	// Output:
	// rank 0 sum: 3
	// rank 1 sum: 3
}

// ExampleRank_SendRecv is the deadlock-free exchange idiom: both
// ranks post the receive first, then send, then wait — the shape
// every ring-based collective in this package is built from.
func ExampleRank_SendRecv() {
	c := cluster.New(nil)
	defer c.Close()
	w := mpi.NewWorld(c)
	for i := 0; i < 2; i++ {
		h := c.NewHost(fmt.Sprintf("node%d", i))
		w.AddRank(openmx.Attach(h, openmx.Config{}).Open(0, 2), h, 2)
	}
	cluster.Link(c.Host("node0"), c.Host("node1"))

	ok := make([]bool, w.Size())
	w.Spawn(func(r *mpi.Rank) {
		const n = 4 << 10
		sbuf, rbuf := r.Host.Alloc(n), r.Host.Alloc(n)
		sbuf.Fill(byte(r.ID + 1))
		r.Produce(sbuf)
		peer := 1 - r.ID
		r.SendRecv(peer, 7, sbuf, 0, n, peer, 7, rbuf, 0, n)
		expect := r.Host.Alloc(n)
		expect.Fill(byte(peer + 1))
		ok[r.ID] = cluster.Equal(expect, rbuf)
	})
	c.Run()
	fmt.Printf("both exchanged payloads verified: %v\n", ok[0] && ok[1])
	// Output:
	// both exchanged payloads verified: true
}
