// Package host bundles the simulated hardware of one machine: cores,
// memory and caches, the memcpy model, the I/OAT DMA engine and one or
// more NICs. Protocol stacks (internal/core, internal/mxoe) attach to
// a Host.
package host

import (
	"fmt"

	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/ioat"
	"omxsim/internal/memmodel"
	"omxsim/internal/nic"
	"omxsim/internal/wire"
	"omxsim/platform"
	"omxsim/sim"
)

// Host is one simulated machine.
type Host struct {
	E    *sim.Engine
	P    *platform.Platform
	Name string

	Sys  *cpu.System
	Mem  *hostmem.Memory
	Copy *memmodel.Model
	IOAT *ioat.Engine
	// NIC is the primary interface (NICs[0]), kept as a field because
	// nearly all of the module — and the single-NIC fast path — talks
	// to exactly one NIC.
	NIC *nic.NIC
	// NICs are all interfaces, in lane order. NICs[0] carries the bare
	// host name as its address; lane i is addressed wire.LaneAddr(name, i).
	NICs []*nic.NIC
}

// New builds a host with the paper's dual quad-core topology, an I/OAT
// engine and one NIC named after the host.
func New(e *sim.Engine, p *platform.Platform, name string) *Host {
	return NewMulti(e, p, name, 1, nil)
}

// NewMulti builds a host with nics network interfaces (link
// aggregation). NIC lane i is addressed wire.LaneAddr(name, i) and
// takes its interrupts on irqCores[i]; a nil or short irqCores falls
// back to core i modulo the core count for the remaining lanes, so
// NIC 0 keeps the legacy default of core 0 and extra NICs spread
// their bottom halves across cores.
func NewMulti(e *sim.Engine, p *platform.Platform, name string, nics int, irqCores []int) *Host {
	if nics < 1 {
		panic(fmt.Sprintf("host: NIC count %d out of range", nics))
	}
	h := &Host{E: e, P: p, Name: name, NICs: make([]*nic.NIC, 0, nics)}
	h.Sys = cpu.NewSystem(e, p)
	h.Mem = hostmem.New(p)
	h.Copy = memmodel.New(p)
	h.IOAT = ioat.NewEngine(e, p)
	for i := 0; i < nics; i++ {
		n := nic.New(e, p, h.Sys, h.Mem, wire.LaneAddr(name, i))
		n.Lane = i
		if i < len(irqCores) {
			n.IRQCore = irqCores[i]
		} else {
			n.IRQCore = i % p.NumCores()
		}
		h.NICs = append(h.NICs, n)
	}
	h.NIC = h.NICs[0]
	return h
}

// Lanes reports the number of NICs.
func (h *Host) Lanes() int { return len(h.NICs) }

// Alloc allocates a buffer in this host's memory.
func (h *Host) Alloc(size int) *hostmem.Buffer { return h.Mem.Alloc(size) }

// AllocOn allocates a buffer homed on the given NUMA node (socket).
func (h *Host) AllocOn(size, socket int) *hostmem.Buffer { return h.Mem.AllocOn(size, socket) }
