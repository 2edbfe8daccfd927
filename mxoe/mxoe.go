// Package mxoe is the public API of the native Myrinet Express over
// Ethernet stack — the paper's baseline. It implements the same
// transport interface as package openmx, so benchmarks and MPI run
// unchanged over either stack, and it is wire-compatible with Open-MX
// (the two interoperate over one link, as Open-MX was designed to do).
package mxoe

import (
	"omxsim/cluster"
	"omxsim/internal/hostmem"
	"omxsim/internal/mxoe"
	"omxsim/openmx"
	"omxsim/sim"
)

// Config selects native-stack options: the registration cache, the
// firmware's retransmission timeout and its adaptive tier (see
// internal/mxoe.Config for field documentation).
type Config = mxoe.Config

// Stats re-exports the firmware protocol counters.
type Stats = mxoe.Stats

// CollStats re-exports the per-stack firmware-collective counters
// (descriptors posted per operation, tree frames, hop acks,
// retransmissions, duplicate suppression, combined reduction bytes).
type CollStats = mxoe.CollStats

// CollMaxBytes is the largest payload the firmware accepts per
// offloaded collective; larger payloads stay on the host algorithms.
const CollMaxBytes = mxoe.CollMaxBytes

// Stack is a native MXoE instance attached to a host (its NIC runs in
// firmware mode: no interrupts, no bottom halves).
type Stack struct {
	h *cluster.Host
	s *mxoe.Stack
}

// Attach builds the native stack on a host.
func Attach(h *cluster.Host, cfg Config) *Stack {
	return &Stack{h: h, s: mxoe.Attach(h.Machine(), cfg)}
}

// Stats exposes the firmware's protocol counters (retransmissions,
// duplicate suppression, queue drops, per-NIC transmit counts on
// multi-NIC hosts) for tests and diagnostics. The firmware stripes
// eager fragments and pull blocks round-robin across an aggregated
// link's NICs (cluster.MultiNIC) with two pull blocks in flight per
// NIC; NICTxFrames reports the resulting balance.
func (s *Stack) Stats() Stats { return s.s.Stats }

// RegStats snapshots the stack's registration-cache counters (zero
// value when Config.RegCache is off).
func (s *Stack) RegStats() hostmem.RegStats { return s.s.RegStats() }

// CPUStats re-exports the deterministic per-core CPU ledger snapshot
// (see openmx.CPUStats). Native MX leaves the receive path to NIC
// firmware, so its snapshots show essentially only user-library and
// application-compute time — the baseline the paper's availability
// argument is measured against. Its categories are openmx's
// (openmx.CPUUserLib, ...).
type CPUStats = openmx.CPUStats

// CPUStats snapshots the host's CPU accounting since the last
// ResetCPUStats (or the start of the run).
func (s *Stack) CPUStats() CPUStats { return s.s.H.Sys.Snapshot() }

// ResetCPUStats zeroes the host's CPU ledgers and starts a new
// accounting window.
func (s *Stack) ResetCPUStats() { s.s.H.Sys.ResetAccounting() }

// HostName implements openmx.Transport.
func (s *Stack) HostName() string { return s.h.Name }

// Inner exposes the internal firmware stack for in-module tooling
// (trace capture); external callers should treat it as opaque.
func (s *Stack) Inner() *mxoe.Stack { return s.s }

// Open creates endpoint id bound to the given core.
func (s *Stack) Open(id, coreID int) openmx.Endpoint {
	return &endpoint{ep: s.s.OpenEndpoint(id, coreID)}
}

type endpoint struct {
	ep *mxoe.Endpoint
}

type request struct {
	r *mxoe.Request
}

func (r request) Done() bool          { return r.r.Done() }
func (r request) Len() int            { return r.r.Len }
func (r request) Sender() openmx.Addr { return r.r.SenderAddr }
func (r request) Match() uint64       { return r.r.MatchInfo }

func (e *endpoint) Addr() openmx.Addr { return e.ep.Addr() }

func (e *endpoint) ISend(p *sim.Proc, dst openmx.Addr, match uint64, buf *cluster.Buffer, off, n int) openmx.Request {
	return request{e.ep.ISend(p, dst, match, buf.Raw(), off, n)}
}

func (e *endpoint) IRecv(p *sim.Proc, match, mask uint64, buf *cluster.Buffer, off, n int) openmx.Request {
	return request{e.ep.IRecv(p, match, mask, buf.Raw(), off, n)}
}

func (e *endpoint) Wait(p *sim.Proc, r openmx.Request) { e.ep.Wait(p, r.(request).r) }

func (e *endpoint) Test(p *sim.Proc, r openmx.Request) bool { return e.ep.Test(p, r.(request).r) }

func (e *endpoint) Progress(p *sim.Proc) bool { return e.ep.Progress(p) }

// CollJoin implements openmx.CollCapable: it registers this
// endpoint's membership in the collective group defined by members
// (every rank's endpoint address, in rank order) and returns the
// descriptor-post API backed by the NIC's firmware state machines.
// The group keeps members rather than copying it.
func (e *endpoint) CollJoin(members []openmx.Addr) openmx.CollGroup {
	return collGroup{g: e.ep.CollJoin(members)}
}

// CollMaxBytes implements openmx.CollCapable.
func (e *endpoint) CollMaxBytes() int { return mxoe.CollMaxBytes }

type collGroup struct {
	g *mxoe.CollGroup
}

func (g collGroup) Size() int { return g.g.Size() }
func (g collGroup) Rank() int { return g.g.Rank() }

func (g collGroup) PostBarrier(p *sim.Proc) openmx.Request {
	return request{g.g.PostBarrier(p)}
}

func (g collGroup) PostBcast(p *sim.Proc, root int, buf *cluster.Buffer, off, n int) openmx.Request {
	return request{g.g.PostBcast(p, root, buf.Raw(), off, n)}
}

func (g collGroup) PostAllreduce(p *sim.Proc, sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return request{g.g.PostAllreduce(p, sbuf.Raw(), rbuf.Raw(), n)}
}

func (g collGroup) PostScan(p *sim.Proc, sbuf, rbuf *cluster.Buffer, n int) openmx.Request {
	return request{g.g.PostScan(p, sbuf.Raw(), rbuf.Raw(), n)}
}
