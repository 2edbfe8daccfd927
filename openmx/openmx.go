// Package openmx is the public API of the Open-MX stack: MX-style
// endpoints with ISend/IRecv/Wait verbs, 64-bit matching, and the
// paper's configuration knobs (I/OAT copy offload, registration cache,
// thresholds).
//
// It also defines the transport-neutral Endpoint/Request interfaces
// that the mpi and imb packages program against, so every benchmark
// runs identically over Open-MX and the native MXoE baseline.
//
//	c := cluster.New(nil)
//	n0, n1 := c.NewHost("n0"), c.NewHost("n1")
//	cluster.Link(n0, n1)
//	s0 := openmx.Attach(n0, openmx.Config{IOAT: true})
//	s1 := openmx.Attach(n1, openmx.Config{IOAT: true})
//	e0, e1 := s0.Open(0, 2), s1.Open(0, 2)
//	c.Go("recv", func(p *sim.Proc) {
//	    r := e1.IRecv(p, 42, ^uint64(0), dst, 0, dst.Size())
//	    e1.Wait(p, r)
//	})
//	c.Go("send", func(p *sim.Proc) {
//	    e0.Wait(p, e0.ISend(p, e1.Addr(), 42, src, 0, src.Size()))
//	})
//	c.Run()
package openmx

import (
	"omxsim/cluster"
	"omxsim/internal/core"
	"omxsim/internal/cpu"
	"omxsim/internal/hostmem"
	"omxsim/internal/proto"
	"omxsim/platform"
	"omxsim/sim"
)

// Addr identifies an endpoint: host name plus endpoint index.
type Addr = proto.Addr

// Config selects the stack's optimizations and thresholds; it is the
// Open-MX configuration from the paper (see internal/core.Config for
// field documentation). The zero value is the plain memcpy stack with
// the paper's default thresholds.
type Config = core.Config

// Defaults returns the paper's default thresholds.
func Defaults() Config { return core.Defaults() }

// Stripe policies for Config.StripePolicy on multi-NIC hosts
// (cluster.MultiNIC): round-robin stripes the units of each message —
// eager fragments, pull blocks — across NIC lanes (the default, and
// the one that aggregates bandwidth); hash pins each message to one
// lane like a switch's L3/L4 flow hash; single disables aggregation.
// Stats().NICTxFrames and cluster.NetStats report the resulting
// per-NIC balance.
const (
	StripeRoundRobin = proto.StripeRoundRobin
	StripeHash       = proto.StripeHash
	StripeSingle     = proto.StripeSingle
)

// AutoTuned returns an I/OAT-enabled configuration whose offload and
// protocol thresholds are derived from startup microbenchmarks of the
// given platform instead of the paper's empirical constants (the
// Section VI auto-tuning proposal).
func AutoTuned(p *platform.Platform) Config { return core.AutoTuned(p) }

// Thresholds is the full set of protocol/offload thresholds the
// adaptive autotuner derives (see ProbeThresholds).
type Thresholds = core.Thresholds

// ProbeThresholds probes the platform's memcpy and I/OAT cost curves
// and returns the crossover points the autotuner would pick: the
// eager→rendezvous switch, the local memcpy→I/OAT switch, and the
// asynchronous-offload floor (minimum message and fragment sizes).
func ProbeThresholds(p *platform.Platform) Thresholds { return core.ProbeThresholds(p) }

// Request is a transport-neutral in-flight operation handle.
type Request interface {
	// Done reports completion (driven by Wait/Test/Progress).
	Done() bool
	// Len reports the delivered byte count of a completed receive.
	Len() int
	// Sender reports the source address of a completed receive.
	Sender() Addr
	// Match reports the matched message's 64-bit match value.
	Match() uint64
}

// Endpoint is the transport-neutral communication interface
// implemented by both Open-MX and native MXoE endpoints.
type Endpoint interface {
	Addr() Addr
	ISend(p *sim.Proc, dst Addr, match uint64, buf *cluster.Buffer, off, n int) Request
	IRecv(p *sim.Proc, match, mask uint64, buf *cluster.Buffer, off, n int) Request
	Wait(p *sim.Proc, r Request)
	Test(p *sim.Proc, r Request) bool
	Progress(p *sim.Proc) bool
}

// Transport opens endpoints on one host's stack.
type Transport interface {
	Open(id, core int) Endpoint
	HostName() string
}

// CollGroup is a registered collective group on a NIC whose firmware
// runs offloaded collectives. Each Post verb writes one descriptor to
// the NIC and returns a Request that completes on the collective's
// single completion event — every tree hop in between runs in
// firmware with zero host CPU. All members must post the same
// collectives in the same order (the usual MPI rule); payloads are
// little-endian float64 sums for the reductions, capped at the
// capability's CollMaxBytes.
type CollGroup interface {
	// Size is the member count; Rank this endpoint's member index.
	Size() int
	Rank() int
	// PostBarrier joins the firmware barrier.
	PostBarrier(p *sim.Proc) Request
	// PostBcast sends (on the root, from buf, snapshot at post) or
	// receives (elsewhere, into buf by NIC DMA) a broadcast.
	PostBcast(p *sim.Proc, root int, buf *cluster.Buffer, off, n int) Request
	// PostAllreduce combines every member's sbuf (float64 sum, in
	// firmware) and deposits the result in every member's rbuf.
	PostAllreduce(p *sim.Proc, sbuf, rbuf *cluster.Buffer, n int) Request
	// PostScan deposits the inclusive prefix sum of contributions
	// 0..Rank() in rbuf.
	PostScan(p *sim.Proc, sbuf, rbuf *cluster.Buffer, n int) Request
}

// CollCapable is implemented by endpoints whose NIC firmware runs
// offloaded collectives (the native MXoE stack). CollJoin registers a
// group from the full member list — every participant's endpoint
// address in rank order; all members derive the same group identity
// locally, with no wire traffic, and the group keeps members: callers
// must not modify the slice afterwards. Callers select offload by
// type-asserting this interface (mpi's World.Offload tier does exactly
// that).
type CollCapable interface {
	CollJoin(members []Addr) CollGroup
	// CollMaxBytes is the largest payload the firmware accepts per
	// offloaded collective.
	CollMaxBytes() int
}

// Stack is an Open-MX instance attached to a host.
type Stack struct {
	h *cluster.Host
	s *core.Stack
}

// Attach builds an Open-MX stack (driver + library) on the host and
// switches its NIC to the generic Ethernet receive path.
func Attach(h *cluster.Host, cfg Config) *Stack {
	return &Stack{h: h, s: core.Attach(h.Machine(), cfg)}
}

// HostName implements Transport.
func (s *Stack) HostName() string { return s.h.Name }

// Stats exposes protocol counters (retransmissions, I/OAT submits,
// cleanup frees, ...) for tests and diagnostics.
func (s *Stack) Stats() core.Stats { return s.s.Stats }

// CPUStats is a deterministic snapshot of the host's per-core CPU
// ledgers: busy time per accounting category (user library, driver,
// bottom-half processing and copies, I/OAT submission, application
// compute) plus the idle remainder of the window. See CPUCategories
// for the ledger order.
type CPUStats = cpu.Stats

// CPUCategory labels one busy-time ledger; CPUCategories returns them
// in ledger order.
type CPUCategory = cpu.Category

// The accounting categories, re-exported for CPUStats consumers.
const (
	CPUUserLib    = cpu.UserLib
	CPUDriver     = cpu.DriverCmd
	CPUBHProc     = cpu.BHProc
	CPUBHCopy     = cpu.BHCopy
	CPUIOATSubmit = cpu.IOATSubmit
	CPUAppCompute = cpu.AppCompute
	CPUOther      = cpu.Other
)

// CPUCategories returns every accounting category in ledger order.
func CPUCategories() []CPUCategory { return cpu.Categories() }

// CPUStats snapshots the host's CPU accounting since the last
// ResetCPUStats (or since the start of the run). The snapshot covers
// the whole machine — every stack and process on the host shares the
// same cores — and is deterministic: identical runs yield identical
// snapshots.
func (s *Stack) CPUStats() CPUStats { return s.s.H.Sys.Snapshot() }

// ResetCPUStats zeroes the host's CPU ledgers and starts a new
// accounting window (e.g. after a warm-up phase).
func (s *Stack) ResetCPUStats() { s.s.H.Sys.ResetAccounting() }

// RegStats is a snapshot of the stack's registration-cache counters:
// hits and misses (which sum to the posts that consulted the cache),
// and the currently resident regions with their pinned pages.
type RegStats = hostmem.RegStats

// RegStats snapshots the registration cache (zero value when
// Config.RegCache is off).
func (s *Stack) RegStats() RegStats { return s.s.RegStats() }

// Inner exposes the internal stack for in-module tooling (timeline
// tracing); external callers should treat it as opaque.
func (s *Stack) Inner() *core.Stack { return s.s }

// Open creates endpoint id bound to the given core and returns it.
func (s *Stack) Open(id, coreID int) Endpoint {
	return &endpoint{ep: s.s.OpenEndpoint(id, coreID)}
}

type endpoint struct {
	ep *core.Endpoint
}

type request struct {
	r *core.Request
}

func (r request) Done() bool    { return r.r.Done() }
func (r request) Len() int      { return r.r.Len }
func (r request) Sender() Addr  { return r.r.SenderAddr }
func (r request) Match() uint64 { return r.r.MatchInfo }

func (e *endpoint) Addr() Addr { return e.ep.Addr() }

func (e *endpoint) ISend(p *sim.Proc, dst Addr, match uint64, buf *cluster.Buffer, off, n int) Request {
	return request{e.ep.ISend(p, dst, match, buf.Raw(), off, n)}
}

func (e *endpoint) IRecv(p *sim.Proc, match, mask uint64, buf *cluster.Buffer, off, n int) Request {
	return request{e.ep.IRecv(p, match, mask, buf.Raw(), off, n)}
}

func (e *endpoint) Wait(p *sim.Proc, r Request) { e.ep.Wait(p, r.(request).r) }

func (e *endpoint) Test(p *sim.Proc, r Request) bool { return e.ep.Test(p, r.(request).r) }

func (e *endpoint) Progress(p *sim.Proc) bool { return e.ep.Progress(p) }
