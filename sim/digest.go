package sim

import (
	"sync"
	"sync/atomic"
)

// The event-order digest: a 64-bit FNV-1a hash over the model-visible
// events of one engine, a behavioural contract stricter than the
// golden tables (which print rounded µs and MiB/s). It folds in the
// virtual time and creation index of the process at every proc resume,
// and the time, source, destination and length of every frame a NIC
// puts on the wire. Internal event sequence numbers are not folded, so
// a refactor that changes which events the engine files internally
// leaves the digest alone, while any change in when a process runs or
// a frame leaves changes it. When the digest is off each hook costs
// one nil check.

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// digest is a running FNV-1a hash.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: fnvOffset} }

// word folds v in, least significant byte first.
func (d *digest) word(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v & 0xff
		d.h *= fnvPrime
		v >>= 8
	}
}

// str folds s in, followed by its length so adjacent strings cannot
// run into each other.
func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= fnvPrime
	}
	d.word(uint64(len(s)))
}

// EnableDigest switches the event-order digest on for this engine,
// starting from the FNV-1a offset basis. Call it before Run; events
// that fired earlier are not covered.
func (e *Engine) EnableDigest() { e.dig = newDigest() }

// Digest returns the engine's event-order digest so far, or 0 when
// the digest is off.
func (e *Engine) Digest() uint64 {
	if e.dig == nil {
		return 0
	}
	return e.dig.h
}

// DigestFrame folds one transmitted frame into the digest: the current
// virtual time, the source and destination addresses and the frame's
// wire length. NICs call it as a frame goes on the wire.
func (e *Engine) DigestFrame(src, dst string, length int) {
	if e.dig == nil {
		return
	}
	e.dig.word(uint64(e.now))
	e.dig.str(src)
	e.dig.str(dst)
	e.dig.word(uint64(length))
}

// digestResume folds one proc resume into the digest.
func (e *Engine) digestResume(p *Proc) {
	e.dig.word(uint64(e.now))
	e.dig.word(p.id)
}

// collecting is the process-wide digest collection that
// CollectDigests starts: while it is on, New gives every engine a
// digest and keeps a reference to it.
var collecting struct {
	on atomic.Bool
	mu sync.Mutex
	ds []*digest
}

// CollectDigests makes every engine New builds from now on carry a
// digest, until the returned stop function is called. stop returns
// the combined digest of those engines: the sum, modulo 2^64, of
// their digests. A sum does not depend on the order in which engines
// running on different goroutines were built, so a sweep's combined
// digest is the same serial or parallel. Only one collection may be
// active at a time.
func CollectDigests() (stop func() uint64) {
	collecting.mu.Lock()
	collecting.ds = nil
	collecting.mu.Unlock()
	collecting.on.Store(true)
	return func() uint64 {
		collecting.on.Store(false)
		collecting.mu.Lock()
		defer collecting.mu.Unlock()
		var sum uint64
		for _, d := range collecting.ds {
			sum += d.h
		}
		collecting.ds = nil
		return sum
	}
}

// collectDigest gives e a digest when a collection is active.
func collectDigest(e *Engine) {
	if !collecting.on.Load() {
		return
	}
	e.EnableDigest()
	collecting.mu.Lock()
	collecting.ds = append(collecting.ds, e.dig)
	collecting.mu.Unlock()
}
