package proto

import (
	"slices"

	"omxsim/sim"
)

// Reliability-window arithmetic shared by the Open-MX driver
// (internal/core) and the native MX firmware (internal/mxoe). The
// two stacks interoperate over one wire, so sequence comparison,
// wraparound, the reserved "no ack" sentinel 0, the retransmission
// backoff schedule, and the rendezvous dedup window must behave
// identically on every peer — there is exactly one implementation of
// each.

// SeqAfter reports a > b in 32-bit serial arithmetic (RFC 1982
// style), so comparisons stay correct across sequence wraparound.
func SeqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// NextSeq advances a sender's per-channel sequence counter in place
// and returns the issued value, skipping 0 — the wire's "no ack yet"
// sentinel — when the counter wraps.
func NextSeq(s *uint32) uint32 {
	*s++
	if *s == 0 {
		*s = 1
	}
	return *s
}

// Window is a receive-side cumulative completion window: the edge
// (every sequence serially at or before it is fully received) plus
// out-of-order completions ahead of it. The zero value is not usable;
// call NewWindow.
type Window struct {
	edge      uint32
	completed map[uint32]bool
}

// NewWindow returns an empty window whose edge sits just before the
// first sequence NextSeq will issue from a zero counter.
func NewWindow() Window { return NewWindowAt(0) }

// NewWindowAt returns a window with the given initial edge (tests
// start near the wraparound; channels start at 0).
func NewWindowAt(edge uint32) Window {
	return Window{edge: edge, completed: make(map[uint32]bool)}
}

// Edge reports the cumulative completion edge — the value a receiver
// acks.
func (w *Window) Edge() uint32 { return w.edge }

// IsDup reports whether seq was already fully received: covered by
// the cumulative edge or individually recorded ahead of it.
// Retransmissions of such sequences carry no new data and must only
// refresh the ack.
func (w *Window) IsDup(seq uint32) bool {
	return !SeqAfter(seq, w.edge) || w.completed[seq]
}

// MarkComplete records seq as fully received and advances the edge
// over any contiguous run it completes, skipping the sentinel 0 on
// wraparound (mirroring NextSeq).
func (w *Window) MarkComplete(seq uint32) {
	w.completed[seq] = true
	for {
		next := w.edge + 1
		if next == 0 {
			next = 1
		}
		if !w.completed[next] {
			return
		}
		w.edge = next
		delete(w.completed, next)
	}
}

// Pending reports completions recorded ahead of the edge (holes keep
// it nonzero; a drained channel returns 0).
func (w *Window) Pending() int { return len(w.completed) }

// Backoff returns the retransmission timeout after the given number
// of consecutive unanswered attempts: base scaled by mult per
// attempt, capped at max. Attempt counters reset on any acknowledged
// progress, so a transient outage never leaves a channel
// permanently slow.
func Backoff(base, max sim.Duration, mult float64, attempts int) sim.Duration {
	d := base
	for i := 0; i < attempts; i++ {
		d = sim.Duration(float64(d) * mult)
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// TrimAcked splits a sender's in-order unacked list at a cumulative
// ack: done holds the items ackSeq covers (serial arithmetic), keep
// the rest, both preserving order.
func TrimAcked[T any](unacked []T, seq func(T) uint32, ackSeq uint32) (done, keep []T) {
	for _, u := range unacked {
		if !SeqAfter(seq(u), ackSeq) {
			done = append(done, u)
		} else {
			keep = append(keep, u)
		}
	}
	return done, keep
}

// ClaimBefore orders in-progress assembly claim candidates
// deterministically — by source address, then sequence in serial
// order — so which partial message a wildcard receive claims never
// depends on Go map iteration order.
func ClaimBefore(aSrc Addr, aSeq uint32, bSrc Addr, bSeq uint32) bool {
	if aSrc.Host != bSrc.Host {
		return aSrc.Host < bSrc.Host
	}
	if aSrc.EP != bSrc.EP {
		return aSrc.EP < bSrc.EP
	}
	return SeqAfter(bSeq, aSeq)
}

// RndvDedupWindow bounds remembered completed rendezvous per stack
// (for re-acking lost final acks). A sender still retransmitting a
// request this many transfers later has long hit its backoff cap;
// real stacks bound this window too.
const RndvDedupWindow = 4096

// EvictRing is the bounded FIFO of a dedup set: the keys in the order
// they completed, oldest first. It grows by append up to its limit,
// from a first slice of evictRingFirst keys, and then wraps in place,
// so a full window evicts with no allocation.
type EvictRing[K comparable] struct {
	keys []K
	head int // index of the oldest key once the ring is full
}

// evictRingFirst is the capacity of a ring's first slice: enough for a
// short-lived dedup set in one allocation.
const evictRingFirst = 8

// Len reports how many keys the ring holds.
func (r *EvictRing[K]) Len() int { return len(r.keys) }

// Contains reports whether the ring holds key. It scans the ring, so a
// caller that can rule a key out otherwise (a live entry) should.
func (r *EvictRing[K]) Contains(key K) bool { return slices.Contains(r.keys, key) }

// Push appends key. A ring already holding limit keys drops its oldest
// one, which it returns with evicted true. A small window can serve as
// the dedup set itself, through Contains.
func (r *EvictRing[K]) Push(key K, limit int) (old K, evicted bool) {
	if len(r.keys) < limit {
		if r.keys == nil {
			r.keys = make([]K, 0, min(limit, evictRingFirst))
		}
		r.keys = append(r.keys, key)
		return old, false
	}
	old = r.keys[r.head]
	r.keys[r.head] = key
	r.head++
	if r.head == len(r.keys) {
		r.head = 0
	}
	return old, true
}

// EvictOldest appends key to a bounded dedup FIFO and, past limit,
// deletes the oldest key from seen.
func EvictOldest[K comparable, V any](seen map[K]V, fifo *EvictRing[K], key K, limit int) {
	if old, evicted := fifo.Push(key, limit); evicted {
		delete(seen, old)
	}
}
