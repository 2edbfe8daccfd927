package proto

// Slots hands out the slots of one endpoint's eager receive ring
// (Open-MX) or receive queue (native MX). Which slot a fragment lands
// in sets its ring offset, and the offset feeds the memory model, so
// the order is part of the model: first 0, 1, 2, … up to the ring
// size, and after that the returned slots, last in first out — the
// order of a list that starts full and descending. The never-used
// slots are a high-water mark, not a list, so a fresh ring costs no
// allocation until a slot comes back.
type Slots struct {
	n     int   // ring size
	next  int   // high-water mark: slots next..n-1 were never taken
	freed []int // returned slots, taken again last in first out
}

// NewSlots returns an allocator for an n-slot ring.
func NewSlots(n int) Slots { return Slots{n: n} }

// Take hands out a slot, or -1 when every slot is taken.
func (s *Slots) Take() int {
	if k := len(s.freed); k > 0 {
		i := s.freed[k-1]
		s.freed = s.freed[:k-1]
		return i
	}
	if s.next == s.n {
		return -1
	}
	s.next++
	return s.next - 1
}

// Put returns slot i.
func (s *Slots) Put(i int) { s.freed = append(s.freed, i) }

// Free reports how many slots Take can still hand out.
func (s *Slots) Free() int { return s.n - s.next + len(s.freed) }

// Insert sets (*m)[k] = v, making the map on first insert. The stacks'
// per-endpoint and per-stack maps start nil this way, so a world
// whose endpoints never meet a peer, a rendezvous or a collective
// group never makes them.
func Insert[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}
