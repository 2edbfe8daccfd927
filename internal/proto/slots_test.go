package proto

import (
	"math/rand"
	"testing"
)

// descendingSlots is the allocator Slots replaced: a list that starts
// full and descending, taken from and returned to its end.
type descendingSlots []int

func newDescendingSlots(n int) descendingSlots {
	l := make(descendingSlots, n)
	for i := range l {
		l[i] = n - 1 - i
	}
	return l
}

func (l *descendingSlots) take() int {
	k := len(*l)
	if k == 0 {
		return -1
	}
	i := (*l)[k-1]
	*l = (*l)[:k-1]
	return i
}

func (l *descendingSlots) put(i int) { *l = append(*l, i) }

// TestSlotsMatchDescendingList drives Slots and the descending list
// through the same random take/put traces: every take must return the
// same slot (ring offsets feed the memory model), a full ring must
// return -1, and Free must track the list's length.
func TestSlotsMatchDescendingList(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		seed  int64
		steps int
		takeP float64 // probability that a step takes rather than puts
	}{
		{"fills-then-drains", 4, 1, 200, 0.5},
		{"mostly-full", 8, 2, 500, 0.8},
		{"mostly-empty", 16, 3, 500, 0.3},
		{"ring-size", RingSlots, 4, 5000, 0.6},
		{"one-slot", 1, 5, 100, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			s, l := NewSlots(tc.n), newDescendingSlots(tc.n)
			var held []int
			full := 0
			for step := range tc.steps {
				if len(held) == 0 || rng.Float64() < tc.takeP {
					got, want := s.Take(), l.take()
					if got != want {
						t.Fatalf("step %d: Take() = %d, the descending list gives %d", step, got, want)
					}
					if got < 0 {
						full++
						if len(held) != tc.n {
							t.Fatalf("step %d: Take() = -1 with %d of %d slots held", step, len(held), tc.n)
						}
						continue
					}
					held = append(held, got)
				} else {
					k := rng.Intn(len(held))
					i := held[k]
					held = append(held[:k], held[k+1:]...)
					s.Put(i)
					l.put(i)
				}
				if s.Free() != len(l) {
					t.Fatalf("step %d: Free() = %d, the descending list holds %d", step, s.Free(), len(l))
				}
			}
			if tc.takeP >= 0.5 && full == 0 {
				t.Fatalf("the trace never filled the ring")
			}
		})
	}
}

// TestSlotsOrder pins the order itself: fresh slots ascending, then
// returned slots last in first out, then -1.
func TestSlotsOrder(t *testing.T) {
	s := NewSlots(3)
	var got []int
	for range 3 {
		got = append(got, s.Take())
	}
	s.Put(0)
	s.Put(2)
	for range 3 {
		got = append(got, s.Take())
	}
	want := []int{0, 1, 2, 2, 0, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("take order %v, want %v", got, want)
		}
	}
}

// TestEvictRing checks the dedup FIFO's eviction order through several
// wraparounds: the evicted key is always the oldest one held, and the
// ring never holds more than its limit.
func TestEvictRing(t *testing.T) {
	for _, tc := range []struct {
		name        string
		limit, keys int
	}{
		{"below-limit", 4, 3},
		{"exactly-full", 4, 4},
		{"one-past", 4, 5},
		{"wraps-twice", 3, 10},
		{"limit-one", 1, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[int]bool{}
			var r EvictRing[int]
			for k := range tc.keys {
				seen[k] = true
				EvictOldest(seen, &r, k, tc.limit)
				if want := min(k+1, tc.limit); r.Len() != want || len(seen) != want {
					t.Fatalf("after key %d: ring %d, set %d; want %d", k, r.Len(), len(seen), want)
				}
				// The set holds exactly the newest limit keys.
				for old := range k + 1 {
					if kept := old > k-tc.limit; seen[old] != kept {
						t.Fatalf("after key %d: key %d in the set = %v, want %v", k, old, seen[old], kept)
					}
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				EvictOldest(seen, &r, tc.keys, tc.limit)
				delete(seen, tc.keys)
			})
			if r.Len() == tc.limit && allocs != 0 {
				t.Fatalf("a full ring allocates %.1f objects per key, want 0", allocs)
			}
		})
	}
}
