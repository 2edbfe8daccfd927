package hostmem

import (
	"testing"

	"omxsim/platform"
)

// Table-driven churn over the cache: hits+misses sum to the posts,
// and the pin cost (a Pin call plus reported pinPages) is charged
// exactly once per region.
func TestRegCacheChurn(t *testing.T) {
	cases := []struct {
		name   string
		bufs   int   // distinct regions
		posts  []int // sequence of region indices to Acquire
		hits   int64
		misses int64
	}{
		{
			name: "unbounded-repeat", bufs: 2,
			posts: []int{0, 1, 0, 1, 0, 1},
			hits:  4, misses: 2,
		},
		{
			// Round-robin over 3 regions: each misses once, then
			// every later post hits.
			name: "round-robin", bufs: 3,
			posts: []int{0, 1, 2, 0, 1, 2},
			hits:  3, misses: 3,
		},
	}
	p := platform.Clovertown()
	const regBytes = 3 * 4096 // 3 pages each
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(p)
			rc := NewRegCache()
			bufs := make([]*Buffer, tc.bufs)
			for i := range bufs {
				bufs[i] = m.Alloc(regBytes)
			}
			var pinned int64
			for _, i := range tc.posts {
				pinned += rc.Acquire(bufs[i], regBytes)
			}
			st := rc.Stats()
			if st.Hits != tc.hits || st.Misses != tc.misses {
				t.Fatalf("hits/misses = %d/%d, want %d/%d",
					st.Hits, st.Misses, tc.hits, tc.misses)
			}
			if st.Hits+st.Misses != int64(len(tc.posts)) {
				t.Fatalf("hits+misses = %d, want the %d posts", st.Hits+st.Misses, len(tc.posts))
			}
			// Pin cost charged exactly once per region: pages flow in
			// on misses only, never twice.
			if pinned != st.Misses*3 {
				t.Fatalf("pinned pages = %d, want %d", pinned, st.Misses*3)
			}
			if st.PinnedPages != int64(st.Resident)*3 {
				t.Fatalf("PinnedPages = %d, want %d", st.PinnedPages, int64(st.Resident)*3)
			}
			// The hostmem pin refcount agrees: exactly the resident
			// regions hold a reference.
			livePins := 0
			for _, b := range bufs {
				if b.Pinned() {
					livePins++
					if !rc.Resident(b) {
						t.Fatal("pinned buffer not resident in the cache")
					}
				} else if rc.Resident(b) {
					t.Fatal("resident buffer lost its pin")
				}
			}
			if livePins != st.Resident {
				t.Fatalf("live pins = %d, resident = %d", livePins, st.Resident)
			}
		})
	}
}

// Acquire of a sub-page region pins one page, and a later hit on the
// same buffer with a larger span pins nothing more.
func TestRegCachePageAccounting(t *testing.T) {
	p := platform.Clovertown()
	m := New(p)
	rc := NewRegCache()
	a := m.Alloc(64 * 1024)
	if pp := rc.Acquire(a, 100); pp != 1 {
		t.Fatalf("sub-page pin = %d pages, want 1", pp)
	}
	// Hit with a larger span: no re-pin (the model registers whole
	// regions, as the deferred-deregistration scheme does).
	if pp := rc.Acquire(a, 64*1024); pp != 0 {
		t.Fatalf("hit repinned %d pages", pp)
	}
	if st := rc.Stats(); st.PinnedPages != 1 || st.Resident != 1 {
		t.Fatalf("PinnedPages/Resident = %d/%d, want 1/1", st.PinnedPages, st.Resident)
	}
}
