package hostmem

// RegCache is a per-host registration cache: regions pinned for a
// transfer stay registered afterwards and later posts to the same
// buffer reuse the registration for free, amortizing the per-page pin
// cost the way Open-MX's (and Ibdxnet-style RDMA stacks')
// registration caches do. Like Open-MX's, it is unbounded:
// deregistration is deferred for as long as the stack runs.
//
// The cache holds one pin reference per resident region (taken via
// Buffer.Pin at first acquire), so cached buffers stay pinned exactly
// as the real deferred-deregistration scheme keeps them.
type RegCache struct {
	entries map[*Buffer]struct{}
	stats   RegStats
}

// RegStats is a deterministic snapshot of registration-cache
// activity, in the style of the CPU ledger snapshots: counters since
// the cache was created.
type RegStats struct {
	// Hits and Misses count Acquire calls that found, respectively
	// did not find, the buffer resident; they sum to the number of
	// posts that consulted the cache.
	Hits, Misses int64
	// Resident is the number of currently cached regions;
	// PinnedPages the pages they keep pinned.
	Resident    int
	PinnedPages int64
}

// NewRegCache returns an empty registration cache.
func NewRegCache() *RegCache {
	return &RegCache{entries: make(map[*Buffer]struct{})}
}

// Acquire registers the n-byte region of buf if it is not already
// resident and reports the pages the posting CPU must be charged for:
// the pages pinned by a miss, 0 on a hit. The pin cost is therefore
// paid exactly once per region, on the post that faulted it in.
func (rc *RegCache) Acquire(buf *Buffer, n int) (pinPages int64) {
	if _, ok := rc.entries[buf]; ok {
		rc.stats.Hits++
		return 0
	}
	rc.stats.Misses++
	buf.Pin()
	pages := int64(1)
	if n > 0 {
		ps := buf.Mem.P.PageSize
		pages = int64((n + ps - 1) / ps)
	}
	rc.entries[buf] = struct{}{}
	rc.stats.PinnedPages += pages
	return pages
}

// Resident reports whether the buffer currently holds a cached
// registration.
func (rc *RegCache) Resident(buf *Buffer) bool {
	_, ok := rc.entries[buf]
	return ok
}

// Stats snapshots the cache counters.
func (rc *RegCache) Stats() RegStats {
	st := rc.stats
	st.Resident = len(rc.entries)
	return st
}
