package main

import (
	"math"
	"time"
)

// hist is a histogram of durations in logarithmic buckets 0.1% wide.
// Its memory is fixed however many samples a run takes, so a long run
// does not inflate the peak RSS it measures.
type hist struct {
	counts []uint32
	n      int
}

const (
	histGrowth  = 1.001 // upper over lower edge of a bucket
	histBuckets = 28000 // bucket i starts at histGrowth^i ns: 1 ns to over 20 minutes
)

var histLogGrowth = math.Log(histGrowth)

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func (h *hist) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = min(int(math.Log(float64(d))/histLogGrowth), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// reset empties the histogram.
func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) in the given unit,
// spreading each bucket's samples evenly across it; 0 for no samples.
func (h *hist) quantile(q float64, unit time.Duration) float64 {
	if h == nil {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := math.Exp(float64(i) * histLogGrowth)
			v := lo + lo*(histGrowth-1)*(rank-cum)/float64(c)
			return v / float64(unit)
		}
		cum += float64(c)
	}
	return 0
}
