package figures

import (
	"runtime"
	"testing"
	"time"
)

// TestSectionsReleaseResources renders the cheap sections one after
// another on a private pool and requires each to leave nothing
// behind. Every world a figure point builds must be closed before the
// point returns: an unclosed world parks its NICs' bottom-half daemon
// goroutines, and they pin the whole simulation — hosts, rings,
// payloads — in the heap. So after each section the goroutine count
// must be back at its baseline and the live heap after GC within a
// few MB of where the test started.
func TestSectionsReleaseResources(t *testing.T) {
	const heapSlack = 8 << 20
	withPool(2, func() {
		baseG, baseHeap := settle(-1)
		for _, name := range []string{"micro", "fig3", "fig7", "fig9", "fig10", "timeline", "ablate", "nasis"} {
			s, ok := SectionByName(name)
			if !ok {
				t.Fatalf("no section %q", name)
			}
			s.Render(false)
			g, heap := settle(baseG)
			if g > baseG {
				t.Errorf("after %s: %d goroutines, baseline %d — a world was left open", name, g, baseG)
			}
			if heap > baseHeap+heapSlack {
				t.Errorf("after %s: live heap %.1f MB, baseline %.1f MB — a finished simulation is still reachable",
					name, float64(heap)/(1<<20), float64(baseHeap)/(1<<20))
			}
		}
	})
}

// settle collects garbage and returns the goroutine count and live
// heap. Goroutines of aborted simulation processes unwind after Close
// returns, so it waits up to a second for the count to drop to want
// (a negative want reads the count once).
func settle(want int) (goroutines int, heap uint64) {
	deadline := time.Now().Add(time.Second)
	for {
		runtime.GC()
		goroutines = runtime.NumGoroutine()
		if goroutines <= want || want < 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goroutines, ms.HeapAlloc
}
