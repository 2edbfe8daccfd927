package figures

import (
	"strings"
	"testing"
)

// TestFatTreeFigureShape: the full figure's sweep grid — every
// (collective, world, topology) lands its series, the 1-switch
// baseline stops at 64 ranks, and Alltoall stops at 128.
func TestFatTreeFigureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, lp := FatTree()
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2", len(tables))
	}
	allreduce, alltoall := tables[0], tables[1]
	// Allreduce: (64 ranks × 2 topologies + 128/256/512 × fat-tree) × 2 stacks.
	if got := len(allreduce.Series); got != 10 {
		t.Errorf("Allreduce series = %d, want 10", got)
	}
	// Alltoall: (64 × 2 topologies + 128 × fat-tree) × 2 stacks.
	if got := len(alltoall.Series); got != 6 {
		t.Errorf("Alltoall series = %d, want 6", got)
	}
	for _, s := range allreduce.Series {
		if strings.Contains(s.Name, "1-switch") && !strings.Contains(s.Name, "64 procs") {
			t.Errorf("1-switch baseline leaked past 64 ranks: %q", s.Name)
		}
		for _, pt := range s.Points {
			if pt.Y <= 0 {
				t.Errorf("series %q has non-positive latency %v at %v B", s.Name, pt.Y, pt.X)
			}
		}
	}
	if lp.WireLost == 0 {
		t.Error("trunk-loss regression point lost nothing — impairment not applied to trunks")
	}
	if lp.TimeUsec <= 0 {
		t.Errorf("loss point time %v, want > 0", lp.TimeUsec)
	}
}
