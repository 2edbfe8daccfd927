package figures

import (
	"strings"
	"testing"
)

// TestCollIOATWinsLargeMessages: the point of the collective figure —
// with every rank receiving several large fragmentable messages at
// once, I/OAT copy offload must cut collective latency at large
// sizes and leave small sizes untouched.
func TestCollIOATWinsLargeMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tabs := collTables([]string{"Alltoall"}, []int{1 << 10, 1 << 20}, []collWorld{{2, 2}})
	tab := tabs[0]
	plainBig, _ := tab.Get("Open-MX, 4 procs").At(1 << 20)
	ioatBig, _ := tab.Get("Open-MX I/OAT, 4 procs").At(1 << 20)
	if ioatBig >= plainBig*0.95 {
		t.Errorf("1MB Alltoall: ioat=%.0fus not clearly below plain=%.0fus", ioatBig, plainBig)
	}
	plainSmall, _ := tab.Get("Open-MX, 4 procs").At(1 << 10)
	ioatSmall, _ := tab.Get("Open-MX I/OAT, 4 procs").At(1 << 10)
	if ioatSmall < plainSmall*0.9 || ioatSmall > plainSmall*1.1 {
		t.Errorf("1kB Alltoall: ioat=%.1fus vs plain=%.1fus, want unchanged below threshold",
			ioatSmall, plainSmall)
	}
}

// TestCollLatencyScalesWithWorld: latency must grow with the world
// size at a fixed message size (more ranks, more rounds/volume).
func TestCollLatencyScalesWithWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tabs := collTables([]string{"Allreduce"}, []int{64 << 10}, []collWorld{{2, 2}, {4, 2}})
	tab := tabs[0]
	small, _ := tab.Get("Open-MX, 4 procs").At(64 << 10)
	big, _ := tab.Get("Open-MX, 8 procs").At(64 << 10)
	if big <= small {
		t.Errorf("64kB Allreduce: 8 procs (%.0fus) not slower than 4 procs (%.0fus)", big, small)
	}
}

// TestRenderCollAnnotatesAlgorithms: the rendered figure must record
// which algorithm produced each point.
func TestRenderCollAnnotatesAlgorithms(t *testing.T) {
	// Render with empty tables; only the annotation footer matters.
	out := RenderColl(nil)
	for _, want := range []string{"algorithm selection", "ring", "bruck", "scatter-allgather", "recursive-doubling"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered figure missing %q", want)
		}
	}
}
