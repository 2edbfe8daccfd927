package figures

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"omxsim/cluster"
	"omxsim/internal/proto"
	"omxsim/openmx"
	"omxsim/sim"
	"omxsim/sim/trace"
)

// Trace-export conformance: every JSON document the exporters produce
// must satisfy the trace_event format rules (trace.Validate), the
// 5-fragment I/OAT timeline must render bit-identically to a committed
// golden, and the ASCII timeline and the JSON export — two views of
// one capture — must agree exactly on span boundaries.

// captureAdaptiveTrace runs a short lossy ping-pong with the adaptive
// tier and trace capture on, so the exported stream contains the full
// span vocabulary: eager and rndv transport spans, pull blocks,
// retransmission instants and the cwnd/srtt/pull-queue counters.
func captureAdaptiveTrace(t *testing.T) []proto.TraceEvent {
	t.Helper()
	c := cluster.New(nil)
	a, b := c.NewHost("node0"), c.NewHost("node1")
	cluster.Link(a, b, cluster.Impair(cluster.Impairment{Seed: 42, LossRate: 0.05}))
	cfg := openmx.Config{RegCache: true, IOAT: true, Adaptive: true}
	sa, sb := openmx.Attach(a, cfg), openmx.Attach(b, cfg)
	var events []proto.TraceEvent
	sa.Inner().Trace = func(ev proto.TraceEvent) { events = append(events, ev) }
	ea, eb := sa.Open(0, 2), sb.Open(0, 2)
	// Large messages drive the rndv/pull machinery; the small
	// same-iteration message keeps the eager channel busy too.
	const size = 256 << 10
	const smallSize = 4 << 10
	sendA, recvA := a.Alloc(size), a.Alloc(size)
	sendB, recvB := b.Alloc(size), b.Alloc(size)
	smallA, smallB := a.Alloc(smallSize), b.Alloc(smallSize)
	const iters = 4
	done := 0
	c.Go("rankB", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			rSmall := eb.IRecv(p, uint64(2000+i), ^uint64(0), smallB, 0, smallSize)
			eb.Wait(p, eb.IRecv(p, uint64(i), ^uint64(0), recvB, 0, size))
			eb.Wait(p, rSmall)
			sendB.Fill(byte(i + 100))
			sendB.Produce(2)
			eb.Wait(p, eb.ISend(p, ea.Addr(), uint64(1000+i), sendB, 0, size))
		}
	})
	c.Go("rankA", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			sendA.Fill(byte(i + 1))
			sendA.Produce(2)
			smallA.Fill(byte(i + 50))
			rs := ea.ISend(p, eb.Addr(), uint64(i), sendA, 0, size)
			rSmall := ea.ISend(p, eb.Addr(), uint64(2000+i), smallA, 0, smallSize)
			rr := ea.IRecv(p, uint64(1000+i), ^uint64(0), recvA, 0, size)
			ea.Wait(p, rs)
			ea.Wait(p, rSmall)
			ea.Wait(p, rr)
			done++
		}
	})
	c.RunFor(60 * sim.Second)
	defer c.Close()
	if done != iters {
		t.Fatalf("adaptive trace capture completed %d/%d round trips", done, iters)
	}
	return events
}

// TestTraceConformance runs every exporter output through the
// trace_event validator: both timeline modes, and an adaptive lossy
// capture covering the transport spans, retransmission instants and
// counter series.
func TestTraceConformance(t *testing.T) {
	for _, withIOAT := range []bool{false, true} {
		if err := trace.Validate(TimelineTraceJSON(withIOAT)); err != nil {
			t.Errorf("timeline trace (IOAT=%v): %v", withIOAT, err)
		}
	}
	events := captureAdaptiveTrace(t)
	out := TraceJSON(events)
	if err := trace.Validate(out); err != nil {
		t.Errorf("adaptive trace: %v", err)
	}
	// The capture must actually exercise the full vocabulary — a
	// silent hole here would hollow out the conformance claim.
	s := string(out)
	for _, want := range []string{
		`"name":"eager"`, `"name":"rndv"`, `"name":"pull block 0"`,
		`"name":"retransmit"`, `"name":"cwnd"`, `"name":"srtt"`, `"name":"pull-queue"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("adaptive trace missing %s", want)
		}
	}
}

// TestGoldenTraceIOAT pins the 5-fragment I/OAT timeline's JSON export
// byte-for-byte. Regenerate with
// OMXSIM_UPDATE_GOLDEN=1 go test ./figures -run TestGoldenTraceIOAT
// (and eyeball the diff in chrome://tracing before committing).
func TestGoldenTraceIOAT(t *testing.T) {
	const golden = "testdata/timeline-ioat.trace.golden"
	got := TimelineTraceJSON(true)
	if os.Getenv("OMXSIM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with OMXSIM_UPDATE_GOLDEN=1): %v", golden, err)
	}
	if string(got) != string(want) {
		t.Errorf("I/OAT timeline trace drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// jsonSpans parses a rendered trace document into (name, cat, start,
// end) span tuples with nanosecond-exact boundaries (ts is fixed
// 3-decimal microseconds, i.e. integral nanoseconds).
func jsonSpans(t *testing.T, data []byte, cats map[string]bool) map[string]int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	ns := func(ts float64) sim.Time { return sim.Time(math.Round(ts * 1000)) }
	type track struct{ pid, tid int }
	openAt := map[track][]sim.Time{}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if !cats[ev.Cat] {
			continue
		}
		tr := track{ev.Pid, ev.Tid}
		switch ev.Ph {
		case "B":
			openAt[tr] = append(openAt[tr], ns(ev.Ts))
		case "E":
			stack := openAt[tr]
			if len(stack) == 0 {
				t.Fatalf("E %q without B", ev.Name)
			}
			start := stack[len(stack)-1]
			openAt[tr] = stack[:len(stack)-1]
			spans[fmt.Sprintf("%s@%d-%d", ev.Name, start, ns(ev.Ts))]++
		}
	}
	return spans
}

// TestTimelineASCIIAndJSONAgree: the ASCII timeline and the Chrome
// trace export are two renderings of one TimelineEvents capture, and
// must agree exactly on span boundaries — every receive-path and
// engine span in the capture appears in the JSON with nanosecond-
// identical start/end, and the ASCII header's overall span equals the
// JSON extremes.
func TestTimelineASCIIAndJSONAgree(t *testing.T) {
	for _, withIOAT := range []bool{false, true} {
		events := TimelineEvents(withIOAT)
		spans := jsonSpans(t, TraceJSON(events), map[string]bool{"rx": true, "ioat": true})
		var t0, t1 sim.Time
		first := true
		want := map[string]int{}
		for _, ev := range events {
			if !timelineKinds[ev.Kind] {
				continue
			}
			if first || ev.Start < t0 {
				t0 = ev.Start
			}
			if first || ev.End > t1 {
				t1 = ev.End
			}
			first = false
			want[fmt.Sprintf("%s@%d-%d", ev.Kind, ev.Start, ev.End)]++
		}
		for k, n := range want {
			if spans[k] != n {
				t.Errorf("IOAT=%v: span %s: JSON has %d, capture has %d", withIOAT, k, spans[k], n)
			}
		}
		for k := range spans {
			if want[k] == 0 {
				t.Errorf("IOAT=%v: JSON span %s not in the capture", withIOAT, k)
			}
		}
		// The ASCII header prints the same [t0, t1] the JSON spans cover.
		ascii := Timeline(withIOAT)
		header := fmt.Sprintf("span: %v .. %v", t0, t1)
		if !strings.Contains(ascii, header) {
			t.Errorf("IOAT=%v: ASCII timeline header does not cover %q:\n%s", withIOAT, header, ascii)
		}
	}
}
