package figures

import (
	"fmt"
	"sort"
	"strings"

	"omxsim/cluster"
	"omxsim/internal/proto"
	"omxsim/openmx"
	"omxsim/sim"
)

// Timeline reproduces Figures 5 and 6: the receive timeline of a
// five-fragment large message without and with I/OAT offload, rendered
// as ASCII rows (the CPU running the bottom half, and the I/OAT
// engine).
//
// Without I/OAT, each fragment is processed and copied before the CPU
// is released (Figure 5). With I/OAT, each callback only submits the
// asynchronous copy and releases the CPU; the last fragment waits for
// the engine before notifying user space (Figure 6).
func Timeline(withIOAT bool) string {
	title := "Fig. 5: 5-fragment large receive, memcpy in the bottom half"
	if withIOAT {
		title = "Fig. 6: 5-fragment large receive, I/OAT overlapped copies"
	}
	return renderTimeline(title, TimelineEvents(withIOAT))
}

// TimelineEvents runs the five-fragment large receive of Figures 5/6
// and returns the receiver stack's full trace stream (receive-path
// spans, transport spans, counters). Both the ASCII Timeline and the
// Chrome trace-event export render from this one capture, so the two
// views can never disagree on span boundaries.
func TimelineEvents(withIOAT bool) []proto.TraceEvent {
	const frags = 5
	msgSize := frags * proto.LargeFragSize

	c := cluster.New(nil)
	n0, n1 := c.NewHost("sender"), c.NewHost("receiver")
	cluster.Link(n0, n1)
	cfg := openmx.Config{RegCache: true}
	if withIOAT {
		cfg.IOAT = true
		cfg.IOATMinMsg = msgSize // the 5-fragment figure message qualifies
	}
	s0 := openmx.Attach(n0, openmx.Config{RegCache: true})
	s1 := openmx.Attach(n1, cfg)

	var events []proto.TraceEvent
	s1.Inner().Trace = func(ev proto.TraceEvent) { events = append(events, ev) }

	e0, e1 := s0.Open(0, 2), s1.Open(0, 2)
	src, dst := n0.Alloc(msgSize), n1.Alloc(msgSize)
	src.Fill(5)
	c.Go("recv", func(p *sim.Proc) {
		r := e1.IRecv(p, 1, ^uint64(0), dst, 0, msgSize)
		e1.Wait(p, r)
	})
	c.Go("send", func(p *sim.Proc) {
		r := e0.ISend(p, e1.Addr(), 1, src, 0, msgSize)
		e0.Wait(p, r)
	})
	if c.Run() != 0 {
		panic("figures: timeline run deadlocked")
	}
	if !cluster.Equal(src, dst) {
		panic("figures: timeline transfer corrupted")
	}
	return events
}

// timelineKinds are the receive-path span kinds the ASCII timeline
// renders; transport spans and counters from the wider trace stream
// are excluded so they cannot stretch the time axis.
var timelineKinds = map[string]bool{
	"process": true, "memcpy": true, "submit": true,
	"wait": true, "notify": true, "dma-copy": true,
}

// renderTimeline draws span rows scaled to the terminal width.
func renderTimeline(title string, events []proto.TraceEvent) string {
	kept := events[:0:0]
	for _, ev := range events {
		if timelineKinds[ev.Kind] {
			kept = append(kept, ev)
		}
	}
	events = kept
	if len(events) == 0 {
		return title + "\n(no events)\n"
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	t0, t1 := events[0].Start, events[0].End
	for _, ev := range events {
		if ev.End > t1 {
			t1 = ev.End
		}
	}
	const width = 100
	scale := func(t sim.Time) int {
		if t1 == t0 {
			return 0
		}
		c := int(float64(t-t0) / float64(t1-t0) * float64(width-1))
		return min(c, width-1)
	}
	rows := map[string][]byte{}
	rowOrder := []string{"CPU", "I/OAT"}
	for _, name := range rowOrder {
		rows[name] = []byte(strings.Repeat(".", width))
	}
	put := func(row string, ev proto.TraceEvent, mark byte) {
		r := rows[row]
		a, b := scale(ev.Start), scale(ev.End)
		if b <= a {
			b = a + 1
		}
		for i := a; i < b && i < width; i++ {
			if r[i] == '.' {
				r[i] = mark
			}
		}
		// Label with the fragment number at the start where possible.
		if ev.Frag >= 0 && a < width {
			r[a] = byte('1' + ev.Frag%9)
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case "process":
			put("CPU", ev, 'P')
		case "memcpy":
			put("CPU", ev, 'C')
		case "submit":
			put("CPU", ev, 'S')
		case "wait":
			put("CPU", ev, 'W')
		case "notify":
			put("CPU", ev, 'N')
		case "dma-copy":
			put("I/OAT", ev, '=')
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "span: %v .. %v (%.1f µs)\n", t0, t1, float64(t1-t0)/1000)
	for _, name := range rowOrder {
		if name == "I/OAT" && !strings.ContainsAny(string(rows[name]), "=123456789") {
			continue
		}
		fmt.Fprintf(&b, "%-6s %s\n", name, rows[name])
	}
	b.WriteString("key: digit=fragment start, P=process, C=memcpy, S=I/OAT submit, W=wait for engine, N=notify user, ==engine copy\n")
	return b.String()
}
