package figures

import (
	"fmt"

	"omxsim/internal/proto"
	"omxsim/sim/trace"
)

// TraceJSON converts a stack's trace-event stream into Chrome
// trace_event JSON (chrome://tracing, Perfetto). Receive-path spans,
// the I/OAT engine and the transport-protocol spans land in separate
// trace processes; retransmissions render as instants and the
// cwnd/srtt/pull-queue samples as counter series. The conversion is
// deterministic: identical event streams produce byte-identical JSON.
func TraceJSON(events []proto.TraceEvent) []byte {
	doc := trace.NewDoc()
	rx := doc.Process(1, "receive path")
	engine := doc.Process(2, "I/OAT engine")
	tp := doc.Process(3, "transport")
	for _, ev := range events {
		switch ev.Kind {
		case "process", "memcpy", "submit", "wait", "notify":
			rx.Span(ev.Kind, "rx", ev.Start, ev.End, trace.Int("frag", ev.Frag))
		case "dma-copy":
			engine.Span(ev.Kind, "ioat", ev.Start, ev.End, trace.Int("frag", ev.Frag))
		case "eager":
			tp.Span(ev.Kind, "proto", ev.Start, ev.End,
				trace.Int("seq", int(ev.Seq)), trace.Int("lane", ev.Lane))
		case "rndv":
			tp.Span(ev.Kind, "proto", ev.Start, ev.End,
				trace.Int("seq", int(ev.Seq)), trace.Int("window", ev.Window))
		case "pull":
			tp.Span(fmt.Sprintf("pull block %d", ev.Block), "proto", ev.Start, ev.End,
				trace.Int("seq", int(ev.Seq)), trace.Int("block", ev.Block),
				trace.Int("lane", ev.Lane), trace.Int("window", ev.Window))
		case "collective":
			tp.Span(fmt.Sprintf("collective %s", ev.Name), "proto", ev.Start, ev.End,
				trace.Int("seq", int(ev.Seq)))
		case "retransmit":
			tp.Instant(ev.Kind, "proto", ev.Start,
				trace.Int("seq", int(ev.Seq)), trace.Int("block", ev.Block),
				trace.Int("lane", ev.Lane))
		case "counter":
			tp.Counter(ev.Name, ev.Start, ev.Value)
		}
	}
	return doc.Render()
}

// TimelineTraceJSON exports the five-fragment receive of Figures 5/6
// (see Timeline) as Chrome trace-event JSON.
func TimelineTraceJSON(withIOAT bool) []byte {
	return TraceJSON(TimelineEvents(withIOAT))
}
