// Package trace renders simulation span streams as Chrome trace_event
// JSON — the format chrome://tracing and Perfetto load directly. The
// output is built deterministically: events are sorted by a total
// order, floating-point timestamps are formatted with a fixed
// precision, and overlapping spans of one process are laid out on
// distinct thread tracks by a greedy interval coloring, so the same
// simulation run always produces byte-identical JSON (the golden-trace
// tests depend on this).
//
// The package speaks only in simulated time (sim.Time) and knows
// nothing about the transport stacks; callers (figures.TraceJSON, the
// omxsim trace command, omxsimd's per-job trace endpoint) convert
// their span streams into Doc calls.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"omxsim/sim"
)

// Arg is one ordered key/value annotation on a span or instant event.
// Val is an integer rendered as a JSON number; ordering is preserved
// into the output.
type Arg struct {
	Key string
	Val string
}

// Int builds an integer-valued argument.
func Int(key string, val int) Arg { return Arg{Key: key, Val: strconv.Itoa(val)} }

// span is one closed interval on a process timeline.
type span struct {
	name    string
	cat     string
	start   sim.Time
	end     sim.Time
	instant bool
	args    []Arg
	tid     int
}

// counter is one sample of a per-process counter series.
type counter struct {
	name  string
	at    sim.Time
	value float64
}

// Process is one pid's timeline: spans, instants and counters.
type Process struct {
	pid      int
	name     string
	spans    []span
	counters []counter
}

// Doc accumulates processes and renders the trace document.
type Doc struct {
	procs []*Process
}

// NewDoc returns an empty trace document.
func NewDoc() *Doc { return &Doc{} }

// Process returns (creating if needed) the process with the given pid,
// setting its display name. Creation order is preserved in the output.
func (d *Doc) Process(pid int, name string) *Process {
	for _, p := range d.procs {
		if p.pid == pid {
			return p
		}
	}
	p := &Process{pid: pid, name: name}
	d.procs = append(d.procs, p)
	return p
}

// Span records a closed [start, end] interval. Zero- or negative-length
// spans are recorded as instants.
func (p *Process) Span(name, cat string, start, end sim.Time, args ...Arg) {
	if end <= start {
		p.Instant(name, cat, start, args...)
		return
	}
	p.spans = append(p.spans, span{name: name, cat: cat, start: start, end: end, args: args})
}

// Instant records a zero-duration event.
func (p *Process) Instant(name, cat string, at sim.Time, args ...Arg) {
	p.spans = append(p.spans, span{name: name, cat: cat, start: at, end: at, instant: true, args: args})
}

// Counter records one sample of a counter series.
func (p *Process) Counter(name string, at sim.Time, value float64) {
	p.counters = append(p.counters, counter{name: name, at: at, value: value})
}

// micros formats a simulated time as trace microseconds with fixed
// 3-decimal (nanosecond) precision.
func micros(t sim.Time) string {
	return strconv.FormatFloat(float64(t)/1e3, 'f', 3, 64)
}

// layout sorts a process's spans into the deterministic total order
// and assigns each to the first thread track free at its start time
// (greedy interval coloring): overlapping spans land on distinct tids,
// and every tid's spans are non-overlapping and time-sorted. It
// returns the number of tracks used.
func (p *Process) layout() int {
	sort.SliceStable(p.spans, func(i, j int) bool {
		a, b := p.spans[i], p.spans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end > b.end // longer first: nesting-friendly
		}
		return a.name < b.name
	})
	var trackEnd []sim.Time
	for i := range p.spans {
		s := &p.spans[i]
		tid := -1
		for t, end := range trackEnd {
			if end <= s.start {
				tid = t
				break
			}
		}
		if tid < 0 {
			tid = len(trackEnd)
			trackEnd = append(trackEnd, 0)
		}
		// An instant occupies its point in time: a span starting at the
		// same moment must move to another track, so instants bump the
		// track end just past their timestamp.
		if s.instant {
			trackEnd[tid] = s.start + 1
		} else {
			trackEnd[tid] = s.end
		}
		s.tid = tid
	}
	sort.SliceStable(p.counters, func(i, j int) bool {
		a, b := p.counters[i], p.counters[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.name < b.name
	})
	return len(trackEnd)
}

// Render produces the trace document: a {"traceEvents": [...]} object,
// one event per line, byte-deterministic for identical input.
func (d *Doc) Render() []byte {
	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	first := true
	emit := func(line string) {
		if !first {
			b.WriteString(",\n")
		}
		first = false
		b.WriteString(line)
	}
	for _, p := range d.procs {
		tracks := p.layout()
		emit(fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
			p.pid, quote(p.name)))
		for t := 0; t < tracks; t++ {
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				p.pid, t, quote(fmt.Sprintf("track %d", t))))
		}
		// Interleave B/E, instant and counter events in one global
		// time order per process. Ties: E before B (a track hands off
		// at the boundary), counters last.
		type ev struct {
			at   sim.Time
			rank int // 0 end, 1 begin/instant, 2 counter
			line string
		}
		var evs []ev
		for _, s := range p.spans {
			args := renderArgs(s.args)
			if s.instant {
				evs = append(evs, ev{s.start, 1, fmt.Sprintf(
					`{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d%s}`,
					quote(s.name), quote(s.cat), micros(s.start), p.pid, s.tid, args)})
				continue
			}
			evs = append(evs, ev{s.start, 1, fmt.Sprintf(
				`{"name":%s,"cat":%s,"ph":"B","ts":%s,"pid":%d,"tid":%d%s}`,
				quote(s.name), quote(s.cat), micros(s.start), p.pid, s.tid, args)})
			evs = append(evs, ev{s.end, 0, fmt.Sprintf(
				`{"name":%s,"cat":%s,"ph":"E","ts":%s,"pid":%d,"tid":%d}`,
				quote(s.name), quote(s.cat), micros(s.end), p.pid, s.tid)})
		}
		for _, c := range p.counters {
			evs = append(evs, ev{c.at, 2, fmt.Sprintf(
				`{"name":%s,"ph":"C","ts":%s,"pid":%d,"tid":0,"args":{%s:%s}}`,
				quote(c.name), micros(c.at), p.pid, quote(c.name),
				strconv.FormatFloat(c.value, 'f', 3, 64))})
		}
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].at != evs[j].at {
				return evs[i].at < evs[j].at
			}
			return evs[i].rank < evs[j].rank
		})
		for _, e := range evs {
			emit(e.line)
		}
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return []byte(b.String())
}

// renderArgs renders an ordered argument list as `,"args":{...}` (or
// nothing when empty).
func renderArgs(args []Arg) string {
	if len(args) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(`,"args":{`)
	for i, a := range args {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(quote(a.Key))
		b.WriteString(":")
		b.WriteString(a.Val)
	}
	b.WriteString("}")
	return b.String()
}

// quote JSON-escapes a string. The escape set covers everything the
// simulator emits (ASCII names); other control bytes use \u00XX.
func quote(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			b.WriteString(`\"`)
		case c == '\\':
			b.WriteString(`\\`)
		case c == '\n':
			b.WriteString(`\n`)
		case c == '\t':
			b.WriteString(`\t`)
		case c < 0x20:
			fmt.Fprintf(&b, `\u%04x`, c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
