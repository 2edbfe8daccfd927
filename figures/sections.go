package figures

// The section registry: every named output section of the omxsim CLI
// ("micro", "fig3", …, "nicoll"), with its rendering moved here so
// the omxsimd service can run the exact same sections as tenant jobs.
// cmd/omxsim iterates Sections() to dispatch its commands; the two
// front ends share one registry, so a section added here appears in
// both — and renders byte-identically through either.

import (
	"fmt"
	"strings"

	"omxsim/metrics"
	"omxsim/runner"
	"omxsim/sim"
)

// Section is one named, independently renderable output section: a
// figure, a sweep, or a microbenchmark table.
type Section struct {
	// Name is the CLI command and service workload name ("fig3").
	Name string
	// Desc is the one-line description shown in usage and section
	// headers.
	Desc string

	render func(plot bool) string
}

// Render regenerates the section and returns its text; plot appends
// ASCII plots to curve figures (the CLI's -plot flag).
func (s Section) Render(plot bool) string { return s.render(plot) }

// Digest renders the section with the event-order digest on and
// returns the combined digest of every simulation it ran (see
// sim.CollectDigests). The section runs on a private, uncached pool,
// so every point simulates whatever ran before. Digest swaps the
// figures pool and starts a process-wide collection, so it must not
// run concurrently with any other rendering.
func (s Section) Digest() uint64 { return s.digest(0) }

// digest is Digest on a pool of the given worker count (< 1 selects
// GOMAXPROCS).
func (s Section) digest(workers int) uint64 {
	defer setPool(setPool(runner.New(runner.Options{Workers: workers})))
	stop := sim.CollectDigests()
	defer stop() // ends the collection if the render panics
	s.render(false)
	return stop()
}

// Sections lists every section in canonical output order (the order
// "omxsim all" prints).
func Sections() []Section {
	return []Section{
		{"micro", "Section IV-A microbenchmarks", renderMicro},
		{"fig3", "Fig. 3: ping-pong vs no-copy prediction", tableSection(Fig3)},
		{"fig7", "Fig. 7: memcpy vs I/OAT copy by chunk size", tableSection(Fig7)},
		{"fig8", "Fig. 8: ping-pong with I/OAT receive offload", tableSection(Fig8)},
		{"fig9", "Fig. 9: receive-side CPU usage", renderFig9},
		{"fig10", "Fig. 10: shared-memory ping-pong", tableSection(Fig10)},
		{"fig11", "Fig. 11: IMB PingPong, I/OAT x regcache", tableSection(Fig11)},
		{"fig12", "Fig. 12: IMB suite normalized to MXoE", renderFig12},
		{"timeline", "Figs. 5/6: receive timelines", renderTimelineSection},
		{"nasis", "NAS IS proxy", renderNASISSection},
		{"coll", "collective latency vs size, I/OAT on/off, 4-16 procs", renderCollSection},
		{"loss", "goodput/latency/retransmits vs frame-loss rate, both stacks", renderLossSection},
		{"avail", "overlap/CPU-availability with injected compute, memcpy vs I/OAT", renderAvailSection},
		{"ablate", "ablations: thresholds, pull window, IRQ steering, extensions", renderAblateSection},
		{"multinic", "multi-NIC link aggregation: striped goodput vs NIC count and pull window", renderMultiNICSection},
		{"fattree", "fat-tree collectives at 64-512 ranks, I/OAT on/off, vs 1-switch", renderFatTreeSection},
		{"nicoll", "NIC-offloaded collectives: firmware vs host algorithms, CPU and overlap", renderNICollSection},
		{"adaptive", "adaptive vs static transport: goodput/p99/retransmits across loss x NICs", renderAdaptiveSection},
		{"dca", "memory hierarchy: DCA-warmed rings vs DMA-cold payloads, NUMA placement, regcache", renderDCASection},
	}
}

// SectionByName resolves a section name; ok reports whether it
// exists.
func SectionByName(name string) (Section, bool) {
	for _, s := range Sections() {
		if s.Name == name {
			return s, true
		}
	}
	return Section{}, false
}

// tableSection adapts a single-table figure generator.
func tableSection(f func() *metrics.Table) func(bool) string {
	return func(plot bool) string { return renderTable(f(), plot) }
}

func renderTable(t *metrics.Table, plot bool) string {
	out := t.Render()
	if plot {
		out += t.ASCIIPlot(100, 20)
	}
	return out
}

// renderTables renders each table (plotted when plot is set) followed
// by a blank line: the body of the multi-table sections.
func renderTables(tables []*metrics.Table, plot bool) string {
	out := ""
	for _, t := range tables {
		out += renderTable(t, plot) + "\n"
	}
	return out
}

func renderMicro(bool) string {
	m := MicroNumbers()
	var b strings.Builder
	fmt.Fprintf(&b, "I/OAT submission (1 descriptor):   %6.0f ns   (paper: ~350 ns)\n", m.SubmitNs)
	fmt.Fprintf(&b, "memcpy, uncached:                  %6.2f GiB/s (paper: ~1.6 GiB/s)\n", m.MemcpyColdGiBps)
	fmt.Fprintf(&b, "memcpy, cache-resident:            %6.2f GiB/s (paper: up to 12 GiB/s)\n", m.MemcpyCachedGiBps)
	fmt.Fprintf(&b, "I/OAT streaming, 4 kiB chunks:     %6.2f GiB/s (paper: ~2.4 GiB/s)\n", m.IOAT4kGiBps)
	fmt.Fprintf(&b, "offload break-even, uncached:      %6d B    (paper: ~600 B)\n", m.BreakEvenColdB)
	fmt.Fprintf(&b, "offload break-even, cached:        %6d B    (paper: ~2 kB)\n", m.BreakEvenCachedB)
	return b.String()
}

func renderFig9(bool) string {
	mem, ioat := Fig9Tables()
	return mem.Render() + "\n" + ioat.Render()
}

func renderFig12(bool) string {
	var b strings.Builder
	for _, panel := range Fig12All() {
		b.WriteString(panel.Render())
		b.WriteString("\n")
	}
	return b.String()
}

func renderTimelineSection(bool) string {
	return Timeline(false) + "\n" + Timeline(true)
}

func renderNASISSection(bool) string {
	return RenderNASIS(NASIS(1<<17, 3))
}

func renderCollSection(plot bool) string {
	return renderTables(Coll(), plot) + RenderColl(nil)
}

func renderLossSection(bool) string {
	return RenderLoss(LossSweep(LossRates(), LossSizes(), LossIters))
}

func renderAvailSection(bool) string {
	return RenderAvail(AvailSweep(AvailSizes(), AvailIters))
}

func renderMultiNICSection(bool) string {
	return RenderMultiNIC(MultiNICSweep(MultiNICCounts(), MultiNICSizes(), MultiNICIters))
}

func renderFatTreeSection(plot bool) string {
	tables, lp := FatTree()
	return renderTables(tables, plot) + RenderFatTree(nil, lp)
}

func renderNICollSection(bool) string {
	return RenderNIColl(NICollSweep(NICollOps(), NICollRanks(), NICollIters))
}

func renderAdaptiveSection(bool) string {
	return RenderAdaptive(AdaptiveSweep(AdaptiveLossRates(), AdaptiveNICCounts(), AdaptiveIters))
}

func renderDCASection(bool) string {
	return RenderDCA(DCASweep(DCASizes(), DCAIters))
}

func renderAblateSection(bool) string {
	return AblateMinFrag().Render() + "\n" +
		AblatePullWindow().Render() + "\n" +
		AblateIRQSteering().Render() + "\n" +
		AblateExtensions()
}
