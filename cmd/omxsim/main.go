// Command omxsim regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	omxsim micro            Section IV-A microbenchmark numbers
//	omxsim fig3             Fig. 3  ping-pong vs the no-copy prediction
//	omxsim fig7             Fig. 7  memcpy vs I/OAT by chunk size
//	omxsim fig8             Fig. 8  ping-pong with I/OAT offload
//	omxsim fig9             Fig. 9  receive-side CPU usage
//	omxsim fig10            Fig. 10 shared-memory ping-pong
//	omxsim fig11            Fig. 11 IMB PingPong, I/OAT × regcache
//	omxsim fig12            Fig. 12 all IMB tests normalized to MXoE
//	omxsim timeline         Figs. 5/6 receive timelines (ASCII)
//	omxsim nasis            NAS IS proxy comparison
//	omxsim coll             collective latency, I/OAT on/off, 4-16 procs
//	omxsim loss             goodput/latency/retransmits vs frame loss
//	omxsim avail            overlap/CPU-availability with injected compute
//	omxsim ablate           threshold / pull-window / IRQ / extension ablations
//	omxsim multinic         multi-NIC link aggregation: goodput vs NIC count
//	omxsim fattree          fat-tree collectives at 64-512 ranks
//	omxsim nicoll           NIC-offloaded collectives vs host algorithms
//	omxsim adaptive         adaptive vs static transport across loss × NICs
//	omxsim all              everything above
//	omxsim trace            Figs. 5/6 receive timeline as Chrome trace JSON
//
// The section registry lives in figures.Sections — shared with the
// omxsimd service, which serves the same sections as tenant jobs.
// Each figure shards its independent simulation points across a
// worker pool; "omxsim all" additionally runs the figures themselves
// concurrently (shared points — Figures 3 and 8 overlap — simulate
// once), printing every section in the order listed above.
//
// "omxsim trace" exports the five-fragment receive timeline of
// Figures 5/6 (the same capture the ASCII timeline renders) as Chrome
// trace_event JSON — load the file in chrome://tracing or Perfetto.
// Its own flags: -o writes to a file instead of stdout, -ioat=false
// switches to the memcpy timeline (Fig. 5).
//
// Flags:
//
//	-plot      also draw ASCII plots of the curves
//	-progress  report sweep progress on stderr
//	-digest    print each selected section's event-order digest
//	           instead of its tables: one "<name> <hex>" line per
//	           section (figures/testdata/digests.golden holds the
//	           committed values)
package main

import (
	"flag"
	"fmt"
	"os"

	"omxsim/figures"
	"omxsim/runner"
)

var (
	plot     = flag.Bool("plot", false, "draw ASCII plots of curve figures")
	progress = flag.Bool("progress", false, "report sweep progress on stderr")
	digest   = flag.Bool("digest", false, "print each section's event-order digest instead of its tables")
)

func main() {
	flag.Parse()
	if *progress {
		// The figures pool is runner.Default(); enabling progress here
		// covers every sweep the commands below trigger.
		os.Setenv("OMXSIM_PROGRESS", "1")
	}
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if cmd == "trace" {
		os.Exit(traceCmd(flag.Args()[1:]))
	}
	var selected []figures.Section
	for _, s := range figures.Sections() {
		if s.Name == cmd || cmd == "all" {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		usage()
		os.Exit(2)
	}
	if *digest {
		// One section at a time: a digest collection is process-wide.
		for _, s := range selected {
			fmt.Printf("%s %016x\n", s.Name, s.Digest())
		}
		return
	}
	// Render the selected sections concurrently — every section is an
	// independent sweep and the pool is reentrant — then print them in
	// registry order, so "omxsim all" output is byte-identical to the
	// serial concatenation of the individual commands.
	jobs := make([]runner.Job, len(selected))
	for i, s := range selected {
		jobs[i] = runner.Job{
			Label: "omxsim/" + s.Name,
			Run:   func() (any, error) { return s.Render(*plot), nil },
		}
	}
	results := runner.Run(jobs...)
	// Print every section that succeeded, in command order, even when
	// another failed — the work is already done and a late failure
	// must not discard the earlier figures.
	failed := false
	for i, r := range results {
		fmt.Printf("==> %s\n", selected[i].Desc)
		if r.Err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "omxsim: %s: %v\n", selected[i].Name, r.Err)
			fmt.Printf("(failed: %v)\n", r.Err)
		} else {
			fmt.Print(r.Value.(string))
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

// traceCmd implements "omxsim trace [-ioat=true] [-o file]": the
// Figs. 5/6 receive timeline exported as Chrome trace_event JSON.
func traceCmd(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("o", "", "write the trace to this file (default stdout)")
	ioat := fs.Bool("ioat", true, "trace the I/OAT timeline (Fig. 6); false for memcpy (Fig. 5)")
	fs.Parse(args)
	data := figures.TimelineTraceJSON(*ioat)
	if *out == "" {
		os.Stdout.Write(data)
		return 0
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "omxsim trace: %v\n", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: omxsim [-plot] [-progress] [-digest] <command>")
	for _, s := range figures.Sections() {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", s.Name, s.Desc)
	}
	fmt.Fprintln(os.Stderr, "  all       run everything")
	fmt.Fprintln(os.Stderr, "  trace     Figs. 5/6 receive timeline as Chrome trace JSON (-o file, -ioat=false for memcpy)")
}
