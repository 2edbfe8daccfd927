package figures

import (
	"fmt"
	"strings"

	"omxsim/imb"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
)

// Fig12Result is one panel of Figure 12: every IMB test at one
// message size and process count, with Open-MX performance (with and
// without I/OAT) normalized to native MXoE.
type Fig12Result struct {
	Bytes int
	PPN   int
	Tests []string
	// Percent of MXoE performance (MXoE time / Open-MX time × 100;
	// higher is better, 100 = parity).
	OMXPct     []float64
	OMXIOATPct []float64
}

// Fig12Sizes are the two message sizes of the paper's panels.
func Fig12Sizes() []int { return []int{128 << 10, 4 << 20} }

// fig12Stacks are the three stacks every panel compares, in
// normalization order: the MXoE baseline, plain Open-MX, Open-MX with
// I/OAT (network and shared-memory offload).
func fig12Stacks() []Stack {
	return []Stack{
		{Kind: "mxoe", MX: mxoe.Config{RegCache: true}},
		{Kind: "openmx", OMX: openmx.Config{RegCache: true}},
		{Kind: "openmx", OMX: openmx.Config{RegCache: true, IOAT: true, IOATShm: true}},
	}
}

// Fig12 regenerates one panel. Every (test, stack) pair is an
// independent run on a fresh testbed, so the whole panel — 33 runs —
// shards across the pool as one flat sweep.
func Fig12(bytes, ppn int) Fig12Result {
	res := Fig12Result{Bytes: bytes, PPN: ppn, Tests: imb.Tests()}
	stacks := fig12Stacks()
	var runs []imbRun
	for _, test := range res.Tests {
		for _, s := range stacks {
			runs = append(runs, imbRun{s: s, nodes: 2, ppn: ppn, test: test, sizes: []int{bytes}, iters: 4})
		}
	}
	results := imbSweep(runs)
	for ti := range res.Tests {
		var times [3]float64
		for si := range stacks {
			times[si] = results[ti*len(stacks)+si][0].TimeUsec
		}
		res.OMXPct = append(res.OMXPct, 100*times[0]/times[1])
		res.OMXIOATPct = append(res.OMXIOATPct, 100*times[0]/times[2])
	}
	return res
}

// Fig12All regenerates all four panels (128 kB and 4 MB, 1 and 2
// processes per node). The panels themselves run concurrently; their
// inner sweeps fan out further on the same pool.
func Fig12All() []Fig12Result {
	var jobs []runner.Job
	for _, size := range Fig12Sizes() {
		for _, ppn := range []int{1, 2} {
			// No key: the panel aggregates cached per-run jobs.
			jobs = append(jobs, job(fmt.Sprintf("fig12/%s/%dppn", sizeName(size), ppn), "",
				func() Fig12Result { return Fig12(size, ppn) }))
		}
	}
	return sweep[Fig12Result](jobs...)
}

// Averages reports the mean percentage across tests for both curves.
func (r Fig12Result) Averages() (omx, omxIOAT float64) {
	for i := range r.Tests {
		omx += r.OMXPct[i]
		omxIOAT += r.OMXIOATPct[i]
	}
	n := float64(len(r.Tests))
	return omx / n, omxIOAT / n
}

// Render formats the panel like the paper's bar chart, as text.
func (r Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fig. 12 panel: %s messages, %d process(es) per node (%% of MXoE)\n",
		sizeName(r.Bytes), r.PPN)
	fmt.Fprintf(&b, "%-14s %12s %18s\n", "test", "Open-MX", "Open-MX+I/OAT")
	for i, test := range r.Tests {
		fmt.Fprintf(&b, "%-14s %11.0f%% %17.0f%%\n", test, r.OMXPct[i], r.OMXIOATPct[i])
	}
	a, ai := r.Averages()
	fmt.Fprintf(&b, "%-14s %11.0f%% %17.0f%%\n", "average", a, ai)
	return b.String()
}

func sizeName(b int) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dkB", b>>10)
}
