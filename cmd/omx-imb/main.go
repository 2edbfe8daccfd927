// Command omx-imb runs the Intel-MPI-Benchmarks-style suite over the
// simulated stacks, like the paper's Section IV-D evaluation.
// Multiple tests (comma-separated, case-insensitive, or "all") run
// concurrently on a bounded worker pool, one fresh testbed per test,
// with output in deterministic test order. Worlds larger than the
// paper's two nodes (-nodes) connect through a simulated Ethernet
// switch — the collective scaling topology.
//
//	omx-imb -test PingPong -transport openmx -ioat
//	omx-imb -test allreduce,alltoall,bcast -nodes 8 -ppn 2
//	omx-imb -test Alltoall -ppn 2 -sizes 128k,4m
//	omx-imb -test all -workers 8
//	omx-imb -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"omxsim/cluster"
	"omxsim/figures"
	"omxsim/imb"
	"omxsim/mpi"
	"omxsim/mxoe"
	"omxsim/openmx"
	"omxsim/runner"
)

func main() {
	var (
		testsFlag = flag.String("test", "PingPong", `IMB test name, comma-separated list, or "all"`)
		transport = flag.String("transport", "openmx", "openmx or mxoe")
		ioat      = flag.Bool("ioat", false, "enable I/OAT offload (openmx)")
		regcache  = flag.Bool("regcache", true, "enable the registration cache")
		nodes     = flag.Int("nodes", 2, "number of nodes (2 = back to back, more via a switch)")
		ppn       = flag.Int("ppn", 1, "processes per node (1 or 2)")
		sizesFlag = flag.String("sizes", "16,1k,64k,1m,4m", "comma-separated message sizes (k/m suffixes)")
		workers   = flag.Int("workers", 0, "concurrent benchmark runs (0 = GOMAXPROCS)")
		progress  = flag.Bool("progress", false, "report sweep progress on stderr")
		list      = flag.Bool("list", false, "list available tests")
	)
	flag.Parse()
	if *list {
		for _, t := range imb.AllTests() {
			fmt.Println(t)
		}
		return
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tests, err := parseTests(*testsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *nodes < 1 || *ppn < 1 || *ppn > 2 {
		fmt.Fprintf(os.Stderr, "bad world: %d node(s) x %d ppn (need nodes >= 1, ppn 1 or 2)\n", *nodes, *ppn)
		os.Exit(2)
	}
	if *nodes**ppn < 2 {
		fmt.Fprintln(os.Stderr, "bad world: the benchmarks need at least 2 ranks (raise -nodes or -ppn)")
		os.Exit(2)
	}

	stack := figures.Stack{Kind: "openmx", OMX: openmx.Config{IOAT: *ioat, IOATShm: *ioat, RegCache: *regcache}}
	if *transport == "mxoe" {
		stack = figures.Stack{Kind: "mxoe", MX: mxoe.Config{RegCache: *regcache}}
	}
	name := *transport + ioatSuffix(*transport, *ioat)
	points := make([]imb.Point, len(tests))
	for i, test := range tests {
		points[i] = imb.Point{
			Name:  name,
			Build: func() (*cluster.Cluster, *mpi.World) { return figures.TestbedN(stack, *nodes, *ppn) },
			Test:  test,
			Sizes: sizes,
			Key:   runner.Key("omx-imb", stack, *nodes, *ppn, test, sizes),
		}
	}
	opts := runner.Options{Workers: *workers, Cache: runner.NewCache()}
	if *progress {
		opts.Progress = runner.WriterProgress(os.Stderr)
	}
	prs, err := imb.Sweep(runner.New(opts), points)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, pr := range prs {
		if i > 0 {
			fmt.Println()
		}
		printResults(pr.Point.Test, name, *nodes, *ppn, pr.Results)
	}
}

func printResults(test, name string, nodes, ppn int, results []imb.Result) {
	fmt.Printf("# %s, %s, %d node(s), %d process(es) per node\n", test, name, nodes, ppn)
	fmt.Printf("%12s %14s %14s\n", "bytes", "t[usec]", "MiB/s")
	for _, r := range results {
		bw := "-"
		if r.MiBps > 0 {
			bw = fmt.Sprintf("%14.1f", r.MiBps)
		}
		fmt.Printf("%12d %14.2f %14s\n", r.Bytes, r.TimeUsec, bw)
	}
}

func ioatSuffix(transport string, ioat bool) string {
	if transport == "openmx" && ioat {
		return "+ioat"
	}
	return ""
}

func parseTests(s string) ([]string, error) {
	if strings.EqualFold(s, "all") {
		return imb.AllTests(), nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		canon, ok := imb.Canon(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("unknown test %q (see -list)", part)
		}
		out = append(out, canon)
	}
	return out, nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		mult := 1
		switch {
		case strings.HasSuffix(part, "k"):
			mult, part = 1024, strings.TrimSuffix(part, "k")
		case strings.HasSuffix(part, "m"):
			mult, part = 1<<20, strings.TrimSuffix(part, "m")
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, v*mult)
	}
	return out, nil
}
