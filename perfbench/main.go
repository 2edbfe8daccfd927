// Command perfbench measures the host time and memory the simulator
// spends on one workload, driving only the public cluster, openmx,
// mxoe, mpi and imb APIs. It prints one JSON report on standard
// output; run.py builds it, runs each workload in its own process and
// turns the reports into the benchmark's result line.
//
//	go build -o perfbench . && GOMAXPROCS=2 ./perfbench -workload pingpong-eager -seed 1 -seconds 10
//
// With -trace, the calls into each layer are timed from outside and
// reported as per-layer metrics; without it, nothing is timed below
// the op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps each -workload name to its constructor.
var workloads = map[string]func(seed int64) workload{
	"pingpong-eager": func(seed int64) workload { return newPingPong(eagerSpec, seed) },
	"pingpong-rndv":  func(seed int64) workload { return newPingPong(rndvSpec, seed) },
	"sweep-worlds":   func(seed int64) workload { return newSweep(seed) },
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed (sets the payload fill bytes)")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in host seconds")
	traced := flag.Bool("trace", false, "time the calls into each layer (per-layer metrics)")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	rep := run(mk(*seed), *traced, time.Duration(*seconds*float64(time.Second)))
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
