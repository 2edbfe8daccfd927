#!/usr/bin/env python3
"""Run one workload of the simulator benchmark and print its result.

    python3 perfbench/run.py --workload pingpong-eager --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds the perfbench Go
program from source into .bench_build/ (the Go build cache lives
there too, so nothing outside the checkout is written), then runs the
workload in processes of its own, so that peak RSS belongs to that
workload alone. GOMAXPROCS is pinned to the number of usable CPUs.

--trace 0 runs five untraced processes, a fifth of --seconds each.
Each process cuts its timed phase into windows and measures ops_per_s,
cpu_ms_per_op, op_p50_ms and op_p90_ms in every window. The run pools
the windows of its processes and reports the quiet decile of each:
the tenth of the windows with the best value, where other processes
on the machine interfered least. setup_s and peak_rss_mb are medians
over the processes. --trace 1 runs an untraced and a traced process
for half of --seconds each. It reports the per-layer metrics: call
timings from the traced process, runtime and model counts from the
untraced one. It also reports trace.overhead_ratio, the traced
ops_per_s over the untraced one. The model counts of all the
processes of a run must be identical.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it
records the environment (GOMAXPROCS, nproc, Go version). The metric
names and units come from BENCHMARK.json at the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Time allowed for the build (the first one compiles the simulator)
# and, beyond the measured seconds, for one process's set-up and probes.
BUILD_TIMEOUT_S = 850
RUN_SLACK_S = 60

# Untraced processes per --trace 0 run. The median over them damps
# per-process effects: a rare garbage-collector overshoot sets one
# process's VmHWM, and short processes make it rarer still.
PROCESSES = 5


def quiet(values, better):
    """The quiet decile of a metric's window values: the lower decile
    when lower is better, the upper one when higher is better."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if better == "lower" else deciles[-1]


def pooled(reps, name):
    """A windowed metric's values over every window of every process."""
    return [v for r in reps for v in r["windows"][name]["values"]]


class BenchError(Exception):
    pass


def go_env():
    """The environment for go: every cache and temporary file inside
    the checkout, no network, no toolchain switch."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOWORK="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def build():
    try:
        proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE,
                              env=go_env(), stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"building perfbench: {err}")
    if proc.returncode != 0:
        raise BenchError(f"building perfbench failed with exit code {proc.returncode}")


def run_child(workload, seed, seconds, traced, nproc):
    env = dict(os.environ, GOMAXPROCS=str(nproc))
    cmd = [BINARY, "-workload", workload, "-seed", str(seed),
           "-seconds", repr(seconds), "-trace=" + ("true" if traced else "false")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=seconds + RUN_SLACK_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"running {workload}: {err}")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    rep = json.loads(proc.stdout)
    for err in rep.get("errors") or []:
        print(f"perfbench: {workload}: {err}", file=sys.stderr)
    if rep["metrics"] is None:
        raise BenchError(f"{workload}: set-up failed")
    return rep


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        raise BenchError(f"reading {path}: {err}")


def pick(spec_metrics, sources):
    """Take each named metric from the first source that reports it,
    checking its unit against the spec."""
    out = {}
    for m in spec_metrics:
        for src in sources:
            if m["name"] in src:
                got = src[m["name"]]
                break
        else:
            raise BenchError(f"no process reported metric {m['name']}")
        if got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} measured in {got['unit']}, spec says {m['unit']}")
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    build()
    nproc = len(os.sched_getaffinity(0))

    if args.trace == 0:
        reps = [run_child(args.workload, args.seed, args.seconds / PROCESSES, False, nproc)
                for _ in range(PROCESSES)]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        summary = {}
        for name, m in reps[0]["metrics"].items():
            summary[name] = {"value": statistics.median(r["metrics"][name]["value"] for r in reps),
                             "unit": m["unit"]}
        for name, w in reps[0]["windows"].items():
            summary[name] = {"value": quiet(pooled(reps, name), better[name]), "unit": w["unit"]}
        metrics = pick(spec["end_to_end"], [summary])
    else:
        half = args.seconds / 2
        plain = run_child(args.workload, args.seed, half, False, nproc)
        traced = run_child(args.workload, args.seed, half, True, nproc)
        reps = [plain, traced]
        overhead = {"trace.overhead_ratio": {
            "value": quiet(pooled([traced], "ops_per_s"), "higher")
                     / quiet(pooled([plain], "ops_per_s"), "higher"),
            "unit": "ratio"}}
        metrics = pick(spec["per_layer"], [overhead, plain["metrics"], traced["metrics"]])

    invariant = True
    for rep in reps[1:]:
        for name, m in reps[0]["metrics"].items():
            if name.startswith("model.") and m != rep["metrics"][name]:
                print(f"perfbench: {name} is {m['value']} in the first process but "
                      f"{rep['metrics'][name]['value']} in a later one", file=sys.stderr)
                invariant = False

    env = dict(reps[0]["env"], workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": invariant and all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
