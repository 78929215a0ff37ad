#!/usr/bin/env python3
"""Runs alternating parent/change pairs of perfbench and writes BENCH_<n>.json.

    python3 bench/bench_pairs.py --parent DIR --change DIR --number N \\
        --title TEXT [--trace-pairs K]

PARENT and CHANGE are two checkouts of the repository (a `git clone` or a
`git archive` of each commit).  For every workload of BENCHMARK.json and
for the default and the held-out seed of perfbench/workloads.json, the
script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run_seconds of BENCHMARK.json, in both checkouts, ten times,
alternating which side goes first (even pairs, 0-based, run the parent
first) so a drift of the host over the run lands on both sides alike.
Each checkout builds its own perfbench binary into its own .bench_build/.
A run that fails its correctness checks stops the script.

With --trace-pairs K it then runs K traced pairs (--trace 1, 10 s, default
seed) of every workload of BENCHMARK.json and records, per workload, the
median of every per-layer metric on each side.

The output, BENCH_<n>.json in the change checkout, has the shape
bench/bench_trajectory.py checks: the env record the change side's run
wrote, and per workload and seed the parent's and the change's median and
interquartile range (Q3 - Q1, statistics.quantiles method='inclusive') of
every end-to-end metric of BENCHMARK.json, the number of pairs and the
change's wins (pairs whose change side is better in the metric's
direction).  Each entry also keeps the raw per-run values and the failed
operation counts, so the summary can be recomputed.

Finished runs are kept in .bench_build/pairs-<n>.json of the change
checkout, and a rerun resumes after the last one.  The state records the
run length, so a rerun after run_seconds changed refuses to mix lengths.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
TRACE_SECONDS = 10
ENV_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "source_revision",
            "wal_filesystem")


def fail(message):
    print("bench_pairs: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns its result object and its env record."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Each checkout builds into, and records results in, its own .bench_build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        fail("%s: %s exited %d" % (checkout, " ".join(command[1:]), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail("%s: %s seed %d failed its correctness checks" % (checkout, workload, seed))
    record = os.path.join(checkout, ".bench_build", "results",
                          "%s-seed%d-trace%d.json" % (workload, seed, trace))
    env = load_json(record)["env"]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"]}, env


def run_pairs(state, save, key, pairs, checkouts, workload, seed, seconds, trace):
    """Fills state[key] with `pairs` alternating (parent, change) runs."""
    done = state.setdefault(key, [])
    for i in range(len(done), pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side], env = run_once(checkouts[side], workload, seed, seconds, trace)
            state.setdefault("env", {})[side] = env
        done.append(pair)
        save()
        p, c = pair["parent"]["metrics"], pair["change"]["metrics"]
        shown = ", ".join("%s %.6g -> %.6g" % (m, p[m], c[m]) for m in sorted(p)[:3])
        print("%s pair %d/%d: %s" % (key, i + 1, pairs, shown), flush=True)
    return done


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "iqr": round(q3 - q1, 6)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--number", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--trace-pairs", type=int, default=0)
    args = parser.parse_args()
    if args.trace_pairs < 0:
        fail("--trace-pairs must be >= 0")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    bench = load_json(os.path.join(checkouts["change"], "BENCHMARK.json"))
    seed_info = load_json(os.path.join(checkouts["change"], "perfbench",
                                       "workloads.json"))["seeds"]
    seeds = [seed_info["default"], seed_info["held_out"]]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    state_dir = os.path.join(checkouts["change"], ".bench_build")
    os.makedirs(state_dir, exist_ok=True)
    state_path = os.path.join(state_dir, "pairs-%d.json" % args.number)
    state = load_json(state_path) if os.path.exists(state_path) else {}
    if state.setdefault("seconds", seconds) != seconds:
        fail("%s holds %d s runs but run_seconds is %d; remove it to start over"
             % (state_path, state["seconds"], seconds))

    def save():
        with open(state_path + ".tmp", "w") as f:
            json.dump(state, f)
        os.replace(state_path + ".tmp", state_path)

    doc = {"change": args.number, "title": args.title,
           "protocol": {
               "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                          "--seconds %d --trace 0" % seconds,
               "seconds": seconds,
               "trace": 0,
               "order": "%d alternating parent/change pairs per workload and seed; "
                        "even pairs (0-based) run the parent first" % PAIRS,
               "iqr": "Q3 - Q1 of the pair runs, Python "
                      "statistics.quantiles(method='inclusive')",
               "script": "bench/bench_pairs.py"},
           "workloads": {}}
    for workload in workloads:
        for seed in seeds:
            key = "%s/%d" % (workload, seed)
            runs = run_pairs(state, save, key, PAIRS, checkouts, workload, seed,
                             seconds, 0)
            metrics = {}
            for metric in sorted(runs[0]["parent"]["metrics"]):
                side = {s: [r[s]["metrics"][metric] for r in runs]
                        for s in ("parent", "change")}
                higher = better.get(metric) == "higher"
                wins = sum(1 for p, c in zip(side["parent"], side["change"])
                           if (c > p if higher else c < p))
                metrics[metric] = {"parent": summary(side["parent"]),
                                   "change": summary(side["change"]),
                                   "wins": wins,
                                   "runs": side}
            doc["workloads"].setdefault(workload, {})[str(seed)] = {
                "pairs": len(runs),
                "failed": {s: sum(r[s]["failed"] for r in runs) for s in ("parent", "change")},
                "attempted": {s: sum(r[s]["attempted"] for r in runs)
                              for s in ("parent", "change")},
                "metrics": metrics}

    if args.trace_pairs > 0:
        doc["protocol"]["per_layer"] = (
            "--trace 1 --seconds %d, seed %d: %d alternating pairs of every "
            "workload; medians" % (TRACE_SECONDS, seeds[0], args.trace_pairs))
        doc["per_layer"] = {}
        for workload in workloads:
            key = "%s/%d/trace" % (workload, seeds[0])
            runs = run_pairs(state, save, key, args.trace_pairs, checkouts, workload,
                             seeds[0], TRACE_SECONDS, 1)
            metrics = {}
            for metric in sorted(runs[0]["parent"]["metrics"]):
                values = {s: [r[s]["metrics"][metric] for r in runs]
                          for s in ("parent", "change")}
                if not any(values["parent"]) and not any(values["change"]):
                    continue  # a layer this workload bypasses
                metrics[metric] = {s: round(statistics.median(v), 4)
                                   for s, v in values.items()}
            doc["per_layer"][workload] = {str(seeds[0]): {"runs": len(runs),
                                                          "metrics": metrics}}

    env = state["env"]
    doc["env"] = {k: env["change"].get(k) for k in ENV_KEYS}
    doc["env"]["parent_source_revision"] = env["parent"].get("source_revision")
    out = os.path.join(checkouts["change"], "BENCH_%d.json" % args.number)
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("wrote " + out)


if __name__ == "__main__":
    main()
