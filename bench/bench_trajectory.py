#!/usr/bin/env python3
"""Checks every BENCH_*.json at the repository root and prints the perf trajectory.

    python3 bench/bench_trajectory.py [ROOT]

A perf change commits BENCH_<n>.json: the environment record perfbench wrote
for the change, and for every workload of BENCHMARK.json at the default and
the held-out seed of perfbench/workloads.json, the parent's and the change's
median and interquartile range of every gated end-to-end metric over
alternating parent/change pairs, with the pair count and the change's wins.
The file's shape:

    {"change": 21, "title": "...",
     "protocol": {"seconds": 20, "trace": 0, "order": "...", "iqr": "..."},
     "env": {"nproc": 4, "cpu_model": "...", "compiler": "...",
             "build_type": "...", "source_revision": "..."},
     "workloads": {"<workload>": {"<seed>": {
         "pairs": 10,
         "metrics": {"<metric>": {"parent": {"median": m, "iqr": q},
                                  "change": {"median": m, "iqr": q},
                                  "wins": w}}}}},
     "per_layer": {"<workload>": {"<seed>": {"runs": 3, "metrics": {
         "<metric>": {"parent": m, "change": m}}}}}}     # optional

A win is a pair whose change side is better than its parent side in the
metric's direction (BENCHMARK.json's "better").  The script exits 1 on the
first malformed file.  It then prints, file by file, each metric's parent and
change medians, the relative move and the wins.  Where a file's parent median
is further from the previous file's change median than the larger of the two
IQRs, it prints a `drift` line: the host moved, or a change between the two
files moved the number unmeasured.
"""

import glob
import json
import os
import re
import sys

ENV_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "source_revision")


class Malformed(Exception):
    pass


def need(cond, where, what):
    if not cond:
        raise Malformed("%s: %s" % (where, what))


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x == x


def check_summary(summary, where):
    need(isinstance(summary, dict), where, "not an object")
    for key in ("median", "iqr"):
        need(is_number(summary.get(key)), where, "%s is not a number" % key)
    need(summary["iqr"] >= 0, where, "negative iqr")


def check_file(path, doc, bench, seeds):
    name = os.path.basename(path)
    need(isinstance(doc, dict), name, "not a JSON object")
    match = re.fullmatch(r"BENCH_(\d+)\.json", name)
    need(match is not None, name, "file name is not BENCH_<n>.json")
    need(doc.get("change") == int(match.group(1)), name,
         "\"change\" does not match the file name")
    need(isinstance(doc.get("title"), str) and doc["title"], name, "no title")
    protocol = doc.get("protocol")
    need(isinstance(protocol, dict), name, "no protocol object")
    need(is_number(protocol.get("seconds")) and protocol["seconds"] > 0, name,
         "protocol.seconds must be positive")
    env = doc.get("env")
    need(isinstance(env, dict), name, "no env record")
    for key in ENV_KEYS:
        need(key in env, name, "env record lacks %s" % key)

    workloads = doc.get("workloads")
    need(isinstance(workloads, dict), name, "no workloads object")
    for workload in bench["workloads"]:
        need(workload["name"] in workloads, name, "missing workload " + workload["name"])
    for workload, by_seed in workloads.items():
        need(isinstance(by_seed, dict), name, workload + " is not an object")
        for seed in seeds:
            need(seed in by_seed, name, "%s lacks seed %s" % (workload, seed))
        for seed, entry in by_seed.items():
            where = "%s %s seed %s" % (name, workload, seed)
            need(isinstance(entry, dict), where, "not an object")
            pairs = entry.get("pairs")
            need(isinstance(pairs, int) and pairs >= 1, where, "pairs must be >= 1")
            metrics = entry.get("metrics")
            need(isinstance(metrics, dict), where, "no metrics object")
            for metric in bench["end_to_end"]:
                need(metric["name"] in metrics, where, "missing metric " + metric["name"])
            for metric, values in metrics.items():
                at = where + " " + metric
                need(isinstance(values, dict), at, "not an object")
                check_summary(values.get("parent"), at + " parent")
                check_summary(values.get("change"), at + " change")
                wins = values.get("wins")
                need(isinstance(wins, int) and 0 <= wins <= pairs, at,
                     "wins must be an integer in [0, pairs]")

    per_layer = doc.get("per_layer", {})
    need(isinstance(per_layer, dict), name, "per_layer is not an object")
    for workload, by_seed in per_layer.items():
        need(isinstance(by_seed, dict), name, "per_layer " + workload + " is not an object")
        for seed, entry in by_seed.items():
            where = "%s per_layer %s seed %s" % (name, workload, seed)
            need(isinstance(entry, dict), where, "not an object")
            need(isinstance(entry.get("runs"), int) and entry["runs"] >= 1, where,
                 "runs must be >= 1")
            need(isinstance(entry.get("metrics"), dict), where, "no metrics object")
            for metric, values in entry["metrics"].items():
                need(isinstance(values, dict) and is_number(values.get("parent"))
                     and is_number(values.get("change")), where + " " + metric,
                     "parent and change must be numbers")


def relative(new, old):
    return "n/a" if old == 0 else "%+.1f%%" % (100.0 * (new - old) / old)


def print_trajectory(docs, bench):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    previous = {}  # (workload, seed, metric) -> (file, change summary)
    for path, doc in docs:
        name = os.path.basename(path)
        print("%s  %s" % (name, doc["title"]))
        print("  env: %s, %s cores, %s, %s" % (doc["env"]["cpu_model"], doc["env"]["nproc"],
                                              doc["env"]["compiler"], doc["env"]["build_type"]))
        for workload in sorted(doc["workloads"]):
            for seed in sorted(doc["workloads"][workload], key=int):
                entry = doc["workloads"][workload][seed]
                for metric in sorted(entry["metrics"]):
                    v = entry["metrics"][metric]
                    p, c = v["parent"], v["change"]
                    print("  %-10s seed %s  %-24s %12.6g -> %12.6g  %8s  wins %d/%d  (%s better)"
                          % (workload, seed, metric, p["median"], c["median"],
                             relative(c["median"], p["median"]), v["wins"], entry["pairs"],
                             better.get(metric, "?")))
                    key = (workload, seed, metric)
                    if key in previous:
                        prev_name, prev = previous[key]
                        gap = abs(p["median"] - prev["median"])
                        if gap > max(p["iqr"], prev["iqr"]):
                            print("    drift: parent %.6g here vs change %.6g in %s (%s)"
                                  % (p["median"], prev["median"], prev_name,
                                     relative(p["median"], prev["median"])))
                    previous[key] = (name, c)
        for workload in sorted(doc.get("per_layer", {})):
            for seed, entry in sorted(doc["per_layer"][workload].items()):
                print("  per-layer %s seed %s (median of %d traced runs):"
                      % (workload, seed, entry["runs"]))
                for metric, v in sorted(entry["metrics"].items()):
                    print("    %-40s %12.6g -> %12.6g  %8s"
                          % (metric, v["parent"], v["change"], relative(v["change"], v["parent"])))


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(root, "perfbench", "workloads.json")) as f:
        seed_info = json.load(f)["seeds"]
    seeds = [str(seed_info["default"]), str(seed_info["held_out"])]

    paths = glob.glob(os.path.join(root, "BENCH_*.json"))
    docs = []
    try:
        for path in paths:
            with open(path) as f:
                try:
                    doc = json.load(f)
                except ValueError as e:
                    raise Malformed("%s: not JSON (%s)" % (os.path.basename(path), e))
            check_file(path, doc, bench, seeds)
            docs.append((path, doc))
    except Malformed as e:
        print("bench_trajectory: " + str(e), file=sys.stderr)
        return 1
    docs.sort(key=lambda item: item[1]["change"])
    print("%d BENCH file(s) well-formed" % len(docs))
    print_trajectory(docs, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
