#!/usr/bin/env python3
"""The repository benchmark: one YCSB+T workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the `perfbench` driver and the
repository libraries from source (CMake, the repository's default
RelWithDebInfo build) into `.bench_build/`, runs the workload, and prints:

  * the environment (nproc, CPU model, compiler, build type, source revision,
    the filesystem under the WAL directory);
  * every metric by name with its unit and every correctness check;
  * as the last line, one JSON object {"correct", "attempted", "failed",
    "metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, its
    per-layer metrics with --trace 1.

A failed build, a failed correctness check or a missing metric exits
nonzero without that last line.  The full record, environment included,
also goes to .bench_build/results/.  Workload definitions, their seeds and
the metric-to-workload map are in perfbench/workloads.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(out_dir, env):
    """Configures and builds perfbench; returns the binary path."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    log_path = os.path.join(out_dir, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator,
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "perfbench")


def compiler_version(out_dir):
    cache = os.path.join(out_dir, "perfbench", "CMakeCache.txt")
    compiler = "c++"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return out.stdout.splitlines()[0] if out.returncode == 0 and out.stdout else compiler


def source_revision():
    """The git SHA when the tree is a git checkout, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return "git " + out.stdout.strip()
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256 " + digest.hexdigest()[:16]


def filesystem_of(path):
    """Filesystem type of the mount holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, right = line.split(" - ", 1)
                mount_point = left.split()[4]
                prefix = mount_point.rstrip("/") + "/"
                if (path == mount_point or path.startswith(prefix)) and len(mount_point) > len(best):
                    best, fstype = mount_point, right.split()[0]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail("unknown workload %r; known: %s" % (args.workload, ", ".join(workloads)))
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    workload = workloads[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    for sub in ("tmp", "results", "spans"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(out_dir, "tmp"))
    try:
        run(args, workload, wanted, out_dir, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def run(args, workload, wanted, out_dir, tmp_dir):
    # Compilers and the driver keep their scratch files inside the checkout.
    proc_env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(out_dir, proc_env)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler_version(out_dir),
        "build_type": BUILD_TYPE,
        "source_revision": source_revision(),
        "wal_filesystem": filesystem_of(tmp_dir),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "%s, %d clients" % (workload["loop"], workload["clients"]),
    }
    for key, value in env.items():
        print("env %-16s %s" % (key, value))
    sys.stdout.flush()

    command = [
        binary,
        "--workload-file", os.path.join(HERE, workload["properties"]),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp-dir", tmp_dir,
        "--rounds", str(workload["rounds"]),
        "--sample-every", str(workload["trace_sample_every"]),
        "--check-ops", str(workload["check_ops"]),
        "--spans-out", os.path.join(out_dir, "spans", args.workload + ".csv"),
    ]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=proc_env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver exited %d without a summary" % proc.returncode)

    metrics = summary["metrics"]
    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]]
    result = {
        "correct": bool(summary["correct"]) and proc.returncode == 0 and not missing,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    with open(os.path.join(out_dir, "results", tag + ".json"), "w") as f:
        json.dump({"env": env, "checks": summary["checks"], "result": result,
                   "all_metrics": metrics}, f, indent=1)
    if missing:
        fail("metrics missing from the run or in another unit: " + ", ".join(missing))
    if not result["correct"]:
        bad = [c["check"] for c in summary["checks"] if not c["ok"]]
        fail("correctness check failed: " + "; ".join(bad))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
