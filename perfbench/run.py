#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload avg-bytes-inproc --seed 7 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The program is compiled from src/ and perfbench/ into .bench_build/perfbench
on first use. A run starts it PROCESSES times, one after the other, and each
process measures an equal share of --seconds. --trace 0 reports
BENCHMARK.json's end-to-end metrics from the samples of all the processes;
--trace 1 reports its per-layer metrics, each the median over the processes.
The last line of standard output is the result:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}

Each run also writes a record with provenance, every metric's labels and
every raw sample to .bench_build/perfbench/results/, and a traced run writes
one Chrome trace per process next to it.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
MIB = 1024.0 * 1024.0
# Processes per run. On a shared host one process can be unlucky for its
# whole life (its allocator arenas, a burst of load from a neighbour), so
# no single process sets a metric: samples are pooled, and per-process
# figures (setup_s, shuffle_MBps, the per-layer metrics) take the median.
PROCESSES = 3
# Once built, a run must end within 180 s.
RUN_BUDGET_S = 170
# End-to-end metric labels: unit and kind. All are timing-dependent. The
# per-layer metrics are labelled by the program.
END_TO_END = {
    "setup_s": ("s", "wall"),
    "job_s.p50": ("s", "wall"),
    "job_s.tail": ("s", "wall"),
    "shuffle_MBps": ("MB/s", "wall"),
    "cpu_s_per_job": ("s", "task-s"),
    "peak_rss_mb": ("MB", "count"),
}


def fail(message):
    sys.exit(f"perfbench: {message}")


def child_env():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the mrmb sources (src/) are not in this checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=child_env()).returncode:
            fail("build failed: " + " ".join(step))
    return BUILD / target


def run_program(program, args, name, extra, deadline):
    """Runs the program once and returns the JSON it wrote."""
    out = BUILD / "runs" / f"{name}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    scratch = BUILD / "scratch" / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    command = [str(program), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds / PROCESSES}",
               f"--trace={args.trace}", f"--scratch={scratch}",
               f"--suite={HERE / 'paper.suite'}", f"--out={out}", *extra]
    try:
        done = subprocess.run(command, stdout=sys.stderr, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish in time")
    if done.returncode:
        fail(f"{name} exited with status {done.returncode}")
    return json.loads(out.read_text())


def tail_of(values):
    """The highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer, the maximum at 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(runs):
    def pooled(name):
        return [value for run in runs for value in run["samples"][name]]

    walls = pooled("job_s")
    tail, percentile = tail_of(walls)
    values = {
        "setup_s": statistics.median(run["setup_s"] for run in runs),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail,
        "shuffle_MBps": statistics.median(
            run["logical_bytes"] / MIB / run["elapsed_s"] for run in runs),
        "cpu_s_per_job": statistics.median(pooled("cpu_s")),
        "peak_rss_mb": statistics.median(pooled("peak_rss_mb")),
    }
    metrics = {name: {"value": values[name], "unit": unit, "kind": kind,
                      "deterministic": False}
               for name, (unit, kind) in END_TO_END.items()}
    return metrics, {"percentile": percentile, "samples": len(walls)}


def per_layer(runs):
    metrics = {}
    for name, labels in runs[0]["metrics"].items():
        metrics[name] = dict(labels, value=statistics.median(
            run["metrics"][name]["value"] for run in runs))
    return metrics


def summarize(values):
    if not values:
        return {"n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"n": len(values), "min": min(values),
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def provenance(run, seed):
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    sources = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.is_file():
                sources.update(str(path.relative_to(ROOT)).encode())
                sources.update(path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"schema": "mrmb-bench/2", "commit": commit,
            "sources_sha256": sources.hexdigest(),
            "compiler": run["compiler"], "build_type": run["build_type"],
            "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "crc32c_impl": run["crc32c_impl"], "seed": seed,
            "processes": PROCESSES}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="show that damaged output and leaks fail")
    args = parser.parse_args()

    if args.selftest:
        program = build("perfbench_selftest")
        scratch = BUILD / "scratch" / "selftest"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        sys.exit(subprocess.run([str(program), f"--scratch={scratch}"],
                                env=child_env()).returncode)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    program = build("perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = []
    for i in range(PROCESSES):
        extra = [f"--trace-out={results / f'{stem}.p{i}.trace.json'}"] \
            if args.trace else []
        runs.append(run_program(program, args, f"run{i}", extra, deadline))
    if args.trace:
        all_metrics, tail = per_layer(runs), None
    else:
        all_metrics, tail = end_to_end(runs)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for want in wanted:
        got = all_metrics.get(want["name"])
        if got is None or got["unit"] != want["unit"] \
                or not isinstance(got["value"], (int, float)) \
                or not math.isfinite(got["value"]):
            fail(f"metric {want['name']} is missing, mislabelled or not a "
                 f"number")
        metrics[want["name"]] = {"value": got["value"], "unit": got["unit"]}

    sample_names = sorted({name for run in runs for name in run["samples"]})
    samples = {}
    for name in sample_names:
        values = [v for run in runs for v in run["samples"].get(name, [])]
        samples[name] = {"summary": summarize(values), "values": values}
    setup = [run["setup_s"] for run in runs]
    samples["setup_s"] = {"summary": summarize(setup), "values": setup}
    correct = all(run["correct"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    record = {"provenance": provenance(runs[0], args.seed),
              "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "correct": correct,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted,
              "failures": [f for run in runs for f in run["failures"]],
              "metrics": all_metrics, "job_s_tail": tail,
              "wall_shares": [run["wall_shares"] for run in runs],
              "samples": samples}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name in metrics:
        m = all_metrics[name]
        timing = "deterministic" if m["deterministic"] else "timing"
        print(f"{name:38} {m['value']:>14.6g} {m['unit']:7} {m['kind']:7} "
              f"{timing}")
    if tail:
        print(f"job_s.tail is p{tail['percentile']:.1f} of "
              f"{tail['samples']} jobs")
    print(f"error_rate {failed}/{attempted}")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
