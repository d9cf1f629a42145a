#!/usr/bin/env python3
"""Runs every workload repeatedly, interleaved, and summarises the spread.

    python3 perfbench/interleave.py [--rounds 10] [--seconds 10]
                                    [--first-seed 1]

Round r runs each workload once with seed first_seed + r - 1, rotating the
workload order every round so that no workload always runs first. Each run
prints its end-to-end metrics and the machine's steal time over its
measured phase. At the end, for each workload and metric, the median, the
first and third quartiles (statistics.quantiles, n=4) and their distance as
a share of the median; wall-clock qps and latency, which the benchmark
prints beside its end-to-end metrics without gating them, are marked *.
The machine context comes first: nproc, compiler, build type and the
source version (`git describe --always --dirty`, plus a hash of
`git diff HEAD` when the tree has changes, so that runs of the parent and
of an uncommitted change can be told apart).
Raw results are saved under .bench_build/perfbench/results/.
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


WORKLOADS = ["irr_pressured", "rr_routed", "wris_online"]


def git(*args):
    """Output of a git command in the checkout, or "" outside a repository."""
    try:
        proc = subprocess.run(["git"] + list(args), cwd=ROOT,
                              capture_output=True)
    except OSError:
        return b""
    return proc.stdout if proc.returncode == 0 else b""


def context():
    """nproc, compiler, build type and source version of this checkout."""
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    sha = git("describe", "--always", "--dirty").decode().strip()
    if sha.endswith("-dirty"):
        sha += "+" + hashlib.sha1(git("diff", "HEAD")).hexdigest()[:10]
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
            "git_sha": sha or "unknown"}


def run_one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.time() - started
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    ungated = {}
    for line in lines:
        m = re.match(r"(\S+)\s+(-?[0-9.]+)\s+(\S+) \(not gated\)$", line)
        if m:
            ungated[m.group(1)] = {"value": float(m.group(2)),
                                   "unit": m.group(3)}
    steal = re.search(r"steal_s=(-?[0-9.]+)", proc.stderr)
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "elapsed_s": elapsed, "steal_s": float(steal.group(1)) if steal else None,
            "result": result, "ungated": ungated,
            "stderr": [line for line in proc.stderr.splitlines()
                       if not line.startswith("[")]}


def summarise(runs, workloads):
    print("\n%-14s %-26s %12s %12s %12s %8s" %
          ("workload", "metric", "median", "q1", "q3", "iqr/med"))
    summary = {}
    for w in workloads:
        mine = [r for r in runs
                if r["workload"] == w and r["result"] is not None]
        ok = [r["result"] for r in mine]
        if not ok:
            continue
        table = [(name, [res["metrics"][name]["value"] for res in ok],
                  ok[0]["metrics"][name]["unit"]) for name in ok[0]["metrics"]]
        table += [(name + "*", [r["ungated"][name]["value"] for r in mine],
                   mine[0]["ungated"][name]["unit"])
                  for name in mine[0].get("ungated", {})]
        for name, values, unit in table:
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else 0.0
            summary.setdefault(w, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "iqr_share": share,
                "unit": unit, "n": len(values)}
            print("%-14s %-26s %12.4f %12.4f %12.4f %8.4f  %s" %
                  (w, name, med, q1, q3, share, unit))
        failed = sum(res["failed"] for res in ok)
        attempted = sum(res["attempted"] for res in ok)
        correct = all(res["correct"] for res in ok)
        print("%-14s runs %d, attempted %d, failed %d, all correct: %s" %
              (w, len(ok), attempted, failed, correct))
    print("* printed beside the end-to-end metrics, not gated by a bound")
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    ctx = context()
    print("context: nproc %s | compiler %s | build type %s | git %s" %
          (ctx["nproc"], ctx["compiler"], ctx["build_type"], ctx["git_sha"]))
    runs = []
    for r in range(args.rounds):
        seed = args.first_seed + r
        shift = r % len(WORKLOADS)
        for w in WORKLOADS[shift:] + WORKLOADS[:shift]:
            run = run_one(w, seed, args.seconds)
            runs.append(run)
            res = run["result"] or {}
            metrics = res.get("metrics", {})
            shown = " ".join("%s=%.4g" % (k, v["value"]) for k, v in
                             list(metrics.items()) + list(run["ungated"].items()))
            steal = run["steal_s"]
            print("round %2d %-14s seed %-4d exit %d steal_s %6s  %5.1fs  %s" %
                  (r + 1, w, seed, run["exit"],
                   "%.2f" % steal if steal is not None else "?",
                   run["elapsed_s"], shown or " | ".join(run["stderr"][-5:])),
                  flush=True)
    summary = summarise(runs, WORKLOADS)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    out = os.path.join(BUILD, "results",
                       "interleave-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(out, "w") as f:
        json.dump({"context": ctx, "args": vars(args), "runs": runs,
                   "summary": summary}, f, indent=1)
    print("\nraw results: %s" % os.path.relpath(out, ROOT))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
