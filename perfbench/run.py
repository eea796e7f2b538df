#!/usr/bin/env python3
"""Repository benchmark: build orwl_perfbench from this source tree and run it.

    python3 perfbench/run.py --workload halo_fine --seed 1 --seconds 50 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50
    python3 perfbench/run.py --self-test

The first form runs one workload and prints the result as the last line of
standard output: one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1; a traced run also writes a Perfetto trace under .bench_build/).
The second runs every workload, each in its own process, and prints a table
of the end-to-end metrics and failed_frac. The third runs
every workload at a tiny size in both modes and checks that each metric of
BENCHMARK.json is printed, with its unit, and finite, and that nothing
failed. The exit code is non-zero when any sample failed its correctness
check. perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "orwl_perfbench")
RUN_TIMEOUT_S = 170
# Every workload of orwl_perfbench. BENCHMARK.json gates the runtime pair;
# whatif_paper is run and self-tested here but not gated (README.md).
WORKLOADS = ("halo_fine", "fanin_fine", "whatif_paper")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cmake_home(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configure (once) and build orwl_perfbench; output goes to stderr."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"no {need} next to perfbench/: run from a full source tree")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache) and cmake_home(cache) != HERE:
        shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "orwl_perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        die("build failed")


def run_one(workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns (exit code, stdout text)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}.json")]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_all(seed, seconds):
    cols = [(m["name"], m["unit"]) for m in spec()["end_to_end"]]
    cols.append(("failed_frac", "ratio"))
    print("workload      " +
          "  ".join(f"{n} ({u})".rjust(22) for n, u in cols))
    code = 0
    for name in WORKLOADS:
        rc, out = run_one(name, seed, seconds, 0)
        res = result_of(out)
        if rc != 0 or res is None:
            code = 1
        if res is None:
            print(f"{name:<14}no result")
            continue
        vals = {k: v["value"] for k, v in res["metrics"].items()}
        vals["failed_frac"] = res["failed"] / res["attempted"]
        print(f"{name:<14}" +
              "  ".join(f"{vals.get(n, float('nan')):22.6g}" for n, _ in cols))
    return code


def self_test():
    bench = spec()
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run_one(name, 1, 1, trace, tiny=True)
            res = result_of(out)
            where = f"{name} --trace {trace}"
            if res is None:
                problems.append(f"{where}: no result (exit {rc})")
                continue
            if rc != 0 or res["failed"] != 0 or not res["correct"]:
                problems.append(f"{where}: failed_frac {res['failed']}/"
                                f"{res['attempted']}, exit {rc}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ from BENCHMARK.json:"
                                f" missing {sorted(set(want) - set(got))},"
                                f" extra {sorted(set(got) - set(want))}")
            for metric, m in got.items():
                if metric in want and m["unit"] != want[metric]:
                    problems.append(f"{where}: {metric} unit {m['unit']}, "
                                    f"expected {want[metric]}")
                if not isinstance(m["value"], (int, float)) or \
                        not math.isfinite(m["value"]):
                    problems.append(f"{where}: {metric} = {m['value']}")
            if trace and not os.path.exists(os.path.join(
                    ROOT, ".bench_build", "traces", f"{name}.json")):
                problems.append(f"{where}: no Perfetto trace written")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload or --self-test is required")

    build()
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    rc, out = run_one(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
