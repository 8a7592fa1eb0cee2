"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py [--sets N] [--out FILE]

Runs run.py --trace 0 once per seed 1..RUNS on each workload listed in
BENCHMARK.json, for its run length, and prints each end-to-end metric's
median and its spread: the distance between the first and third quartile
over the median.  With --sets N it takes N such sets, one after the other,
and prints how far each later set's median moved from the first set's, in
the metric's worse direction.  On every workload, including ones not
listed there, it then runs --trace 1 twice on seed 1 and once on the
held-out seed HELD_OUT_SEED, and checks that the digest of emulated counts
repeats on seed 1.  With --out the whole record is written as JSON.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
HELD_OUT_SEED = 1001

# Context, not gated: the Tier-1 suite on the baseline commit, one run on a
# 2-core x86-64 container with Python 3.11.
TIER1_CONTEXT = {
    "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
    "wall_s": 363.3,
    "result": "283 passed, 1 deselected",
    "slowest": {"tests/test_acceptance.py::test_criterion_10_protocols": 285.2},
}


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stdout}{proc.stderr}")
    digest = re.search(r"^digest (\w+)", proc.stdout, re.M)
    return json.loads(proc.stdout.splitlines()[-1]), digest and digest.group(1)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worse = {m["name"]: 1 if m["better"] == "lower" else -1 for m in SPEC["end_to_end"]}
    seeds = list(range(1, RUNS + 1))

    record = {
        "environment": {"python": platform.python_version(),
                        "implementation": platform.python_implementation(),
                        "machine": platform.machine(), "nproc": os.cpu_count()},
        "run_seconds": SPEC["run_seconds"],
        "seeds": {"end_to_end": seeds, "traced": [1, HELD_OUT_SEED]},
        "tier1_context": TIER1_CONTEXT,
        "workloads": {},
    }
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    for name in WORKLOAD_NAMES:
        record["workloads"][name] = {"why": whys[name], "sets": [], "failed": 0,
                                     "attempted": 0} if name in whys else {}
    for number in range(1, args.sets + 1):
        for name in whys:
            entry = record["workloads"][name]
            print(f"{name} set {number}")
            runs = [bench(name, seed, 0)[0] for seed in seeds]
            stats = {metric: spread([r["metrics"][metric]["value"] for r in runs])
                     for metric in bounds}
            for metric, s in stats.items():
                flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- over bound/3"
                line = (f"  {metric:20} median {s['median']:<12.6g} spread "
                        f"{s['spread']:.4f}")
                if entry["sets"]:
                    first = entry["sets"][0][metric]["median"]
                    s["drift"] = worse[metric] * (s["median"] - first) / first
                    line += f" drift {s['drift']:+.4f}"
                    if s["drift"] > bounds[metric]:
                        flag += "  <-- drift over bound"
                print(f"{line} (bound {bounds[metric]}){flag}")
            entry["sets"].append(stats)
            entry["failed"] += sum(r["failed"] for r in runs)
            entry["attempted"] += sum(r["attempted"] for r in runs)
    for name in WORKLOAD_NAMES:
        entry = record["workloads"][name]
        print(name)
        traced, digest = bench(name, 1, 1)
        _, digest_again = bench(name, 1, 1)
        _, held_out = bench(name, HELD_OUT_SEED, 1)
        print(f"  digest seed 1 {digest} / {digest_again}, seed {HELD_OUT_SEED} {held_out}")
        if digest != digest_again:
            raise SystemExit(f"{name}: digest differs between two runs of seed 1")
        entry.update(per_layer_seed1={k: m["value"] for k, m in traced["metrics"].items()},
                     digest={"1": digest, str(HELD_OUT_SEED): held_out})
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
