"""Host-time benchmark of the sapphire emulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Runs one workload (or each in turn) as a closed loop: one client, one
process, one thread, the next op sent when the previous one returned.
Prints every metric with its unit and sample count, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run.  Exits 1 if any op failed its check.

Set-up is measured in ten fresh processes that the process running the
ops starts one at a time, spread over the timed run (see worker.py).  A
traced run does not measure set-up.

The gated times, op_ms_norm_p50 and setup_s, are scaled by the host's speed
at the moment they were taken, as measured by worker.reference(); see
README.md, "Host-speed scaling".
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import REFERENCE_NS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("newhope-pke", "frodo-tiled", "ntt-roundtrip")

# The end-to-end metrics listed in BENCHMARK.json, and so in the JSON line.
# The host this benchmark was built on switches between a fast state and
# one about 1.7x slower, for seconds to minutes at a time, which moves raw
# medians and even a 40 s run's fastest op.  Times scaled by the reference
# kernel's time next to them hold steady (README.md: "Host-speed scaling").
GATED = ("op_ms_norm_p50", "setup_s", "peak_rss_mb")
DEADLINE_S = 170          # each workload's run must end within 180 s


def start_worker(args, deadline):
    """Start a worker; return (process, seconds from start to "ready")."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    killer.start()
    proc.killer = killer
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError(f"worker did not reach ready (exit {proc.returncode})")
    return proc, ready


def finish(proc):
    """Read the worker's remaining output and wait for it to end."""
    out = proc.stdout.read()
    proc.wait()
    proc.killer.cancel()
    return out


def tail_latency(ordered):
    """Latency at the highest percentile with at least ten samples beyond
    it, as (value, percentile, samples beyond).  With ten samples or fewer
    there is none, and the maximum is reported with zero beyond."""
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(result, ready):
    """(name, value, unit, note) rows; the gated metrics are GATED.

    A scaled time is the raw time times REFERENCE_NS over the reference
    kernel's time next to it: for an op, the mean of the kernel's times just
    before and just after the op."""
    refs = result["reference_ns"]
    scaled_ms = [2 * t * REFERENCE_NS / (refs[i] + refs[i + 1]) / 1e6
                 for i, t in enumerate(result["latencies_ns"])]
    setup = [s for s, _ in result["setup_probes"]]
    scaled_setup = [s * REFERENCE_NS / ref for s, ref in result["setup_probes"]]
    lat_ms = sorted(t / 1e6 for t in result["latencies_ns"])
    timed_s = sum(result["latencies_ns"]) / 1e9
    cycles = sum(result["emu_cycles"])
    op_rates = sorted(c / t * 1e9 for c, t in
                      zip(result["emu_cycles"], result["latencies_ns"]))
    n = len(lat_ms)
    completed = n - result["failed"]
    tail, pct, beyond = tail_latency(lat_ms)
    return [
        ("ops_per_s", completed / timed_s, "1/s",
         f"completed={completed}, timed_s={timed_s:.3f}"),
        ("op_ms_p50", statistics.median(lat_ms), "ms", f"samples={n}"),
        ("op_ms_tail", tail, "ms", f"p{pct:.2f}, samples={n}, beyond={beyond}"),
        ("op_ms_min", lat_ms[0], "ms", f"samples={n}"),
        ("op_ms_norm_p50", statistics.median(scaled_ms), "ms",
         f"median op latency scaled to the reference host, samples={n}"),
        ("reference_ms_p50", statistics.median(refs) / 1e6, "ms",
         f"reference kernel, {REFERENCE_NS / 1e6:g} ms on the reference host, "
         f"samples={len(refs)}"),
        ("emu_cycles_per_s", cycles / timed_s, "cycles/s", f"emu_cycles={cycles}"),
        ("emu_cycles_per_s_max", op_rates[-1], "cycles/s",
         f"highest per-op rate, samples={n}"),
        ("setup_s", statistics.median(scaled_setup), "s",
         "median scaled to the reference host, raw samples="
         + ",".join(f"{s:.4f}" for s in setup)
         + f", raw set-up of the worker itself {ready:.4f}"),
        ("peak_rss_mb", result["peak_rss_kb"] / 1024, "MB", "worker process"),
    ]


def run_one(args):
    proc, ready = start_worker(args, time.monotonic() + DEADLINE_S)
    out = finish(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    if args.trace:
        rows = [(k, m["value"], m["unit"], "") for k, m in result["per_layer"].items()]
        digest = result["digest"]
        print(f"digest {digest['sha256']} over the first {digest['ops']} ops: "
              + json.dumps(digest["counts"], sort_keys=True))
        print(f"spans {result['spans_file']} ({len(result['traced_ns'])} traced ops)")
    else:
        rows = end_to_end(result, ready)
    for name, value, unit, note in rows:
        gated = " [gated]" if name in GATED else ""
        print(f"  {name} {value:.6g} {unit}{gated}" + (f"  ({note})" if note else ""))
    ratio = result["failed"] / result["attempted"]
    print(f"  op_fail_ratio {ratio:.6g} ratio  "
          f"(failed={result['failed']}, attempted={result['attempted']})")
    for error in result["errors"]:
        print(f"  failure: {error}")
    print(f"  note: {result['note']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows
                    if args.trace or name in GATED},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sapphire" / "__init__.py").is_file():
        print(f"error: no emulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_one(
                argparse.Namespace(**{**vars(args), "workload": name}))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
