"""One benchmark process: set up, say "ready", run the timed ops, report.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
                                [--setup-only]

run.py starts this process and times its set-up, from process start to the
"ready" line: importing the emulator, building the Machine, the transform
constants and one untimed warm-up op.  With --setup-only the process exits
there.  Otherwise it runs ops until their summed time reaches --seconds,
and prints one JSON line with the raw measurements.

An untraced run also times the set-up of SETUP_PROBES fresh --setup-only
processes, one after another, spread evenly over the timed ops and outside
their timers.  Next to every op and every set-up probe it times
reference(), a fixed pure-Python kernel, so that run.py can scale each
time to a host of one fixed speed (README.md: "Host-speed scaling").

With --trace 1 every op is run twice on the same inputs, first untraced and
then traced; the pair gives trace.overhead_ratio, and the traced runs give
the per-layer metrics and the digest of emulated counts.  The spans are
written to perfbench-out/ when the run ends.
"""

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

# Every run makes at least this many timed ops; the digest covers the
# emulated counts of the first DIGEST_OPS of them, so it does not depend on
# how many ops fit into the run.
DIGEST_OPS = 2
MAX_ERRORS = 5
SETUP_PROBES = 10

# reference() takes about this long on an unloaded 2-vCPU x86-64 host with
# CPython 3.11.  A scaled time reads as on a host where it takes exactly this.
REFERENCE_NS = 2_000_000


def reference():
    """Fixed pure-Python work: list and dict access and modular arithmetic
    on small ints, like the emulator's.  It uses nothing of the emulator,
    so a change to the emulator cannot change its cost."""
    q = 12289
    a = list(range(2048))
    d = {i: i * 3 for i in range(256)}
    acc = 0
    for r in range(6):
        for i in range(2048):
            acc = (acc + a[i] * d[i & 255]) % q
            a[i] = (a[i] * 7 + r) % q
    return acc


def time_reference():
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0


def probe_setup(argv):
    """Seconds from starting a fresh --setup-only worker to its "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, *argv, "--setup-only"],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    proc.stdout.read()
    proc.wait()
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe did not reach ready (exit {proc.returncode})")
    return ready


def attempt(workload, x):
    """Run one op; any exception is a failed op, kept as its message."""
    try:
        return workload.run(x), None
    except Exception as exc:  # an op that raises is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, index, x, out, error):
        self.attempted += 1
        if error is None and self.workload.check(x, out):
            return
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"op {index}: {error or 'wrong output'}")

    def timed(self, index, x):
        """Untraced op: (latency ns, emulated counts of the op)."""
        tally = self.workload.m.tally
        before = tally.copy()
        t0 = time.perf_counter_ns()
        out, error = attempt(self.workload, x)
        elapsed = time.perf_counter_ns() - t0
        self.record(index, x, out, error)
        return elapsed, tally - before


def run_untraced(run, seconds, probe=None):
    """Timed ops until their summed time reaches ``seconds``.

    The reference kernel is timed before the first op and after each op,
    so op i lies between reference_ns[i] and reference_ns[i + 1].  With
    ``probe``, SETUP_PROBES set-ups are timed, spread evenly over the ops,
    each as [seconds, mean reference ns just before and after it].
    """
    latencies, cycles, refs, setup = [], [], [time_reference()], []
    probes = SETUP_PROBES if probe else 0
    spent = index = 0
    while spent < seconds * 1e9 or index < DIGEST_OPS:
        elapsed, counts = run.timed(index, run.workload.inputs(run.seed, index))
        refs.append(time_reference())
        latencies.append(elapsed)
        cycles.append(counts["emu_cycles"])
        spent += elapsed
        index += 1
        if len(setup) < probes and spent >= seconds * 1e9 * (len(setup) + 1) / (probes + 1):
            setup.append([probe(), (refs[-1] + time_reference()) / 2])
    while len(setup) < probes:
        setup.append([probe(), (time_reference() + time_reference()) / 2])
    return {"latencies_ns": latencies, "emu_cycles": cycles,
            "reference_ns": refs, "setup_probes": setup}


def run_traced(run, seconds):
    import tracer

    tr = tracer.Tracer()
    untraced, traced, tally, digest_counts = [], [], Counter(), []
    index = 0
    while sum(untraced) + sum(traced) < seconds * 1e9 or index < DIGEST_OPS:
        x = run.workload.inputs(run.seed, index)
        untraced.append(run.timed(index, x)[0])
        before = run.workload.m.tally.copy()
        with tr.installed(), tr.op(index) as root:
            out, error = attempt(run.workload, x)
        run.record(index, x, out, error)
        traced.append(root.total)
        counts = run.workload.m.tally - before
        tally += counts
        if index < DIGEST_OPS:
            digest_counts.append(tracer.op_counts(root, counts))
        index += 1
    roots = [root for _, root in tr.ops]
    metrics = tracer.layer_metrics(roots, tally, [t / 1e6 for t in untraced],
                                   [t / 1e6 for t in traced])
    blob = json.dumps(digest_counts, sort_keys=True).encode()
    return tr, {
        "latencies_ns": untraced,
        "traced_ns": traced,
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digest": {"sha256": hashlib.sha256(blob).hexdigest()[:16],
                   "ops": DIGEST_OPS, "counts": digest_counts},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](workloads.CountingMachine())
    warm = workload.inputs(args.seed, -1)
    warm_out, warm_error = attempt(workload, warm)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if warm_error is not None or not workload.check(warm, warm_out):
        print(f"error: warm-up op failed: {warm_error or 'wrong output'}",
              file=sys.stderr)
        return 1
    run = Run(workload, args.seed)
    if args.trace:
        tr, result = run_traced(run, args.seconds)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"workload": args.workload,
                                          "seed": args.seed, "spans": tr.spans()}))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        probe_argv = ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"]
        result = run_untraced(run, args.seconds, lambda: probe_setup(probe_argv))
    result.update(attempted=run.attempted, failed=run.failed, errors=run.errors,
                  note=workloads.CYCLE_NOTE,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
