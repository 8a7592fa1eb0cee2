"""Tests of the benchmark itself, at a tiny run length.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import GATED, WORKLOAD_NAMES  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from sapphire import MachineFault, keccak, polycache  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def make_run(name, seed=1):
    workload = workloads.WORKLOADS[name](workloads.CountingMachine())
    return worker.Run(workload, seed)


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.05", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    results = json.loads(lines[-1])
    assert list(results) == list(WORKLOAD_NAMES)
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)
    printed = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] + [
        ("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
        ("op_ms_min", "ms"), ("emu_cycles_per_s", "cycles/s"),
        ("emu_cycles_per_s_max", "cycles/s"), ("reference_ms_p50", "ms"),
        ("op_fail_ratio", "ratio")]
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= worker.DIGEST_OPS
        block = lines[lines.index(f"workload {name} seed 3 seconds 0.05 trace 0"):]
        for metric, unit in printed:
            assert any(line.startswith(f"  {metric} ") and f" {unit}" in line
                       for line in block), (name, metric)
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0
    assert GATED == tuple(m["name"] for m in SPEC["end_to_end"])


def test_corrupted_and_faulting_ops_count_as_failed():
    run = make_run("ntt-roundtrip")
    honest = run.workload.run

    def sabotaged(x):
        poly, per_insn = honest(x)
        if sabotaged.calls == 1:
            poly = [(poly[0] + 1) % workloads.Q] + poly[1:]
        if sabotaged.calls == 2:
            raise MachineFault("injected")
        sabotaged.calls += 1
        return poly, per_insn
    sabotaged.calls = 0
    run.workload.run = sabotaged
    worker.run_untraced(run, seconds=0)
    run.timed(9, run.workload.inputs(1, 9))
    assert run.attempted == 3 and run.failed == 2
    assert run.errors == ["op 1: wrong output", "op 9: MachineFault: injected"]


def test_wrong_cycle_count_fails_the_ntt_check():
    run = make_run("ntt-roundtrip")
    x = run.workload.inputs(1, 0)
    poly, per_insn = run.workload.run(x)
    assert run.workload.check(x, (poly, per_insn))
    assert not run.workload.check(x, (poly, {**per_insn, "transform": per_insn["transform"] + 1}))


@pytest.mark.parametrize("name", ["ntt-roundtrip", "frodo-tiled"])
def test_traced_self_times_add_up_to_the_traced_op_time(name):
    originals = (keccak.keccak_f1600, polycache.PolynomialCache.slot_read)
    run = make_run(name)
    tr, result = worker.run_traced(run, seconds=0)
    assert (keccak.keccak_f1600, polycache.PolynomialCache.slot_read) == originals
    assert run.failed == 0 and len(tr.ops) == worker.DIGEST_OPS
    for _, root in tr.ops:
        _, _, layer_self, remainder = tracer.summarize([root])
        assert sum(layer_self.values()) + remainder == root.total
        assert all(v >= 0 for v in layer_self.values()) and remainder >= 0
    per_layer = result["per_layer"]
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    assert [m["unit"] for m in per_layer.values()] == [m["unit"] for m in SPEC["per_layer"]]
    bypassed = {"ntt-roundtrip": "keccak.permutations_per_op",
                "frodo-tiled": "nttcore.transforms_per_op"}[name]
    assert per_layer[bypassed]["value"] == 0


def test_digest_repeats_for_a_seed():
    digests = [worker.run_traced(make_run("newhope-pke", seed=5), seconds=0)[1]["digest"]
               for _ in range(2)]
    assert digests[0] == digests[1]
    # The Keccak counts are the emulated sponges' own counters: the machine
    # charges 24 cycles per permutation, and a sample op needs no SHA3.
    for counts in digests[0]["counts"]:
        assert counts["keccak.permutations"] > 0
        assert 24 * counts["keccak.permutations"] == counts["emu_cycles.keccak"]


def test_fails_without_the_emulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ntt-roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
