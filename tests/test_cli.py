import os
import subprocess
import sys

import pytest

from sapphire import cli
from sapphire.protocols import _program_text

SEED = "11" * 32
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*argv):
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_asm_reports_instruction_count(tmp_path, capsys):
    src = tmp_path / "newhope.sph"
    src.write_text(_program_text("newhope_as_plus_e.sph"))
    out = tmp_path / "newhope.bin"
    assert run_cli("asm", str(src), "-o", str(out)) == 0
    assert "10 instructions" in capsys.readouterr().out
    first = out.read_bytes()
    assert first[:4] == b"SPH1"
    assert run_cli("asm", str(src), "-o", str(out)) == 0
    assert out.read_bytes() == first   # idempotent


def test_asm_parse_error_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.sph"
    src.write_text("config (n = 256, q = 7681)\nfrobnicate (poly = 0)\n")
    assert run_cli("asm", str(src)) == 2
    err = capsys.readouterr().err
    assert "2" in err and "frobnicate" in err


def test_asm_unencodable_branch_target_exit_2(tmp_path, capsys):
    # assembles (a branch to the end halts), but target 256 has no encoding
    src = tmp_path / "long.sph"
    src.write_text("c0 = 0\n" * 255 + "if (flag == 0) goto end\nend:\n")
    out = tmp_path / "long.bin"
    assert run_cli("asm", str(src), "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "256" in err and "Traceback" not in err
    assert not out.exists()


def test_asm_unwritable_output_exit_2(tmp_path, capsys):
    src = tmp_path / "p.sph"
    src.write_text("c0 = 0\n")
    assert run_cli("asm", str(src), "-o", str(tmp_path / "no" / "p.bin")) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_structured_report_and_determinism(tmp_path, capsys):
    src = tmp_path / "p.sph"
    src.write_text("""
config (n = 256, q = 7681)
rej_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, poly = 0)
mult_psi (poly = 0)
transform (mode = DIF_NTT, poly_dst = 16, poly_src = 0)
""")
    outputs = []
    for _ in range(2):
        code = run_cli("run", str(src), "--seed", SEED,
                       "--format", "structured", "--dump-slot", "16")
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]          # fixed seed: bit-identical
    assert "cycles_total" in outputs[0]
    assert "slot 16" in outputs[0]


def test_run_machine_fault_exit_3(tmp_path, capsys):
    src = tmp_path / "fault.sph"
    src.write_text("transform (mode = DIF_NTT, poly_dst = 4, poly_src = 0)\n")
    assert run_cli("run", str(src), "--seed", SEED) == 3
    assert "fault" in capsys.readouterr().err


def test_run_sampler_word_budget_exit_3(tmp_path, capsys):
    src = tmp_path / "budget.sph"
    src.write_text("config (n = 1024, q = 12289)\n"
                   "uni_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, "
                   "eta = 0, bitlen = 16, poly = 1)\n")
    assert run_cli("run", str(src), "--seed", SEED) == 3
    err = capsys.readouterr().err
    assert "word budget" in err and "Traceback" not in err


def test_run_trace_matches_golden_8pt(tmp_path, capsys):
    src = tmp_path / "demo.sph"
    src.write_text("config (n = 8, q = 257)\n"
                   "transform (mode = DIT_NTT, poly_dst = 64, poly_src = 0)\n")
    trace = tmp_path / "trace.txt"
    assert run_cli("run", str(src), "--seed", SEED, "--trace",
                   "--trace-out", str(trace)) == 0
    golden = open(os.path.join(os.path.dirname(__file__), "data",
                               "golden_trace_8pt_dit.txt")).read()
    assert trace.read_text() == golden


def test_run_data_in(tmp_path, capsys):
    src = tmp_path / "p.sph"
    src.write_text("config (n = 64, q = 7681)\n"
                   "poly_op (op = ADD, poly_dst = 2, poly_src = 1)\n")
    data = tmp_path / "in.txt"
    data.write_text("slot 1 " + " ".join(["5"] * 64) + "\n"
                    "slot 2 " + " ".join(["7"] * 64) + "\n")
    assert run_cli("run", str(src), "--seed", SEED, "--data-in", str(data),
                   "--dump-slot", "2") == 0
    out = capsys.readouterr().out
    assert "slot 2 " + " ".join(["12"] * 64) in out


@pytest.mark.parametrize("line", [
    "slot 999 " + " ".join(["5"] * 64),     # slot out of range
    "slot 1 5 5 5",                         # wrong coefficient count
    "slot 1 " + " ".join(["x"] * 64),       # not an integer
    "slot 1 " + " ".join(["16777216"] * 64),  # wider than 24 bits
    "seed r0 abcd",                         # short seed
    "cdt 16 2 1 2 3",                       # three entries, s = 2
    "cdt",                                  # no r, s or entries
])
def test_run_bad_data_in_is_usage_error(tmp_path, capsys, line):
    src = tmp_path / "p.sph"
    src.write_text("config (n = 64, q = 7681)\n")
    data = tmp_path / "in.txt"
    data.write_text(line + "\n")
    assert run_cli("run", str(src), "--seed", SEED, "--data-in", str(data)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}:1: ") and err.count("\n") == 1


@pytest.mark.parametrize("line, message", [
    ("slot", "slot: missing slot id"),
    ("seed", "seed: missing register"),
    ("seed r0", "seed: missing hex bytes"),
    ("cdt", "cdt: missing precision r"),
    ("cdt 16", "cdt: missing support s"),
])
def test_short_data_in_line_names_missing_operand(tmp_path, capsys, line, message):
    src = tmp_path / "p.sph"
    src.write_text("config (n = 64, q = 7681)\n")
    data = tmp_path / "in.txt"
    data.write_text(line + "\n")
    assert run_cli("run", str(src), "--seed", SEED, "--data-in", str(data)) == 2
    assert capsys.readouterr().err == f"error: {data}:1: {message}\n"


@pytest.mark.parametrize("argv, code", [
    pytest.param(["asm", "latin1.sph"], 2, id="asm-not-utf8"),
    pytest.param(["run", "latin1.sph"], 2, id="run-not-utf8"),
    pytest.param(["run", "p.sph", "--trace", "--trace-out", "no/dir/trace.txt"], 2,
                 id="trace-out-missing-dir"),
    pytest.param(["run", "p.sph", "--dump-slot", "0", "--data-out", "no/dir/data.txt"], 2,
                 id="data-out-missing-dir"),
    pytest.param(["gen-constants", "8", "257", "-o", "no/dir/c.txt"], 2,
                 id="gen-constants-missing-dir"),
    # about 290 kB of trace, more than a pipe holds, follow the first line
    pytest.param(["run", "ntt.sph", "--trace"], 1, id="closed-stdout"),
])
def test_error_exits_without_traceback(tmp_path, argv, code):
    (tmp_path / "latin1.sph").write_bytes(b"# caf\xe9\nc0 = 0\n")
    (tmp_path / "p.sph").write_text("config (n = 8, q = 257)\n")
    (tmp_path / "ntt.sph").write_text(
        "config (n = 1024, q = 12289)\n"
        "transform (mode = DIF_NTT, poly_dst = 4, poly_src = 0)\n")
    env = dict(os.environ, PYTHONPATH=SRC, SAPPHIRE_EMU_SEED=SEED)
    proc = subprocess.Popen([sys.executable, "-m", "sapphire.cli", *argv],
                            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.readline()
    proc.stdout.close()         # a reader that stops after one line
    err = proc.stderr.read().decode()
    assert proc.wait() == code
    assert "Traceback" not in err
    if code == 1:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["demo", "newhope", "--trials", "-1"],
    ["demo", "kyber", "--trials", "0"],
    ["kat", "--reduction-samples", "0"],
    ["run", "p.sph", "--cycles", "-1"],
])
def test_numeric_options_reject_out_of_range(argv, capsys):
    assert run_cli(*argv) == 2
    assert "is below" in capsys.readouterr().err


def test_run_truncated_binary_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cut.bin"
    path.write_bytes(b"SPH1\x01")
    assert run_cli("run", str(path), "--seed", SEED) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_run_dump_slot_out_of_range_is_usage_error(tmp_path, capsys):
    src = tmp_path / "p.sph"
    src.write_text("config (n = 64, q = 7681)\n")
    assert run_cli("run", str(src), "--seed", SEED, "--dump-slot", "999") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --dump-slot: slot 999 out of range")
    assert captured.err.count("\n") == 1


def test_run_microbenchmark_cycles_divisible(tmp_path, capsys):
    # 3-iteration variant of the measurement loop: the ntt bucket must be
    # an exact multiple of the per-iteration transform + psi cost
    src = tmp_path / "bench.sph"
    src.write_text(_program_text("ntt_measurement_loop.sph")
                   .replace("compare (c0, 1000)", "compare (c0, 3)"))
    assert run_cli("run", str(src), "--seed", SEED,
                   "--format", "structured") == 0
    out = capsys.readouterr().out
    ntt_cycles = int(next(l for l in out.splitlines()
                          if l.startswith("cycles_ntt")).split()[1])
    assert ntt_cycles == 3 * 6155


def test_kat_exit_zero(capsys):
    assert run_cli("kat", "--reduction-samples", "500") == 0
    out = capsys.readouterr().out
    assert "26/26 vectors pass" in out


def test_demo_kyber(capsys):
    assert run_cli("demo", "kyber", "--seed", SEED, "--trials", "1") == 0
    assert "1/1 exact matches" in capsys.readouterr().out


def test_demo_newhope_small(capsys):
    assert run_cli("demo", "newhope", "--seed", SEED, "--trials", "2",
                   "--n", "512") == 0
    assert "2/2 round trips" in capsys.readouterr().out


def test_demo_masked_small(capsys):
    assert run_cli("demo", "masked", "--seed", SEED, "--trials", "1",
                   "--n", "512") == 0
    assert "1/1 agree" in capsys.readouterr().out


def test_demo_frodo(capsys):
    assert run_cli("demo", "frodo", "--seed", SEED,
                   "--profile", "desk976") == 0
    assert "ok" in capsys.readouterr().out


def test_gen_constants(tmp_path, capsys):
    out = tmp_path / "c.txt"
    assert run_cli("gen-constants", "1024", "12289", "-o", str(out)) == 0
    assert "psi = 7" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "12289" and lines[1] == "1024"
    assert len(lines[2].split()) == 512


def test_gen_constants_bad_modulus(capsys):
    assert run_cli("gen-constants", "1024", "7681") == 2


def test_bad_seed_usage(tmp_path):
    src = tmp_path / "p.sph"
    src.write_text("c0 = 0\n")
    assert run_cli("run", str(src), "--seed", "xyz") == 2


def test_env_seed(tmp_path, capsys, monkeypatch):
    src = tmp_path / "p.sph"
    src.write_text("""
config (n = 64, q = 7681)
rej_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, poly = 0)
""")
    monkeypatch.setenv("SAPPHIRE_EMU_SEED", SEED)
    run_cli("run", str(src), "--dump-slot", "0")
    a = capsys.readouterr().out
    run_cli("run", str(src), "--dump-slot", "0")
    b = capsys.readouterr().out
    assert a == b


def test_run_cycle_limit_stops_early(tmp_path, capsys):
    src = tmp_path / "loop.sph"
    src.write_text(_program_text("ntt_measurement_loop.sph"))
    assert run_cli("run", str(src), "--seed", SEED, "--cycles", "20000",
                   "--format", "structured") == 0
    out = capsys.readouterr().out
    assert "halted 0" in out
