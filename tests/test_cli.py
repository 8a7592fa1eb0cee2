import collections
import os
import random
import re
import struct
import subprocess
import sys

import pytest

from sapphire import cli, isa, modmath
from sapphire.protocols import _program_text
from test_robustness import _random_words

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


def test_asm_then_run_branch_to_end(tmp_path, capsys):
    src = tmp_path / "end.sph"
    src.write_text("flag = compare (c0, 1)\nif (flag == -1) goto end\nc1 = 7\nend:\n")
    out = tmp_path / "end.bin"
    assert run_cli("asm", str(src), "-o", str(out)) == 0
    assert run_cli("run", str(out)) == 0
    assert run_cli("run", str(src)) == 0
    assert capsys.readouterr().err == ""


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
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "golden_trace_8pt_dit.txt")) as fh:
        golden = fh.read()
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
    "seed r0 " + "ab" * 32 + " extra",      # one operand too many
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
    pytest.param(["run", "p.sph", "--data-out", "no/dir/data.txt"], 2,
                 id="data-out-without-dump-slot"),
    pytest.param(["run", "p.sph", "--trace-out", "no/dir/trace.txt"], 2,
                 id="trace-out-without-trace"),
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
    with proc.stderr:
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
    # one sweep per modulus, each through the modulus's one profile
    for q in modmath.APPENDIX_PRIMES + (65537, 1 << 15):
        assert out.count(f"reduce mod {q}: ok (500 samples)\n") == 1, q
    assert out.count("reduce mod") == 13


def test_kat_unknown_mode_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_kat_lines", lambda: iter([("SHA3-384", "-", "00")]))
    assert run_cli("kat", "--reduction-samples", "1") == 2
    assert "SHA3-384" in capsys.readouterr().err


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


# ---------------------------------------------------------------- fuzzing
#
# ``cli.main`` on drawn argv and files returns an exit code and prints no
# traceback.  The argv covers every subcommand and option, the files are
# listings, SPH1 files and --data-in files; each case draws a rate at which
# values are invalid and files corrupted, from none to often.  Every run is
# small: n <= 64, bounded cycles, one or two trials or samples.

JUNK = ("-1", "0", "1", "3", "65", "4096", "16777217", "99999999999", "x",
        "", "0x10", "1e3", "c2", "r7", "(", "=", ",")
SLOTS = (0, 1, 2, 4, 16, 64, 127, 128, 999, -1)
TEMPLATES = tuple(form.text for form in isa.FORMS)    # operands unfilled


class Draw:
    """A seeded random source whose values are invalid at rate ``bad``."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.bad = self.rng.choice((0.0, 0.0, 0.05, 0.2, 0.5))

    def hit(self):
        return self.rng.random() < self.bad

    def pick(self, valid, invalid=JUNK):
        return str(self.rng.choice(invalid if self.hit() else valid))


def _program(rng):
    """A decodable program of forms drawn from the whole ISA, its rings cut
    to n <= 64."""
    program = isa.decode(_random_words(rng))
    return isa.Program([isa.Instruction("config", {**i.args, "n": min(i.args["n"], 64)})
                        if i.op == "config" else i for i in program.instructions],
                       program.labels, program.spans)


def _corrupt(rng, line):
    change = rng.randrange(6)
    if change == 0:     # one word or operand replaced
        words = list(re.finditer(r"\w+", line))
        if words:
            m = rng.choice(words)
            return line[:m.start()] + rng.choice(JUNK) + line[m.end():]
    if change == 1:     # one character dropped
        j = rng.randrange(len(line) + 1)
        return line[:j] + line[j + 1:]
    if change == 2:     # cut short
        return line[:rng.randrange(len(line) + 1)]
    if change == 3:     # a label or a statement in front
        return rng.choice(("L0:", "end:", "if (flag == 0) goto nowhere",
                           "c0 = c0 + 1")) + " " + line
    if change == 4:     # a label twice, if it is one
        return line + "\n" + line
    return rng.choice(TEMPLATES)


def _listing(d):
    lines = isa.disassemble(_program(d.rng)).splitlines()
    data = "\n".join(_corrupt(d.rng, line) if d.hit() else line
                     for line in lines).encode()
    if d.hit() and d.hit():
        j = d.rng.randrange(len(data) + 1)
        data = data[:j] + b"\xff\xfe" + data[j:]
    return data


def _binary(d):
    rng = d.rng
    words = isa.encode(_program(rng))
    if d.hit():
        words[rng.randrange(len(words))] = rng.getrandbits(32)
    count = len(words) + (rng.choice((-1, 1, 1 << 20)) if d.hit() else 0)
    blob = isa.MAGIC + struct.pack("<I", count) + struct.pack(f"<{len(words)}I", *words)
    return blob[:rng.randrange(len(blob) + 1)] if d.hit() else blob


def _data_in(d):
    rng, lines = d.rng, []
    for _ in range(rng.randint(1, 4)):
        kind = d.pick(("slot", "slot", "seed", "cdt", "#"), ("bogus", "", "cdt", "slot"))
        if kind == "slot":
            values = [d.pick((0, 1, 256, 7680, 16777215), ("-1", "16777216", "x"))
                      for _ in range(int(d.pick((8, 16, 64), (0, 3, 65))))]
            line = f"slot {d.pick(SLOTS[:6])} " + " ".join(values)
        elif kind == "seed":
            line = (f"seed {d.pick(('r0', 'r1'), ('r2', 'x', '0'))} "
                    f"{d.pick(('11' * 32,), ('ab' * 31, 'zz' * 32, '1' * 63))}")
        elif kind == "cdt":
            size = rng.randrange(1, 5)
            line = (f"cdt {d.pick((8, 16, 32), ('0', '33', 'x'))} "
                    f"{d.pick((size,), ('0', '65', size + 1))} "
                    + " ".join(map(str, sorted(rng.randrange(256) for _ in range(size)))))
        else:
            line = f"{kind} {rng.choice(JUNK)}"
        lines.append(line[:rng.randrange(len(line) + 1)] if d.hit() else line)
    data = "\n".join(lines).encode()
    return data + b"\xe9" if d.hit() and d.hit() else data


def _path(d, tmp_path, name, content=None):
    """A file in tmp_path, written if content is given; if the draw is bad,
    perhaps one in a missing directory, or the directory itself."""
    if content is not None:
        (tmp_path / name).write_bytes(content)
    if d.hit() and d.hit():
        return str(d.rng.choice((tmp_path / "missing" / name, tmp_path)))
    return str(tmp_path / name)


def _argv(d, tmp_path):
    rng = d.rng
    command = d.pick(("asm", "run", "run", "run", "run", "kat", "demo", "gen-constants"),
                     ("bogus", "--version", "-x", ""))
    if command == "asm":
        argv = ["asm", _path(d, tmp_path, "p.sph", _listing(d))]
        if rng.random() < 0.5:
            argv += ["-o", _path(d, tmp_path, "p.bin")]
    elif command == "run":
        name, content = (("p.sph", _listing), ("p.bin", _binary))[rng.randrange(2)]
        if d.hit() and d.hit():
            name = "p.txt"          # a listing read as binary, or the reverse
        argv = ["run", _path(d, tmp_path, name, content(d)),
                "--cycles", d.pick((0, 1, 100, 5000), ("-1", "x"))]
        if rng.random() < 0.7:
            argv += ["--seed", d.pick(("11" * 32, "os"), ("xyz", "1" * 63))]
        if rng.random() < 0.3:
            argv.append("--trace")
            if rng.random() < 0.5:
                argv += ["--trace-out", _path(d, tmp_path, "trace.txt")]
        if rng.random() < 0.2:
            argv.append("--strict-gating")
        if rng.random() < 0.3:
            argv += ["--format", d.pick(("text", "structured"), ("json",))]
        if rng.random() < 0.4:
            argv += ["--data-in", _path(d, tmp_path, "in.txt", _data_in(d))]
        for _ in range(rng.randrange(3)):
            argv += ["--dump-slot", d.pick(SLOTS[:6], SLOTS[6:] + ("x",))]
        if rng.random() < 0.2:
            argv += ["--data-out", _path(d, tmp_path, "out.txt")]
    elif command == "kat":
        argv = ["kat", "--reduction-samples", d.pick((1, 2), ("0", "-1", "x"))]
    elif command == "demo":
        # a valid frodo profile takes a fifth of a second, so none is drawn
        which = d.pick(("newhope", "kyber", "masked"), ("frodo", "rsa"))
        argv = ["demo", which, "--trials", d.pick((1, 2), ("0", "x")),
                "--n", d.pick((512,), ("1024", "64", "x"))]
        if which == "frodo":
            argv += ["--profile", rng.choice(("desk", "frodo", "x"))]
        if rng.random() < 0.7:
            argv += ["--seed", d.pick(("22" * 32,), ("2" * 65, "os"))]
    elif command == "gen-constants":
        argv = ["gen-constants", d.pick((8, 16, 64), ("3", "12", "0", "-8", "x")),
                d.pick((257, 7681, 12289, 65537, 17),
                       ("1649", "2", "1", "0", "-5", "16777217", "q")),
                "-o", _path(d, tmp_path, "consts.txt")]
    else:
        argv = [command]
    if d.hit() and d.hit():         # a stray option or a dropped argument
        if rng.random() < 0.5:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(("--bogus", "-o", "x")))
        else:
            del argv[rng.randrange(len(argv))]
    return argv


def test_main_never_escapes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)                 # default output paths
    monkeypatch.setenv("SAPPHIRE_EMU_SEED", SEED)
    codes = collections.Counter()
    for seed in range(300):
        argv = _argv(Draw(seed), tmp_path)
        try:
            code = run_cli(*argv)
        except Exception as exc:
            raise AssertionError(f"seed {seed}: {argv} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (seed, argv, code)
        assert "Traceback" not in err, (seed, argv, err)
        codes[code] += 1
    # the draws reach success, usage errors and machine faults
    assert {0, 2, 3} <= set(codes), codes
