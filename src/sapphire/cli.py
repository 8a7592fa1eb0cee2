"""Command-line front end: assemble, run, verify and demo.

Exit codes are a stable contract: 0 success, 1 test/demo failure,
2 usage or parse error, 3 machine fault.  ``main`` is the one place that
maps errors to them: a ``MachineFault`` exits 3, any ``OSError`` or
``ValueError`` exits 2, and a closed stdout exits 1 without a message.
"""

import argparse
import os
import random
import secrets
import sys
from importlib import resources

from . import (isa, keccak, machine as machine_mod, modmath, nttcore, polycache,
               protocols, sampler)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FAULT = 3


def _resolve_seed(arg):
    """Seed from --seed, SAPPHIRE_EMU_SEED, or the OS entropy pool."""
    value = arg if arg is not None else os.environ.get("SAPPHIRE_EMU_SEED")
    if value is None or value == "os":
        return secrets.token_bytes(32)
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raw = b""
    if len(raw) != 32:
        raise ValueError("seed must be 64 hex chars or 'os'")
    return raw


def _assemble_file(path):
    with open(path, encoding="utf-8") as fh:
        return isa.assemble(fh.read())


def _load_any_program(path):
    """The program in a .sph listing or an SPH1 binary; its parse errors
    name the path."""
    try:
        return _assemble_file(path) if path.endswith(".sph") else isa.read_binary(path)
    except ValueError as exc:    # AsmError, DecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None


def cmd_asm(args):
    program = _assemble_file(args.source)
    out = args.output or (os.path.splitext(args.source)[0] + ".bin")
    # ValueError if unencodable: a branch to the end of 256 instructions
    isa.write_binary(out, program)
    print(f"{len(program)} instructions")
    return EXIT_OK


# --data-in directive -> its leading operands, which every line must give
_DATA_OPERANDS = {"slot": ("slot id",), "seed": ("register", "hex bytes"),
                  "cdt": ("precision r", "support s")}


def _apply_data_in(m, path):
    with open(path) as fh:
        lines = list(fh)
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = parts[0]
        try:
            needed = _DATA_OPERANDS.get(kind, ())
            if len(parts) <= len(needed):
                raise ValueError(f"{kind}: missing {needed[len(parts) - 1]}")
            if kind == "slot":
                m.write_slot(int(parts[1]), [int(v) for v in parts[2:]])
            elif kind == "seed":
                if len(parts) > 3:
                    raise ValueError(f"seed: unexpected operand {parts[3]!r}")
                m.write_seed(parts[1], bytes.fromhex(parts[2]))
            elif kind == "cdt":     # cdt <r> <s> <entries...>
                m.load_cdt(sampler.CdtTable(tuple(int(v) for v in parts[3:]),
                                            int(parts[2]), int(parts[1])))
            else:
                raise ValueError(f"unknown data directive {kind!r}")
        except (ValueError, machine_mod.MachineFault) as exc:
            # ValueError covers CacheError (bad slot, length or word) and
            # SamplerError (a table that does not match its r and s)
            raise ValueError(f"{path}:{lineno}: {exc}") from None


def _write_lines(lines, path):
    """Write the lines to the file at path, or else to stdout."""
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args):
    # an output file with nothing to write is a usage error, not a no-op
    if args.data_out and not args.dump_slot:
        raise ValueError("--data-out needs --dump-slot")
    if args.trace_out and not args.trace:
        raise ValueError("--trace-out needs --trace")
    program = _load_any_program(args.program)
    m = machine_mod.Machine(strict_gating=args.strict_gating)
    seeds = keccak.shake256(_resolve_seed(args.seed)).finalize().squeeze(64)
    m.write_seed("r0", seeds[:32])
    m.write_seed("r1", seeds[32:])
    m.load_program(program)
    if args.data_in:
        # host data movement needs the slot geometry; take it from the
        # program's first config instruction
        config = next((i.args for i in program.instructions if i.op == "config"), None)
        if config:
            m.configure(config["n"], config["q"])
        _apply_data_in(m, args.data_in)
    m.cache.trace_enabled = args.trace
    report = m.run(max_cycles=args.cycles)
    try:
        dumps = [f"slot {slot} {' '.join(map(str, m.read_slot(slot)))}"
                 for slot in args.dump_slot]
    except polycache.CacheError as exc:
        raise ValueError(f"--dump-slot: {exc}") from None
    if args.format == "structured":
        for line in report.lines():
            print(line)
    else:
        print(f"halted={report.halted} cycles={report.total} "
              f"per_unit={report.per_unit}")
    if args.trace:
        _write_lines(m.trace(), args.trace_out)
    if dumps:
        _write_lines(dumps, args.data_out)
    return EXIT_OK


def _kat_lines():
    text = resources.files("sapphire").joinpath("data/fips202_kat.txt").read_text()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def cmd_kat(args):
    failures = []
    count = 0
    for mode, msg_hex, want_hex in _kat_lines():
        msg = bytes.fromhex(msg_hex) if msg_hex != "-" else b""
        want = bytes.fromhex(want_hex)
        got = keccak.KeccakState(mode).absorb(msg).finalize().squeeze(len(want))
        count += 1
        if got != want:
            failures.append(f"{mode}({msg_hex})")
    print(f"fips202: {count - len(failures)}/{count} vectors pass")

    rng = random.Random(0xC0FFEE)
    samples = args.reduction_samples
    for q in sorted(modmath.SPECIALIZED_PARAMS) + [65537]:
        profile = modmath.ModulusProfile.specialized(q)
        generic = modmath.ModulusProfile.generic(q)
        bad = 0
        for _ in range(samples):
            z = rng.randrange(q * q)
            if modmath.reduce(z, profile) != z % q:
                bad += 1
            if modmath.reduce(z, generic) != z % q:
                bad += 1
        if bad:
            failures.append(f"reduce mod {q}: {bad} mismatches")
        print(f"reduce mod {q}: {'ok' if not bad else 'FAIL'} "
              f"({samples} specialized + generic samples)")
    mask_profile = modmath.ModulusProfile.power_of_two(1 << 15)
    bad = sum(modmath.reduce(z, mask_profile) != z % (1 << 15)
              for z in (rng.randrange(1 << 30) for _ in range(samples)))
    if bad:
        failures.append(f"power-of-two mask: {bad} mismatches")
    print(f"reduce mod 2^15: {'ok' if not bad else 'FAIL'}")
    if failures:
        print("FAILURES:", "; ".join(failures))
        return EXIT_FAIL
    return EXIT_OK


def _demo_newhope(args, seed):
    stream = keccak.shake256(seed).finalize()
    failures = 0
    m = machine_mod.Machine()
    for trial in range(args.trials):
        kp = protocols.newhope_keygen(m, stream.squeeze(32), n=args.n)
        msg = stream.squeeze(32)
        ct = protocols.newhope_encrypt(m, kp, stream.squeeze(32), msg)
        if protocols.newhope_decrypt(m, kp, ct) != msg:
            failures += 1
    print(f"newhope-{args.n}: {args.trials - failures}/{args.trials} round trips")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _demo_kyber(args, seed):
    stream = keccak.shake256(seed).finalize()
    m = machine_mod.Machine()
    bad = 0
    trials = min(args.trials, 10)
    for _ in range(trials):
        sa, ss = stream.squeeze(32), stream.squeeze(32)
        if protocols.kyber_as_plus_e(m, sa, ss) != \
                protocols.kyber_as_plus_e_oracle(sa, ss):
            bad += 1
    print(f"kyber A*s+e: {trials - bad}/{trials} exact matches")
    return EXIT_OK if bad == 0 else EXIT_FAIL


def _demo_frodo(args, seed):
    stream = keccak.shake256(seed).finalize()
    profile = protocols.FRODO_PROFILES[args.profile]
    sa, ss = stream.squeeze(32), stream.squeeze(32)
    m = machine_mod.Machine()
    ok_as = protocols.frodo_as_plus_e(m, profile, sa, ss) == \
        protocols.frodo_as_plus_e_oracle(profile, sa, ss)
    ok_sa = protocols.frodo_sa_plus_e(m, profile, sa, ss) == \
        protocols.frodo_sa_plus_e_oracle(profile, sa, ss)
    print(f"frodo {profile.name}: AS+E {'ok' if ok_as else 'FAIL'}, "
          f"S'A+E' {'ok' if ok_sa else 'FAIL'}")
    return EXIT_OK if ok_as and ok_sa else EXIT_FAIL


def _demo_masked(args, seed):
    stream = keccak.shake256(seed).finalize()
    m = machine_mod.Machine()
    kp = protocols.newhope_keygen(m, stream.squeeze(32), n=args.n)
    bad = 0
    for _ in range(args.trials):
        msg = stream.squeeze(32)
        ct = protocols.newhope_encrypt(m, kp, stream.squeeze(32), msg)
        masked = protocols.masked_decrypt(m, kp, ct, rng=stream.squeeze)
        if masked != protocols.newhope_decrypt(m, kp, ct):
            bad += 1
    print(f"masked decryption: {args.trials - bad}/{args.trials} agree")
    return EXIT_OK if bad == 0 else EXIT_FAIL


def cmd_demo(args):
    demo = {"newhope": _demo_newhope, "kyber": _demo_kyber,
            "frodo": _demo_frodo, "masked": _demo_masked}[args.which]
    return demo(args, _resolve_seed(args.seed))


def cmd_gen_constants(args):
    consts = nttcore.gen_constants(nttcore.LatticeConfig.make(args.n, args.q))
    path = args.output or f"ntt_constants_{args.n}_{args.q}.txt"
    nttcore.export_constants(consts, path)
    nttcore.import_constants(path)   # self-validation
    print(f"wrote {path} (psi = {consts.psi})")
    return EXIT_OK


def _at_least(low):
    """argparse type: an int no smaller than low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    parse.__name__ = "int"    # argparse names it in "invalid int value"
    return parse


def build_parser():
    p = argparse.ArgumentParser(
        prog="sapphire-emu",
        description="Emulator for the Sapphire lattice-crypto processor")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("asm", help="assemble a .sph listing to binary")
    pa.add_argument("source")
    pa.add_argument("-o", "--output")
    pa.set_defaults(fn=cmd_asm)

    pr = sub.add_parser("run", help="run a program (.bin or .sph)")
    pr.add_argument("program")
    pr.add_argument("--seed", help="64 hex chars or 'os'")
    pr.add_argument("--cycles", type=_at_least(0), help="cycle limit")
    pr.add_argument("--trace", action="store_true")
    pr.add_argument("--trace-out")
    pr.add_argument("--strict-gating", action="store_true")
    pr.add_argument("--format", choices=("text", "structured"), default="text")
    pr.add_argument("--data-in")
    pr.add_argument("--data-out")
    pr.add_argument("--dump-slot", type=int, action="append", default=[])
    pr.set_defaults(fn=cmd_run)

    pk = sub.add_parser("kat", help="run FIPS-202 and reduction known answers")
    pk.add_argument("--reduction-samples", type=_at_least(1), default=100_000)
    pk.set_defaults(fn=cmd_kat)

    pd = sub.add_parser("demo", help="run a protocol demonstration")
    pd.add_argument("which", choices=("newhope", "kyber", "frodo", "masked"))
    pd.add_argument("--trials", type=_at_least(1), default=None)
    pd.add_argument("--n", type=int, choices=(512, 1024), default=1024)
    pd.add_argument("--profile", default="desk640",
                    choices=sorted(protocols.FRODO_PROFILES))
    pd.add_argument("--seed", help="64 hex chars or 'os'")
    pd.set_defaults(fn=cmd_demo)

    pg = sub.add_parser("gen-constants", help="generate NTT constants file")
    pg.add_argument("n", type=int)
    pg.add_argument("q", type=int)
    pg.add_argument("-o", "--output")
    pg.set_defaults(fn=cmd_gen_constants)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "trials", None) is None and args.command == "demo":
        args.trials = {"newhope": 1000, "kyber": 3,
                       "frodo": 1, "masked": 100}[args.which]
    try:
        code = args.fn(args)
        sys.stdout.flush()      # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: exit quietly, and send the interpreter's final
        # flush of what is still buffered to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except machine_mod.MachineFault as exc:
        print(f"machine fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
