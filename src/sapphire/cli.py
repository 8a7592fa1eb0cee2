"""Command-line front end: assemble, run, verify and demo.

Exit codes are a stable contract: 0 success, 1 test/demo failure,
2 usage or parse error, 3 machine fault.
"""

import argparse
import os
import random
import secrets
import sys
from importlib import resources

from . import isa, keccak, machine as machine_mod, modmath, nttcore, polycache, protocols

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FAULT = 3


def _usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


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
        _usage("seed must be 64 hex chars or 'os'")
    return raw


def _seed_registers(m, seed):
    expanded = keccak.shake256(seed).finalize().squeeze(64)
    m.write_seed("r0", expanded[:32])
    m.write_seed("r1", expanded[32:])


def cmd_asm(args):
    try:
        with open(args.source) as fh:
            program = isa.assemble(fh.read())
    except OSError as exc:
        _usage(str(exc))
    except isa.AsmError as exc:
        print(f"{args.source}:{exc}", file=sys.stderr)
        return EXIT_USAGE
    out = args.output or (os.path.splitext(args.source)[0] + ".bin")
    try:
        isa.write_binary(out, program)
    except OSError as exc:
        _usage(str(exc))
    except ValueError as exc:
        # e.g. a branch to the end of a 256-instruction program: the machine
        # runs target 256 as a halt, but the 8-bit target field cannot hold it
        print(f"{args.source}: cannot encode: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{len(program)} instructions")
    return EXIT_OK


def _load_any_program(path):
    if path.endswith(".sph"):
        with open(path) as fh:
            return isa.assemble(fh.read())
    return isa.read_binary(path)


def _apply_data_in(m, path):
    try:
        with open(path) as fh:
            lines = list(fh)
    except OSError as exc:
        _usage(str(exc))
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        kind = parts[0]
        try:
            if kind == "slot":
                m.write_slot(int(parts[1]), [int(v) for v in parts[2:]])
            elif kind == "seed":
                m.write_seed(parts[1], bytes.fromhex(parts[2]))
            elif kind == "cdt":
                m.load_cdt([int(v) for v in parts[3:]])
            else:
                _usage(f"{path}:{lineno}: unknown data directive {kind!r}")
        except (ValueError, IndexError, machine_mod.MachineFault) as exc:
            # ValueError covers CacheError: bad slot, length or word
            _usage(f"{path}:{lineno}: {exc}")


def cmd_run(args):
    try:
        program = _load_any_program(args.program)
    except OSError as exc:
        _usage(str(exc))
    except (isa.AsmError, isa.DecodeError) as exc:
        print(f"{args.program}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    m = machine_mod.Machine(strict_gating=args.strict_gating)
    _seed_registers(m, _resolve_seed(args.seed))
    m.load_program(program)
    if args.data_in:
        # host data movement needs the slot geometry; take it from the
        # program's first config instruction
        for insn in program.instructions:
            if insn.op == "config":
                try:
                    m.configure(insn.args["n"], insn.args["q"])
                except machine_mod.MachineFault as exc:
                    print(f"machine fault: {exc}", file=sys.stderr)
                    return EXIT_FAULT
                break
        _apply_data_in(m, args.data_in)
    m.cache.trace_enabled = args.trace
    try:
        report = m.run(max_cycles=args.cycles)
    except machine_mod.MachineFault as exc:
        print(f"machine fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    try:
        dumps = [(slot, m.read_slot(slot)) for slot in args.dump_slot]
    except polycache.CacheError as exc:
        _usage(f"--dump-slot: {exc}")
    if args.format == "structured":
        for line in report.lines():
            print(line)
    else:
        print(f"halted={report.halted} cycles={report.total} "
              f"per_unit={report.per_unit}")
    if args.trace:
        lines = m.trace()
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            print("\n".join(lines))
    if dumps:
        out = sys.stdout if not args.data_out else open(args.data_out, "w")
        try:
            for slot, values in dumps:
                print(f"slot {slot} {' '.join(map(str, values))}", file=out)
        finally:
            if out is not sys.stdout:
                out.close()
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
        if mode == "SHA3-256":
            got = keccak.sha3_digest(msg, 256)
        elif mode == "SHA3-512":
            got = keccak.sha3_digest(msg, 512)
        elif mode == "SHAKE-128":
            got = keccak.shake128(msg).finalize().squeeze(len(want))
        elif mode == "SHAKE-256":
            got = keccak.shake256(msg).finalize().squeeze(len(want))
        else:
            _usage(f"unknown KAT mode {mode}")
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
    seed = _resolve_seed(args.seed)
    try:
        if args.which == "newhope":
            return _demo_newhope(args, seed)
        if args.which == "kyber":
            return _demo_kyber(args, seed)
        if args.which == "frodo":
            return _demo_frodo(args, seed)
        return _demo_masked(args, seed)
    except machine_mod.MachineFault as exc:
        print(f"machine fault: {exc}", file=sys.stderr)
        return EXIT_FAULT


def cmd_gen_constants(args):
    try:
        cfg = nttcore.LatticeConfig.make(args.n, args.q)
        consts = nttcore.gen_constants(cfg)
    except (nttcore.NttError, modmath.ModMathError) as exc:
        _usage(str(exc))
    path = args.output or f"ntt_constants_{args.n}_{args.q}.txt"
    nttcore.export_constants(consts, path)
    nttcore.import_constants(path)   # self-validation
    print(f"wrote {path} (psi = {consts.psi})")
    return EXIT_OK


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
    pr.add_argument("--cycles", type=int, help="cycle limit")
    pr.add_argument("--trace", action="store_true")
    pr.add_argument("--trace-out")
    pr.add_argument("--strict-gating", action="store_true")
    pr.add_argument("--format", choices=("text", "structured"), default="text")
    pr.add_argument("--data-in")
    pr.add_argument("--data-out")
    pr.add_argument("--dump-slot", type=int, action="append", default=[])
    pr.set_defaults(fn=cmd_run)

    pk = sub.add_parser("kat", help="run FIPS-202 and reduction known answers")
    pk.add_argument("--reduction-samples", type=int, default=100_000)
    pk.set_defaults(fn=cmd_kat)

    pd = sub.add_parser("demo", help="run a protocol demonstration")
    pd.add_argument("which", choices=("newhope", "kyber", "frodo", "masked"))
    pd.add_argument("--trials", type=int, default=None)
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
