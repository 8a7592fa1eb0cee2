"""Frozen digests of the whole-polynomial kernels.

``tests/data/golden_kernels.json`` holds SHA-256 digests of

  * the dst and (scratch) src slots after each transform mode, and of the
    slot after ``mult_psi`` / ``mult_psi_inv``, at every supported prime
    (the specialized ones, the Fermat prime 65537 and the generic-Barrett
    257) and every n = 8 ... 2048 with 2n | q - 1;
  * the dst slot after every ``poly_op`` kind, the ``CONST_*`` kinds on
    sources of residues and of arbitrary 24-bit words, with several
    register values, plus ``inf_norm_check`` and ``shift_poly`` on both;
  * the output of each of the seven samplers on fixed seeds, with the
    ``words_out`` and ``permutes`` of its Keccak stream;
  * the NewHope message encoder and threshold decoder.

Record them again with ``python tests/test_golden_kernels.py`` only when a
kernel's result changes on purpose.
"""

import hashlib
import json
import os
import random

from conftest import DATA_DIR, signed
from sapphire import isa, keccak, modmath, nttcore, polycache, protocols, sampler
from sapphire.machine import Machine

GOLDEN = os.path.join(DATA_DIR, "golden_kernels.json")

PRIMES = sorted({*modmath.SPECIALIZED_PARAMS, 65537, 257})
DIMS = [8 << i for i in range(9)]                     # 8 ... 2048
POLY_OP_CONFIGS = [(8, 257), (64, 65537), (256, 7681), (256, 1 << 13),
                   (256, 8380417), (1024, 12289)]


def _digest(*slots):
    return hashlib.sha256(repr(slots).encode()).hexdigest()


def transform_digests():
    out = {}
    for q in PRIMES:
        for n in DIMS:
            if (q - 1) % (2 * n):
                continue
            cfg = nttcore.LatticeConfig.make(n, q)
            consts = nttcore.gen_constants(cfg)
            cache = polycache.PolynomialCache().configure(n)
            rng = random.Random(f"transform {q} {n}")
            a = [rng.randrange(q) for _ in range(n)]
            src, dst = 0, cache.slots_per_bank
            for mode in isa.TRANSFORM_MODES:
                cache.load_slot(src, a)
                nttcore.ntt(cfg, consts, cache, dst, src, mode)
                out[f"{mode} q={q} n={n}"] = _digest(
                    cache.dump_slot(dst), cache.dump_slot(src))
            for name in ("mult_psi", "mult_psi_inv"):
                cache.load_slot(src, a)
                getattr(nttcore, name)(cfg, consts, cache, src)
                out[f"{name} q={q} n={n}"] = _digest(cache.dump_slot(src))
    return out


def _run_one(n, q, line, slots, reg=0):
    m = Machine()
    m.configure(n, q)
    for slot, values in slots.items():
        m.write_slot(slot, values)
    m.reg = reg
    m.load_program(f"config (n = {n}, q = {q})\n{line}")
    m.run()
    return m


def poly_op_digests():
    out = {}
    for n, q in POLY_OP_CONFIGS:
        rng = random.Random(f"poly_op {q} {n}")
        residues = [rng.randrange(q) for _ in range(n)]
        other = [rng.randrange(q) for _ in range(n)]
        words = [rng.randrange(1 << 24) for _ in range(n)]
        # words >= q in the first coefficients whatever the draw
        words[:3] = [q, (1 << 24) - 1, q + 1]
        dst = 1
        for kind in isa.POLY_OPS:
            line = f"poly_op (op = {kind}, poly_dst = {dst}, poly_src = 0)"
            if kind in ("ADD", "SUB", "MUL"):
                m = _run_one(n, q, line, {0: residues, dst: other})
                out[f"{kind} q={q} n={n}"] = _digest(m.read_slot(dst))
                continue
            regs = (0,) if kind == "BITREV" else (
                0, 7, q - 1, q + 3, (1 << 24) - 1, rng.randrange(1 << 24))
            for label, src in (("residues", residues), ("words", words)):
                for r in regs:
                    m = _run_one(n, q, line, {0: src}, reg=r)
                    out[f"{kind} {label} reg={r} q={q} n={n}"] = \
                        _digest(m.read_slot(dst))
        for label, src in (("residues", residues), ("words", words)):
            for ring in ("x^N+1", "x^N-1"):
                m = _run_one(n, q, f"shift_poly (ring = {ring}, poly_dst = {dst}, "
                                   f"poly_src = 0)", {0: src})
                out[f"shift_poly {ring} {label} q={q} n={n}"] = \
                    _digest(m.read_slot(dst))
            flags = []
            for bound in (0, 1, q // 4, q // 2, q, (1 << 20) - 1):
                bound = min(bound, (1 << 20) - 1)   # the field's width
                m = _run_one(n, q, f"flag = inf_norm_check (poly = 0, "
                                   f"bound = {bound})", {0: src})
                flags.append(m.flag)
            out[f"inf_norm_check {label} q={q} n={n}"] = _digest(flags)
    return out


def _sampler_cases():
    plan = sampler.RejectionPlan.for_modulus
    cases = {}
    for q in (257, 7681, 12289, 40961, 65537, 8380417, 4205569, 1 << 13):
        for n in (256, 1024):
            cases[f"rej q={q} n={n}"] = lambda p, n=n, q=q: sampler.rej_sample(n, plan(q), p)
    for k, q in ((1, 12289), (2, 3), (4, 12289), (8, 12289), (16, 12289),
                 (17, 12289), (20, 7681), (32, 8380417)):
        cases[f"bin k={k} q={q}"] = lambda p, k=k, q=q: sampler.bin_sample(1024, k, q, p)
    for sigma, s, r in ((2.75, 11, 16), (25.0, 54, 32), (1.0, 1, 4)):
        table = sampler.CdtTable.from_sigma(sigma, s, r)
        # q=None names the signed samples: residues mapped back, s < q/2
        cases[f"cdt s={s} r={r} q=None"] = \
            lambda p, t=table: signed(sampler.cdt_sample(512, t, p, 12289), 12289)
        cases[f"cdt s={s} r={r} q=7681"] = \
            lambda p, t=table: sampler.cdt_sample(512, t, p, 7681)
    for eta, bitlen in ((0, 1), (1, 2), (2, 3), (5, 4), (200, 9), (3, 12)):
        for q in (7681, 12289):
            cases[f"uni eta={eta} bitlen={bitlen} q={q}"] = \
                lambda p, e=eta, b=bitlen, q=q: sampler.uni_sample(1024, e, b, q, p)
    for n, m in ((8, 7), (256, 0), (256, 1), (256, 100), (256, 255), (1024, 500)):
        cases[f"tri_fixed n={n} m={m}"] = \
            lambda p, n=n, m=m: sampler.tri_sample_fixed(n, m, 7681, p)
    for n, m0, m1 in ((16, 2, 3), (16, 0, 15), (256, 100, 100), (1024, 300, 400)):
        cases[f"tri_split n={n} m0={m0} m1={m1}"] = \
            lambda p, n=n, a=m0, b=m1: sampler.tri_sample_split(n, a, b, 7681, p)
    for k in range(1, 8):
        cases[f"tri_prob k={k}"] = lambda p, k=k: sampler.tri_sample_prob(1024, k, 7681, p)
    return cases


def sampler_digests():
    out = {}
    for i, (name, draw) in enumerate(_sampler_cases().items()):
        for mode in ("SHAKE-128", "SHAKE-256"):
            prng = keccak.sampler_prng(mode, bytes(range(i, i + 32)), i, 7 * i)
            values = draw(prng)
            out[f"{name} {mode}"] = [_digest(values), prng.words_out, prng.permutes]
    return out


def message_digests():
    out = {}
    q = protocols.NEWHOPE_Q
    for n in (256, 512, 1024):
        rng = random.Random(f"message {n}")
        msgs = [bytes(32), b"\xff" * 32, bytes(range(32)), rng.randbytes(32)]
        out[f"encode n={n}"] = _digest([protocols.encode_message(m, n) for m in msgs])
        # noisy codewords, arbitrary residues and groups summing exactly to
        # the threshold, one above and one below it
        vectors = [[(c + rng.randrange(-q // 4, q // 4)) % q
                    for c in protocols.encode_message(m, n)] for m in msgs]
        vectors.append([rng.randrange(q) for _ in range(n)])
        k = n // 256
        threshold = (k * q) // 4
        for extra in (-1, 0, 1):
            d = threshold + extra
            group = [q // 2 - d // k + (i < d % k and -1) for i in range(k)]
            vectors.append([group[i // 256] for i in range(n)])
        out[f"decode n={n}"] = _digest([protocols.decode_message(v, n) for v in vectors])
    return out


def kernel_digests():
    return {"transform": transform_digests(), "poly_op": poly_op_digests(),
            "sampler": sampler_digests(), "message": message_digests()}


def test_kernel_digests_are_frozen():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    got = kernel_digests()
    for section in golden:
        assert got[section].keys() == golden[section].keys(), section
        wrong = [k for k in golden[section] if got[section][k] != golden[section][k]]
        assert not wrong, f"{section}: {wrong[:5]}"
    assert got.keys() == golden.keys()


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(kernel_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
