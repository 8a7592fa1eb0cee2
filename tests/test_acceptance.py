"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance and runtime bound.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import contextlib
import os
import random
import time

import numpy as np
import pytest

from sapphire import (isa, keccak, machine, modmath, nttcore, polycache,
                      protocols, sampler)
from conftest import DATA_DIR, NumpyWords, ReferenceSponge, audit_ledger, \
    chi_square_pvalue, implied_pmf, schoolbook_negacyclic, signed


@contextlib.contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number} ({name}): FAIL (took {elapsed:.1f}s, "
              f"budget {budget}s)")
        raise AssertionError(f"runtime {elapsed:.1f}s over {budget}s budget")
    print(f"criterion {number} ({name}): PASS ({elapsed:.1f}s)")


def test_criterion_1_ntt_cycle_counts():
    with criterion(1, "NTT cycle counts exact", budget=1.0):
        expected = {(256, 7681, 16): 1289, (512, 12289, 8): 2826,
                    (1024, 12289, 4): 6155}
        for (n, q, dst), total in expected.items():
            m = machine.Machine()
            m.load_program(f"""
            config (n = {n}, q = {q})
            mult_psi (poly = 0)
            transform (mode = DIF_NTT, poly_dst = {dst}, poly_src = 0)
            """)
            rep = m.run()
            got = rep.per_instruction["transform"] + rep.per_instruction["mult_psi"]
            assert got == total, (n, got, total)


def test_criterion_2_reduction_sweeps():
    # 13 sweeps (the specialized profile of each of the 11 Barrett primes
    # and of the 2^16+1 digit fold, and one generic-Barrett sweep spread
    # across all 12 primes) plus power-of-two masking, one million random
    # inputs each plus the edge set, against int.__mod__.
    with criterion(2, "modular reduction sweeps", budget=30.0):
        rng = np.random.default_rng(0xACCE55)
        n_samples = 1_000_000
        primes = sorted(modmath.SPECIALIZED_PARAMS) + [65537]

        def sweep(profile, count):
            q = profile.q
            edges = [z for z in (0, 1, q - 1, q, q + 1, q * q - 1,
                                 q * q - q, q * q - q - 1) if 0 <= z < q * q]
            for z in edges:
                assert modmath.reduce(z, profile) == z % q
            zs = rng.integers(0, q * q, size=count, dtype=np.int64).tolist()
            red = modmath.reduce
            for z in zs:
                assert red(z, profile) == z % q
            with pytest.raises(modmath.ModMathError):
                modmath.reduce(q * q, profile)

        for q in primes:                       # sweeps 1..12
            sweep(modmath.ModulusProfile.specialized(q), n_samples)
        share = n_samples // len(primes) + 1
        for q in primes:                       # sweep 13: generic Barrett
            sweep(modmath.ModulusProfile.generic(q), share)
        for w in (8, 15, 16, 23):              # plus power-of-two masking
            sweep(modmath.ModulusProfile.power_of_two(1 << w),
                  n_samples // 4 + 1)


def test_criterion_3_ntt_correctness():
    with criterion(3, "NTT convolution + round trip", budget=60.0):
        from test_nttcore import pipeline_product, make
        for n, q in ((64, 7681), (256, 7681), (512, 12289), (1024, 12289)):
            cfg, consts, cache = make(n, q)
            rng = random.Random(n ^ q)
            src, dst = 0, cache.slots_per_bank
            for _ in range(100):
                a = [rng.randrange(q) for _ in range(n)]
                b = [rng.randrange(q) for _ in range(n)]
                assert pipeline_product(cfg, consts, cache, a, b) == \
                    schoolbook_negacyclic(a, b, q)
            for _ in range(100):
                a = [rng.randrange(q) for _ in range(n)]
                cache.load_slot(src, a)
                nttcore.mult_psi(cfg, consts, cache, src)
                nttcore.ntt(cfg, consts, cache, dst, src, nttcore.DIF_NTT)
                nttcore.ntt(cfg, consts, cache, src, dst, nttcore.DIT_INTT)
                nttcore.mult_psi_inv(cfg, consts, cache, src)
                assert cache.dump_slot(src) == a


def test_criterion_4_memory_model():
    with criterion(4, "hazard freedom + golden trace"):
        qs = {8: 257, 64: 7681, 128: 7681, 256: 7681, 512: 12289,
              1024: 12289, 2048: 12289}
        for n, q in qs.items():
            cfg = nttcore.LatticeConfig.make(n, q)
            consts = nttcore.gen_constants(cfg)
            for mode in nttcore.TRANSFORM_MODES:
                cache = polycache.PolynomialCache().configure(n)
                cache.trace_enabled = True
                rng = random.Random(n)
                cache.load_slot(0, [rng.randrange(q) for _ in range(n)])
                nttcore.ntt(cfg, consts, cache, cache.slots_per_bank, 0, mode)
                assert audit_ledger(cache) > 0
        cfg = nttcore.LatticeConfig.make(8, 257)
        consts = nttcore.gen_constants(cfg)
        for mode, fname in ((nttcore.DIT_NTT, "golden_trace_8pt_dit.txt"),
                            (nttcore.DIF_NTT, "golden_trace_8pt_dif.txt")):
            cache = polycache.PolynomialCache().configure(8)
            cache.trace_enabled = True
            cache.load_slot(0, list(range(1, 9)))
            nttcore.ntt(cfg, consts, cache, 64, 0, mode)
            golden = open(os.path.join(DATA_DIR, fname)).read().splitlines()
            assert cache.trace_lines() == golden, mode


TABLE4 = {7681: (0.06, 1, 0.06), 12289: (0.25, 5, 0.06),
          40961: (0.37, 3, 0.06), 65537: (0.50, 7, 0.12),
          120833: (0.08, 1, 0.08), 133121: (0.49, 7, 0.11),
          184321: (0.30, 11, 0.03), 8380417: (0.001, 1, 0.001),
          8058881: (0.04, 1, 0.04), 4205569: (0.50, 7, 0.12),
          4206593: (0.50, 7, 0.12), 8404993: (0.50, 7, 0.12)}


def test_criterion_5_rejection_probabilities():
    with criterion(5, "rejection rates vs published table", budget=60.0):
        for q, (p_plain, scale, p_scaled) in TABLE4.items():
            for plan_scale, expect in ((1, p_plain), (scale, p_scaled)):
                plan = sampler.RejectionPlan(q, plan_scale)
                stream = NumpyWords(q * plan_scale)
                want = round(1_000_000 * plan.bound / 2 ** plan.cand_bits)
                sampler.rej_sample(want, plan, stream)
                rate = 1.0 - want / stream.words_out
                assert abs(rate - expect) < 0.01, (q, plan_scale, rate)


def test_criterion_6_binomial_sampler():
    with criterion(6, "binomial moments and support"):
        for k in (3, 4, 8, 16):
            vals = sampler.bin_sample(1_000_000, k, 1 << 24, NumpyWords(k))
            arr = np.asarray(vals, dtype=np.int64)
            arr = np.where(arr > (1 << 23), arr - (1 << 24), arr)
            assert abs(arr.mean()) < 0.01, (k, arr.mean())
            assert abs(arr.var() - k / 2) <= 0.02 * (k / 2), (k, arr.var())
            assert arr.min() >= -k and arr.max() <= k


class CountedEntry(int):
    """A CDT entry that counts the comparisons made with it: for a plain
    int r1, ``r1 > entry`` calls ``entry.__lt__``, the reflected method of
    the int subclass, first."""

    compares = 0

    def __lt__(self, other):
        CountedEntry.compares += 1
        return int.__lt__(self, other)


class RepeatedWord:
    """A word stream that draws one word over and over."""

    def __init__(self, word):
        self.word = word

    def words(self, count):
        return [self.word] * count


def test_criterion_7_cdt_sampler():
    with criterion(7, "CDT goodness of fit + constant scan"):
        q = 12289       # above 2s for every table, so signed() is exact
        for sigma, s, r, nsamp in ((2.75, 11, 16, 200_000),
                                   (2.30, 10, 16, 200_000),
                                   (25.0, 54, 32, 120_000)):
            table = sampler.CdtTable.from_sigma(sigma, s, r)
            pmf = implied_pmf(table)
            # constant scan: s comparisons per sample, whatever the words
            counted = sampler.CdtTable(tuple(map(CountedEntry, table.entries)), s, r)
            for words in (NumpyWords(s), RepeatedWord(0), RepeatedWord((1 << 32) - 1)):
                CountedEntry.compares = 0
                sampler.cdt_sample(1000, counted, words, q)
                assert CountedEntry.compares == s * 1000, (sigma, words)
            vals = np.array(signed(sampler.cdt_sample(
                nsamp, table, NumpyWords(int(sigma * 13)), q), q))
            assert vals.min() >= -s and vals.max() <= s
            support = list(range(-s, s + 1))
            obs = [(vals == z).sum() for z in support]
            exp = [pmf[z] * nsamp for z in support]
            p = chi_square_pvalue(obs, exp)
            assert p > 0.001, (sigma, s, p)


def test_criterion_8_fips202_kats():
    with criterion(8, "FIPS-202 known answers"):
        path = os.path.join(os.path.dirname(__file__), "..", "src",
                            "sapphire", "data", "fips202_kat.txt")
        count = 0
        for raw in open(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            mode, msg_hex, want_hex = line.split()
            msg = bytes.fromhex(msg_hex) if msg_hex != "-" else b""
            want = bytes.fromhex(want_hex)
            got = {
                "SHA3-256": lambda m: keccak.sha3_digest(m, 256),
                "SHA3-512": lambda m: keccak.sha3_digest(m, 512),
                "SHAKE-128": lambda m: keccak.shake128(m).finalize().squeeze(len(want)),
                "SHAKE-256": lambda m: keccak.shake256(m).finalize().squeeze(len(want)),
            }[mode](msg)
            assert got == want, mode
            count += 1
        assert count >= 24
        # cross-check a longer message against the pure-Python sponge
        blob = bytes((7 * i + 3) & 0xFF for i in range(300))
        ref = ReferenceSponge("SHA3-256")
        assert keccak.sha3_digest(blob, 256) == ref.absorb(blob).squeeze(32)
        ref = ReferenceSponge("SHAKE-128")
        assert keccak.shake128(blob).finalize().squeeze(99) == \
            ref.absorb(blob).squeeze(99)


def test_criterion_9_isa_round_trips():
    with criterion(9, "ISA coverage + corpus"):
        from test_isa import COVERAGE_LINES
        prog = isa.assemble("\n".join(COVERAGE_LINES))
        words = isa.encode(prog)
        assert isa.decode(words).instructions == prog.instructions
        assert isa.assemble(isa.disassemble(prog)).instructions == \
            prog.instructions
        mnemonics = {i.op for i in prog.instructions}
        assert mnemonics == {"config", "clock_config", "cnt", "regop",
                             "elems", "poly_get", "poly_set", "transform",
                             "mult_psi", "mult_psi_inv", "bin_sample",
                             "cdt_sample", "rej_sample", "uni_sample",
                             "tri_sample_1", "tri_sample_2", "tri_sample_3",
                             "init", "poly_copy", "poly_op", "shift_poly",
                             "eq_check", "inf_norm_check", "compare",
                             "branch", "sha3_init", "sha3_absorb",
                             "sha3_digest"}
        corpus = ["newhope_as_plus_e.sph", "kyber512_as_plus_e.sph",
                  "ntt_measurement_loop.sph", "demo_8pt.sph"]
        for name in corpus:
            p = isa.assemble(protocols._program_text(name))
            assert isa.decode(isa.encode(p)).instructions == p.instructions
        assert len(isa.assemble(
            protocols._program_text("newhope_as_plus_e.sph"))) == 10


NEWHOPE_TRIALS = int(os.environ.get("SAPPHIRE_ACCEPT_TRIALS", "1000"))


def test_criterion_10_protocols():
    with criterion(10, "protocol round trips and oracles"):
        stream = keccak.shake256(b"acceptance-protocols").finalize()
        for n in (512, 1024):
            m = machine.Machine()
            failures = 0
            for _ in range(NEWHOPE_TRIALS):
                kp = protocols.newhope_keygen(m, stream.squeeze(32), n=n)
                msg = stream.squeeze(32)
                ct = protocols.newhope_encrypt(m, kp, stream.squeeze(32), msg)
                if protocols.newhope_decrypt(m, kp, ct) != msg:
                    failures += 1
            print(f"  newhope-{n}: {NEWHOPE_TRIALS - failures}"
                  f"/{NEWHOPE_TRIALS} round trips")
            assert failures == 0, f"n={n}: {failures} decryption failures"

        m = machine.Machine()
        for _ in range(3):
            sa, ss = stream.squeeze(32), stream.squeeze(32)
            assert protocols.kyber_as_plus_e(m, sa, ss) == \
                protocols.kyber_as_plus_e_oracle(sa, ss)
        print("  kyber A*s+e: exact oracle match")

        for name in ("desk640", "desk976", "desk1344"):
            prof = protocols.FRODO_PROFILES[name]
            sa, ss = stream.squeeze(32), stream.squeeze(32)
            m = machine.Machine()
            assert protocols.frodo_as_plus_e(m, prof, sa, ss) == \
                protocols.frodo_as_plus_e_oracle(prof, sa, ss), name
            assert protocols.frodo_sa_plus_e(m, prof, sa, ss) == \
                protocols.frodo_sa_plus_e_oracle(prof, sa, ss), name
        print("  frodo tiled kernels: exact oracle match")

        m = machine.Machine()
        kp = protocols.newhope_keygen(m, stream.squeeze(32), n=1024)
        for _ in range(100):
            msg = stream.squeeze(32)
            ct = protocols.newhope_encrypt(m, kp, stream.squeeze(32), msg)
            masked = protocols.masked_decrypt(m, kp, ct, rng=stream.squeeze)
            assert masked == protocols.newhope_decrypt(m, kp, ct) == msg
        print("  masked decryption: 100/100 agree with unmasked")


def _run_traced(program, seed_val, n, q, cdt=None):
    m = machine.Machine()
    m.write_seed("r0", bytes([seed_val & 0xFF]) * 32)
    m.write_seed("r1", bytes([(seed_val >> 8) & 0xFF, seed_val & 0xFF]) * 16)
    if cdt is not None:
        m.load_cdt(cdt)
    m.configure(n, q)
    slot_vals = random.Random(seed_val)
    for slot in (0, 1):
        m.write_slot(slot, [slot_vals.randrange(q) for _ in range(n)])
    m.cache.trace_enabled = True
    m.load_program(program)
    rep = m.run()
    return rep.total, m.trace()


def test_criterion_11_constant_time_behavior():
    with criterion(11, "data-independent cycles and traces"):
        cdt = sampler.CdtTable.from_sigma(2.75, 11, 16)
        cases = {
            "transform": "transform (mode = DIF_NTT, poly_dst = {rb}, poly_src = 0)",
            "mult_psi": "mult_psi (poly = 0)",
            "poly_op": "poly_op (op = MUL, poly_dst = 1, poly_src = 0)",
            "bin_sample": "bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 8, poly = 1)",
            "cdt_sample": "cdt_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, r = 16, s = 11, poly = 1)",
        }
        for n, q in ((256, 7681), (1024, 12289)):
            rb = (8192 // n) // 2
            for name, line in cases.items():
                program = f"config (n = {n}, q = {q})\n" + line.format(rb=rb)
                reference = None
                for trial in range(100):
                    total, trace = _run_traced(program, trial * 7 + 1, n, q,
                                               cdt=cdt)
                    if reference is None:
                        reference = (total, trace)
                    else:
                        assert (total, trace) == reference, (name, n, trial)
