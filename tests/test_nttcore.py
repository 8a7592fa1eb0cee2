import random
import time

import pytest

from sapphire import modmath, nttcore, polycache
from sapphire.nttcore import (
    DIF_INTT, DIF_NTT, DIT_INTT, DIT_NTT, LatticeConfig, NttError,
    gen_constants,
)
from conftest import bitrev, iterative_ntt, schoolbook_negacyclic, stagewise_ntt

# every strategy the transform meets: specialized Barrett (7681, 12289,
# 40961, 8380417) and the Fermat prime 65537, from n = 8 to n = 2048
CONFIGS = [(8, 7681), (64, 7681), (256, 7681), (256, 12289), (512, 12289),
           (1024, 12289), (2048, 12289), (64, 40961), (2048, 40961),
           (8, 65537), (1024, 65537), (256, 8380417), (2048, 8380417)]
MODES = [DIF_NTT, DIF_INTT, DIT_NTT, DIT_INTT]


def make(n, q):
    cfg = LatticeConfig.make(n, q)
    consts = gen_constants(cfg)
    cache = polycache.PolynomialCache().configure(n)
    return cfg, consts, cache


def pipeline_product(cfg, consts, cache, a, b):
    """psi-scale, forward DIF, pointwise, inverse DIT, inverse psi-scale."""
    n = cfg.n
    src, dst = 0, cache.slots_per_bank
    cache.load_slot(src, a)
    nttcore.mult_psi(cfg, consts, cache, src)
    nttcore.ntt(cfg, consts, cache, dst, src, DIF_NTT)
    fa = cache.dump_slot(dst)
    cache.load_slot(src, b)
    nttcore.mult_psi(cfg, consts, cache, src)
    nttcore.ntt(cfg, consts, cache, dst, src, DIF_NTT)
    fb = cache.dump_slot(dst)
    cache.load_slot(dst, [x * y % cfg.q for x, y in zip(fa, fb)])
    nttcore.ntt(cfg, consts, cache, src, dst, DIT_INTT)
    nttcore.mult_psi_inv(cfg, consts, cache, src)
    return cache.dump_slot(src)


def scan_psi(n, q):
    """The smallest c with c^n = -1 mod q, by trying c = 2, 3, ... in turn:
    the oracle for ``find_psi``."""
    return next(c for c in range(2, q) if pow(c, n, q) == q - 1)


class TestConstants:
    @pytest.mark.parametrize("q", sorted(modmath.SPECIALIZED_PARAMS))
    def test_find_psi_matches_scan(self, q):
        for n in (1 << lg for lg in range(3, 12)):
            if (q - 1) % (2 * n) == 0:
                assert nttcore.find_psi(n, q) == scan_psi(n, q), n

    def test_find_psi_is_fast(self):
        # the scan takes about 2.9 M pow calls here
        start = time.perf_counter()
        assert nttcore.find_psi(8, 8380417) == 2883726
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("q", [12766833, 15756609])
    def test_composite_modulus_rejected(self, q):
        # both are 1 mod 16, so the 1 mod 2n check lets them through
        with pytest.raises(NttError, match=f"q={q} is not prime"):
            gen_constants(LatticeConfig.make(8, q))

    def test_newhope_psi(self):
        cfg = LatticeConfig.make(1024, 12289)
        consts = gen_constants(cfg)
        assert pow(consts.psi, 1024, 12289) == 12288

    def test_kyber_modulus_supports_n256(self):
        assert (7681 - 1) % 512 == 0
        consts = gen_constants(LatticeConfig.make(256, 7681))
        assert pow(consts.psi, 256, 7681) == 7680

    def test_table_lengths(self):
        consts = gen_constants(LatticeConfig.make(256, 12289))
        assert len(consts.omega_powers) == 128
        assert len(consts.psi_powers) == 256
        assert len(consts.psi_inv_scaled) == 256

    def test_omega_is_psi_squared_and_half_order(self):
        for n, q in CONFIGS:
            consts = gen_constants(LatticeConfig.make(n, q))
            omega = consts.psi * consts.psi % q
            assert consts.omega_powers[1 % (n // 2)] == omega % q
            assert pow(omega, n // 2, q) == q - 1

    def test_no_root_configuration_error(self):
        with pytest.raises(NttError):
            gen_constants(LatticeConfig.make(1024, 7681))   # 7681 != 1 mod 2048
        with pytest.raises(NttError):
            gen_constants(LatticeConfig.make(256, 1 << 15))

    def test_psi_inv_scaled_table(self):
        for n, q in [(256, 7681), (512, 12289)]:
            consts = gen_constants(LatticeConfig.make(n, q))
            for i in range(0, n, 37):
                assert consts.psi_inv_scaled[i] * consts.psi_powers[i] * n % q == 1

    def test_export_import_round_trip(self, tmp_path):
        consts = gen_constants(LatticeConfig.make(256, 7681))
        path = tmp_path / "consts.txt"
        nttcore.export_constants(consts, path)
        assert nttcore.import_constants(path) == consts

    def test_import_rejects_corruption(self, tmp_path):
        consts = gen_constants(LatticeConfig.make(64, 7681))
        path = tmp_path / "bad.txt"
        nttcore.export_constants(consts, path)
        lines = open(path).read().splitlines()
        tables = lines[2].split()
        tables[3] = str((int(tables[3]) + 1) % 7681)
        lines[2] = " ".join(tables)
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(NttError):
            nttcore.import_constants(path)


class TestTransform:
    @pytest.mark.parametrize("n,q", CONFIGS)
    def test_dif_matches_iterative_oracle(self, n, q):
        cfg, consts, cache = make(n, q)
        omega = consts.psi * consts.psi % q
        rng = random.Random(n ^ q)
        for _ in range(5):
            a = [rng.randrange(q) for _ in range(n)]
            ref = iterative_ntt(a, omega, q)
            cache.load_slot(0, a)
            nttcore.ntt(cfg, consts, cache, cache.slots_per_bank, 0, DIF_NTT)
            out = cache.dump_slot(cache.slots_per_bank)
            assert [out[bitrev(i, cfg.lg_n)] for i in range(n)] == ref

    @pytest.mark.parametrize("n,q", CONFIGS)
    def test_dit_matches_iterative_oracle(self, n, q):
        cfg, consts, cache = make(n, q)
        omega = consts.psi * consts.psi % q
        rng = random.Random(n + q)
        a = [rng.randrange(q) for _ in range(n)]
        ref = iterative_ntt(a, omega, q)
        cache.load_slot(0, [a[bitrev(i, cfg.lg_n)] for i in range(n)])
        nttcore.ntt(cfg, consts, cache, cache.slots_per_bank, 0, DIT_NTT)
        assert cache.dump_slot(cache.slots_per_bank) == ref

    def test_zero_maps_to_zero(self):
        cfg, consts, cache = make(256, 7681)
        cache.load_slot(0, [0] * 256)
        nttcore.ntt(cfg, consts, cache, 16, 0, DIF_NTT)
        assert cache.dump_slot(16) == [0] * 256

    def test_unit_impulse_transforms_to_all_ones(self):
        cfg, consts, cache = make(256, 7681)
        cache.load_slot(0, [1] + [0] * 255)
        nttcore.mult_psi(cfg, consts, cache, 0)   # psi^0 leaves the impulse
        nttcore.ntt(cfg, consts, cache, 16, 0, DIF_NTT)
        assert cache.dump_slot(16) == [1] * 256

    @pytest.mark.parametrize("n,q", CONFIGS)
    def test_round_trip(self, n, q):
        cfg, consts, cache = make(n, q)
        rng = random.Random(q * n)
        for _ in range(3):
            a = [rng.randrange(q) for _ in range(n)]
            cache.load_slot(0, a)
            src, dst = 0, cache.slots_per_bank
            nttcore.mult_psi(cfg, consts, cache, src)
            nttcore.ntt(cfg, consts, cache, dst, src, DIF_NTT)
            nttcore.ntt(cfg, consts, cache, src, dst, DIT_INTT)
            nttcore.mult_psi_inv(cfg, consts, cache, src)
            assert cache.dump_slot(src) == a

    def test_dit_dif_alternative_modes_invert(self):
        # DIT_NTT on bit-reversed input, then DIF_INTT, returns n * input
        n, q = 64, 7681
        cfg, consts, cache = make(n, q)
        rng = random.Random(5)
        a = [rng.randrange(q) for _ in range(n)]
        ninv = pow(n, q - 2, q)
        cache.load_slot(0, a)
        nttcore.ntt(cfg, consts, cache, cache.slots_per_bank, 0, DIT_NTT)
        nttcore.ntt(cfg, consts, cache, 0, cache.slots_per_bank, DIF_INTT)
        got = [v * ninv % q for v in cache.dump_slot(0)]
        assert got == a

    @pytest.mark.parametrize("n,q", CONFIGS)
    def test_convolution_theorem(self, n, q):
        cfg, consts, cache = make(n, q)
        rng = random.Random(n * 31 + q)
        a = [rng.randrange(q) for _ in range(n)]
        b = [rng.randrange(q) for _ in range(n)]
        assert pipeline_product(cfg, consts, cache, a, b) == \
            schoolbook_negacyclic(a, b, q)

    def test_monomial_sign_wrap(self):
        # x^(n-1) * x = x^n = -1 in the negacyclic ring
        n, q = 64, 7681
        cfg, consts, cache = make(n, q)
        a = [0] * n
        a[n - 1] = 1
        b = [0] * n
        b[1] = 1
        got = pipeline_product(cfg, consts, cache, a, b)
        assert got == [q - 1] + [0] * (n - 1)

    def test_same_bank_slots_rejected(self):
        cfg, consts, cache = make(256, 7681)
        with pytest.raises(NttError):
            nttcore.ntt(cfg, consts, cache, 1, 0, DIF_NTT)

    @pytest.mark.parametrize("q", [12289, 8380417])
    @pytest.mark.parametrize("mode", MODES)
    def test_observable_words_are_residues(self, mode, q):
        # the lazy stages leave words outside [0, q); the stages whose
        # words stay in dst and in the scratch src must reduce them all
        rng = random.Random(q)
        for n in (1 << lg for lg in range(3, 12)):
            cfg, consts, cache = make(n, q)
            dst = cache.slots_per_bank
            for a in ([q - 1] * n, [rng.randrange(q) for _ in range(n)]):
                cache.load_slot(0, a)
                nttcore.ntt(cfg, consts, cache, dst, 0, mode)
                for slot in (dst, 0):
                    assert all(0 <= v < q for v in cache.dump_slot(slot)), (n, slot)

    def test_stagewise_equivalence_with_inplace_oracle(self):
        # intermediate stage outputs follow the in-place algorithm under
        # the constant-geometry index correspondence; equality of every
        # final output over many random vectors covers all stages
        n, q = 128, 7681
        cfg, consts, cache = make(n, q)
        omega = consts.psi * consts.psi % q
        rng = random.Random(77)
        for _ in range(20):
            a = [rng.randrange(q) for _ in range(n)]
            cache.load_slot(0, a)
            nttcore.ntt(cfg, consts, cache, cache.slots_per_bank, 0, DIF_NTT)
            out = cache.dump_slot(cache.slots_per_bank)
            ref = iterative_ntt(a, omega, q)
            assert [out[bitrev(i, cfg.lg_n)] for i in range(n)] == ref

    @pytest.mark.parametrize("n,q", CONFIGS + [(16, 7681), (32, 7681), (128, 7681),
                                               (512, 8380417)])
    def test_fused_passes_match_stagewise_reference(self, n, q):
        # dst, the scratch src and the memory cycles, in every mode
        cfg = LatticeConfig.make(n, q)
        consts = gen_constants(cfg)
        rng = random.Random(n * q)
        inputs = ([0] * n, [q - 1] * n, [rng.randrange(q) for _ in range(n)])
        for mode in MODES:
            for a in inputs:
                results = []
                for transform in (nttcore.ntt, stagewise_ntt):
                    cache = polycache.PolynomialCache().configure(n)
                    dst = cache.slots_per_bank
                    cache.load_slot(0, a)
                    transform(cfg, consts, cache, dst, 0, mode)
                    results.append((cache.dump_slot(dst), cache.dump_slot(0),
                                    cache.mem_cycle))
                assert results[0] == results[1], (mode, a[:4])

    def test_kernels_are_compiled_once_per_pass_shape(self):
        # a repeated transform compiles nothing, and no kernel is per q:
        # the cache holds one entry per (stages, dif, exact, units), and
        # the unit factors of a pass are the same for every q
        for n, count in ((512, 6), (1024, 6), (2048, 7)):
            nttcore._kernel.cache_clear()
            shapes, units = set(), {}
            for q in (12289, 8380417):
                cfg, consts, cache = make(n, q)
                cache.load_slot(0, list(range(n)))
                for mode in MODES:
                    dif = mode in (DIF_NTT, DIF_INTT)
                    passes = getattr(consts, f"{mode.lower()}_twiddles")
                    units.setdefault(mode, set()).add(tuple(u for u, _ in passes))
                    shapes |= {(stages, dif, exact, u) for (stages, exact), (u, _)
                               in zip(nttcore.pass_plan(cfg.lg_n), passes)}
                    nttcore.ntt(cfg, consts, cache, cache.slots_per_bank, 0, mode)
                    misses = nttcore._kernel.cache_info().misses
                    nttcore.ntt(cfg, consts, cache, cache.slots_per_bank, 0, mode)
                    assert nttcore._kernel.cache_info().misses == misses
            assert all(len(per_q) == 1 for per_q in units.values()), n
            info = nttcore._kernel.cache_info()
            assert info.currsize == info.misses == len(shapes) == count, n
            assert all(stages <= nttcore.PASS_STAGES for stages, _, _, _ in shapes)

    def test_unit_factors_are_the_exponent_zero_columns(self, tmp_path):
        # at n = 1024, 4 of the 15 factors of a DIT first pass and 2 of
        # the 3 of a DIF last pass are 1 in every block, and they leave
        # the twiddle tuples; imported constants give the same passes
        _, consts, _ = make(1024, 12289)
        dit, dif = consts.dit_intt_twiddles, consts.dif_ntt_twiddles
        assert dit[0][0] == (0, 1, 3, 7) and len(dit[0][1][0]) == 15 - 4
        assert dif[-1][0] == (0, 2) and len(dif[-1][1][0]) == 3 - 2
        nttcore.export_constants(consts, tmp_path / "consts.txt")
        imported = nttcore.import_constants(tmp_path / "consts.txt")
        for mode in MODES:
            name = f"{mode.lower()}_twiddles"
            assert getattr(imported, name) == getattr(consts, name)


class TestCycleFormula:
    def test_transform_plus_psi_totals(self):
        # (n/2 + 1) lg n + (n + 1): 1289 / 2826 / 6155
        for n, total in ((256, 1289), (512, 2826), (1024, 6155)):
            lg = n.bit_length() - 1
            assert (n // 2 + 1) * lg + (n + 1) == total
