import math

import numpy as np
import pytest

from sapphire import keccak, sampler
from sapphire.sampler import CdtTable, RejectionPlan, SamplerError
from conftest import NumpyWords, chi_square_pvalue

TABLE4 = {
    # q: (bit size, rej prob w/o scaling, scale, rej prob w/ scaling)
    7681: (13, 0.06, 1, 0.06),
    12289: (14, 0.25, 5, 0.06),
    40961: (16, 0.37, 3, 0.06),
    65537: (17, 0.50, 7, 0.12),
    120833: (17, 0.08, 1, 0.08),
    133121: (18, 0.49, 7, 0.11),
    184321: (18, 0.30, 11, 0.03),
    8380417: (23, 0.00, 1, 0.00),
    8058881: (23, 0.04, 1, 0.04),
    4205569: (23, 0.50, 7, 0.12),
    4206593: (23, 0.50, 7, 0.12),
    8404993: (24, 0.50, 7, 0.12),
}


class WordSource:
    """Base of the scripted word streams: ``words(count)`` is count
    ``next_word()`` calls, counted in ``words_out``."""

    words_out = permutes = 0

    def words(self, count):
        self.words_out += count
        return [self.next_word() for _ in range(count)]


def centered(values, q):
    a = np.asarray(values, dtype=np.int64)
    return np.where(a > q // 2, a - q, a)


class TestRejection:
    def test_default_scales_and_bits(self):
        for q, (bits, _, scale, _) in TABLE4.items():
            plan = RejectionPlan.for_modulus(q)
            assert plan.scale == scale
            assert RejectionPlan.for_modulus(q, scale=1).cand_bits == bits

    def test_analytic_rates_match_table(self):
        for q, (_, p_plain, _, p_scaled) in TABLE4.items():
            plain = RejectionPlan.for_modulus(q, scale=1)
            scaled = RejectionPlan.for_modulus(q)
            assert abs((1 - plain.acceptance_probability) - p_plain) < 0.005
            assert abs((1 - scaled.acceptance_probability) - p_scaled) < 0.005

    def test_fold_boundaries(self):
        plan = RejectionPlan.for_modulus(12289)
        assert plan.bound == 5 * 12289
        assert plan.fold(61444) == 12288      # 5q-1 folds to q-1
        assert plan.fold(0) == 0
        assert plan.fold(12289) == 0
        for cand in range(0, 61445, 997):
            assert plan.fold(cand) == cand % 12289

    def test_candidates_above_bound_rejected(self):
        # feed one word above the bound then accepted ones
        class Scripted(WordSource):
            def __init__(self, script):
                self.script, self.i = script, 0

            def next_word(self):
                self.i += 1
                return self.script[self.i - 1]

        plan = RejectionPlan.for_modulus(12289)
        stream = Scripted([61445, 61444, 5])    # reject, accept, accept
        out = sampler.rej_sample(2, plan, stream)
        assert out == [12288, 5]
        assert stream.words_out == 3

    def test_uniformity_chi_square(self):
        for q in (7681, 12289):
            plan = RejectionPlan.for_modulus(q)
            out = sampler.rej_sample(1_000_000, plan, NumpyWords(q))
            hist, _ = np.histogram(out, bins=64, range=(0, q))
            # bins cover uneven residue counts; build exact expectations
            edges = np.linspace(0, q, 65).astype(int)
            exp = np.diff(edges) / q * len(out)
            assert chi_square_pvalue(hist, exp) > 0.001

    def test_power_of_two_never_rejects(self):
        plan = RejectionPlan.for_modulus(1 << 15)
        stream = NumpyWords(3)
        out = sampler.rej_sample(5000, plan, stream)
        assert stream.words_out == 5000
        assert max(out) < (1 << 15)


class TestBinomial:
    def test_chunk_examples(self):
        class One(WordSource):
            def __init__(self, w):
                self.w = w

            def next_word(self):
                return self.w

        q = 12289
        # low chunk 0xFF, high chunk 0x00 -> HW diff +8
        assert sampler.bin_sample(1, 8, q, One(0x00FF)) == [8]
        assert sampler.bin_sample(1, 8, q, One(0xFF00)) == [q - 8]
        assert sampler.bin_sample(1, 8, q, One(0xAAAA)) == [0]  # equal chunks

    def test_moments(self):
        for k in (4, 8):
            vals = centered(sampler.bin_sample(300_000, k, 12289,
                                               NumpyWords(k)), 12289)
            assert abs(vals.mean()) < 0.02
            assert abs(vals.var() - k / 2) < 0.05 * k
            assert vals.min() >= -k and vals.max() <= k

    def test_wide_k_uses_two_words(self):
        stream = NumpyWords(9)
        sampler.bin_sample(100, 20, 12289, stream)
        assert stream.words_out == 200

    def test_pmf_matches_closed_form(self):
        k, n = 8, 400_000
        vals = centered(sampler.bin_sample(n, k, 12289, NumpyWords(7)), 12289)
        obs = [(vals == d).sum() for d in range(-k, k + 1)]
        exp = [math.comb(2 * k, k + d) / 4 ** k * n for d in range(-k, k + 1)]
        assert chi_square_pvalue(obs, exp) > 0.001

    def test_k_range(self):
        with pytest.raises(SamplerError):
            sampler.bin_sample(1, 33, 12289, NumpyWords(0))


class TestCdt:
    def test_scan_extremes(self):
        table = CdtTable((10, 20, 30), 3, 8)

        class Two(WordSource):
            def __init__(self, w0, w1):
                self.seq = [w0, w1]

            def next_word(self):
                return self.seq.pop(0)

        assert sampler.cdt_sample(1, table, Two(0, 0)) == [0]
        # r1 = 255 exceeds every entry -> e = s; sign from r0
        assert sampler.cdt_sample(1, table, Two(0, 255)) == [3]
        assert sampler.cdt_sample(1, table, Two(1, 255)) == [-3]

    def test_residue_storage(self):
        table = CdtTable((10, 20, 30), 3, 8)
        out = sampler.cdt_sample(500, table, NumpyWords(1), q=7681)
        assert all(0 <= v < 7681 for v in out)
        assert all(v < 4 or v > 7681 - 4 for v in out)

    def test_invariants(self):
        with pytest.raises(SamplerError):
            CdtTable((20, 10), 2, 8)       # decreasing
        with pytest.raises(SamplerError):
            CdtTable((300,), 1, 8)         # entry >= 2^r
        with pytest.raises(SamplerError):
            CdtTable((1,) * 65, 65, 8)     # support bound too big
        with pytest.raises(SamplerError):
            CdtTable((1,), 1, 33)          # precision too big

    @pytest.mark.parametrize("sigma,s,r", [(2.75, 11, 16), (2.30, 10, 16),
                                           (25.0, 54, 32)])
    def test_goodness_of_fit(self, sigma, s, r):
        table = CdtTable.from_sigma(sigma, s, r)
        pmf = table.implied_pmf()
        assert abs(sum(pmf.values()) - 1.0) < 1e-9
        n = 120_000
        vals = np.array(sampler.cdt_sample(n, table, NumpyWords(int(sigma * 7))))
        assert vals.min() >= -s and vals.max() <= s
        support = list(range(-s, s + 1))
        obs = [(vals == z).sum() for z in support]
        exp = [pmf[z] * n for z in support]
        assert chi_square_pvalue(obs, exp) > 0.001

    def test_file_round_trip(self, tmp_path):
        table = CdtTable.from_sigma(2.75, 11, 16)
        path = tmp_path / "cdt.txt"
        table.to_file(path)
        assert CdtTable.from_file(path) == table


class TestUniform:
    def test_exhaustive_eta1(self):
        class Cycle(WordSource):
            def __init__(self):
                self.i = 0

            def next_word(self):
                self.i += 1
                return self.i - 1

        q = 12289
        out = sampler.uni_sample(3, 1, 2, q, Cycle())   # candidates 0,1,2 (3 rejected)
        assert out == [q - 1, 0, 1]

    def test_degenerate_eta0(self):
        out = sampler.uni_sample(50, 0, 1, 12289, NumpyWords(2))
        assert out == [0] * 50

    def test_uniform_chi_square(self):
        q, eta = 12289, 5
        vals = centered(sampler.uni_sample(1_000_000, eta, 4, q, NumpyWords(5)), q)
        obs = [(vals == v).sum() for v in range(-eta, eta + 1)]
        exp = [len(vals) / (2 * eta + 1)] * (2 * eta + 1)
        assert chi_square_pvalue(obs, exp) > 0.001

    def test_bounds(self):
        with pytest.raises(SamplerError):
            sampler.uni_sample(1, 5, 3, 12289, NumpyWords(0))  # 11 > 2^3
        with pytest.raises(SamplerError):
            sampler.uni_sample(1, 20000, 15, 12289, NumpyWords(0))  # eta >= q


class TestTrinary:
    def test_fixed_counts(self):
        q = 7681
        for m in (0, 3, 100, 255):
            seq = sampler.tri_sample_fixed(256, m, q, NumpyWords(m))
            assert sum(1 for v in seq if v != 0) == m
            assert set(seq) <= {0, 1, q - 1}

    def test_split_counts(self):
        q = 7681
        seq = sampler.tri_sample_split(16, 2, 3, q, NumpyWords(4))
        assert sum(1 for v in seq if v == 1) == 2
        assert sum(1 for v in seq if v == q - 1) == 3

    def test_prob_k1_exhaustive(self):
        # k=1 draws x in {0,1}: 0 -> +1, 1 -> -1, zero never occurs
        class Alternate(WordSource):
            def __init__(self):
                self.i = 0

            def next_word(self):
                self.i += 1
                return self.i & 1

        q = 7681
        seq = sampler.tri_sample_prob(100, 1, q, Alternate())
        assert set(seq) == {1, q - 1}

    def test_prob_frequencies(self):
        q = 7681
        seq = np.array(sampler.tri_sample_prob(200_000, 3, q, NumpyWords(11)))
        assert abs((seq == 1).mean() - 0.125) < 0.01
        assert abs((seq == q - 1).mean() - 0.125) < 0.01

    def test_preconditions(self):
        with pytest.raises(SamplerError):
            sampler.tri_sample_fixed(8, 8, 7681, NumpyWords(0))
        with pytest.raises(SamplerError):
            sampler.tri_sample_split(8, 4, 4, 7681, NumpyWords(0))
        with pytest.raises(SamplerError):
            sampler.tri_sample_prob(8, 8, 7681, NumpyWords(0))


def test_keccak_backed_determinism():
    plan = RejectionPlan.for_modulus(12289)
    a = sampler.rej_sample(64, plan, keccak.sampler_prng("SHAKE-128", bytes(32), 1, 2))
    b = sampler.rej_sample(64, plan, keccak.sampler_prng("SHAKE-128", bytes(32), 1, 2))
    c = sampler.rej_sample(64, plan, keccak.sampler_prng("SHAKE-128", bytes(32), 1, 3))
    assert a == b != c
