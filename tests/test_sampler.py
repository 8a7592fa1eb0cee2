import itertools
import math
import struct

import numpy as np
import pytest

from sapphire import keccak, sampler
from sapphire.sampler import CdtTable, RejectionPlan, SamplerError
from conftest import NumpyWords, chi_square_pvalue, implied_pmf, signed

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
    """A scripted word stream: ``words(count)`` takes the next count words
    of an iterable, counted in ``words_out``; ``raw(count)`` packs them as
    little-endian bytes."""

    words_out = permutes = 0

    def __init__(self, script):
        self.script = iter(script)

    def words(self, count):
        self.words_out += count
        return list(itertools.islice(self.script, count))

    def raw(self, count):
        return struct.pack(f"<{count}I", *self.words(count))


def centered(values, q):
    a = np.asarray(values, dtype=np.int64)
    return np.where(a > q // 2, a - q, a)


class TestRejection:
    def test_default_scales_and_bits(self):
        for q, (bits, _, scale, _) in TABLE4.items():
            plan = RejectionPlan.for_modulus(q)
            assert plan.scale == scale
            assert RejectionPlan(q, 1).cand_bits == bits

    def test_analytic_rates_match_table(self):
        for q, (_, p_plain, _, p_scaled) in TABLE4.items():
            for plan, p_reject in ((RejectionPlan(q, 1), p_plain),
                                   (RejectionPlan.for_modulus(q), p_scaled)):
                accept = plan.bound / 2 ** plan.cand_bits
                assert abs((1 - accept) - p_reject) < 0.005

    def test_candidates_above_bound_rejected(self):
        # feed one word above the bound then accepted ones
        plan = RejectionPlan.for_modulus(12289)
        stream = WordSource([61445, 61444, 5])    # reject, accept, accept
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
        q = 12289
        # low chunk 0xFF, high chunk 0x00 -> HW diff +8
        assert sampler.bin_sample(1, 8, q, WordSource([0x00FF])) == [8]
        assert sampler.bin_sample(1, 8, q, WordSource([0xFF00])) == [q - 8]
        assert sampler.bin_sample(1, 8, q, WordSource([0xAAAA])) == [0]  # equal chunks

    @pytest.mark.parametrize("k", range(1, 9))
    def test_table_matches_chunk_weights(self, k):
        # every 2k-bit pattern below bits that the sample must ignore
        mask = (1 << k) - 1
        words = [(w | 0x5A5A5A5A << 2 * k) & 0xFFFFFFFF for w in range(1 << 2 * k)]
        for q in (k + 1, 7681, 12289):
            got = sampler.bin_sample(len(words), k, q, WordSource(words))
            assert got == [((w & mask).bit_count() - (w >> k & mask).bit_count()) % q
                           for w in words], q

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


def popcount_reference(n, k, q, prng):
    """HW(w & m) - HW(w >> k & m) per word for k <= 16, HW(a & m) - HW(b & m)
    per word pair for k > 16, mod q."""
    mask = (1 << k) - 1
    if k <= 16:
        return [((w & mask).bit_count() - (w >> k & mask).bit_count()) % q
                for w in prng.words(n)]
    ws = prng.words(2 * n)
    return [((a & mask).bit_count() - (b & mask).bit_count()) % q
            for a, b in zip(ws[0::2], ws[1::2])]


# no bits, all bits, alternate bits (both phases), alternate bytes, and
# word pairs of +k and 0
LANE_EXTREMES = [(0,), (0xFFFFFFFF,), (0x55555555,), (0xAAAAAAAA,),
                 (0x00FF00FF,), (0xFFFFFFFF, 0)]


@pytest.mark.parametrize("k", range(1, 33))
def test_binomial_matches_popcount_reference(k):
    for q in (k + 1, 7681, 12289, 1 << 24):
        for n in (0, 1, 7, 1024):
            streams = [lambda: keccak.sampler_prng("SHAKE-128", bytes(range(32)), k, n)]
            streams += [lambda w=w: WordSource(itertools.cycle(w)) for w in LANE_EXTREMES]
            for make in streams:
                got, want = make(), make()
                assert sampler.bin_sample(n, k, q, got) == \
                    popcount_reference(n, k, q, want), (q, n)
                assert (got.words_out, got.permutes) == (want.words_out, want.permutes)
    # drawing nothing leaves a sponge absorbing
    state = keccak.shake128(b"seed")
    assert sampler.bin_sample(0, k, 7681, state) == []
    assert state.phase == "absorbing" and state.permutes == 0


class TestCdt:
    def test_scan_extremes(self):
        table = CdtTable((10, 20, 30), 3, 8)

        def draw(words):
            return signed(sampler.cdt_sample(1, table, WordSource(words), 7681), 7681)
        assert draw([0, 0]) == [0]
        # r1 = 255 exceeds every entry -> e = s; sign from r0
        assert draw([0, 255]) == [3]
        assert draw([1, 255]) == [-3]

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
        pmf = implied_pmf(table)
        assert abs(sum(pmf.values()) - 1.0) < 1e-9
        n = 120_000
        q = 12289
        vals = np.array(signed(sampler.cdt_sample(n, table, NumpyWords(int(sigma * 7)), q), q))
        assert vals.min() >= -s and vals.max() <= s
        support = list(range(-s, s + 1))
        obs = [(vals == z).sum() for z in support]
        exp = [pmf[z] * n for z in support]
        assert chi_square_pvalue(obs, exp) > 0.001


class TestUniform:
    def test_exhaustive_eta1(self):
        q = 12289      # candidates 0, 1, 2, 3, ...; 3 is rejected
        out = sampler.uni_sample(3, 1, 2, q, WordSource(itertools.count()))
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
        q = 7681
        seq = sampler.tri_sample_prob(100, 1, q, WordSource(itertools.cycle((1, 0))))
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


@pytest.mark.parametrize("n", [256, 1 << 15])
@pytest.mark.parametrize("draw", [
    lambda n, p: sampler.rej_sample(n, RejectionPlan.for_modulus(12289), p),
    lambda n, p: sampler.uni_sample(n, 0, 16, 12289, p),
    lambda n, p: sampler.tri_sample_fixed(n, n - 1, 12289, p),
    lambda n, p: sampler.tri_sample_split(n, n // 2, n // 4, 12289, p),
], ids=["rej", "uni", "tri_fixed", "tri_split"])
def test_word_budget(draw, n):
    # both candidate filters reject 0xFFFF, and every position it names
    # after the first is taken
    stream = WordSource(itertools.repeat(0xFFFF))
    with pytest.raises(SamplerError, match="word budget"):
        draw(n, stream)
    budget = max(1 << 20, 64 * n)
    assert sampler.word_budget(n) == budget
    assert budget - 2 * n < stream.words_out <= budget


def test_keccak_backed_determinism():
    plan = RejectionPlan.for_modulus(12289)
    a = sampler.rej_sample(64, plan, keccak.sampler_prng("SHAKE-128", bytes(32), 1, 2))
    b = sampler.rej_sample(64, plan, keccak.sampler_prng("SHAKE-128", bytes(32), 1, 2))
    c = sampler.rej_sample(64, plan, keccak.sampler_prng("SHAKE-128", bytes(32), 1, 3))
    assert a == b != c
