"""Shared test helpers: independent oracles and a fast PRNG word stream."""

import functools
import os
import re
import struct
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sapphire import keccak, modmath, nttcore, polycache  # noqa: E402
from sapphire.machine import Machine  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class NumpyWords:
    """Uniform 32-bit word stream for statistical tests (not Keccak)."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.buf = []
        self.words_out = 0
        self.permutes = 0

    def words(self, count):
        """The next count words, in the order ``buf.pop()`` yields them."""
        out = []
        while len(out) < count:
            if not self.buf:
                self.buf = self.rng.integers(
                    0, 1 << 32, size=1 << 16, dtype=np.uint64).tolist()
            take = min(count - len(out), len(self.buf))
            out += reversed(self.buf[-take:])
            del self.buf[-take:]
        self.words_out += count
        return out

    def raw(self, count):
        return struct.pack(f"<{count}I", *self.words(count))


class ReferenceSponge:
    """The FIPS-202 sponge over the pure-Python ``keccak_f1600``: absorb,
    pad, squeeze, counting permutations and 32-bit words as the hardware
    does.  The oracle for ``keccak.KeccakState``, constructed by the same
    name."""

    # FIPS-202 name -> (rate in bits, domain-separation suffix)
    SPONGES = {
        "SHAKE-128": (1344, 0x1F),
        "SHAKE-256": (1088, 0x1F),
        "SHA3-256": (1088, 0x06),
        "SHA3-512": (576, 0x06),
    }

    def __init__(self, kind):
        self.rate_bits, self.domain_suffix = self.SPONGES[kind]
        self.lanes = [0] * 25
        self.absorbed = 0          # bytes in the current input block
        self.squeezing = False
        self.block = 0             # current output block, as an int
        self.cursor = 0            # bits of it squeezed
        self.permutes = 0
        self.words_out = 0

    def _permute(self):
        self.lanes = keccak.keccak_f1600(self.lanes)
        self.permutes += 1
        self.block = sum(lane << 64 * i for i, lane
                         in enumerate(self.lanes[:self.rate_bits // 64]))

    def _xor_byte(self, pos, byte):
        self.lanes[pos // 8] ^= byte << 8 * (pos % 8)

    def absorb(self, data):
        assert not self.squeezing
        for byte in data:
            self._xor_byte(self.absorbed, byte)
            self.absorbed += 1
            if self.absorbed == self.rate_bits // 8:
                self._permute()
                self.absorbed = 0
        return self

    def finalize(self):
        if not self.squeezing:
            self._xor_byte(self.absorbed, self.domain_suffix)
            self._xor_byte(self.rate_bits // 8 - 1, 0x80)
            self._permute()
            self.squeezing = True
        return self

    def squeeze_bits(self, nbits):
        self.finalize()
        result = got = 0
        while got < nbits:
            if self.cursor == self.rate_bits:
                self._permute()
                self.cursor = 0
            take = min(nbits - got, self.rate_bits - self.cursor)
            result |= (self.block >> self.cursor & (1 << take) - 1) << got
            self.cursor += take
            got += take
        return result

    def squeeze(self, nbytes):
        return self.squeeze_bits(8 * nbytes).to_bytes(nbytes, "little")

    def next_word(self):
        self.words_out += 1
        return self.squeeze_bits(32)

    def raw(self, count):
        return b"".join(self.next_word().to_bytes(4, "little") for _ in range(count))


def readme_cycle_table():
    """README's "Cycle model" table as written: op -> (cycles, bucket)."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        section = fh.read().split("## Cycle model")[1].split("\n## ")[0]
    table = {}
    for ops, cycles, bucket in re.findall(r"^\| (`[^|]+) \| ([^|]+) \| ([^|]+) \|$",
                                          section, re.M):
        for op in re.findall(r"`(\w+)`", ops):
            assert op not in table, f"{op} has two rows"
            table[op] = (cycles, bucket)
    return table


@functools.cache
def fixed_cycles(rule, n):
    """Cycles of one fixed rule of that table, such as "(n/2 + 1) lg n",
    at dimension n (None before any configure)."""
    names = {"n": n, "lg": n.bit_length() - 1} if n else {}
    return eval(rule.replace(" lg n", " * lg").replace("/", "//"), names)


def bitrev(i, bits):
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def iterative_ntt(a, omega, q):
    """Independent oracle: iterative in-place NTT with initial bit-reversal
    (textbook form), normal-order output."""
    n = len(a)
    lgn = n.bit_length() - 1
    x = [a[bitrev(i, lgn)] for i in range(n)]
    for s in range(1, lgn + 1):
        m = 1 << s
        wm = pow(omega, n // m, q)
        for k in range(0, n, m):
            w = 1
            for j in range(m // 2):
                t = w * x[k + j + m // 2] % q
                u = x[k + j]
                x[k + j] = (u + t) % q
                x[k + j + m // 2] = (u - t) % q
                w = w * wm % q
    return x


def stagewise_ntt(cfg, consts, cache, dst, src, mode):
    """The transform one stage at a time, each stage a whole-slot list
    comprehension with its own twiddle vector: the reference for
    ``nttcore.ntt``.  It accounts the same memory cycles and leaves the
    same words in dst and in the scratch src slot, reducing lazily except
    at the two observable stages."""
    nttcore._check_slots(cache, cfg, src, dst)
    n, q, lg_n = cfg.n, cfg.q, cfg.lg_n
    half = n >> 1
    dif = mode in (nttcore.DIF_NTT, nttcore.DIF_INTT)
    table = consts.omega_powers
    if mode in (nttcore.DIF_INTT, nttcore.DIT_INTT):
        table = (1,) + tuple(q - table[half - k] for k in range(1, half))
    operands = cache.access("dif" if dif else "dit", (dst, src))
    written = polycache.transform_regions(lg_n)
    regions = [operands[r] for r in written]
    # the last stage that writes the scratch src, and the last stage
    observable = (max(s for s, r in enumerate(written) if r == 1), lg_n)
    for s in range(1, lg_n + 1):
        inp, out, exact = regions[s - 1], regions[s], s in observable
        e = s - 1 if dif else lg_n - s
        w = [table[j >> e << e] for j in range(half)]
        if dif:
            v0, v1 = inp[:half], inp[half:]
            out[0::2] = [(a + b) % q if exact else a + b for a, b in zip(v0, v1)]
            out[1::2] = [(a - b) * c % q for a, b, c in zip(v0, v1, w)]
        elif exact:
            v0, t = inp[0::2], [b * c for b, c in zip(inp[1::2], w)]
            out[:half] = [(a + b) % q for a, b in zip(v0, t)]
            out[half:] = [(a - b) % q for a, b in zip(v0, t)]
        else:
            v0, t = inp[0::2], [b * c % q for b, c in zip(inp[1::2], w)]
            out[:half] = [a + b for a, b in zip(v0, t)]
            out[half:] = [a - b for a, b in zip(v0, t)]


def schoolbook_negacyclic(a, b, q):
    """Dense negacyclic product via direct convolution (numpy int64)."""
    conv = np.convolve(np.asarray(a, dtype=np.int64),
                       np.asarray(b, dtype=np.int64))
    out = np.zeros(len(a), dtype=np.int64)
    out[: len(a)] = conv[: len(a)]
    out[: len(conv) - len(a)] -= conv[len(a):]
    return (out % q).tolist()


def chi_square_pvalue(observed, expected):
    """Goodness-of-fit p-value with sparse tail buckets merged."""
    from scipy import stats

    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and exp:
        obs[-1] += acc_o
        exp[-1] += acc_e
    exp = np.array(exp) * (sum(obs) / sum(exp))
    return stats.chisquare(obs, exp).pvalue


def implied_pmf(table):
    """Probability of each output in [-s, s] exactly as ``cdt_sample``
    draws it from the CdtTable."""
    scale = 1 << table.precision
    cum = list(table.entries) + [scale - 1]
    # zero is produced for both signs, so its mass is not halved
    pmf = {0: (cum[0] + 1) / scale}
    for z in range(1, table.support + 1):
        pz = (cum[z] - cum[z - 1]) / scale
        pmf[z] = pz / 2.0
        pmf[-z] = pz / 2.0
    return pmf


def ledger_entries(cache):
    """A cache's ledger as accesses (cycle, bank, sram, row, READ|WRITE):
    each segment (start, kind, n, slots, i) expanded by
    ``polycache.segment_accesses``, as ``trace_lines`` renders it."""
    return [(start + t, *where) for start, *shape in cache.ledger
            for t, *where in polycache.segment_accesses(*shape)]


def signed(residues, q):
    """Map residues mod q back to signed values in (-q/2, q/2]; exact for
    samples bounded by s < q/2, as every sampler support here is."""
    return [v - q if v > q // 2 else v for v in residues]


def audit_ledger(cache):
    """Re-check a cache's recorded ledger, independently of the schedule
    audit: one access per (bank, sram, cycle).  Returns the access count."""
    seen = set()
    entries = ledger_entries(cache)
    for cycle, bank, sram, _row, _rw in entries:
        key = (cycle, bank, sram)
        if key in seen:
            raise polycache.HazardFault(
                f"ledger violation at cycle {cycle}: bank {bank} sram {sram}")
        seen.add(key)
    return len(entries)


class ScanningMachine(Machine):
    """A Machine whose residue checks scan every operand slot on every
    call and never consult ``Machine.residues``: the oracle for the tags."""

    def _need_residues(self, *slots):
        q = self.q
        values = [self.cache.data[s] for s in slots]
        if not all(0 <= min(v) and max(v) < q for v in values):
            for vals in zip(*values):
                modmath._check_residues(q, *vals)
