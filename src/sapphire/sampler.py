"""Discrete-distribution samplers fed by 32-bit PRNG words.

Every sampler pulls whole 32-bit words from the PRNG (any object with a
``words(count)`` method returning the next count words, normally a seeded
KeccakState) and masks them down to the width it needs; leftover bits
within a word are discarded.  Signed outputs are stored immediately in
canonical residue form [0, q).

Each sampler draws its words in bulk and works on the whole list.  The
fixed-rate samplers (binomial, CDT, probabilistic trinary) draw all their
words in one call.  The rejection-style ones draw as many candidates as
they still need, again and again: no round can accept more than it needs,
so they consume exactly the words that one draw per candidate would.

Rejection sampling over [0, q) scales the acceptance bound from q to k*q
to cut the rejection probability, then folds accepted candidates back into
[0, q) with a small dedicated Barrett reduction (``RejectionPlan.fold``,
the hardware model; the sampler itself folds with Python %, which equals
it on [0, k*q) for every plan).
"""

import math
from dataclasses import dataclass
from itertools import repeat

# Default bound-scaling factors per modulus.  Moduli not listed use 1.
SCALE_FACTORS = {
    7681: 1,
    12289: 5,
    40961: 3,
    65537: 7,
    120833: 1,
    133121: 7,
    184321: 11,
    8380417: 1,
    8058881: 1,
    4205569: 7,
    4206593: 7,
    8404993: 7,
}


class SamplerError(ValueError):
    """Sampler configuration violates a precondition."""


@dataclass(frozen=True)
class RejectionPlan:
    """Candidate width, acceptance bound k*q and fold-back parameters."""

    q: int
    scale: int
    cand_bits: int
    reduce_m: int | None   # absent for power-of-two q (mask fold)
    reduce_k: int | None

    def __post_init__(self):
        if self.scale * self.q > 1 << self.cand_bits:
            raise SamplerError("k*q exceeds 2^cand_bits")
        m, k = self.reduce_m, self.reduce_k
        if m is None:
            if self.q & (self.q - 1):
                raise SamplerError(f"q={self.q} needs Barrett fold parameters")
        elif m != (1 << k) // self.q or \
                (self.bound - 1) * ((1 << k) % self.q) >= self.q << k:
            raise SamplerError(f"(m={m}, k={k}) does not fold [0, {self.bound})")

    @property
    def bound(self):
        return self.scale * self.q

    @property
    def acceptance_probability(self):
        return self.bound / (1 << self.cand_bits)

    @classmethod
    def for_modulus(cls, q, scale=None):
        if scale is None:
            scale = 1 if q & (q - 1) == 0 else SCALE_FACTORS.get(q, 1)
        if scale < 1:
            raise SamplerError(f"scale factor {scale} must be >= 1")
        bound = scale * q
        cand_bits = (bound - 1).bit_length()
        if cand_bits > 32:
            raise SamplerError(f"candidate width {cand_bits} exceeds one PRNG word")
        if q & (q - 1) == 0:
            return cls(q, scale, cand_bits, None, None)
        # Smallest Barrett shift valid for inputs < k*q (much smaller than
        # the q^2 range of the multiplier datapath).
        for k in range(q.bit_length(), 64):
            if (bound - 1) * ((1 << k) % q) < q * (1 << k):
                return cls(q, scale, cand_bits, (1 << k) // q, k)
        raise SamplerError(f"no fold parameters for q={q}, scale={scale}")

    def fold(self, value):
        """Map an accepted candidate in [0, k*q) to [0, q)."""
        q = self.q
        if self.reduce_m is None:
            return value & (q - 1)
        r = value - ((value * self.reduce_m) >> self.reduce_k) * q
        return r - (q & -(r >= q))


def rej_sample(n, plan, prng):
    """n residues uniform over [0, q); one word drawn per candidate."""
    mask, bound, q = (1 << plan.cand_bits) - 1, plan.bound, plan.q
    out = []
    while len(out) < n:
        cands = [w & mask for w in prng.words(n - len(out))]
        out += [c % q for c in cands if c < bound]
    return out


def bin_sample(n, k, q, prng):
    """n centered-binomial samples: HW(a) - HW(b) over k-bit chunks a, b.

    Standard deviation sqrt(k/2).  For k <= 16 both chunks come from one
    32-bit word; wider k draws one word per chunk.
    """
    if not 1 <= k <= 32:
        raise SamplerError(f"binomial parameter k={k} outside [1, 32]")
    if k >= q:
        raise SamplerError(f"binomial parameter k={k} must be < q={q}")
    mask = (1 << k) - 1
    if k <= 16:
        return [((w & mask).bit_count() - (w >> k & mask).bit_count()) % q
                for w in prng.words(n)]
    ws = prng.words(2 * n)
    return [((a & mask).bit_count() - (b & mask).bit_count()) % q
            for a, b in zip(ws[0::2], ws[1::2])]


@dataclass(frozen=True)
class CdtTable:
    """Cumulative distribution table: s nondecreasing entries below 2^r."""

    entries: tuple
    support: int     # s: outputs lie in [-s, s]
    precision: int   # r: comparison input r1 is drawn from [0, 2^r)

    def __post_init__(self):
        s, r = self.support, self.precision
        if not 1 <= s <= 64:
            raise SamplerError(f"support bound s={s} outside [1, 64]")
        if not 1 <= r <= 32:
            raise SamplerError(f"precision r={r} outside [1, 32]")
        if len(self.entries) != s:
            raise SamplerError(f"table length {len(self.entries)} != s={s}")
        prev = -1
        for e in self.entries:
            if not 0 <= e < (1 << r):
                raise SamplerError(f"table entry {e} outside [0, 2^{r})")
            if e < prev:
                raise SamplerError("table entries must be nondecreasing")
            prev = e

    @classmethod
    def from_sigma(cls, sigma, support, precision):
        """Build the CDT of a discrete Gaussian truncated to [-s, s].

        Entry z holds 2^r * (P(0) + 2 * sum(P(1..z))) - 1, so that the
        scan produces e = 0 with probability P(0) and e = z with 2*P(z),
        which the sign bit then splits between +z and -z.
        """
        probs = [math.exp(-(z * z) / (2.0 * sigma * sigma))
                 for z in range(support + 1)]
        total = probs[0] + 2.0 * sum(probs[1:])
        probs = [p / total for p in probs]
        scale = 1 << precision
        entries = []
        acc = probs[0]
        for z in range(support):
            entries.append(min(scale - 1, max(0, round(scale * acc) - 1)))
            acc += 2.0 * probs[z + 1]
        return cls(tuple(entries), support, precision)

    def implied_pmf(self):
        """Probability of each output in [-s, s] exactly as sampled."""
        scale = 1 << self.precision
        cum = list(self.entries) + [scale - 1]
        # zero is produced for both signs, so its mass is not halved
        pmf = {0: (cum[0] + 1) / scale}
        for z in range(1, self.support + 1):
            pz = (cum[z] - cum[z - 1]) / scale
            pmf[z] = pz / 2.0
            pmf[-z] = pz / 2.0
        return pmf

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(f"{self.precision}\n{self.support}\n")
            fh.write(" ".join(map(str, self.entries)) + "\n")

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            precision = int(fh.readline())
            support = int(fh.readline())
            entries = tuple(int(v) for v in fh.readline().split())
        return cls(entries, support, precision)


def cdt_sample(n, table, prng, q=None):
    """n inversion samples from the CDT.

    Each draw consumes two words: a sign bit r0 and an r-bit value r1;
    the full table is scanned with a constant trip count, one comparison
    pass over all n values per entry.  Signed results are returned raw
    when q is None, else as residues mod q.
    """
    if q is not None and table.support >= q:
        raise SamplerError(f"support bound s={table.support} must be < q={q}")
    rmask = (1 << table.precision) - 1
    ws = prng.words(2 * n)
    r1 = [w & rmask for w in ws[1::2]]
    e = [0] * n
    for t in table.entries:        # full scan, no early exit
        e = [a + (v > t) for a, v in zip(e, r1)]
    e = [-v if w & 1 else v for v, w in zip(e, ws[0::2])]
    return e if q is None else [v % q for v in e]


def uni_sample(n, eta, bitlen, q, prng):
    """n uniform samples over [-eta, eta], stored as residues mod q."""
    if eta >= q:
        raise SamplerError(f"eta={eta} must be < q={q}")
    if 2 * eta + 1 > (1 << bitlen):
        raise SamplerError(f"2*eta+1 = {2 * eta + 1} exceeds 2^bitlen")
    if not 1 <= bitlen <= 32:
        raise SamplerError(f"bitlen={bitlen} outside [1, 32]")
    mask = (1 << bitlen) - 1
    limit = 2 * eta + 1
    out = []
    while len(out) < n:
        cands = [w & mask for w in prng.words(n - len(out))]
        out += [(c - eta) % q for c in cands if c < limit]
    return out


def _place(seq, positions, values):
    """Write each value at its position, in turn, where that position is
    still free; returns how many were written."""
    placed = 0
    for pos, value in zip(positions, values):
        if not seq[pos]:
            seq[pos] = value
            placed += 1
    return placed


def tri_sample_fixed(n, m, q, prng):
    """Trinary sequence with exactly m nonzero entries, random signs.

    Each placement attempt draws a position word and a sign word; attempts
    on occupied positions are rejected.
    """
    if not 0 <= m < n:
        raise SamplerError(f"m={m} must satisfy 0 <= m < n={n}")
    if n & (n - 1):
        raise SamplerError("trinary sampling requires power-of-two n")
    pos_mask = n - 1
    signed = (1, q - 1)            # sign word bit 0 -> +1 / -1 mod q
    seq = [0] * n
    placed = 0
    while placed < m:
        ws = prng.words(2 * (m - placed))
        placed += _place(seq, [w & pos_mask for w in ws[0::2]],
                         [signed[w & 1] for w in ws[1::2]])
    return seq


def tri_sample_split(n, m0, m1, q, prng):
    """Trinary sequence with exactly m0 entries +1 and m1 entries -1."""
    if m0 < 0 or m1 < 0 or m0 + m1 >= n:
        raise SamplerError(f"need m0 + m1 < n, got {m0} + {m1} vs n={n}")
    if n & (n - 1):
        raise SamplerError("trinary sampling requires power-of-two n")
    pos_mask = n - 1
    seq = [0] * n
    placed = 0
    for target, value in ((m0, 1), (m0 + m1, q - 1)):
        while placed < target:
            ws = prng.words(target - placed)
            placed += _place(seq, [w & pos_mask for w in ws], repeat(value))
    return seq


def tri_sample_prob(n, k, q, prng):
    """Trinary sequence with Pr(+1) = Pr(-1) = 2^-k, one word per entry.

    Implements the draw x in [0, 2^k) with x = 0 -> +1, x = 1 -> -1,
    anything else -> 0.  Note the produced nonzero mass is 2^(1-k).
    """
    if not 1 <= k <= 7:
        raise SamplerError(f"trinary k={k} outside [1, 7]")
    mask = (1 << k) - 1
    value = [1, q - 1] + [0] * (mask - 1)     # x -> stored entry
    return [value[w & mask] for w in prng.words(n)]
