"""Discrete-distribution samplers fed by 32-bit PRNG words.

Every sampler pulls whole 32-bit words from the PRNG and masks them down
to the width it needs; leftover bits within a word are discarded.  The
PRNG, normally a seeded KeccakState, is any object with ``words(count)``,
the next count words as ints, and ``raw(count)``, the next count words as
their 4*count little-endian bytes.  Signed outputs are stored immediately in
canonical residue form [0, q).

Each sampler draws its words in bulk and works on the whole list.  The
fixed-rate samplers (binomial, CDT, probabilistic trinary) draw all their
words in one call.  The rejection-style ones draw as many candidates as
they still need, again and again: no round can accept more than it needs,
so they consume exactly the words that one draw per candidate would.

The binomial sampler has one path for every k.  It counts bits in byte
lanes, as the NewHope and Kyber reference ``cbd()`` routines count them in
lanes of a machine word: it reads the words' bytes from ``raw``, with a
256-entry ``bytes.translate`` table per byte position of a sample, and
sums the positions as one big int.

Rejection sampling over [0, q) scales the acceptance bound from q to k*q
to cut the rejection probability, then folds accepted candidates back into
[0, q).  The hardware folds with a small Barrett reduction; the emulator
folds with Python %, which every method of ``modmath.reducer`` equals
on [0, q^2), and so on [0, k*q).

The rejection-style samplers stop with ``SamplerError`` rather than draw
more than ``word_budget(n)`` words in one call; the budget is checked
before each draw, so a call that stays within it draws the same words.
"""

import functools
import math
from itertools import repeat

from .record import Record

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


def word_budget(n):
    """Most words one rejection-style sampler call may draw for n samples."""
    return max(1 << 20, 64 * n)


def _draw(prng, count, left):
    """The next count words and the budget left after them; faults rather
    than overdraw the budget."""
    if count > left:
        raise SamplerError(f"word budget exhausted: {count} more words "
                           f"needed, {left} left")
    return prng.words(count), left - count


class RejectionPlan(Record):
    """Rejection over [0, q) with the acceptance bound scaled to k*q."""

    _fields = ("q", "scale")

    def __init__(self, q, scale):
        vars(self).update(q=q, scale=scale)

    @property
    def bound(self):
        return self.scale * self.q

    @property
    def cand_bits(self):
        return (self.bound - 1).bit_length()

    @classmethod
    def for_modulus(cls, q):
        """The plan with q's default scale factor; for every q below 2^24
        a candidate fits one PRNG word."""
        return cls(q, SCALE_FACTORS.get(q, 1))


def rej_sample(n, plan, prng):
    """n residues uniform over [0, q); one word drawn per candidate."""
    mask, bound, q = (1 << plan.cand_bits) - 1, plan.bound, plan.q
    out, left = [], word_budget(n)
    while len(out) < n:
        ws, left = _draw(prng, n - len(out), left)
        out += [c % q for c in [w & mask for w in ws] if c < bound]
    return out


@functools.lru_cache(maxsize=8)
def _bin_plan(k, q):
    """Bytes per sample w; for each byte position i where the a or b mask
    has bits, i and the table x -> 8 + HW(x & a_i) - HW(x & b_i) of byte i
    of the masks; and for m such positions, the residues of lane sums
    v - 8m for v in [0, 16m]."""
    w = 4 if k <= 16 else 8
    a = (1 << k) - 1
    b = a << (k if k <= 16 else 32)
    tables = tuple((i, bytes(8 + (x & a >> 8 * i).bit_count()
                             - (x & b >> 8 * i).bit_count() for x in range(256)))
                   for i in range(w) if (a | b) >> 8 * i & 0xFF)
    m = len(tables)
    return w, tables, tuple((v - 8 * m) % q for v in range(16 * m + 1))


def bin_sample(n, k, q, prng):
    """n centered-binomial samples: HW(a) - HW(b) over k-bit chunks a, b.

    Standard deviation sqrt(k/2).  For k <= 16 both chunks come from one
    32-bit word, a from its low k bits and b from the k above; wider k
    draws one word per chunk.  One path serves every k: of the w = 4 or 8
    little-endian bytes of a sample, each byte position that holds bits of
    a or b is popcounted by a ``bytes.translate`` table, and the positions
    are summed as one big int of byte lanes, each lane at most 16w <= 128,
    so no lane carries into the next.
    """
    if not 1 <= k <= 32:
        raise SamplerError(f"binomial parameter k={k} outside [1, 32]")
    if k >= q:
        raise SamplerError(f"binomial parameter k={k} must be < q={q}")
    w, tables, residue = _bin_plan(k, q)
    raw = prng.raw(n * w // 4)
    lanes = sum(int.from_bytes(raw[i::w].translate(t), "little")
                for i, t in tables)
    return [residue[v] for v in lanes.to_bytes(len(raw) // w, "little")]


class CdtTable(Record):
    """Cumulative distribution table: s nondecreasing entries below 2^r."""

    _fields = ("entries", "support", "precision")

    def __init__(self, entries, support, precision):
        vars(self).update(entries=entries,
                          support=support,      # s: outputs lie in [-s, s]
                          precision=precision)  # r: comparison input r1 is drawn from [0, 2^r)
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


def cdt_sample(n, table, prng, q):
    """n inversion samples from the CDT, as residues mod q.

    Each draw consumes two words: a sign bit r0 and an r-bit value r1;
    the full table is scanned with a constant trip count, one comparison
    pass over all n values per entry.
    """
    if table.support >= q:
        raise SamplerError(f"support bound s={table.support} must be < q={q}")
    rmask = (1 << table.precision) - 1
    ws = prng.words(2 * n)
    r1 = [w & rmask for w in ws[1::2]]
    e = [0] * n
    for t in table.entries:        # full scan, no early exit
        e = [a + (v > t) for a, v in zip(e, r1)]
    e = [-v if w & 1 else v for v, w in zip(e, ws[0::2])]
    return [v % q for v in e]


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
    out, left = [], word_budget(n)
    while len(out) < n:
        ws, left = _draw(prng, n - len(out), left)
        out += [(c - eta) % q for c in [w & mask for w in ws] if c < limit]
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
    placed, left = 0, word_budget(n)
    while placed < m:
        ws, left = _draw(prng, 2 * (m - placed), left)
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
    placed, left = 0, word_budget(n)
    for target, value in ((m0, 1), (m0 + m1, q - 1)):
        while placed < target:
            ws, left = _draw(prng, target - placed, left)
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
