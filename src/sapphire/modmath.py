"""Modular arithmetic in Z_q for configurable q up to 24 bits.

The datapath mirrors the hardware: residues are 24-bit unsigned values,
intermediate products are at most 48 bits, and reduction is performed by
one of four strategies:

  * generic-barrett     -- Barrett reduction with runtime (m, k) parameters
  * specialized-barrett -- per-prime shift/add Barrett routines for the
                           eleven supported primes
  * power-of-two        -- bitwise AND with q - 1
  * fermat-65537        -- x0 - x1 + x2 digit folding for q = 2^16 + 1

Conditional add/subtract steps are written as mask selections so that no
secret-dependent branch decides the result value.
"""

import functools

from .record import Frozen

GENERIC_BARRETT = "generic-barrett"
SPECIALIZED_BARRETT = "specialized-barrett"
POWER_OF_TWO = "power-of-two"
FERMAT_65537 = "fermat-65537"


class ModMathError(ValueError):
    """Contract or configuration violation in the modular arithmetic core."""


# Specialized Barrett parameters: q -> (m, k).  Multiplications by m and q
# are decomposed into the shift/add forms below when they have a short
# signed-power-of-two representation.
SPECIALIZED_PARAMS = {
    7681: (273, 21),
    12289: (10921, 27),
    40961: (52427, 31),
    120833: (71089, 33),
    133121: (64527, 33),
    184321: (46603, 33),
    8380417: (8396807, 46),
    8058881: (8731825, 46),
    4205569: (4183069, 44),
    4206593: (2091025, 43),
    8404993: (4186127, 45),
}


def _reduce_7681(x):
    t = ((x << 8) + (x << 4) + x) >> 21
    t = (t << 13) - (t << 9) + t
    r = x - t
    return r - (7681 & -(r >= 7681))


def _reduce_12289(x):
    t = (10921 * x) >> 27
    t = (t << 13) + (t << 12) + t
    r = x - t
    return r - (12289 & -(r >= 12289))


def _reduce_40961(x):
    t = (52427 * x) >> 31
    t = (t << 15) + (t << 13) + t
    r = x - t
    return r - (40961 & -(r >= 40961))


def _reduce_120833(x):
    t = (71089 * x) >> 33
    t = (t << 17) - (t << 14) + (t << 13) - (t << 11) + t
    r = x - t
    return r - (120833 & -(r >= 120833))


def _reduce_133121(x):
    t = ((x << 16) - (x << 10) + (x << 4) - x) >> 33
    t = (t << 17) + (t << 11) + t
    r = x - t
    return r - (133121 & -(r >= 133121))


def _reduce_184321(x):
    t = (46603 * x) >> 33
    t = (t << 17) + (t << 15) + (t << 14) + (t << 12) + t
    r = x - t
    return r - (184321 & -(r >= 184321))


def _reduce_8380417(x):
    t = ((x << 23) + (x << 13) + (x << 3) - x) >> 46
    t = (t << 23) - (t << 13) + t
    r = x - t
    return r - (8380417 & -(r >= 8380417))


def _reduce_8058881(x):
    t = (8731825 * x) >> 46
    t = 8058881 * t
    r = x - t
    return r - (8058881 & -(r >= 8058881))


def _reduce_4205569(x):
    t = (4183069 * x) >> 44
    t = (t << 22) + (t << 13) + (t << 11) + (t << 10) + t
    r = x - t
    return r - (4205569 & -(r >= 4205569))


def _reduce_4206593(x):
    t = ((x << 21) - (x << 13) + (x << 11) + (x << 4) + x) >> 43
    t = (t << 22) + (t << 13) + (t << 12) + t
    r = x - t
    return r - (4206593 & -(r >= 4206593))


def _reduce_8404993(x):
    t = ((x << 22) - (x << 13) + (x << 4) - x) >> 45
    t = (t << 23) + (t << 14) + t
    r = x - t
    return r - (8404993 & -(r >= 8404993))


_SPECIALIZED_CORE = {
    7681: _reduce_7681,
    12289: _reduce_12289,
    40961: _reduce_40961,
    120833: _reduce_120833,
    133121: _reduce_133121,
    184321: _reduce_184321,
    8380417: _reduce_8380417,
    8058881: _reduce_8058881,
    4205569: _reduce_4205569,
    4206593: _reduce_4206593,
    8404993: _reduce_8404993,
}


# Shift range of the Barrett datapath.
MIN_K, MAX_K = 16, 48


def barrett_params(q):
    """Smallest (m, k) with m = floor(2^k / q) valid for all inputs < q*q.

    Validity: the quotient estimate floor(z*m / 2^k) must undershoot
    floor(z/q) by at most 1, which holds when (q^2 - 1)(2^k mod q) < q*2^k.
    The shifter supports MIN_K <= k <= MAX_K.
    """
    for k in range(max(MIN_K, q.bit_length()), MAX_K + 1):
        if (q * q - 1) * ((1 << k) % q) < q * (1 << k):
            return (1 << k) // q, k
    raise ModMathError(f"no valid Barrett (m, k) for q={q} with k <= {MAX_K}")


def _validate_barrett(q, m, k):
    if not MIN_K <= k <= MAX_K:
        raise ModMathError(f"Barrett shift k={k} outside [{MIN_K}, {MAX_K}]")
    if m != (1 << k) // q:
        raise ModMathError(f"m={m} is not floor(2^{k}/{q})")
    if m >= 1 << 24:
        raise ModMathError(f"Barrett multiplier m={m} exceeds 24 bits")
    # One conditional subtraction must always suffice.
    if (q * q - 1) * ((1 << k) % q) >= q * (1 << k):
        raise ModMathError(f"(q={q}, m={m}, k={k}) needs more than one conditional subtract")


class ModulusProfile(Frozen):
    """A modulus plus its reduction strategy and Barrett parameters."""

    _fields = ("q", "strategy", "m", "k")

    def __init__(self, q, strategy, m=None, k=None):
        vars(self).update(q=q, strategy=strategy, m=m, k=k)
        if not 2 <= self.q < (1 << 24):
            raise ModMathError(f"modulus q={self.q} outside [2, 2^24)")
        if self.strategy in (GENERIC_BARRETT, SPECIALIZED_BARRETT):
            if self.m is None or self.k is None:
                raise ModMathError(f"{self.strategy} requires m and k")
            _validate_barrett(self.q, self.m, self.k)
            if self.strategy == SPECIALIZED_BARRETT and self.q not in _SPECIALIZED_CORE:
                raise ModMathError(f"no specialized reduction routine for q={self.q}")
        elif self.strategy == POWER_OF_TWO:
            if self.q & (self.q - 1):
                raise ModMathError(f"q={self.q} is not a power of two")
        elif self.strategy == FERMAT_65537:
            if self.q != 65537:
                raise ModMathError("fermat-65537 strategy requires q = 65537")
        else:
            raise ModMathError(f"unknown reduction strategy {self.strategy!r}")

    @classmethod
    def generic(cls, q):
        m, k = barrett_params(q)
        return cls(q, GENERIC_BARRETT, m, k)

    @classmethod
    def specialized(cls, q):
        if q == 65537:
            return cls(q, FERMAT_65537)
        if q not in SPECIALIZED_PARAMS:
            raise ModMathError(f"no specialized reduction routine for q={q}")
        m, k = SPECIALIZED_PARAMS[q]
        return cls(q, SPECIALIZED_BARRETT, m, k)

    @classmethod
    def power_of_two(cls, q):
        return cls(q, POWER_OF_TWO)

    @classmethod
    def for_modulus(cls, q):
        """Preferred profile for q: mask, dedicated routine, or generic."""
        if q & (q - 1) == 0:
            return cls.power_of_two(q)
        if q == 65537 or q in SPECIALIZED_PARAMS:
            return cls.specialized(q)
        return cls.generic(q)

    @functools.cached_property
    def _reduce(self):
        # reducer(self), kept on the profile: hashing the profile for the
        # lru_cache on every reduce() call would double its cost
        return reducer(self)


def _check_residues(q, *vals):
    for v in vals:
        if not 0 <= v < q:
            raise ModMathError(f"residue {v} out of range [0, {q})")


def mod_add(x, y, p):
    """(x + y) mod q via sum then masked conditional subtract."""
    _check_residues(p.q, x, y)
    s = x + y
    over = -(s >= p.q)          # all-ones when the subtract fires
    return s - (p.q & over)


def mod_sub(x, y, p):
    """(x - y) mod q via difference then masked conditional add."""
    _check_residues(p.q, x, y)
    d = x - y
    under = -(d < 0)
    return d + (p.q & under)


def reduce(z, p):
    """Reduce z in [0, q^2) to [0, q) using the profile's strategy."""
    if not 0 <= z < p.q * p.q:
        raise ModMathError(f"reduction input {z} out of range [0, {p.q * p.q})")
    return p._reduce(z)


def mod_mul(x, y, p):
    """(x * y) mod q: 48-bit product followed by reduce()."""
    _check_residues(p.q, x, y)
    return reduce(x * y, p)


@functools.lru_cache(maxsize=None)
def reducer(p):
    """The one implementation of each reduction strategy: a closure
    reducing z in [0, q^2) to [0, q), without reduce()'s range check.

    It is the hardware model behind reduce() and mod_mul().  The
    whole-polynomial kernels (transform, psi-multiply, poly_op, samplers)
    reduce with Python % instead: on [0, q^2) every strategy returns
    exactly z mod q, as the profile's parameter check and acceptance
    criterion 2 establish.
    """
    q = p.q
    if p.strategy == POWER_OF_TWO:
        mask = q - 1
        return lambda z: z & mask
    if p.strategy == FERMAT_65537:
        def _fermat(z):
            r = (z & 0xFFFF) - ((z >> 16) & 0xFFFF) + (z >> 32)
            return r + (q & -(r < 0))
        return _fermat
    if p.strategy == SPECIALIZED_BARRETT:
        return _SPECIALIZED_CORE[q]
    m, k = p.m, p.k

    def _generic(z):
        r = z - ((z * m) >> k) * q
        return r - (q & -(r >= q))
    return _generic
