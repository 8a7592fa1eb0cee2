"""Modular arithmetic in Z_q for configurable q up to 24 bits.

The datapath mirrors the hardware: residues are 24-bit unsigned values,
intermediate products are at most 48 bits, and reduction is performed by
one of four strategies:

  * generic-barrett     -- Barrett reduction with runtime (m, k) parameters
  * specialized-barrett -- the same Barrett reduction, for the eleven
                           supported primes only, with the paper's
                           appendix (m, k), which equal barrett_params(q)
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


# Shift range of the Barrett datapath.
MIN_K, MAX_K = 16, 48


def _one_subtract(q, k):
    """Whether one conditional subtract suffices for m = floor(2^k / q):
    the quotient estimate floor(z*m / 2^k) undershoots floor(z/q) by at
    most 1 for all z < q*q when (q^2 - 1)(2^k mod q) < q*2^k."""
    return (q * q - 1) * ((1 << k) % q) < q * (1 << k)


def barrett_params(q):
    """Smallest (m, k) with m = floor(2^k / q) valid for all inputs < q*q.

    The shifter supports MIN_K <= k <= MAX_K.
    """
    for k in range(max(MIN_K, q.bit_length()), MAX_K + 1):
        if _one_subtract(q, k):
            return (1 << k) // q, k
    raise ModMathError(f"no valid Barrett (m, k) for q={q} with k <= {MAX_K}")


# The eleven primes of the specialized Barrett profile, q -> (m, k).  The
# paper's appendix lists the same pairs that barrett_params derives.
SPECIALIZED_PARAMS = {q: barrett_params(q) for q in (
    7681, 12289, 40961, 120833, 133121, 184321,
    8380417, 8058881, 4205569, 4206593, 8404993)}


def _validate_barrett(q, m, k):
    if not MIN_K <= k <= MAX_K:
        raise ModMathError(f"Barrett shift k={k} outside [{MIN_K}, {MAX_K}]")
    if m != (1 << k) // q:
        raise ModMathError(f"m={m} is not floor(2^{k}/{q})")
    if m >= 1 << 24:
        raise ModMathError(f"Barrett multiplier m={m} exceeds 24 bits")
    if not _one_subtract(q, k):
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
            if self.strategy == SPECIALIZED_BARRETT and self.q not in SPECIALIZED_PARAMS:
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
        """Preferred profile for q: mask, specialized, or generic."""
        if q & (q - 1) == 0:
            return cls.power_of_two(q)
        if q == 65537 or q in SPECIALIZED_PARAMS:
            return cls.specialized(q)
        return cls.generic(q)

    @functools.cached_property
    def _reduce(self):
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


def reducer(p):
    """The one implementation of each reduction method (mask, Fermat fold,
    Barrett): a closure reducing z in [0, q^2) to [0, q), without
    reduce()'s range check.  Both Barrett strategies reduce with the
    profile's own (m, k).

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
    m, k = p.m, p.k     # both Barrett strategies

    def _barrett(z):
        r = z - ((z * m) >> k) * q
        return r - (q & -(r >= q))
    return _barrett
