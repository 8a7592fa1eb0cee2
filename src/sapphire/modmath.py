"""Modular arithmetic in Z_q for configurable q up to 24 bits.

The datapath mirrors the hardware: residues are 24-bit unsigned values,
intermediate products are at most 48 bits, and the modulus alone decides
how a product is reduced, since the config instruction gives only q:

  * power-of-two -- bitwise AND with q - 1, for q = 2^j
  * fermat-65537 -- x0 - x1 + x2 digit folding, for q = 2^16 + 1
  * barrett      -- Barrett reduction with barrett_params(q), for every
                    other q; for the eleven primes of the paper's
                    appendix these are the appendix's (m, k)

Conditional add/subtract steps are written as mask selections so that no
secret-dependent branch decides the result value.
"""

import functools

from .record import Record

POWER_OF_TWO = "power-of-two"
FERMAT_65537 = "fermat-65537"
BARRETT = "barrett"

# The eleven primes of the paper's appendix, in ascending order.
APPENDIX_PRIMES = (7681, 12289, 40961, 120833, 133121, 184321,
                   4205569, 4206593, 8058881, 8380417, 8404993)


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

    The shifter supports MIN_K <= k <= MAX_K and the multiplier takes an
    m below 2^24; a larger k only makes m larger.
    """
    for k in range(max(MIN_K, q.bit_length()), MAX_K + 1):
        if _one_subtract(q, k):
            m = (1 << k) // q
            if m >= 1 << 24:
                raise ModMathError(f"Barrett multiplier m={m} exceeds 24 bits")
            return m, k
    raise ModMathError(f"no valid Barrett (m, k) for q={q} with k <= {MAX_K}")


class ModulusProfile(Record):
    """A modulus and the reduction method its value selects; m and k are
    the Barrett parameters, None for the other two methods."""

    _fields = ("q", "method", "m", "k")

    def __init__(self, q):
        if not 2 <= q < (1 << 24):
            raise ModMathError(f"modulus q={q} outside [2, 2^24)")
        m = k = None
        if q & (q - 1) == 0:
            method = POWER_OF_TWO
        elif q == 65537:
            method = FERMAT_65537
        else:
            method = BARRETT
            m, k = barrett_params(q)
        vars(self).update(q=q, method=method, m=m, k=k)

    @classmethod
    def for_modulus(cls, q):
        """The profile of q; raises ModMathError if q has none."""
        return cls(q)

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
    """Reduce z in [0, q^2) to [0, q) using the profile's method."""
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
    reduce()'s range check.

    It is the hardware model behind reduce() and mod_mul().  The
    whole-polynomial kernels (transform, psi-multiply, poly_op, samplers)
    reduce with Python % instead: on [0, q^2) every method returns
    exactly z mod q, as barrett_params' validity bound and acceptance
    criterion 2 establish.
    """
    q = p.q
    if p.method == POWER_OF_TWO:
        mask = q - 1
        return lambda z: z & mask
    if p.method == FERMAT_65537:
        def _fermat(z):
            r = (z & 0xFFFF) - ((z >> 16) & 0xFFFF) + (z >> 32)
            return r + (q & -(r < 0))
        return _fermat
    m, k = p.m, p.k

    def _barrett(z):
        r = z - ((z * m) >> k) * q
        return r - (q & -(r >= q))
    return _barrett
