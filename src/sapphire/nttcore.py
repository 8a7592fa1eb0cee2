"""Constant-geometry NTT/INTT over the banked polynomial cache.

Transform dataflow (one butterfly per memory cycle):

  * DIT modes read coefficient pairs (2j, 2j+1) and write (j, j+n/2);
    input must be in bit-reversed order, output comes out in normal order.
  * DIF modes read (j, j+n/2) and write (2j, 2j+1); input is normal order,
    output is bit-reversed.

Pairing DIF for the forward transform with DIT for the inverse therefore
needs no explicit bit-reversal pass.  Stage s of lg n uses the twiddle
exponent

  DIT:  k = (j >> (lg n - s)) << (lg n - s)
  DIF:  k = (j >> (s - 1)) << (s - 1)

with omega^k for forward modes; inverse modes derive omega^-k from the
forward table as q - omega[n/2 - k] (and 1 for k = 0), so no inverse table
is stored.  Stored constants are exactly omega^j for j < n/2, psi^i and
n^-1 * psi^-i for i < n.  Each constants object expands these into one
twiddle vector per stage on first use (``NttConstants.stage_twiddles``).

Every stage and the psi-multiply are whole-slot list comprehensions over
sliced operands, with no function call per coefficient; where they
reduce, they use Python ``%``.  For inputs in [0, q^2) that equals each
hardware reduction strategy of ``modmath.reducer``, which acceptance
criterion 2 sweeps, so the results are those of the hardware datapath.

Stages ping-pong between the src and dst slot regions (the src slot is
consumed as scratch).  The final stage always lands in dst; when lg n is
even this makes the last stage read and write the same bank, which is
modelled as a read pass followed by a write pass in the memory-cycle
ledger.  The instruction cycle cost is accounted separately by the
machine as (n/2 + 1) * lg n.

Only two stages leave words that anyone can read: the last stage, in dst,
and the last stage that writes the src slot, which is stage lg n - 1 for
odd lg n and lg n - 2 for even lg n.  Those two reduce every word to
[0, q).  The others reduce lazily (Longa and Naehrig, CANS 2016): a DIF
stage leaves its sums unreduced, and a DIT stage reduces its twiddle
products and leaves its sums and differences unreduced.  Every word stays
congruent mod q to the fully reduced one, so the observable words are
those of a datapath that reduces in every stage.
"""

import functools
import math
from itertools import chain, repeat
from operator import add, sub

from . import modmath, polycache
from .isa import TRANSFORM_MODES
from .polycache import bit_reverse  # noqa: F401  (the transform's index order)
from .record import Frozen

DIF_NTT, DIF_INTT, DIT_NTT, DIT_INTT = TRANSFORM_MODES


class NttError(ValueError):
    """Configuration or operand error in the transform engine."""


class LatticeConfig(Frozen):
    """Active ring parameters: dimension and modulus."""

    _fields = ("n", "q")

    def __init__(self, n, q):
        vars(self).update(n=n, q=q)
        if self.n & (self.n - 1) or not 8 <= self.n <= 2048:
            raise NttError(f"ring dimension n={self.n} unsupported")

    @property
    def lg_n(self):
        return self.n.bit_length() - 1

    @classmethod
    def make(cls, n, q):
        """Checked parameters; raises ModMathError for a q that has no
        reduction profile, such as one with no Barrett (m, k) pair."""
        modmath.ModulusProfile.for_modulus(q)
        return cls(n, q)


class NttConstants(Frozen):
    _fields = ("n", "q", "psi", "omega_powers", "psi_powers", "psi_inv_scaled")

    def __init__(self, n, q, psi, omega_powers, psi_powers, psi_inv_scaled):
        vars(self).update(n=n, q=q, psi=psi,
                          omega_powers=omega_powers,       # omega^j, j in [0, n/2)
                          psi_powers=psi_powers,           # psi^i, i in [0, n)
                          psi_inv_scaled=psi_inv_scaled)   # n^-1 * psi^-i, i in [0, n)

    @functools.cached_property
    def stage_twiddles(self):
        """Transform mode -> one twiddle vector per stage, entry j the
        factor of butterfly j: table[k] for k = j rounded down to a multiple
        of 2^(s-1) (DIF) or 2^(lg n - s) (DIT) at stage s."""
        half = self.n >> 1
        fwd = self.omega_powers
        inv = (1,) + tuple(self.q - fwd[half - k] for k in range(1, half))

        def by_run_length(table):       # runs of 1, 2, 4, ..., n/2
            return [list(chain.from_iterable(repeat(table[k], size)
                                             for k in range(0, half, size)))
                    for size in (1 << t for t in range(half.bit_length()))]
        f, i = by_run_length(fwd), by_run_length(inv)
        return {DIF_NTT: f, DIT_NTT: f[::-1], DIF_INTT: i, DIT_INTT: i[::-1]}


def find_psi(n, q):
    """Smallest primitive 2n-th root of unity mod a prime q (psi^n = -1).

    For a quadratic non-residue x, psi0 = x^((q-1)/2n) has psi0^n = -1,
    and the primitive 2n-th roots are psi0^j for odd j < 2n.
    """
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise NttError(f"q={q} is not prime; the transform needs a prime modulus")
    if (q - 1) % (2 * n):
        raise NttError(f"no 2n-th primitive root: q={q} is not 1 mod {2 * n}")
    x = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)
    root = pow(x, (q - 1) // (2 * n), q)
    step, best = root * root % q, root
    for _ in range(n - 1):
        root = root * step % q
        best = min(best, root)
    return best


@functools.lru_cache(maxsize=None)
def gen_constants(cfg):
    n, q = cfg.n, cfg.q
    if (q - 1) % (2 * n):
        raise NttError(f"q={q} is not 1 mod 2n={2 * n}; no NTT for n={n}")
    psi = find_psi(n, q)
    omega = psi * psi % q
    if pow(omega, n // 2, q) != q - 1:
        raise NttError("omega^(n/2) != -1; inconsistent root")
    omega_powers = [1] * (n // 2)
    for j in range(1, n // 2):
        omega_powers[j] = omega_powers[j - 1] * omega % q
    psi_powers = [1] * n
    for i in range(1, n):
        psi_powers[i] = psi_powers[i - 1] * psi % q
    psi_inv = pow(psi, q - 2, q)
    n_inv = pow(n, q - 2, q)
    psi_inv_scaled = [n_inv] * n
    for i in range(1, n):
        psi_inv_scaled[i] = psi_inv_scaled[i - 1] * psi_inv % q
    return NttConstants(n, q, psi, tuple(omega_powers),
                        tuple(psi_powers), tuple(psi_inv_scaled))


def _check_slots(cache, cfg, src, dst):
    if cache.n != cfg.n:
        raise NttError("cache configured for a different dimension")
    if cache.slot_bank(src) == cache.slot_bank(dst):
        raise NttError(f"src slot {src} and dst slot {dst} share a bank")


def ntt(cfg, consts, cache, dst, src, mode):
    """Run one constant-geometry transform from slot src into slot dst."""
    if mode not in TRANSFORM_MODES:
        raise NttError(f"unknown transform mode {mode!r}")
    _check_slots(cache, cfg, src, dst)
    half, q, lg_n = cfg.n >> 1, cfg.q, cfg.lg_n
    dif = mode in (DIF_NTT, DIF_INTT)
    operands = cache.access("dif" if dif else "dit", (dst, src))
    regions = [operands[r] for r in polycache.transform_regions(lg_n)]
    # the last stage to write the src slot (region 1), and the last stage
    observable = (lg_n - 1 if lg_n & 1 else lg_n - 2, lg_n)
    # stage s reads regions[s - 1] and writes regions[s]; the inputs are
    # sliced out before any write, so a stage whose region is both read
    # and written (lg n even) needs no extra pass
    stages = zip(regions, regions[1:], consts.stage_twiddles[mode])
    for s, (inp, out, w) in enumerate(stages, 1):
        exact = s in observable
        if dif:
            v0, v1 = inp[:half], inp[half:]
            out[0::2] = ([(a + b) % q for a, b in zip(v0, v1)] if exact
                         else map(add, v0, v1))
            out[1::2] = [(a - b) * c % q for a, b, c in zip(v0, v1, w)]
        elif exact:
            v0, t = inp[0::2], [b * c for b, c in zip(inp[1::2], w)]
            out[:half] = [(a + b) % q for a, b in zip(v0, t)]
            out[half:] = [(a - b) % q for a, b in zip(v0, t)]
        else:
            v0, t = inp[0::2], [b * c % q for b, c in zip(inp[1::2], w)]
            out[:half] = map(add, v0, t)
            out[half:] = map(sub, v0, t)


def _scale_slot(cfg, cache, slot, table):
    """In-place coefficient-wise multiply by table[i].

    Pipelined like the hardware: memory cycle i reads coefficient i and
    writes back result i-1 (adjacent indices always map to different
    SRAMs), for n+1 cycles total.
    """
    if cache.n != cfg.n:
        raise NttError("cache configured for a different dimension")
    values, = cache.access("scale", (slot,))
    q = cfg.q
    values[:] = [v * c % q for v, c in zip(values, table)]


def mult_psi(cfg, consts, cache, slot):
    """Scale slot coefficient-wise by psi^i (negacyclic pre-twist)."""
    _scale_slot(cfg, cache, slot, consts.psi_powers)


def mult_psi_inv(cfg, consts, cache, slot):
    """Scale slot coefficient-wise by n^-1 * psi^-i (post-twist + 1/n)."""
    _scale_slot(cfg, cache, slot, consts.psi_inv_scaled)


def export_constants(consts, path):
    """Write q, n and the three tables as a plain text file."""
    with open(path, "w") as fh:
        fh.write(f"{consts.q}\n{consts.n}\n")
        fh.write(" ".join(map(str, consts.omega_powers)) + "\n")
        fh.write(" ".join(map(str, consts.psi_powers)) + "\n")
        fh.write(" ".join(map(str, consts.psi_inv_scaled)) + "\n")


def import_constants(path):
    """Load a constants file and re-validate the root-of-unity invariants."""
    with open(path) as fh:
        q = int(fh.readline())
        n = int(fh.readline())
        omega_powers = tuple(int(v) for v in fh.readline().split())
        psi_powers = tuple(int(v) for v in fh.readline().split())
        psi_inv_scaled = tuple(int(v) for v in fh.readline().split())
    if len(omega_powers) != n // 2 or len(psi_powers) != n or len(psi_inv_scaled) != n:
        raise NttError("constants file has wrong table lengths")
    psi = psi_powers[1] if n > 1 else 1
    if pow(psi, n, q) != q - 1:
        raise NttError("psi^n != -1 in constants file")
    omega = psi * psi % q
    if n >= 4 and omega_powers[1] != omega:
        raise NttError("omega != psi^2 in constants file")
    for j in range(1, n // 2):
        if omega_powers[j] != omega_powers[j - 1] * omega % q:
            raise NttError(f"omega_powers[{j}] breaks the power chain")
    for i in range(n):
        if i and psi_powers[i] != psi_powers[i - 1] * psi % q:
            raise NttError(f"psi_powers[{i}] breaks the power chain")
        if psi_inv_scaled[i] * psi_powers[i] * n % q != 1:
            raise NttError(f"psi_inv_scaled[{i}] fails n * psi^i * entry = 1")
    return NttConstants(n, q, psi, omega_powers, psi_powers, psi_inv_scaled)
