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
is stored.  ``NttConstants(n, q, psi)`` derives the stored tables from
psi alone: omega^j (omega = psi^2) for j < n/2, psi^i and n^-1 * psi^-i
for i < n.  Each constants object expands these, per mode on first use,
into the twiddle tuples of the transform's blocks
(``NttConstants.dif_ntt_twiddles`` and its three siblings).  A factor
whose exponent is 0 in every block of a pass is 1 for every q; such unit
factors are left out of the tuples and named by position instead.

Passes.  The host runs the lg n stages as passes of up to PASS_STAGES
consecutive stages.  k constant-geometry stages fall apart into n/2^k
independent blocks of 2^k words: DIF block b reads words b, b + n/2^k,
b + 2n/2^k, ... (one word of each contiguous column) and writes the 2^k
words from b * 2^k on; DIT block b reads the 2^k words from b * 2^k on
and writes words b, b + n/2^k, ....  So a pass takes each block in turn
through all its stages in local variables, and builds no list between
its stages.  Each pass writes its region directly: a DIF pass's blocks,
in order, are the region, and output word c of every DIT block makes
one contiguous slice of it.  At n = 1024, 4 of the 15 factors of a DIT
first pass and 2 of the 3 of a DIF last pass are units.

The pass plan (``pass_plan``) ends a pass at each stage whose words
anyone can read.  Only two stages leave such words: the last stage, in
dst, and the last stage that writes the src slot, which is stage lg n - 1
for odd lg n and lg n - 2 for even lg n.  The passes ending there reduce
every word to [0, q), so dst and the scratch src hold what a datapath that
writes every stage to the slots would leave; what the other stages would
write is overwritten before any op can read it.  Inside a pass, and in
the other passes, stages reduce lazily (Longa and Naehrig, CANS 2016): a
DIF stage leaves its sums unreduced, and a DIT stage reduces its twiddle
products and leaves its sums and differences unreduced.  Every word stays
congruent mod q to the fully reduced one.  Reduction uses Python ``%``.
For inputs in [0, q^2) that equals each hardware reduction method of
``modmath.reducer``, which acceptance criterion 2 sweeps, so the results
are those of the hardware datapath.

Generated code.  A block's butterflies are straight-line code, as in
FFTW's codelets (Frigo and Johnson, Proc. IEEE 2005): a loop over the
butterflies, or a list per stage, would bring back the per-word work the
passes save.  ``_kernel`` writes that code once per (stages, direction,
exact, units) on first use and compiles it with ``exec``; q and the
twiddles are arguments, and the unit positions depend only on n and the
pass, so no code is made per q or per call.  A unit butterfly has no
multiply, and in a lazy stage no reduction either; removing trivial
twiddles when the code is written is what FFTW's codelet generator does
(Frigo, PLDI 1999).  The psi-multiply is a whole-slot list comprehension.

The stages ping-pong between the src and dst slot regions (the src slot
is consumed as scratch), and each pass writes the region its last stage
writes (``polycache.transform_regions``).  The final stage always lands in
dst; when lg n is even this makes the last stage read and write the same
bank, which is modelled as a read pass followed by a write pass in the
memory-cycle ledger.  The ledger is accounted stage by stage, as the
hardware runs, whatever the host's passes.  The instruction cycle cost is
accounted separately by the machine as (n/2 + 1) * lg n.
"""

import functools
import math

from . import modmath, polycache
from .isa import TRANSFORM_MODES
from .polycache import bit_reverse  # noqa: F401  (the transform's index order)
from .record import Record

DIF_NTT, DIF_INTT, DIT_NTT, DIT_INTT = TRANSFORM_MODES

# A pass runs up to this many stages on each block of 2^PASS_STAGES words.
PASS_STAGES = 4


class NttError(ValueError):
    """Configuration or operand error in the transform engine."""


class LatticeConfig(Record):
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


def _powers(base, first, count, q):
    """first * base^i mod q for i in [0, count)."""
    out = [first] * count
    for i in range(1, count):
        out[i] = out[i - 1] * base % q
    return tuple(out)


class NttConstants(Record):
    """The tables of one primitive 2n-th root psi mod a prime q:
    ``omega_powers`` (omega^j, omega = psi^2, j < n/2), ``psi_powers``
    (psi^i, i < n) and ``psi_inv_scaled`` (n^-1 * psi^-i, i < n).  Equal
    and hashed by (n, q, psi), from which the tables follow."""

    _fields = ("n", "q", "psi")

    def __init__(self, n, q, psi):
        vars(self).update(n=n, q=q, psi=psi,
                          omega_powers=_powers(psi * psi % q, 1, n // 2, q),
                          psi_powers=_powers(psi, 1, n, q),
                          psi_inv_scaled=_powers(pow(psi, q - 2, q), pow(n, q - 2, q), n, q))

    def _block_twiddles(self, mode):
        """One ``(units, twiddles)`` pair per pass of ``pass_plan``.  At
        stage r of a k-stage pass the butterflies of a block share
        2^(k-1-r) factors (DIF) or 2^r (DIT), and each factor's column over
        the blocks is a strided slice of the stage's exponent vector:
        [start::2^r] (DIF) or [start::2^(k-r-1)] (DIT).  ``units`` holds the
        positions, stage by stage, of the factors whose exponent is 0 in
        every block, so that they are 1 for every q; ``twiddles`` holds
        one tuple per block of the other factors."""
        n, lg_n = self.n, self.n.bit_length() - 1
        half = n >> 1
        table = self.omega_powers
        if mode in (DIF_INTT, DIT_INTT):
            table = (1,) + tuple(self.q - table[half - k] for k in range(1, half))
        dif = mode in (DIF_NTT, DIF_INTT)
        out, s = [], 0
        for stages, _ in pass_plan(lg_n):
            rows, exponents = n >> stages, []
            for r in range(stages):
                s += 1
                e = s - 1 if dif else lg_n - s
                k = [j >> e << e for j in range(half)]
                if dif:
                    exponents += [k[g * rows << r::1 << r][:rows]
                                  for g in range(1 << stages - 1 - r)]
                else:
                    exponents += [k[g << lg_n - 1 - r::1 << stages - 1 - r][:rows]
                                  for g in range(1 << r)]
            # exponents never fall down a column, so its last is its largest
            units = tuple(i for i, column in enumerate(exponents) if not column[-1])
            columns = [[table[x] for x in column] for column in exponents if column[-1]]
            # a pass whose factors are all units still has a tuple per block
            out.append((units, list(zip(*columns)) or [()] * rows))
        return out

    dif_ntt_twiddles = functools.cached_property(lambda self: self._block_twiddles(DIF_NTT))
    dif_intt_twiddles = functools.cached_property(lambda self: self._block_twiddles(DIF_INTT))
    dit_ntt_twiddles = functools.cached_property(lambda self: self._block_twiddles(DIT_NTT))
    dit_intt_twiddles = functools.cached_property(lambda self: self._block_twiddles(DIT_INTT))


def find_psi(n, q):
    """Smallest primitive 2n-th root of unity mod a prime q (psi^n = -1).

    For a quadratic non-residue x, psi0 = x^((q-1)/2n) has psi0^n = -1,
    and the primitive 2n-th roots are psi0^j for odd j < 2n.
    """
    if (q - 1) % (2 * n):
        raise NttError(f"q={q} is not 1 mod 2n={2 * n}; no NTT for n={n}")
    if q < 2 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
        raise NttError(f"q={q} is not prime; the transform needs a prime modulus")
    x = next(c for c in range(2, q) if pow(c, (q - 1) // 2, q) == q - 1)
    root = pow(x, (q - 1) // (2 * n), q)
    step, best = root * root % q, root
    for _ in range(n - 1):
        root = root * step % q
        best = min(best, root)
    return best


def gen_constants(cfg):
    """The constants of cfg's smallest primitive 2n-th root, made once."""
    return _constants(cfg.n, cfg.q)


# keyed by the ints: a LatticeConfig key hashes and compares in Python, about
# 3 us per transform op, 1% of an n = 1024 round trip (2-core x86-64, CPython 3.11)
@functools.cache
def _constants(n, q):
    return NttConstants(n, q, find_psi(n, q))


def _check_slots(cache, cfg, src, dst):
    if cache.n != cfg.n:
        raise NttError("cache configured for a different dimension")
    if cache.slot_bank(src) == cache.slot_bank(dst):
        raise NttError(f"src slot {src} and dst slot {dst} share a bank")


@functools.cache
def pass_plan(lg_n):
    """The passes of a transform, as (stages, exact): runs of at most
    PASS_STAGES stages, split so that a pass ends at each observable
    stage.  Only those passes (exact) reduce every word they write."""
    last_src = max(s for s, r in enumerate(polycache.transform_regions(lg_n)) if r == 1)
    plan, done = [], 0
    for end in (last_src, lg_n):
        while done < end:
            stages = min(PASS_STAGES, end - done)
            done += stages
            plan.append((stages, done == end))
    return tuple(plan)


@functools.cache
def _kernel(stages, dif, exact, units):
    """The code of one pass, generated once per shape: ``run(q,
    twiddles, columns)`` reads block b as word b of each column, runs
    ``stages`` constant-geometry stages of 2^stages words on it in local
    variables, and returns the blocks' output words: one flat list in
    block order (DIF), or one tuple per block (DIT).

    Stage r of the pass is a constant-geometry stage of the block, and
    its factors come after those of stages 0 .. r-1.  The factors at the
    positions in ``units`` are 1: their butterflies multiply by nothing,
    and the block's twiddle tuple holds only the other factors.  Stages
    reduce lazily; if ``exact``, the last reduces every word.
    """
    size, half = 1 << stages, 1 << stages - 1
    inputs = words = [f"x{i}" for i in range(size)]
    lines, factors = [], 0
    for r in range(stages):
        reduce_all = exact and r == stages - 1
        out = [f"v{r}_{i}" for i in range(size)]
        for j in range(half):
            if dif:     # reads (j, j + half), writes (2j, 2j + 1)
                a, b, f = words[j], words[j + half], factors + (j >> r)
                targets = out[2 * j], out[2 * j + 1]
            else:       # reads (2j, 2j + 1), writes (j, j + half)
                a, b, f = words[2 * j], words[2 * j + 1], factors + (j >> stages - 1 - r)
                targets = out[j], out[j + half]
            # DIT multiplies b before the sum and difference, DIF the
            # difference after; a unit factor multiplies nothing
            if f not in units and not dif:
                lines.append(f"t = {b} * w{f}" if reduce_all else f"t = {b} * w{f} % q")
                b = "t"
            total, diff = f"{a} + {b}", f"{a} - {b}"
            if reduce_all:
                total, diff = f"({total}) % q", f"({diff}) % q"
            if f not in units and dif:
                diff = f"({a} - {b}) * w{f} % q"
            lines += [f"{targets[0]} = {total}", f"{targets[1]} = {diff}"]
        factors += half >> r if dif else 1 << r
        words = out
    twiddle_names = "".join(f"w{i}, " for i in range(factors) if i not in units)
    outputs = f"({', '.join(words)},)"
    store = f"blocks += {outputs}" if dif else f"blocks.append({outputs})"
    source = "\n".join([
        "def run(q, twiddles, columns):",
        "    blocks = []",
        f"    for ({twiddle_names}), {', '.join(inputs)} in zip(twiddles, *columns):",
        *(f"        {line}" for line in lines),
        f"        {store}",
        "    return blocks"])
    namespace = {}
    exec(source, namespace)
    return namespace["run"]


def ntt(cfg, consts, cache, dst, src, mode):
    """Run one constant-geometry transform from slot src into slot dst;
    mode is one of ``TRANSFORM_MODES``."""
    _check_slots(cache, cfg, src, dst)
    n, q, lg_n = cfg.n, cfg.q, cfg.lg_n
    dif = mode in (DIF_NTT, DIF_INTT)
    operands = cache.access("dif" if dif else "dit", (dst, src))
    regions = polycache.transform_regions(lg_n)
    data, last = operands[1], 0
    passes = zip(pass_plan(lg_n), getattr(consts, f"{mode.lower()}_twiddles"))
    for (stages, exact), (units, twiddles) in passes:
        size, rows = 1 << stages, n >> stages
        # block b is words b, b + rows, ... (DIF) or b * size, b * size + 1,
        # ... (DIT); the columns are copies, so a pass may write the
        # region it reads
        columns = ([data[c * rows:(c + 1) * rows] for c in range(size)] if dif
                   else [data[c::size] for c in range(size)])
        blocks = _kernel(stages, dif, exact, units)(q, twiddles, columns)
        last += stages
        data = operands[regions[last]]
        if dif:
            data[:] = blocks
        else:       # word c of block b goes to c * rows + b
            for c, column in enumerate(zip(*blocks)):
                data[c * rows:(c + 1) * rows] = column


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
        for table in (consts.omega_powers, consts.psi_powers, consts.psi_inv_scaled):
            fh.write(" ".join(map(str, table)) + "\n")


def import_constants(path):
    """Load a constants file; its tables must be those its psi gives."""
    with open(path) as fh:
        q = int(fh.readline())
        n = int(fh.readline())
        tables = tuple(tuple(int(v) for v in fh.readline().split()) for _ in range(3))
    if tuple(map(len, tables)) != (n // 2, n, n):
        raise NttError("constants file has wrong table lengths")
    psi = tables[1][1] if n > 1 else 1
    if pow(psi, n, q) != q - 1:
        raise NttError("psi^n != -1 in constants file")
    consts = NttConstants(n, q, psi)
    if (consts.omega_powers, consts.psi_powers, consts.psi_inv_scaled) != tables:
        raise NttError(f"constants file's tables are not those of psi={psi}")
    return consts
