"""Two-bank polynomial cache built from single-port SRAM models.

Each bank is four 1024 x 24-bit single-port SRAMs; together the banks hold
8192 coefficients.  ``address`` is the address map: a coefficient index
i inside a slot lives at

    sram = 2 * MSB(i) + LSB(i)        row = middle bits of i

so that both butterfly pair shapes, (2j, 2j+1) and (j, j+n/2), always land
in two different SRAMs.

Slot-to-bank assignment: slots [0, slots_per_bank(n)) live in the left
bank, the rest in the right bank.

Data and access schedule are kept apart.  The data of each slot is one
flat list of n coefficients, which the ops read and write in bulk.  The
memory cycles of an op are stated once, by ``phases(kind, n)``, as a few
phases: runs of cycles with one access shape, each access given as an
operand, a column of coefficient indices and READ or WRITE.  A transform
of lg n stages has at most four distinct phases, as its stages share
three (read region, write region) pairs and the in-place last stage is
two passes.  ``schedule(kind, n)`` expands the phases cycle by cycle.

``PolynomialCache.access`` is the one way an op reaches slot data.  It
range-checks the operands, has each schedule shape (kind, n, bank of
each operand) hazard-audited once per process, on first use, traced or
not, advances ``mem_cycle`` by the op's cycle count and returns the
operand slots' coefficient lists.  The audit checks each distinct phase
once, comparing whole sram columns of its same-bank accesses, and names
the first cycle in which two accesses hit one SRAM.  While
``trace_enabled`` is on, ``access`` adds one ledger segment per op;
``segment_accesses`` expands a segment's shape into its accesses, once
per shape.

Slot words: every slot word is an ``int`` in [0, 2^24).  ``load_slot``,
the one door for host words, rejects any other word with CacheError.
A program's slot operands are ``int``s, so only the host calls
``load_slot`` and ``dump_slot`` check a slot's type.
"""

import functools
import operator
from itertools import chain, combinations, compress, count, repeat

SRAM_ROWS = 1024
SRAMS_PER_BANK = 4
TOTAL_WORDS = 2 * SRAMS_PER_BANK * SRAM_ROWS   # 8192
MAX_SLOTS = 128

READ = 0
WRITE = 1


class HazardFault(RuntimeError):
    """Two same-cycle accesses hit the same single-port SRAM."""


class CacheError(ValueError):
    """Slot/index out of range or unsupported configuration."""


def bit_reverse(i, bits):
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


@functools.lru_cache(maxsize=None)
def bit_reversal(n):
    """The bit-reversal permutation of range(n), for n a power of two."""
    lg_n = n.bit_length() - 1
    return tuple(bit_reverse(i, lg_n) for i in range(n))


def transform_regions(lg_n):
    """Operand (0 = dst, 1 = src) holding the data between transform stages.

    Stage s reads region s - 1 and writes region s.  Intermediate hops
    ping-pong, using the src slot as scratch; the final stage always lands
    in dst.  When lg n is even the final stage reads and writes dst.
    """
    return [1] + [0 if t & 1 else 1 for t in range(1, lg_n)] + [0]


def _transform_phases(n, dif):
    """One butterfly per cycle: DIF reads (j, j+n/2) and writes (2j, 2j+1),
    DIT the reverse.  A stage that reads and writes the same slot is a
    read pass followed by a write pass.  Stages with the same (read
    region, write region) share one phase object."""
    half = n >> 1
    ins, outs = (range(half), range(half, n)), (range(0, n, 2), range(1, n, 2))
    if not dif:
        ins, outs = outs, ins
    reads = [tuple((k, c, READ) for c in ins) for k in (0, 1)]
    writes = [tuple((k, c, WRITE) for c in outs) for k in (0, 1)]
    regions = transform_regions(n.bit_length() - 1)
    fused, out = {}, []
    for r, w in zip(regions, regions[1:]):
        if r == w:
            out += [(True, reads[r]), (True, writes[w])]
        else:
            out.append(fused.setdefault((r, w), (True, reads[r] + writes[w])))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def phases(kind, n):
    """The access schedule of one op, as phases in order.

    A phase is a run of cycles with one access shape, ``(together,
    accesses)``.  Each access is (operand, index column, READ or WRITE),
    and all index columns of a phase have the same length.  Step t of a
    phase touches coefficient column[t] of every access: in one cycle if
    ``together``, else in one cycle per access, in turn.  Operand k is the
    op's k-th slot; two-slot ops name (dst, src), or (a, b) for
    "compare".  A phase that recurs is the same object each time.  A
    single access ("get" or "set") has the column (0,), counted from the
    op's coefficient index.
    """
    every = range(n)
    if kind in ("get", "set"):      # poly_get, poly_set
        return ((True, ((0, range(1), READ if kind == "get" else WRITE),)),)
    if kind == "read":              # elems, inf_norm_check, sha3 absorb
        return ((True, ((0, every, READ),)),)
    if kind == "write":             # init, sampler results
        return ((True, ((0, every, WRITE),)),)
    if kind == "map":               # poly_copy, poly_op CONST_*
        return ((False, ((1, every, READ), (0, every, WRITE))),)
    if kind == "zip":               # poly_op ADD, SUB, MUL
        return ((False, ((1, every, READ), (0, every, READ), (0, every, WRITE))),)
    if kind == "compare":           # eq_check
        return ((False, ((0, every, READ), (1, every, READ))),)
    if kind in ("gather", "bitrev"):    # shift_poly, poly_op BITREV
        order = bit_reversal(n) if kind == "bitrev" else every
        return ((True, ((1, order, READ),)), (True, ((0, every, WRITE),)))
    if kind == "scale":             # mult_psi: read i, write back i - 1
        return ((True, ((0, range(1), READ),)),
                (True, ((0, range(1, n), READ), (0, range(n - 1), WRITE))),
                (True, ((0, range(n - 1, n), WRITE),)))
    if kind in ("dif", "dit"):
        return _transform_phases(n, kind == "dif")
    raise CacheError(f"unknown access schedule {kind!r}")


def schedule(kind, n):
    """Memory cycles of one op, in order: each cycle is a tuple of
    accesses (operand, coefficient index, READ or WRITE)."""
    for together, accesses in phases(kind, n):
        steps = zip(*[zip(repeat(k), column, repeat(rw)) for k, column, rw in accesses])
        yield from steps if together else zip(chain.from_iterable(steps))


def slot_count(n):
    """Addressable slots at dimension n.  They are capped by the 7-bit slot
    operand; for n >= 64 this equals the full 8192/n capacity."""
    return min(TOTAL_WORDS // n, MAX_SLOTS)


def slots_per_bank(n):
    """Slots in the left bank at dimension n; the first right-bank slot."""
    return slot_count(n) // 2


def address(n, slot, i):
    """The address map: (bank, sram, row) of coefficient i of a slot at
    dimension n.  Callers check the ranges of slot and i."""
    left = slots_per_bank(n)
    bank = 0 if slot < left else 1
    sram = 2 * (i >> (n.bit_length() - 2)) + (i & 1)
    row = (slot - bank * left) * (n >> 2) + ((i >> 1) & ((n >> 2) - 1))
    return bank, sram, row


@functools.lru_cache(maxsize=None)
def _slot_addresses(n, slot):
    """Address of every coefficient of one slot: the table that the audit,
    the repartition and the ledger read."""
    return tuple(address(n, slot, i) for i in range(n))


def _slot_words(n, slot):
    """Physical word of every coefficient of one slot, indexed
    (bank * 4 + sram) * 1024 + row."""
    return [(bank * SRAMS_PER_BANK + sram) * SRAM_ROWS + row
            for bank, sram, row in _slot_addresses(n, slot)]


def audit(run, n, banks):
    """Check a schedule given as phases: within a cycle each (bank, sram)
    may be touched at most once.  ``banks`` gives the bank of each
    operand.  Each phase object is checked once, however often it recurs,
    by comparing the sram columns of its same-bank accesses pair by pair;
    a phase of one access per cycle cannot conflict.  Returns the number
    of cycles."""
    where = _slot_addresses(n, 0)
    checked, start = set(), 0
    for phase in run:
        together, accesses = phase
        if together and len(accesses) > 1 and id(phase) not in checked:
            checked.add(id(phase))
            columns = [(banks[k], [where[c][1] for c in column])
                       for k, column, _rw in accesses]
            clashes = [t for (bank_a, a), (bank_b, b) in combinations(columns, 2)
                       if bank_a == bank_b
                       for t in compress(count(), map(operator.eq, a, b))]
            if clashes:
                raise HazardFault(f"schedule cycle {start + min(clashes)}: "
                                  "two accesses to one single-port SRAM")
        steps = len(accesses[0][1])
        start += steps if together else steps * len(accesses)
    return start


@functools.lru_cache(maxsize=None)
def schedule_cycles(kind, n, banks):
    """Cycle count of one schedule shape, hazard-audited on first use."""
    return audit(phases(kind, n), n, banks)


@functools.lru_cache(maxsize=128)
def segment_accesses(kind, n, slots, i):
    """The accesses of one ledger segment, relative to its start cycle:
    (cycle offset, bank, sram, row, READ|WRITE), in schedule order.
    Index columns count from coefficient i, which is 0 but for a single
    access."""
    where = [_slot_addresses(n, s) for s in slots]
    return tuple((t, *where[k][i + c], rw) for t, cycle in enumerate(schedule(kind, n))
                 for k, c, rw in cycle)


class PolynomialCache:
    def __init__(self):
        self.n = None
        self.slots = 0
        self.slots_per_bank = 0
        self.data = []              # one flat list of n coefficients per slot
        # physical words, indexed as by _slot_words; they carry the
        # contents across a repartition by configure()
        self.image = [0] * TOTAL_WORDS
        self.trace_enabled = False
        self.ledger = []            # (start cycle, kind, n, slots, i) per op
        self.mem_cycle = 0

    def configure(self, n):
        """Set the active polynomial dimension; repartitions the slots."""
        if n & (n - 1) or not 8 <= n <= 2048:
            raise CacheError(f"unsupported polynomial dimension n={n}")
        if n == self.n:
            return self
        spill = self.n is not None  # before the first configure every word is 0
        if spill:
            for slot, values in enumerate(self.data):
                for w, v in zip(_slot_words(self.n, slot), values):
                    self.image[w] = v
        self.n = n
        self.slots = slot_count(n)
        self.slots_per_bank = slots_per_bank(n)
        self.data = ([[self.image[w] for w in _slot_words(n, slot)]
                      for slot in range(self.slots)]
                     if spill else [[0] * n for _ in range(self.slots)])
        return self

    def clear_ledger(self):
        self.ledger = []
        self.mem_cycle = 0

    def slot_bank(self, slot):
        if self.n is None:
            raise CacheError("cache not configured")
        if not 0 <= slot < self.slots:
            raise CacheError(f"slot {slot} out of range [0, {self.slots})")
        return 0 if slot < self.slots_per_bank else 1

    # The one memory-access path: audited once per shape, a ledger segment
    # per op only when tracing.

    def access(self, kind, slots, i=0):
        """Account the memory cycles of one op on the given operand slots
        and return their coefficient lists; a single access ("get",
        "set") touches coefficient i."""
        banks = tuple(map(self.slot_bank, slots))
        if not 0 <= i < self.n:
            raise CacheError(f"coefficient index {i} out of range [0, {self.n})")
        cycles = schedule_cycles(kind, self.n, banks)
        if self.trace_enabled:
            self.ledger.append((self.mem_cycle, kind, self.n, slots, i))
        self.mem_cycle += cycles
        return [self.data[s] for s in slots]

    def slot_read(self, slot, i):
        return self.access("get", (slot,), i)[0][i]

    def slot_write(self, slot, i, value):
        if not 0 <= value < (1 << 24):
            raise CacheError(f"value {value} does not fit a 24-bit word")
        self.access("set", (slot,), i)[0][i] = value

    def slot_clear(self, slot):
        data, = self.access("write", (slot,))
        data[:] = [0] * self.n

    # Host-side (memory-mapped) data movement: no cycles, no ledger.

    def _host_slot(self, slot):
        if type(slot) is not int:
            raise CacheError(f"slot {slot!r} is a {type(slot).__name__}, not an int")
        self.slot_bank(slot)

    def load_slot(self, slot, values):
        """Load a slot's n words from the host; returns the largest."""
        self._host_slot(slot)
        if not hasattr(values, "__len__"):
            raise CacheError(f"words come as a sequence, not a {type(values).__name__}")
        if len(values) != self.n:
            raise CacheError(f"expected {self.n} coefficients, got {len(values)}")
        if set(map(type, values)) != {int}:
            bad = next(v for v in values if type(v) is not int)
            raise CacheError(f"word {bad!r} is a {type(bad).__name__}, not an int")
        high = max(values)
        for value in (min(values), high):
            if not 0 <= value < (1 << 24):
                raise CacheError(f"value {value} does not fit a 24-bit word")
        self.data[slot][:] = values
        return high

    def dump_slot(self, slot):
        self._host_slot(slot)
        return list(self.data[slot])

    def trace_lines(self):
        """Render the ledger, one access per line: cycle bank sram row R|W."""
        return [f"{start + t} {b} {s} {r} {'RW'[rw]}" for start, *shape in self.ledger
                for t, b, s, r, rw in segment_accesses(*shape)]
