"""A flat-list reference interpreter of the whole ISA, run in lockstep
with ``Machine.step``, and the machine's failure properties.

``Reference`` keeps one plain list per slot and reduces with Python %,
with no banks, schedules or Barrett reduction.  It has its own statement
of every op, branches, counters, the ``tmp`` ALU and clock gating
included.  Its cycles come from README's "Cycle model" table, a second
cycle model beside ``Machine._OPS``, and its memory cycles and config's
repartition of the slots from README's memory model.  The samplers draw
from a SHAKE stream on ``hashlib``; their algorithms are the sampler
module's, which test_sampler and the frozen kernel digests check.

``_lockstep`` steps both together.  After every instruction the slots,
registers, flag, seed registers, the open SHA3 sponge, pc, cycles,
``per_unit``, ``per_insn`` and ``mem_cycle`` must agree, and an
instruction faults exactly when the reference says it must.  A faulting
instruction, strict-gating faults included, checks everything before its
first effect, so after a fault both states must equal the state before
it, and ``Machine.residues`` too.  After the host's loads, and after
every instruction on the slots it names (on all slots after a config
that changes n or q), each slot word must be an int in [0, 2^24) and
each slot tagged as residues must hold only words below q.  The src slot
of a transform is its scratch, whose contents the reference takes over
from the machine; the frozen kernel digests cover them.  The same program run by ``Machine.run`` on a fresh machine must
stop in the same place with the same fault or none.

``test_programs_with_non_residues_match_reference`` feeds the residue
checks: straight-line programs over slots the host loaded with residues
or with arbitrary 24-bit words, which make more non-residues with
``poly_op CONST_OR`` / ``CONST_XOR`` / ``CONST_LSHIFT``.
``test_whole_isa_programs_match_reference`` runs the whole-ISA generator
``_random_words``, whose programs include branches and loops, under strict
gating or not, some of them after host data loads.

``test_decodable_programs_return_or_fault`` checks that ``Machine.run``
returns or raises ``MachineFault``, and nothing else, on programs decoded
from words of every ``isa.FORMS`` form, and
``test_junk_programs_are_refused_or_return_or_fault`` that ``isa.Program``
refuses anything else, or else normalizes it into such a program.

``test_residue_tags_match_full_scans`` runs programs on a ``Machine`` and
on ``conftest.ScanningMachine``, which scans every operand of every
residue check: the residue tags must change no fault, slot or cycle.
"""

import copy
import functools
import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ScanningMachine, bitrev, fixed_cycles, iterative_ntt, \
    readme_cycle_table
from sapphire import isa, sampler
from sapphire.machine import Machine, MachineFault
from test_bulk_ops import reference as poly_op_reference

WORD = (1 << 24) - 1
# (n, q): Barrett off and on the paper's appendix, Fermat, and a power
# of two with no NTT at all
CONFIGS = [(8, 257), (16, 7681), (64, 12289), (16, 65537), (32, 8380417),
           (16, 1 << 13)]
MAKERS = ("CONST_OR", "CONST_XOR", "CONST_LSHIFT")


@functools.cache
def _psi(n, q):
    """Smallest c with c^n = -1 mod q, or None; the same brute-force scan,
    once per (n, q)."""
    if (q - 1) % (2 * n):
        return None
    return next(c for c in range(2, q) if pow(c, n, q) == q - 1)


class Fault(Exception):
    """The reference says the instruction faults."""


# config's q values that have no Barrett (m, k) pair
NO_BARRETT = (16328465,)
SHA3_RATE = {256: 136, 512: 72}             # bytes
SHAKE_RATE = {"SHAKE-128": 168, "SHAKE-256": 136}
ALU = {"ADD": lambda x, y: x + y, "SUB": lambda x, y: x - y,
       "MUL": lambda x, y: x * y, "AND": lambda x, y: x & y,
       "OR": lambda x, y: x | y, "XOR": lambda x, y: x ^ y,
       "RSHIFT": lambda x, y: x >> y % 32, "LSHIFT": lambda x, y: x << y % 32}
# sampler op -> (sampler function, its keyword arguments but n and prng)
SAMPLERS = {
    "rej_sample": ("rej_sample", lambda r, a: {
        "plan": sampler.RejectionPlan.for_modulus(r.q)}),
    "bin_sample": ("bin_sample", lambda r, a: {"k": a["k"], "q": r.q}),
    "cdt_sample": ("cdt_sample", lambda r, a: {"q": r.q, "table": sampler.CdtTable(
        tuple(r.cdt[:a["s"]]), a["s"], a["r"])}),
    "uni_sample": ("uni_sample", lambda r, a: {
        "eta": a["eta"], "bitlen": a["bitlen"], "q": r.q}),
    "tri_sample_1": ("tri_sample_fixed", lambda r, a: {"m": a["m"], "q": r.q}),
    "tri_sample_2": ("tri_sample_split", lambda r, a: {
        "m0": a["m0"], "m1": a["m1"], "q": r.q}),
    "tri_sample_3": ("tri_sample_prob", lambda r, a: {"k": a["rho"], "q": r.q}),
}
CYCLES = readme_cycle_table()


@functools.cache
def _words(n):
    """Physical word of each coefficient of each slot at dimension n, by
    README's memory model: coefficient i of a slot sits in SRAM
    2 MSB(i) + LSB(i) of the slot's bank, at row (slot within its bank,
    middle bits of i)."""
    spb, lg = min(8192 // n, 128) // 2, n.bit_length() - 1
    return [[(4 * (s // spb) + 2 * (i >> lg - 1) + (i & 1)) * 1024
             + s % spb * (n // 4) + (i >> 1) % (n // 4) for i in range(n)]
            for s in range(2 * spb)]


class Stream:
    """The sampler PRNG over hashlib's SHAKE, absorbing seed || c0 || c1
    (LE16 each), with the words and permutations README charges."""

    def __init__(self, mode, seed, c0, c1):
        shake = hashlib.shake_128 if mode == "SHAKE-128" else hashlib.shake_256
        self.shake = shake(seed + c0.to_bytes(2, "little") + c1.to_bytes(2, "little"))
        self.rate = SHAKE_RATE[mode]
        self.out, self.words_out = b"", 0

    def raw(self, count):
        start, stop = 4 * self.words_out, 4 * (self.words_out + count)
        if stop > len(self.out):
            self.out = self.shake.digest(max(stop, 2 * len(self.out)))
        self.words_out += count
        return self.out[start:stop]

    def words(self, count):
        return struct.unpack(f"<{count}I", self.raw(count))

    @property
    def permutes(self):
        """One for the padded seed block, one per further output block."""
        return 1 + max(4 * self.words_out - 1, 0) // self.rate


class Reference:
    """Flat-list model of the whole ISA, with README's cycle table as its
    cycle model and README's memory model for config's repartition and
    the memory cycles."""

    def __init__(self, strict=False, cdt=()):
        self.strict, self.cdt = strict, list(cdt) + [0] * (64 - len(cdt))
        self.n = self.q = self.psi = None
        self.slots = []
        self.image = [0] * 8192      # physical words, kept across a new n
        self.reg = self.tmp = self.flag = self.c0 = self.c1 = 0
        self.seeds = {"r0": bytes(32), "r1": bytes(32)}
        self.sha3 = None             # (bits, absorbed bytes)
        self.gates = {"keccak": True, "ntt": True, "sampler": True}   # ungated
        self.load(isa.Program())

    def load(self, program):
        self.code, self.pc = program.instructions, 0
        self.cycles = self.mem = 0
        self.per_unit = {"alu": 0, "ntt": 0, "keccak": 0, "sampler": 0}
        self.per_insn = {}

    def state(self):
        """What the lockstep compares, in the order of ``_state``."""
        sponge = self.sha3 and (self.sha3[0], hashlib.new(
            f"sha3_{self.sha3[0]}", self.sha3[1]).digest())
        return (self.slots, self.reg, self.tmp, self.flag, self.c0, self.c1,
                self.seeds["r0"], self.seeds["r1"], sponge, self.pc,
                self.cycles, self.per_unit, self.per_insn, self.mem)

    def configure(self, n, q):
        if q in NO_BARRETT:
            raise Fault(f"q={q}")
        if n != self.n:
            for words, values in zip(_words(self.n) if self.slots else (), self.slots):
                for w, v in zip(words, values):
                    self.image[w] = v
            self.n = n
            self.slots = [[self.image[w] for w in words] for words in _words(n)]
        self.q, self.psi = q, _psi(n, q)

    def slot(self, s):
        if not 0 <= s < len(self.slots):
            raise Fault(f"slot {s}")
        return self.slots[s]

    def residues(self, *slots):
        return all(0 <= v < self.q for s in slots for v in self.slot(s))

    def counter(self, c):
        """A sampler counter operand: a literal or register c0/c1."""
        return getattr(self, c) if isinstance(c, str) else c

    def index(self, a):
        i = a["index"] if a["sel"] == "imm" else getattr(self, a["sel"])
        if not i < self.n:
            raise Fault(f"index {i}")
        return i

    def charge(self, op, *charges):
        """Charge (unit, cycles) pairs; a gated unit's cycles count in the total only."""
        for unit, cycles in charges:
            if self.gates.get(unit, True):
                self.per_unit[unit] += cycles
            self.cycles += cycles
            self.per_insn[op] = self.per_insn.get(op, 0) + cycles

    def transform(self, mode, x):
        n, q = self.n, self.q
        omega = self.psi * self.psi % q
        if mode.endswith("INTT"):
            omega = pow(omega, q - 2, q)
        lg = n.bit_length() - 1
        if mode.startswith("DIT"):
            return iterative_ntt([x[bitrev(i, lg)] for i in range(n)], omega, q)
        out = iterative_ntt(x, omega, q)
        return [out[bitrev(i, lg)] for i in range(n)]

    def step(self):
        """Run the instruction at pc and charge its cycles; raise Fault
        where the machine must fault, before any effect.  The units an op
        drives are its README bucket column."""
        insn = self.code[self.pc]
        op, a, n, q, jump = insn.op, insn.args, self.n, self.q, None
        rule, bucket = CYCLES[op]
        if self.strict and not all(self.gates.get(u, True) for u in bucket.split(" + ")):
            raise Fault(f"{op} drives a gated unit")
        if op == "config":
            self.configure(a["n"], a["q"])
        elif op == "clock_config":
            self.gates = {unit: a[unit] == "UNGATE" for unit in self.gates}
        elif op == "cnt":
            cur, v = getattr(self, a["counter"]), a["value"]
            new = {"set": v, "add": cur + v, "sub": cur - v}[a["mode"]]
            setattr(self, a["counter"], new % 65536)
        elif op == "regop":
            if a["mode"] == "imm":
                setattr(self, a["target"], a["value"] & WORD)
            elif a["mode"] == "copy":
                self.reg = self.tmp
            else:
                self.tmp = ALU[isa.REG_ALU_OPS[a["value"]]](self.tmp, self.reg) & WORD
        elif op == "compare":
            cur = getattr(self, a["reg"])
            self.flag = (cur > a["value"]) - (cur < a["value"])
        elif op == "branch":
            if (self.flag == a["flag"]) == (a["sense"] == "=="):
                jump = a["target"]
        elif op == "poly_get":
            self.reg = self.slot(a["poly"])[self.index(a)]
            self.mem += 1
        elif op == "poly_set":
            self.slot(a["poly"])[self.index(a)] = self.reg
            self.mem += 1
        elif op == "elems":
            x = self.slot(a["poly"])
            self.reg = max(x) if a["fn"] == "max" else sum(x) % q
            self.mem += n
        elif op == "init":
            slot = self.slot(a["poly"])
            slot[:] = [0] * n
            self.mem += n
        elif op == "poly_copy":
            self.slot(a["poly_dst"])[:] = self.slot(a["poly_src"])
            self.mem += 2 * n
        elif op == "poly_op":
            dst, src, kind = a["poly_dst"], a["poly_src"], a["op"]
            ring = kind in ("ADD", "SUB", "MUL")
            if ring and not self.residues(dst, src):
                raise Fault("non-residue")
            self.slots[dst] = poly_op_reference(
                kind, self.slot(src), self.slot(dst), self.reg, q)
            self.mem += 3 * n if ring else 2 * n
        elif op == "transform":
            dst, src = a["poly_dst"], a["poly_src"]
            self.slot(dst)
            spb = len(self.slots) // 2
            if (self.psi is None or (dst < spb) == (src < spb)
                    or not self.residues(src)):
                raise Fault("transform")
            self.slots[dst] = self.transform(a["mode"], self.slot(src))
            # one butterfly a cycle; at even lg n the last stage reads and
            # writes dst, as a read pass and then a write pass
            lg = n.bit_length() - 1
            self.mem += n // 2 * lg + (n // 2 if lg % 2 == 0 else 0)
        elif op in ("mult_psi", "mult_psi_inv"):
            s = a["poly"]
            if not self.residues(s) or self.psi is None:
                raise Fault(op)
            base = self.psi if op == "mult_psi" else pow(self.psi, q - 2, q)
            scale = 1 if op == "mult_psi" else pow(n, q - 2, q)
            self.slots[s] = [v * scale * pow(base, i, q) % q
                             for i, v in enumerate(self.slot(s))]
            self.mem += n + 1
        elif op == "shift_poly":
            x = self.slot(a["poly_src"])
            head = (-x[-1]) % q if a["ring"] == "x^N+1" else x[-1]
            self.slot(a["poly_dst"])
            self.slots[a["poly_dst"]] = [head] + x[:-1]
            self.mem += 2 * n
        elif op == "eq_check":
            self.flag = int(self.slot(a["poly_a"]) == self.slot(a["poly_b"]))
            self.mem += 2 * n
        elif op == "inf_norm_check":
            worst = max(v if v <= q // 2 else abs(v - q) for v in self.slot(a["poly"]))
            self.flag = int(worst <= a["bound"])
            self.mem += n
        elif op in SAMPLERS:
            slot = self.slot(a["poly"])
            prng = Stream(a["prng"], self.seeds[a["seed"]],
                          self.counter(a["c0"]), self.counter(a["c1"]))
            name, kwargs = SAMPLERS[op]
            try:
                slot[:] = getattr(sampler, name)(n, prng=prng, **kwargs(self, a))
            except sampler.SamplerError as exc:
                raise Fault(str(exc)) from None
            self.mem += n
            self.charge(op, ("keccak", 24 * prng.permutes),
                        ("sampler", prng.words_out + n))
        elif op == "sha3_init":
            self.sha3 = None
        elif op == "sha3_absorb":
            bits, before = a["bits"], b"" if self.sha3 is None else self.sha3[1]
            if self.sha3 is not None and self.sha3[0] != bits:
                raise Fault("sha3 width")
            if a["source"] == "poly":
                data = b"".join(v.to_bytes(3, "little") for v in self.slot(a["poly"]))
                self.mem += n
            else:
                data = self.seeds[a["source"]]
            self.sha3 = (bits, before + data)
            rate = SHA3_RATE[bits]
            blocks = len(before + data) // rate - len(before) // rate
            self.charge(op, ("keccak", 24 * blocks + (len(data) + 3) // 4 + 1))
        elif op == "sha3_digest":
            bits = a["bits"]
            if self.sha3 is not None and self.sha3[0] != bits:
                raise Fault("sha3 width")
            # the padded last block; the digest fits one output block
            data = b"" if self.sha3 is None else self.sha3[1]
            self.sha3 = None
            self.charge(op, ("keccak", 24 + bits // 32 + 1))
            if bits == 256:
                self.seeds[a["dest"]] = hashlib.sha3_256(data).digest()
            else:
                digest = hashlib.sha3_512(data).digest()
                self.seeds = {"r0": digest[:32], "r1": digest[32:]}
        else:
            raise AssertionError(f"no reference for {op}")
        next_pc = self.pc + 1 if jump is None else jump
        if next_pc > len(self.code):
            raise Fault(f"branch target {next_pc}")
        if "/permutation" not in rule:
            self.charge(op, (bucket, fixed_cycles(rule, self.n)))
        self.pc = next_pc


@st.composite
def programs(draw):
    n, q = draw(st.sampled_from(CONFIGS))
    spb = min(8192 // n, 128) // 2
    left, right = st.sampled_from([0, 1, 2]), st.sampled_from([spb, spb + 1])
    slot = st.one_of(left, right)
    # residues, any 24-bit words, or words all >= q
    lows = (0, 0, q)
    highs = (q - 1, WORD, WORD)
    loads = {}
    for s in draw(st.sets(slot, min_size=2)):
        kind, seed = draw(st.integers(0, 2)), draw(st.integers(0, 1 << 32))
        rng = random.Random(seed)
        loads[s] = [rng.randint(lows[kind], highs[kind]) for _ in range(n)]

    def two_slot(ops, template):
        return st.tuples(st.sampled_from(ops), slot, slot).map(
            lambda t: template.format(*t))

    poly_op = "poly_op (op = {}, poly_dst = {}, poly_src = {})"
    transform = "transform (mode = {}, poly_dst = {}, poly_src = {})"
    lines = st.one_of(
        two_slot(isa.POLY_OPS, poly_op),
        # mostly across the banks, as the transform needs
        st.tuples(st.sampled_from(isa.TRANSFORM_MODES), left, right, st.booleans()).map(
            lambda t: transform.format(t[0], *(t[1:3] if t[3] else t[2:0:-1]))),
        st.tuples(st.sampled_from(("mult_psi", "mult_psi_inv")), slot).map(
            lambda t: f"{t[0]} (poly = {t[1]})"),
        two_slot(MAKERS, poly_op),
        two_slot(("x^N+1", "x^N-1"), "shift_poly (ring = {}, poly_dst = {}, poly_src = {})"),
        st.tuples(slot, st.integers(0, (1 << 20) - 1)).map(
            lambda t: f"flag = inf_norm_check (poly = {t[0]}, bound = {t[1]})"),
        st.tuples(st.sampled_from((256, 512)), slot).map(
            lambda t: f"sha3_{t[0]}_absorb (poly = {t[1]})"),
        st.sampled_from(("sha3_init", "r0 = sha3_256_digest", "r1 = sha3_256_digest",
                         "r0 || r1 = sha3_512_digest")),
        st.integers(0, WORD).map(lambda v: f"reg = {v}"),
        two_slot(isa.TRANSFORM_MODES, transform))
    # the CONST_* kinds take their operand from reg: start with one
    body = [f"reg = {draw(st.integers(0, WORD))}"]
    body += draw(st.lists(lines, min_size=4, max_size=16))
    return n, q, loads, "\n".join(body)


def _machine(n, q, loads, listing):
    m = Machine()
    m.configure(n, q)
    for s, values in loads.items():
        m.write_slot(s, values)
    m.load_program(listing)
    return m


def _slots(m):
    return [m.read_slot(s) for s in range(m.cache.slots)]


def _state(m):
    """What the lockstep compares, in the order of ``Reference.state``;
    the open sponge as its width and the digest it would give now (squeezing
    a shallow copy leaves the sponge open: hashlib's digest is a copy)."""
    sponge = m.sha3 and (m.sha3[0], copy.copy(m.sha3[1]).squeeze(m.sha3[0] // 8))
    return (m.cache.data, m.reg, m.tmp, m.flag, m.c0, m.c1, m.r0, m.r1, sponge,
            m.pc, m.cycles, m.per_unit, m.per_insn, m.cache.mem_cycle)


def _check_slot_words(m, slots):
    """The slot-word rule and the residue tags, checked from outside on the
    given slots: every word is an int in [0, 2^24), and a tagged slot holds
    only words below q."""
    for s in slots:
        words = m.cache.data[s]
        assert set(map(type, words)) == {int}, s
        assert 0 <= min(words) and max(words) <= WORD, s
        assert s not in m.residues or max(words) < m.q, s


def _lockstep(m, ref, max_cycles=float("inf")):
    """Step a loaded machine and the reference together until the machine
    halts, faults or reaches max_cycles, and compare their states after
    every instruction; after a fault both must equal the state before it,
    and the machine's residue tags must be as they were.  Returns the
    fault's message, or None."""
    _check_slot_words(m, range(m.cache.slots))
    while not m.halted and m.cycles < max_cycles:
        insn = m.program.instructions[m.pc]
        tags, shape = set(m.residues), (m.n, m.q)
        try:
            ref.step()
            expected = None
        except Fault as exc:
            expected = exc
            before = copy.deepcopy(_state(m))
        try:
            m.step()
        except MachineFault as exc:
            assert expected is not None, f"{insn.op} faulted: {exc}"
            assert exc.pc == ref.pc
            assert _state(m) == ref.state() == before, insn.op
            assert m.residues == tags, insn.op
            return str(exc)
        assert expected is None, \
            f"{insn.op} at pc {m.pc - 1} should have faulted: {expected}"
        if insn.op == "transform":      # its scratch src is not modelled
            src = insn.args["poly_src"]
            ref.slots[src] = m.read_slot(src)
        assert _state(m) == ref.state(), insn.op
        # a step writes only the slots it names, and the comparison above
        # covers the values of the others; a config that changes (n, q)
        # repartitions the slots or clears the tags.  An absorb of r0 or r1
        # decodes a poly field that names no slot on a fresh machine.
        named = [v for k, v in insn.args.items() if k.startswith("poly")]
        _check_slot_words(m, range(m.cache.slots) if (m.n, m.q) != shape else
                          [s for s in named if s < m.cache.slots])
    assert _state(m) == ref.state()
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(programs())
def test_programs_with_non_residues_match_reference(program):
    n, q, loads, listing = program
    m = _machine(n, q, loads, listing)
    ref = Reference()
    ref.configure(n, q)
    for s, values in loads.items():
        ref.slots[s] = list(values)
    ref.load(m.program)
    fault = _lockstep(m, ref)

    again = _machine(n, q, loads, listing)
    try:
        again.run()
    except MachineFault as exc:
        assert str(exc) == fault
    else:
        assert fault is None
    assert _slots(again) == _slots(m)


# config's q comes from this list, not from all 24-bit values, so that
# most programs that reach a transform can run it.  The list has NTT
# moduli, moduli without a 2n-th root, powers of two, tiny moduli and one
# with no Barrett (m, k) pair.
MODULI = (257, 7681, 12289, 65537, 2, 3, 1 << 13, 16328465)
# the first right-bank slot at some n, and slot 0, which is always left
SLOTS = (0, 2, 4, 8, 16, 32, 64)
MAX_CYCLES = 20_000


def _operand(rng, form, field, length):
    """A valid value of one operand field.  Slots and other integers are
    often small, so that many instructions run rather than fault."""
    if field.name.startswith("poly"):
        return rng.choice(SLOTS) if rng.random() < 0.7 else rng.randrange(128)
    if isinstance(field, isa.Label):
        return rng.randrange(length)
    if isinstance(field, isa.Log2):
        return 1 << rng.randint(field.lo, field.hi)
    if isinstance(field, isa.Counter):
        return rng.choice((0, 1, 2, 3, "c0", "c1"))
    if isinstance(field, isa.Enum):
        return rng.choice(field.values)
    if form.op == "config":
        return rng.choice(MODULI)
    return rng.randint(field.lo, rng.choice((field.hi, min(field.hi, field.lo + 7))))


def _random_words(rng):
    """Encoded words of a program: mostly a config first, then forms drawn
    from the whole ISA."""
    length = rng.randint(1, 12)
    forms = [isa.FORMS[0]] if rng.random() < 0.9 else []
    forms += rng.choices(isa.FORMS, k=length - len(forms))
    return [form.pack({f.name: form.fixed[f.name] if f.name in form.fixed
                       else _operand(rng, form, f, length) for f in form.fields})
            for form in forms]


def test_decodable_programs_return_or_fault():
    for seed in range(600):
        rng = random.Random(seed)
        program = isa.decode(_random_words(rng))
        m = Machine(strict_gating=rng.random() < 0.5)
        # a valid CDT or arbitrary words
        size = rng.randrange(65)
        m.load_cdt(sorted(rng.choices(range(4), k=size)) if rng.random() < 0.5
                   else [rng.getrandbits(32) for _ in range(size)])
        m.load_program(program)
        try:
            m.run(max_cycles=MAX_CYCLES)
        except MachineFault as exc:
            assert exc.pc == m.pc, seed     # the instruction that faulted
        except Exception as exc:
            raise AssertionError(f"seed {seed}: {exc!r} escaped\n"
                                 + isa.disassemble(program)) from exc
        else:
            assert m.halted or m.cycles >= MAX_CYCLES, seed


# junk for one operand: out of every field's range, a bool, a float, a
# str (some of them machine attribute names), or the key left out
JUNK = {
    "int": lambda rng, v: rng.choice((-2, 1 << 24)),
    "bool": lambda rng, v: rng.random() < 0.5,
    "float": lambda rng, v: float(v) if isinstance(v, int) else 0.5,
    "str": lambda rng, v: rng.choice(("x", "1", "pc", "cycles", "halted", "reg")),
    "missing": None,
}


def test_junk_programs_are_refused_or_return_or_fault():
    """One operand of one instruction of a ``_random_words`` program
    replaced with junk, its op with an unknown one, or the instruction
    with a branch past the end: ``isa.Program`` refuses it, naming its
    index, or ``Machine.run`` returns or raises ``MachineFault``.  A
    float operand never builds, even one equal to a valid int."""
    refused = 0
    for seed in range(400):
        rng = random.Random(seed)
        instructions = list(isa.decode(_random_words(rng)).instructions)
        index = rng.randrange(len(instructions))
        op, args = instructions[index].op, dict(instructions[index].args)
        kind = rng.choice((*JUNK, "op", "branch"))
        if kind == "op":
            op = rng.choice(("frobnicate", "halt", "CNT"))
        elif kind == "branch" or not args:
            op, args = "branch", {"sense": "==", "flag": 0,
                                  "target": len(instructions) + rng.randint(1, 300)}
        else:
            key = rng.choice(sorted(args))
            if kind == "missing":
                del args[key]
            else:
                args[key] = JUNK[kind](rng, args[key])
        instructions[index] = isa.Instruction(op, args)
        try:
            program = isa.Program(instructions)
        except isa.DecodeError as exc:
            assert exc.index == index, seed
            refused += 1
            continue
        assert kind != "float", f"seed {seed}: {args} built"
        m = Machine(strict_gating=rng.random() < 0.5)
        m.load_program(program)
        try:
            m.run(max_cycles=MAX_CYCLES)
        except MachineFault:
            pass
        except Exception as exc:
            raise AssertionError(f"seed {seed}: {exc!r} escaped\n"
                                 + isa.disassemble(program)) from exc
    assert 200 < refused < 400


def _whole_isa_case(rng):
    """A whole-ISA program, strict gating or not, a CDT RAM and, for half
    the cases, a host configure and slot loads before the program, as
    (machine, reference), each with the program loaded."""
    words = _random_words(rng)
    if rng.random() < 0.4:      # start with some units gated
        gates = next(f for f in isa.FORMS if f.op == "clock_config")
        words.insert(0, gates.pack({f.name: rng.choice(f.values) for f in gates.fields}))
    program = isa.decode(words)
    strict = rng.random() < 0.5
    cdt = (sorted(rng.choices(range(4), k=rng.randrange(65))) if rng.random() < 0.5
           else [rng.getrandbits(32) for _ in range(rng.randrange(65))])
    m, ref = Machine(strict_gating=strict), Reference(strict, cdt)
    m.load_cdt(cdt)
    if rng.random() < 0.5:
        n, q = rng.choice(((8, 257), (16, 7681), (64, 12289), (256, 65537)))
        m.configure(n, q)
        ref.configure(n, q)
        for s in rng.sample(range(m.cache.slots), 3):
            values = [rng.randrange(rng.choice((q, WORD + 1))) for _ in range(n)]
            m.write_slot(s, values)
            ref.slots[s] = values
    m.load_program(program)
    ref.load(program)
    return m, ref


def test_whole_isa_programs_match_reference():
    """Lockstep on the whole-ISA generator: branches, counters, the tmp
    ALU, element reads and writes, samplers, SHA-3, config's repartition
    and clock gating, with the cycles of README's table.  ``Machine.run``
    then stops where the lockstep stopped, with the same report."""
    # README's rows of the ops whose cycles depend on the data, which
    # Reference.step charges term by term
    assert {CYCLES[op] for op in SAMPLERS} == {
        ("24/permutation + 1/word + 1/sample", "keccak + sampler")}
    assert {CYCLES[op] for op in ("sha3_absorb", "sha3_digest")} == {
        ("24/permutation + 1/word + 1", "keccak")}
    for seed in range(800):
        m, ref = _whole_isa_case(random.Random(seed))
        fault = _lockstep(m, ref, MAX_CYCLES)
        again = _whole_isa_case(random.Random(seed))[0]
        try:
            again.run(max_cycles=MAX_CYCLES)
        except MachineFault as exc:
            assert str(exc) == fault, seed
        else:
            assert fault is None, seed
        assert (_state(again), again.halted) == (_state(m), m.halted), seed


# n -> moduli with a 2n-th root of unity, largest first: a config often
# shrinks q under slots tagged as residues of a larger one
TAG_MODULI = {8: (65537, 7681, 257, 17), 64: (65537, 12289, 7681, 257)}


def _tag_line(rng, n, spb):
    """One instruction of a kind that writes a slot or checks residues."""
    s, t = rng.choices((0, 1, 2, spb, spb + 1), k=2)
    left, right = rng.choice((0, 1, 2)), rng.choice((spb, spb + 1))
    dst, src = (left, right) if rng.random() < 0.5 else (right, left)
    return rng.choice((
        f"config (n = {n}, q = {rng.choice(TAG_MODULI[n])})",
        f"reg = {rng.choice((rng.randrange(64), rng.randrange(WORD + 1)))}",
        f"poly_op (op = {rng.choice(isa.POLY_OPS)}, poly_dst = {s}, poly_src = {t})",
        f"poly_op (op = {rng.choice(('ADD', 'SUB', 'MUL'))}, poly_dst = {s}, poly_src = {t})",
        f"transform (mode = {rng.choice(isa.TRANSFORM_MODES)}, "
        f"poly_dst = {dst}, poly_src = {src})",
        f"{rng.choice(('mult_psi', 'mult_psi_inv'))} (poly = {s})",
        f"shift_poly (ring = {rng.choice(isa.RINGS)}, poly_dst = {s}, poly_src = {t})",
        f"poly_copy (poly_dst = {s}, poly_src = {t})",
        f"init (poly = {s})",
        f"(poly = {s})[{rng.randrange(n)}] = reg",
        f"bin_sample (prng = SHAKE-128, seed = r0, c0 = {rng.randrange(4)}, c1 = 0, "
        f"k = {rng.randint(1, 8)}, poly = {s})",
    ))


def _outcome(m, program):
    """Run a program from the machine's present state; everything the
    residue checks can change."""
    m.load_program(program)
    try:
        m.run(max_cycles=MAX_CYCLES)
        fault = None
    except MachineFault as exc:
        fault = (exc.pc, str(exc))
    return fault, _slots(m), m.cycle_report(), (m.n, m.q, m.reg, m.flag, m.r0, m.r1)


def _host_writes(rng, machines):
    """Host loads of residues, of words >= q, of any words or of words
    next to q, and now and then a new q (or n) set from the host.  Between
    the loads the host may set the same (n, q) again, or another one."""
    m = machines[0]
    if m.n not in TAG_MODULI or rng.random() < 0.3:
        n = m.n if m.n in TAG_MODULI else rng.choice(list(TAG_MODULI))
        q = rng.choice(TAG_MODULI[n])
        for each in machines:
            each.configure(n, q)
    spb = m.cache.slots_per_bank       # 64 for every n of TAG_MODULI
    for s in rng.sample((0, 1, 2, spb, spb + 1), 2):
        n, q = m.n, m.q
        low, high = rng.choice(((0, q - 1), (q, WORD), (0, WORD), (q - 1, q)))
        values = [rng.randint(low, high) for _ in range(n)]
        for each in machines:
            each.write_slot(s, values)
        between = rng.random()
        if between < 0.4:
            if between >= 0.2:
                n, q = rng.choice([(n2, q2) for n2, moduli in TAG_MODULI.items()
                                   for q2 in moduli if (n2, q2) != (n, q)])
            for each in machines:
                each.configure(n, q)


def test_residue_tags_match_full_scans():
    for seed in range(150):
        rng = random.Random(seed)
        machines = (Machine(), ScanningMachine())
        for each in machines:
            each.write_seed("r0", bytes(range(32)))
        for round_ in range(4):
            _host_writes(rng, machines)
            m = machines[0]
            if round_ == 3:     # the whole-ISA generator
                program = isa.decode(_random_words(rng))
            else:
                program = "\n".join(_tag_line(rng, m.n, m.cache.slots_per_bank)
                                    for _ in range(rng.randint(4, 14)))
            tagged, scanned = (_outcome(each, program) for each in machines)
            assert tagged == scanned, (seed, round_)


# writers that leave a tagged slot 0 holding 16000000, a non-residue
UNTAGGING = {
    "CONST_OR": "reg = 16000000\npoly_op (op = CONST_OR, poly_dst = 0, poly_src = 0)",
    "poly_set": "reg = 16000000\n(poly = 0)[3] = reg",
    "write_slot": None,
    "shift_poly": "shift_poly (ring = x^N-1, poly_dst = 0, poly_src = 5)",
    "BITREV": "poly_op (op = BITREV, poly_dst = 0, poly_src = 5)",
}


@pytest.mark.parametrize("consumer", [
    "poly_op (op = ADD, poly_dst = 1, poly_src = 0)",
    "transform (mode = DIF_NTT, poly_dst = 64, poly_src = 0)",
    "mult_psi (poly = 0)",
])
@pytest.mark.parametrize("writer", list(UNTAGGING))
def test_writers_clear_residue_tags(writer, consumer):
    outcomes = []
    for m in (Machine(), ScanningMachine()):
        m.configure(8, 7681)
        m.write_slot(5, [16000000] * 8)         # untagged source
        m.load_program("init (poly = 0)\ninit (poly = 1)\nmult_psi (poly = 0)")
        m.run()
        assert {0, 1} <= m.residues
        if UNTAGGING[writer] is None:
            m.write_slot(0, [16000000] * 8)
        else:
            m.load_program(UNTAGGING[writer])
            m.run()
        assert 0 not in m.residues
        outcomes.append(_outcome(m, consumer))
    assert outcomes[0] == outcomes[1]
    fault = outcomes[0][0]
    assert fault is not None and "residue 16000000 out of range" in fault[1]
