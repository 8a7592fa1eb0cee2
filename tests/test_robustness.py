"""Random straight-line programs that make non-residues, against a
flat-list reference interpreter.

Each program starts from slots the host loaded with residues or with
arbitrary 24-bit words (most of them >= q), makes more non-residues with
``poly_op CONST_OR`` / ``CONST_XOR`` / ``CONST_LSHIFT`` and then feeds
slots to the transform, the psi-multiply, every ``poly_op`` kind,
``inf_norm_check``, ``shift_poly`` and the ``sha3_*`` absorbs.

The reference keeps one plain list per slot and reduces with Python %,
with no banks, schedules or Barrett reduction.  It runs in lockstep with
``Machine.step``: after every instruction the slots, ``reg``, ``flag`` and
the seed registers must agree, and an instruction faults exactly when the
reference says it must (a non-residue operand of the transform, the
psi-multiply or ``poly_op ADD/SUB/MUL``, a transform between slots of one
bank, no 2n-th root of unity, a SHA-3 width change).  The src slot of a
transform is its scratch, whose contents the reference takes over from
the machine; the frozen kernel digests cover them.  The same program run
by ``Machine.run`` on a fresh machine must return or raise
``MachineFault``, and nothing else, and leave the same slots.

``test_decodable_programs_return_or_fault`` checks the same contract on
the whole ISA: programs decoded from words of every ``isa.FORMS`` form,
branches, samplers, SHA-3 and clock gating included.

``test_residue_tags_match_full_scans`` runs programs on a ``Machine`` and
on ``conftest.ScanningMachine``, which scans every operand of every
residue check: the residue tags must change no fault, slot or cycle.
"""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ScanningMachine, bitrev, iterative_ntt
from sapphire import isa
from sapphire.machine import Machine, MachineFault
from test_bulk_ops import reference as poly_op_reference

WORD = (1 << 24) - 1
# (n, q): generic Barrett, specialized Barrett, Fermat, and a power of two
# with no NTT at all
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


class Reference:
    """Flat-list model of the ops the programs use."""

    def __init__(self, n, q, slots):
        self.n, self.q = n, q
        self.slots = {s: list(v) for s, v in slots.items()}
        self.reg = self.flag = 0
        self.seeds = {"r0": bytes(32), "r1": bytes(32)}
        self.sha3 = None
        self.psi = _psi(n, q)
        self.spb = min(8192 // n, 128) // 2

    def slot(self, s):
        return self.slots.setdefault(s, [0] * self.n)

    def residues(self, *slots):
        return all(0 <= v < self.q for s in slots for v in self.slot(s))

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

    def step(self, insn):
        """Apply one instruction; False when the machine must fault."""
        op, a, n, q = insn.op, insn.args, self.n, self.q
        if op == "regop":
            self.reg = a["value"] & WORD
        elif op == "poly_op":
            dst, src, kind = a["poly_dst"], a["poly_src"], a["op"]
            if kind in ("ADD", "SUB", "MUL") and not self.residues(dst, src):
                return False
            self.slots[dst] = poly_op_reference(
                kind, self.slot(src), self.slot(dst), self.reg, q)
        elif op == "transform":
            dst, src = a["poly_dst"], a["poly_src"]
            if (self.psi is None or (dst < self.spb) == (src < self.spb)
                    or not self.residues(src)):
                return False
            self.slots[dst] = self.transform(a["mode"], self.slot(src))
        elif op in ("mult_psi", "mult_psi_inv"):
            s = a["poly"]
            if self.psi is None or not self.residues(s):
                return False
            base = self.psi if op == "mult_psi" else pow(self.psi, q - 2, q)
            scale = 1 if op == "mult_psi" else pow(n, q - 2, q)
            self.slots[s] = [v * scale * pow(base, i, q) % q
                             for i, v in enumerate(self.slot(s))]
        elif op == "inf_norm_check":
            worst = max(v if v <= q // 2 else abs(v - q) for v in self.slot(a["poly"]))
            self.flag = int(worst <= a["bound"])
        elif op == "shift_poly":
            x = self.slot(a["poly_src"])
            head = (-x[-1]) % q if a["ring"] == "x^N+1" else x[-1]
            self.slots[a["poly_dst"]] = [head] + x[:-1]
        elif op == "sha3_init":
            self.sha3 = None
        elif op == "sha3_absorb":
            if self.sha3 is None:
                self.sha3 = (a["bits"], b"")
            elif self.sha3[0] != a["bits"]:
                return False
            data = b"".join(v.to_bytes(3, "little") for v in self.slot(a["poly"]))
            self.sha3 = (a["bits"], self.sha3[1] + data)
        elif op == "sha3_digest":
            if self.sha3 is not None and self.sha3[0] != a["bits"]:
                return False
            data = b"" if self.sha3 is None else self.sha3[1]
            self.sha3 = None
            if a["bits"] == 256:
                self.seeds[a["dest"]] = hashlib.sha3_256(data).digest()
            else:
                digest = hashlib.sha3_512(data).digest()
                self.seeds = {"r0": digest[:32], "r1": digest[32:]}
        else:
            raise AssertionError(f"no reference for {op}")
        return True


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(programs())
def test_programs_with_non_residues_match_reference(program):
    n, q, loads, listing = program
    m = _machine(n, q, loads, listing)
    ref = Reference(n, q, loads)
    fault = None
    while not m.halted:
        insn = m.program.instructions[m.pc]
        expected = ref.step(insn)
        try:
            m.step()
        except MachineFault as exc:
            fault = str(exc)
            assert not expected, f"{insn.op} faulted: {exc}"
            break
        assert expected, f"{insn.op} at pc {m.pc - 1} should have faulted"
        if insn.op == "transform":
            ref.slots[insn.args["poly_src"]] = m.read_slot(insn.args["poly_src"])
        for s in range(m.cache.slots):
            assert m.read_slot(s) == ref.slot(s), (insn.op, s)
        assert (m.reg, m.flag) == (ref.reg, ref.flag)
        assert (m.r0, m.r1) == (ref.seeds["r0"], ref.seeds["r1"])

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
