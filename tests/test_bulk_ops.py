"""Coefficient-wise ops against flat-list references, and their frozen ledger.

The references use plain lists and Python %, with no banks, schedules or
Barrett reduction.  Each op also runs with tracing on, which must give the
same slots and memory-cycle count as the untraced run, and a ledger of
one segment per instruction whose accesses number exactly those cycles.
"""

import os
import random

import pytest

from sapphire import isa
from sapphire.machine import Machine
from conftest import DATA_DIR, audit_ledger, bitrev, ledger_entries

WORD = (1 << 24) - 1
Q_FOR_N = {8: 257, 256: 7681, 1024: 12289}


def reference(kind, x, y, r, q):
    """New dst of poly_op ``kind`` with src x, dst y and register r."""
    lg = len(x).bit_length() - 1
    return {
        "ADD": lambda: [(a + b) % q for a, b in zip(x, y)],
        "SUB": lambda: [(a - b) % q for a, b in zip(x, y)],
        "MUL": lambda: [a * b % q for a, b in zip(x, y)],
        "BITREV": lambda: [x[bitrev(i, lg)] for i in range(len(x))],
        "CONST_ADD": lambda: [(a + r) % q for a in x],
        "CONST_SUB": lambda: [(a - r) % q for a in x],
        "CONST_MUL": lambda: [a * r % q for a in x],
        "CONST_AND": lambda: [a & r for a in x],
        "CONST_OR": lambda: [(a | r) & WORD for a in x],
        "CONST_XOR": lambda: [(a ^ r) & WORD for a in x],
        "CONST_RSHIFT": lambda: [a >> (r & 31) for a in x],
        "CONST_LSHIFT": lambda: [(a << (r & 31)) & WORD for a in x],
    }[kind]()


def run_both(n, slots, program, reg=0):
    """Run a program, each line of which touches memory, untraced and
    traced from the same slots; check that both agree, that the ledger
    holds one segment per line and that its accesses cover exactly the
    counted cycles."""
    results = []
    for trace in (False, True):
        m = Machine()
        m.configure(n, Q_FOR_N[n])
        for slot, values in slots.items():
            m.write_slot(slot, values)
        m.reg = reg
        m.load_program(f"config (n = {n}, q = {Q_FOR_N[n]})\n{program}")
        m.cache.trace_enabled = trace
        m.run()
        results.append((m, [m.read_slot(s) for s in range(m.cache.slots)]))
    (plain, plain_slots), (traced, traced_slots) = results
    assert plain_slots == traced_slots
    assert plain.cache.mem_cycle == traced.cache.mem_cycle > 0
    assert plain.cache.ledger == []
    assert len(traced.cache.ledger) == len(program.splitlines())
    assert {e[0] for e in ledger_entries(traced.cache)} == set(range(traced.cache.mem_cycle))
    audit_ledger(traced.cache)
    return plain


@pytest.mark.parametrize("n", sorted(Q_FOR_N))
def test_bulk_ops_match_flat_references(n):
    q = Q_FOR_N[n]
    rng = random.Random(n)
    half = min(8192 // n, 128) // 2
    residues = lambda: [rng.randrange(q) for _ in range(n)]      # noqa: E731
    words = lambda: [rng.randrange(1 << 24) for _ in range(n)]   # noqa: E731
    # (dst, src): across banks both ways, within a bank, and in place
    pairs = [(1, half), (half + 1, 0), (2, 3), (half, half)]

    for kind in isa.POLY_OPS:
        for dst, src in pairs:
            ring = kind in ("ADD", "SUB", "MUL")
            x = residues() if ring else words()
            y = x if dst == src else (residues() if ring else words())
            r = rng.randrange(1 << 24)
            m = run_both(n, {src: x, dst: y},
                         f"poly_op (op = {kind}, poly_dst = {dst}, poly_src = {src})", r)
            assert m.read_slot(dst) == reference(kind, x, y, r, q), (kind, dst, src)
            if dst != src:
                assert m.read_slot(src) == x

    x = words()
    m = run_both(n, {0: x, half: words()},
                 f"poly_copy (poly_dst = {half}, poly_src = 0)\ninit (poly = 0)")
    assert m.read_slot(half) == x and m.read_slot(0) == [0] * n

    x = residues()
    for ring, head in (("x^N+1", (-x[-1]) % q), ("x^N-1", x[-1])):
        m = run_both(n, {2: x},
                     f"shift_poly (ring = {ring}, poly_dst = {half}, poly_src = 2)")
        assert m.read_slot(half) == [head] + x[:-1]

    for stop in (None, 0, n // 2, n - 1):
        y = list(x)
        if stop is not None:
            y[stop] = (y[stop] + 1) % q
        m = run_both(n, {1: x, half: y},
                     f"flag = eq_check (poly_a = 1, poly_b = {half})")
        assert m.flag == (stop is None)

    for bound in (0, rng.randrange(q // 2), q // 2):
        m = run_both(n, {3: x}, f"flag = inf_norm_check (poly = 3, bound = {bound})")
        assert m.flag == (max(min(v, q - v) for v in x) <= bound)

    m = run_both(n, {3: x}, "reg = max_elems (poly = 3)")
    assert m.reg == max(x)
    m = run_both(n, {3: x}, "reg = sum_elems (poly = 3)")
    assert m.reg == sum(x) % q

    i = rng.randrange(n)
    m = run_both(n, {3: x}, f"reg = (poly = 3)[{i}]\n(poly = {half})[{n - 1 - i}] = reg")
    assert m.reg == x[i] and m.read_slot(half)[n - 1 - i] == x[i]

    # psi-multiply, a transform each way across the banks and back
    for a, b in ((3, half + 2), (half + 2, 3)):
        m = run_both(n, {a: x}, f"mult_psi (poly = {a})\n"
                     f"transform (mode = DIF_NTT, poly_dst = {b}, poly_src = {a})\n"
                     f"transform (mode = DIT_INTT, poly_dst = {a}, poly_src = {b})\n"
                     f"mult_psi_inv (poly = {a})")
        assert m.read_slot(a) == x


OPS_8PT = """\
config (n = 8, q = 257)
reg = 3
poly_op (op = ADD, poly_dst = 1, poly_src = 64)
poly_op (op = SUB, poly_dst = 65, poly_src = 1)
poly_op (op = MUL, poly_dst = 2, poly_src = 0)
poly_op (op = BITREV, poly_dst = 66, poly_src = 0)
poly_op (op = CONST_ADD, poly_dst = 3, poly_src = 64)
poly_op (op = CONST_SUB, poly_dst = 67, poly_src = 3)
poly_op (op = CONST_MUL, poly_dst = 3, poly_src = 3)
poly_op (op = CONST_AND, poly_dst = 68, poly_src = 0)
poly_op (op = CONST_OR, poly_dst = 11, poly_src = 64)
poly_op (op = CONST_XOR, poly_dst = 12, poly_src = 12)
poly_op (op = CONST_RSHIFT, poly_dst = 75, poly_src = 0)
poly_op (op = CONST_LSHIFT, poly_dst = 13, poly_src = 0)
init (poly = 4)
poly_copy (poly_dst = 67, poly_src = 0)
shift_poly (ring = x^N+1, poly_dst = 5, poly_src = 64)
shift_poly (ring = x^N-1, poly_dst = 68, poly_src = 64)
flag = eq_check (poly_a = 0, poly_b = 67)
flag = eq_check (poly_a = 0, poly_b = 69)
flag = inf_norm_check (poly = 64, bound = 100)
reg = max_elems (poly = 0)
reg = sum_elems (poly = 64)
c0 = 5
reg = (poly = 0)[c0]
(poly = 70)[2] = reg
mult_psi (poly = 6)
transform (mode = DIF_NTT, poly_dst = 71, poly_src = 6)
transform (mode = DIT_INTT, poly_dst = 7, poly_src = 71)
mult_psi_inv (poly = 7)
transform (mode = DIT_NTT, poly_dst = 72, poly_src = 8)
transform (mode = DIF_INTT, poly_dst = 9, poly_src = 72)
bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 4, poly = 10)
rej_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, poly = 73)
sha3_init
sha3_256_absorb (poly = 0)
r0 = sha3_256_digest
"""

OPS_8PT_INPUTS = {
    0: [5, 200, 17, 256, 0, 99, 128, 3],
    1: [1, 2, 3, 4, 5, 6, 7, 8],
    2: [256, 255, 2, 3, 100, 101, 0, 1],
    6: [1, 2, 3, 4, 5, 6, 7, 8],
    8: [9, 30, 0, 256, 1, 77, 13, 2],
    12: [7, 70, 700, 7000, 70000, 1, 0, 16777215],
    64: [250, 1, 77, 130, 8, 0, 255, 42],
    65: [3, 1, 4, 1, 5, 9, 2, 6],
    69: [5, 200, 17, 255, 0, 99, 128, 3],   # slot 0 but for index 3
}


def test_golden_ledger_8pt_ops_frozen():
    """One traced 8-point program with every op kind once (eq_check twice:
    equal, and differing at index 3).  Its memory cycles, cycle report,
    slots and ledger are frozen."""
    m = Machine()
    m.write_seed("r0", bytes(range(32)))
    m.write_seed("r1", bytes(range(32, 64)))
    m.load_program(OPS_8PT)
    m.configure(8, 257)
    for slot, values in OPS_8PT_INPUTS.items():
        m.write_slot(slot, values)
    m.cache.trace_enabled = True
    report = m.run()
    lines = ([f"mem_cycle {m.cache.mem_cycle}", *report.lines()]
             + [f"slot {s} " + " ".join(map(str, m.read_slot(s)))
                for s in [*range(14), *range(64, 76)]]
             + m.trace())
    with open(os.path.join(DATA_DIR, "golden_ledger_8pt_ops.txt")) as fh:
        assert lines == fh.read().splitlines()
