import os
import random

import pytest

from sapphire import nttcore, polycache
from sapphire.polycache import (
    READ, WRITE, CacheError, HazardFault, PolynomialCache, address, audit,
)
from conftest import DATA_DIR, audit_ledger, ledger_entries


def test_total_capacity():
    c = PolynomialCache()
    assert polycache.TOTAL_WORDS == 8192
    assert len(c.image) == 8192
    for n in (8, 64, 1024, 2048):
        c.configure(n)
        words = {(b, s, r) for slot in range(c.slots) for i in range(n)
                 for b, s, r in [address(n, slot, i)]}
        assert len(words) == c.slots * n   # no two coefficients share a word
        assert all(0 <= s < 4 and 0 <= r < 1024 for _b, s, r in words)


@pytest.mark.parametrize("n,slots", [(2048, 4), (1024, 8), (512, 16),
                                     (256, 32), (128, 64), (64, 128)])
def test_slot_partitions(n, slots):
    c = PolynomialCache().configure(n)
    assert c.slots == slots == 8192 // n
    assert c.slots_per_bank == slots // 2


def test_small_n_slot_cap():
    # demo dimensions below 64 cap at the 7-bit slot namespace
    c = PolynomialCache().configure(8)
    assert c.slots == 128
    assert c.slot_bank(63) == 0 and c.slot_bank(64) == 1


def test_bank_assignment_contiguous_halves():
    c = PolynomialCache().configure(1024)
    assert [c.slot_bank(s) for s in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_eight_point_mapping_examples():
    def sram(i):
        return address(8, 0, i)[1]
    assert sram(0) == 0 and sram(1) == 1   # Mem0 / Mem1
    assert sram(0) == 0 and sram(4) == 2   # Mem0 / Mem2


def test_pair_kinds_always_distinct_srams():
    for n in (8, 64, 256, 1024):
        for j in range(n // 2):
            b0, s0, _ = address(n, 0, 2 * j)
            b1, s1, _ = address(n, 0, 2 * j + 1)
            assert (b0, s0) != (b1, s1) and s0 != s1
            b0, s0, _ = address(n, 0, j)
            b1, s1, _ = address(n, 0, j + n // 2)
            assert s0 != s1


def test_write_then_read_round_trip():
    c = PolynomialCache().configure(256)
    rng = random.Random(1)
    values = [rng.randrange(1 << 24) for _ in range(256)]
    c.load_slot(3, values)
    assert c.dump_slot(3) == values


def test_slot_clear():
    c = PolynomialCache().configure(128)
    c.load_slot(2, list(range(128)))
    c.slot_clear(2)
    assert c.dump_slot(2) == [0] * 128


def test_same_cycle_same_sram_is_hazard():
    # coefficients 0 and 2 share sram 0 (rows differ); apart is fine
    assert audit([(True, ((0, [0], READ),)), (True, ((0, [2], WRITE),))], 64, (0,)) == 2
    assert audit([(False, ((0, [0], READ), (0, [2], WRITE)))], 64, (0,)) == 2
    with pytest.raises(HazardFault, match="cycle 1:"):
        audit([(True, ((0, [0], READ),)), (True, ((0, [0], READ), (0, [2], WRITE)))],
              64, (0,))
    # two operand slots in one bank conflict as well
    with pytest.raises(HazardFault):
        audit([(True, ((0, [1], READ), (1, [1], WRITE)))], 64, (1, 1))


def test_cross_bank_same_cycle_ok():
    assert audit([(True, ((0, [0], READ), (1, [0], WRITE)))], 64, (0, 1)) == 1


KINDS = ("get", "set", "read", "write", "scale", "map", "compare", "gather",
         "bitrev", "zip", "dif", "dit")


def first_clash(cycles, n, banks):
    """The per-cycle reference audit: the first cycle in which two
    accesses hit one (bank, sram), or None."""
    srams = [address(n, 0, i)[1] for i in range(n)]
    for t, cycle in enumerate(cycles):
        ports = {(banks[k], srams[i]) for k, i, _rw in cycle}
        if len(ports) != len(cycle):
            return t
    return None


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512, 1024, 2048])
def test_every_schedule_passes_its_audit(n):
    lg = n.bit_length() - 1
    butterflies = (n // 2) * lg + (n // 2 if lg % 2 == 0 else 0)
    cycles = {"get": 1, "set": 1, "read": n, "write": n, "scale": n + 1, "map": 2 * n,
              "compare": 2 * n, "gather": 2 * n, "bitrev": 2 * n, "zip": 3 * n,
              "dif": butterflies, "dit": butterflies}
    assert set(cycles) == set(KINDS)
    for kind, count in cycles.items():
        placements = ((0,), (1,)) if kind in ("get", "set", "read", "write", "scale") else \
            ((0, 1), (1, 0), (0, 0), (1, 1))
        expanded = list(polycache.schedule(kind, n))
        assert len(expanded) == count
        for banks in placements:
            clash = first_clash(expanded, n, banks)
            if clash is None:
                assert polycache.schedule_cycles(kind, n, banks) == count
            else:   # a transform between two slots of one bank
                assert kind in ("dif", "dit") and banks[0] == banks[1]
                with pytest.raises(HazardFault, match=f"cycle {clash}:"):
                    polycache.schedule_cycles(kind, n, banks)
    with pytest.raises(CacheError):
        list(polycache.schedule("nope", n))


def _collide(phase, t):
    """The phase with access 1 moved, at step t, to another row of the
    sram that access 0 touches then."""
    together, accesses = phase
    (k0, col0, rw0), (k1, col1, rw1) = accesses[:2]
    moved = list(col1)
    moved[t] = col0[t] ^ 2      # a middle bit: same MSB and LSB, same sram
    return together, ((k0, col0, rw0), (k1, moved, rw1)) + accesses[2:]


@pytest.mark.parametrize("kind", ["dif", "dit"])
def test_collision_in_a_phase_that_occurs_once(kind):
    n, banks = 16, (1, 0)       # even lg n: the last stage is two passes
    run = list(polycache.phases(kind, n))
    assert run.count(run[-1]) == 1
    run[-1] = _collide(run[-1], 5)      # the write pass of the last stage
    total = len(list(polycache.schedule(kind, n)))
    with pytest.raises(HazardFault, match=f"cycle {total - n // 2 + 5}:"):
        audit(run, n, banks)


@pytest.mark.parametrize("kind", ["dif", "dit"])
def test_collision_in_a_phase_that_repeats(kind):
    n, banks = 64, (1, 0)
    run = list(polycache.phases(kind, n))
    stage = run[0]          # src -> dst, again at stages 3 and 5
    assert [s is stage for s in run] == [True, False, True, False, True, False, False]
    bad = _collide(stage, 7)
    with pytest.raises(HazardFault, match="cycle 7:"):
        audit([bad if s is stage else s for s in run], n, banks)
    # a bad copy of the phase at its second occurrence only is checked too
    run[2] = bad
    with pytest.raises(HazardFault, match=f"cycle {2 * (n // 2) + 7}:"):
        audit(run, n, banks)
    assert first_clash(polycache.schedule(kind, n), n, banks) is None


def test_access_counts_cycles_without_a_ledger():
    c = PolynomialCache().configure(64)
    c.access("zip", (1, 40))
    assert c.mem_cycle == 3 * 64 and c.ledger == []
    c.access("compare", (1, 2))
    assert c.mem_cycle == 5 * 64
    c.trace_enabled = True
    assert c.access("read", (3,)) == [c.data[3]]
    assert c.ledger == [(320, "read", 64, (3,), 0)]     # one segment per op
    assert [e[0] for e in ledger_entries(c)] == list(range(320, 384))
    with pytest.raises(CacheError):
        c.access("read", (c.slots,))


def test_repartition_keeps_the_physical_words():
    c = PolynomialCache().configure(1024)
    rng = random.Random(4)
    values = [[rng.randrange(1 << 24) for _ in range(1024)] for _ in range(8)]
    for slot, v in enumerate(values):
        c.load_slot(slot, v)
    c.configure(8)
    c.load_slot(3, [1, 2, 3, 4, 5, 6, 7, 8])
    written = {address(8, 3, i): i + 1 for i in range(8)}
    c.configure(1024)
    for slot, v in enumerate(values):
        got = c.dump_slot(slot)
        assert got == [written.get(address(1024, slot, i), v[i])
                       for i in range(1024)]


def test_range_errors():
    c = PolynomialCache().configure(256)
    with pytest.raises(CacheError):
        c.slot_read(32, 0)
    with pytest.raises(CacheError):
        c.slot_read(0, 256)
    with pytest.raises(CacheError):
        c.slot_write(0, 0, 1 << 24)
    with pytest.raises(CacheError):
        c.slot_read(-1, 0)
    with pytest.raises(CacheError):
        c.load_slot(0, [0] * 255)
    with pytest.raises(CacheError):
        c.load_slot(0, [0] * 255 + [1 << 24])
    with pytest.raises(CacheError):
        c.load_slot(0, [-1] + [0] * 255)
    with pytest.raises(CacheError):
        c.dump_slot(32)
    with pytest.raises(CacheError):
        c.configure(4096)
    with pytest.raises(CacheError):
        PolynomialCache().slot_read(0, 0)


@pytest.mark.parametrize("n", [8, 64, 128, 256, 512, 1024, 2048])
@pytest.mark.parametrize("mode", nttcore.TRANSFORM_MODES)
def test_hazard_freedom_full_transforms(n, mode):
    q = {8: 257, 64: 7681, 128: 7681, 256: 7681,
         512: 12289, 1024: 12289, 2048: 12289}[n]
    cfg = nttcore.LatticeConfig.make(n, q)
    consts = nttcore.gen_constants(cfg)
    c = PolynomialCache().configure(n)
    c.trace_enabled = True
    rng = random.Random(n)
    c.load_slot(0, [rng.randrange(q) for _ in range(n)])
    nttcore.ntt(cfg, consts, c, c.slots_per_bank, 0, mode)
    assert audit_ledger(c) > 0


def test_golden_traces_frozen():
    cfg = nttcore.LatticeConfig.make(8, 257)
    consts = nttcore.gen_constants(cfg)
    for mode, fname in ((nttcore.DIT_NTT, "golden_trace_8pt_dit.txt"),
                        (nttcore.DIF_NTT, "golden_trace_8pt_dif.txt")):
        c = PolynomialCache().configure(8)
        c.trace_enabled = True
        c.load_slot(0, list(range(1, 9)))
        nttcore.ntt(cfg, consts, c, 64, 0, mode)
        golden = open(os.path.join(DATA_DIR, fname)).read().splitlines()
        assert c.trace_lines() == golden


def test_trace_is_data_independent():
    cfg = nttcore.LatticeConfig.make(64, 7681)
    consts = nttcore.gen_constants(cfg)
    traces = []
    for seed in (1, 2):
        c = PolynomialCache().configure(64)
        c.trace_enabled = True
        rng = random.Random(seed)
        c.load_slot(0, [rng.randrange(7681) for _ in range(64)])
        nttcore.ntt(cfg, consts, c, c.slots_per_bank, 0, nttcore.DIF_NTT)
        traces.append(c.trace_lines())
    assert traces[0] == traces[1]


def test_mult_psi_pipelined_schedule_hazard_free():
    cfg = nttcore.LatticeConfig.make(64, 7681)
    consts = nttcore.gen_constants(cfg)
    c = PolynomialCache().configure(64)
    c.trace_enabled = True
    c.load_slot(0, list(range(64)))
    nttcore.mult_psi(cfg, consts, c, 0)
    count = audit_ledger(c)
    assert count == 2 * 64   # one read and one write per coefficient
    cycles = {e[0] for e in ledger_entries(c)}
    assert len(cycles) == 65  # n + 1 memory cycles
