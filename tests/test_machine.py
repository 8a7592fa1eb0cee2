import copy
import hashlib
import random

import numpy as np
import pytest

from conftest import fixed_cycles, readme_cycle_table
from sapphire import isa, keccak, sampler
from sapphire.machine import Machine, MachineFault
from sapphire.polycache import CacheError


def seeded(m=None):
    m = m or Machine()
    m.write_seed("r0", bytes(range(32)))
    m.write_seed("r1", bytes(range(32, 64)))
    return m


class TestLoadReset:
    def test_empty_program_halts_immediately(self):
        m = Machine()
        m.load_program(isa.Program())
        assert m.halted
        with pytest.raises(MachineFault):
            m.step()

    def test_reset_preserves_seeds_and_registers(self):
        m = seeded()
        m.load_program("c0 = 7\nreg = 9")
        m.run()
        m.reset()
        assert m.pc == 0 and m.cycles == 0 and m.c0 == 7 and m.reg == 9
        assert m.r0 == bytes(range(32))

    def test_oversize_program_refused_by_the_program(self):
        m = Machine()
        with pytest.raises(isa.DecodeError) as err:
            m.load_program(isa.Program(instructions=[
                isa.Instruction("cnt", {"counter": "c0", "mode": "set", "value": 0})
            ] * 257))
        assert (err.value.index, err.value.reason) == (256, "program exceeds 256 instructions")
        assert m.program is None and m.halted

    def test_newhope_listing_loads(self):
        from sapphire.protocols import _program_text
        m = seeded()
        m.load_program(_program_text("newhope_as_plus_e.sph"))
        assert len(m.program) == 10


class TestControlFlow:
    def test_counter_loop_iterates_exactly_1000(self):
        m = Machine()
        m.load_program("""
        c0 = 0
        loop: c0 = c0 + 1
        flag = compare (c0, 1000)
        if (flag == -1) goto loop
        """)
        m.run()
        assert m.c0 == 1000

    def test_compare_flag_values(self):
        m = Machine()
        for value, flag in ((5, -1), (10, 0), (19, 1)):
            m.load_program(f"c1 = {value}\nflag = compare (c1, 10)")
            m.run()
            assert m.flag == flag

    def test_counters_wrap_16_bits(self):
        m = Machine()
        m.load_program("c0 = 65535\nc0 = c0 + 1")
        m.run()
        assert m.c0 == 0

    def test_register_alu(self):
        m = Machine()
        m.load_program("""
        reg = 12
        tmp = 5
        tmp = tmp MUL reg
        """)
        m.run()
        assert m.tmp == 60
        m.load_program("reg = 2\ntmp = 3\ntmp = tmp LSHIFT reg\nreg = tmp")
        m.run()
        assert m.reg == 12


class TestCycleModel:
    @pytest.mark.parametrize("n,q,dst,total", [(256, 7681, 16, 1289),
                                               (512, 12289, 8, 2826),
                                               (1024, 12289, 4, 6155)])
    def test_transform_plus_psi_matches_table(self, n, q, dst, total):
        m = Machine()
        m.load_program(f"""
        config (n = {n}, q = {q})
        mult_psi (poly = 0)
        transform (mode = DIF_NTT, poly_dst = {dst}, poly_src = 0)
        """)
        rep = m.run()
        assert rep.per_instruction["transform"] == (n // 2 + 1) * (n.bit_length() - 1)
        assert rep.per_instruction["mult_psi"] == n + 1
        assert rep.per_instruction["transform"] + rep.per_instruction["mult_psi"] == total

    def test_ntt_bucket_excludes_psi(self):
        m = Machine()
        m.load_program("config (n = 256, q = 7681)\n"
                       "transform (mode = DIF_NTT, poly_dst = 16, poly_src = 0)")
        rep = m.run()
        assert rep.per_unit["ntt"] == 1032   # 1289 - 257

    def test_sampler_cycle_split(self):
        m = seeded()
        m.load_program("""
        clock_config (keccak = GATE, ntt = GATE, sampler = UNGATE)
        config (n = 256, q = 7681)
        bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 8, poly = 1)
        """)
        rep = m.run()
        assert rep.per_unit["keccak"] == 0        # gated: not accumulated
        assert rep.per_unit["sampler"] == 256 + 256   # words + writes
        assert rep.per_unit["ntt"] == 0
        # total still includes the gated permutation cycles
        assert rep.total > rep.per_unit["sampler"]

    def test_bin_sample_buckets_with_ntt_gated(self):
        m = seeded()
        m.load_program("""
        clock_config (keccak = UNGATE, ntt = GATE, sampler = UNGATE)
        config (n = 256, q = 7681)
        bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 8, poly = 1)
        """)
        rep = m.run()
        assert rep.per_unit["keccak"] > 0
        assert rep.per_unit["sampler"] > 0
        assert rep.per_unit["ntt"] == 0

    def test_per_unit_sums_bounded_by_total(self):
        m = seeded()
        m.load_program("""
        config (n = 256, q = 7681)
        bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 8, poly = 1)
        mult_psi (poly = 1)
        transform (mode = DIF_NTT, poly_dst = 16, poly_src = 1)
        """)
        rep = m.run()
        assert sum(rep.per_unit.values()) == rep.total

    def test_cycle_data_independence(self):
        totals = set()
        traces = set()
        for seed in range(5):
            m = Machine()
            m.write_seed("r0", bytes([seed]) * 32)
            m.write_seed("r1", bytes([seed + 100]) * 32)
            m.cache.trace_enabled = True
            m.load_program("""
            config (n = 256, q = 7681)
            bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 8, poly = 1)
            mult_psi (poly = 1)
            transform (mode = DIF_NTT, poly_dst = 16, poly_src = 1)
            poly_op (op = MUL, poly_dst = 2, poly_src = 1)
            """)
            rep = m.run()
            totals.add(rep.total)
            traces.add("\n".join(m.trace()))
        assert len(totals) == 1 and len(traces) == 1


class TestGating:
    def test_strict_mode_faults_on_gated_unit(self):
        m = Machine(strict_gating=True)
        m.load_program("""
        config (n = 256, q = 7681)
        clock_config (keccak = UNGATE, ntt = GATE, sampler = UNGATE)
        mult_psi (poly = 0)
        """)
        with pytest.raises(MachineFault):
            m.run()

    # gated sha3 line -> (the digest run after it, the message digested)
    SHA3_LINES = {
        "r0 = sha3_256_digest": ("", b""),
        "r0 || r1 = sha3_512_digest": ("", b""),
        "sha3_256_absorb (r1)": ("r0 = sha3_256_digest", bytes(range(32, 64))),
        "sha3_512_absorb (poly = 1)": ("r0 || r1 = sha3_512_digest", bytes(192)),
    }

    @pytest.mark.parametrize("line", list(SHA3_LINES))
    def test_gated_sha3_faults_each_time_it_is_stepped(self, line):
        # a faulted sha3 op leaves the sponge and the seeds as they were:
        # stepping it again faults the same way, and once ungated it runs
        # once, so the digest covers exactly one absorb (or none)
        digest, message = self.SHA3_LINES[line]
        m = seeded(Machine(strict_gating=True))
        m.load_program(f"""
        config (n = 64, q = 7681)
        clock_config (keccak = GATE, ntt = UNGATE, sampler = UNGATE)
        {line}
        {digest}
        """)
        m.step()
        m.step()
        for _ in range(3):
            with pytest.raises(MachineFault, match="clock-gated unit 'keccak'"):
                m.step()
        assert m.pc == 2 and m.r0 + m.r1 == bytes(range(64))
        m.gate_config["keccak"] = True
        m.run()
        bits = 512 if "512" in line else 256
        seeds = m.r0 + m.r1 if bits == 512 else m.r0
        assert seeds == hashlib.new(f"sha3_{bits}", message).digest()

    @pytest.mark.parametrize("gated", ["sampler", "keccak"])
    @pytest.mark.parametrize("line", [
        "rej_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, poly = 1)",
        "bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 2, poly = 1)",
        "cdt_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, r = 16, s = 11, poly = 1)",
        "uni_sample (prng = SHAKE-128, seed = r0, c0 = 1, c1 = 2, eta = 5, bitlen = 4, poly = 1)",
        "tri_sample_1 (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, m = 40, poly = 1)",
        "tri_sample_2 (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, m0 = 11, m1 = 12, poly = 1)",
        "tri_sample_3 (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, rho = 3, poly = 1)"],
        ids=lambda line: line.split()[0])
    def test_gated_sampler_fault_charges_nothing(self, line, gated):
        # a sampler charges keccak and sampler cycles; a strict-gating
        # fault on either unit charges neither
        m = seeded(Machine(strict_gating=True))
        m.load_cdt(sampler.CdtTable.from_sigma(2.75, 11, 16))
        gates = {unit: "GATE" if unit == gated else "UNGATE"
                 for unit in ("keccak", "ntt", "sampler")}
        m.load_program(f"""
        config (n = 256, q = 7681)
        clock_config (keccak = {gates["keccak"]}, ntt = UNGATE, sampler = {gates["sampler"]})
        {line}
        """)
        m.step()
        m.step()
        before = (m.cycles, dict(m.per_unit), dict(m.per_insn))
        for _ in range(3):
            with pytest.raises(MachineFault, match=f"clock-gated unit '{gated}'"):
                m.step()
            assert (m.pc, m.cycles, m.per_unit, m.per_insn) == (2, *before)

    def test_permissive_mode_runs_gated_unit(self):
        m = Machine()
        m.load_program("""
        config (n = 256, q = 7681)
        clock_config (keccak = UNGATE, ntt = GATE, sampler = UNGATE)
        mult_psi (poly = 0)
        """)
        rep = m.run()
        assert rep.per_unit["ntt"] == 0
        assert rep.total >= 257


class TestPolyOps:
    def _setup(self, n=256, q=7681):
        m = Machine()
        m.load_program(f"config (n = {n}, q = {q})")
        m.run()
        return m

    def test_add_sub_mul_against_vector_oracle(self):
        rng = random.Random(0)
        q = 7681
        for op, fn in (("ADD", lambda x, y: (x + y) % q),
                       ("SUB", lambda x, y: (x - y) % q),
                       ("MUL", lambda x, y: (x * y) % q)):
            m = self._setup()
            src = [rng.randrange(q) for _ in range(256)]
            dst = [rng.randrange(q) for _ in range(256)]
            m.write_slot(1, src)
            m.write_slot(2, dst)
            m.load_program(f"config (n = 256, q = 7681)\n"
                           f"poly_op (op = {op}, poly_dst = 2, poly_src = 1)")
            m.run()
            # first operand is poly_src, second is poly_dst
            assert m.read_slot(2) == [fn(x, y) for x, y in zip(src, dst)]

    def test_const_family(self):
        rng = random.Random(1)
        q = 7681
        src = [rng.randrange(q) for _ in range(256)]
        cases = {
            "CONST_ADD": lambda x: (x + 100) % q,
            "CONST_SUB": lambda x: (x - 100) % q,
            "CONST_MUL": lambda x: (x * 100) % q,
            "CONST_AND": lambda x: x & 100,
            "CONST_OR": lambda x: x | 100,
            "CONST_XOR": lambda x: x ^ 100,
            "CONST_RSHIFT": lambda x: x >> (100 & 31),
            "CONST_LSHIFT": lambda x: (x << (100 & 31)) & 0xFFFFFF,
        }
        for op, fn in cases.items():
            m = self._setup()
            m.write_slot(1, src)
            m.load_program(f"config (n = 256, q = 7681)\nreg = 100\n"
                           f"poly_op (op = {op}, poly_dst = 2, poly_src = 1)")
            m.run()
            assert m.read_slot(2) == [fn(x) for x in src], op

    def test_bitrev_permutes(self):
        m = self._setup(n=64)
        values = list(range(64))
        m.write_slot(1, values)
        m.load_program("config (n = 64, q = 7681)\n"
                       "poly_op (op = BITREV, poly_dst = 2, poly_src = 1)")
        m.run()
        from conftest import bitrev
        assert m.read_slot(2) == [values[bitrev(i, 6)] for i in range(64)]

    def test_shift_poly_rings(self):
        m = self._setup(n=64)
        values = [5] * 63 + [7]
        m.write_slot(1, values)
        m.load_program("config (n = 64, q = 7681)\n"
                       "shift_poly (ring = x^N+1, poly_dst = 2, poly_src = 1)\n"
                       "shift_poly (ring = x^N-1, poly_dst = 3, poly_src = 1)")
        m.run()
        assert m.read_slot(2) == [7681 - 7] + values[:-1]   # negacyclic wrap
        assert m.read_slot(3) == [7] + values[:-1]          # plain rotation

    def test_shift_poly_is_multiplication_by_x(self):
        # negacyclic shift equals the pipeline product with the monomial x
        from conftest import schoolbook_negacyclic
        rng = random.Random(9)
        q, n = 7681, 64
        a = [rng.randrange(q) for _ in range(n)]
        x = [0, 1] + [0] * (n - 2)
        m = self._setup(n=n)
        m.write_slot(1, a)
        m.load_program("config (n = 64, q = 7681)\n"
                       "shift_poly (ring = x^N+1, poly_dst = 2, poly_src = 1)")
        m.run()
        assert m.read_slot(2) == schoolbook_negacyclic(a, x, q)

    def test_sum_and_max_elems(self):
        m = self._setup(n=64)
        values = list(range(100, 164))
        m.write_slot(1, values)
        m.load_program("config (n = 64, q = 7681)\nreg = sum_elems (poly = 1)")
        m.run()
        assert m.reg == sum(values) % 7681
        m.load_program("config (n = 64, q = 7681)\nreg = max_elems (poly = 1)")
        m.run()
        assert m.reg == 163   # maximum canonical residue, not centered

    def test_poly_get_set_with_counters(self):
        m = self._setup(n=64)
        m.load_program("""
        config (n = 64, q = 7681)
        reg = 1234
        c0 = 9
        (poly = 1)[c0] = reg
        reg = 0
        reg = (poly = 1)[9]
        """)
        m.run()
        assert m.reg == 1234
        assert m.read_slot(1)[9] == 1234

    def test_init_and_copy(self):
        m = self._setup(n=64)
        m.write_slot(1, list(range(64)))
        m.load_program("config (n = 64, q = 7681)\n"
                       "poly_copy (poly_dst = 2, poly_src = 1)\n"
                       "init (poly = 1)")
        m.run()
        assert m.read_slot(2) == list(range(64))
        assert m.read_slot(1) == [0] * 64


class TestFlags:
    def test_eq_check_boundaries(self):
        m = Machine()
        m.load_program("config (n = 64, q = 7681)")
        m.run()
        a = list(range(64))
        m.write_slot(1, a)
        m.write_slot(2, list(a))
        m.load_program("config (n = 64, q = 7681)\n"
                       "flag = eq_check (poly_a = 1, poly_b = 2)")
        m.run()
        assert m.flag == 1
        b = list(a)
        b[63] = (b[63] + 1) % 7681
        m.write_slot(2, b)
        m.load_program("config (n = 64, q = 7681)\n"
                       "flag = eq_check (poly_a = 1, poly_b = 2)")
        m.run()
        assert m.flag == 0

    def test_eq_check_memory_trace_is_data_independent(self):
        # equal operands and operands differing at each index run the same
        # compare schedule: same memory cycles, same ledger
        traces = set()
        for differ in (None, 0, 3, 63):
            m = Machine()
            m.configure(64, 7681)
            a = list(range(64))
            b = list(a)
            if differ is not None:
                b[differ] += 1
            m.write_slot(1, a)
            m.write_slot(40, b)
            m.load_program("config (n = 64, q = 7681)\n"
                           "flag = eq_check (poly_a = 1, poly_b = 40)")
            m.cache.trace_enabled = True
            m.run()
            assert m.flag == (1 if differ is None else 0)
            traces.add((m.cache.mem_cycle, tuple(m.trace())))
        assert len(traces) == 1
        assert next(iter(traces))[0] == 2 * 64

    def test_inf_norm_boundary_values(self):
        q = 7681
        m = Machine()
        m.load_program(f"config (n = 64, q = {q})")
        m.run()
        # centered magnitude exactly at the bound passes; one over fails
        for value, bound, expect in [(50, 50, 1), (51, 50, 0),
                                     (q - 50, 50, 1), (q - 51, 50, 0),
                                     (q // 2, q // 2, 1)]:
            m.write_slot(1, [value] + [0] * 63)
            m.load_program(f"config (n = 64, q = {q})\n"
                           f"flag = inf_norm_check (poly = 1, bound = {bound})")
            m.run()
            assert m.flag == expect, (value, bound)


class TestSamplerInstructions:
    def test_sampler_matches_library(self):
        m = seeded()
        m.load_program("""
        config (n = 256, q = 7681)
        bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 1, k = 8, poly = 1)
        """)
        m.run()
        prng = keccak.sampler_prng("SHAKE-256", bytes(range(32, 64)), 0, 1)
        assert m.read_slot(1) == sampler.bin_sample(256, 8, 7681, prng)

    def test_counter_register_form(self):
        m = seeded()
        m.load_program("""
        config (n = 64, q = 7681)
        c0 = 123
        rej_sample (prng = SHAKE-128, seed = r0, c0 = c0, c1 = 0, poly = 1)
        """)
        m.run()
        prng = keccak.sampler_prng("SHAKE-128", bytes(range(32)), 123, 0)
        plan = sampler.RejectionPlan.for_modulus(7681)
        assert m.read_slot(1) == sampler.rej_sample(64, plan, prng)

    def test_cdt_uses_loaded_ram(self):
        m = seeded()
        table = sampler.CdtTable.from_sigma(2.75, 11, 16)
        m.load_cdt(table)
        m.load_program("""
        config (n = 64, q = 12289)
        cdt_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, r = 16, s = 11, poly = 1)
        """)
        m.run()
        prng = keccak.sampler_prng("SHAKE-256", bytes(range(32, 64)), 0, 0)
        assert m.read_slot(1) == sampler.cdt_sample(64, table, prng, q=12289)

    def test_cdt_invalid_ram_faults(self):
        m = seeded()
        m.load_cdt([50, 10])   # decreasing
        m.load_program("""
        config (n = 64, q = 12289)
        cdt_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, r = 8, s = 2, poly = 1)
        """)
        with pytest.raises(MachineFault):
            m.run()


class TestSha3Instructions:
    def test_absorb_poly_digest(self):
        m = seeded()
        m.configure(64, 7681)
        m.write_slot(1, list(range(64)))
        m.load_program("""
        config (n = 64, q = 7681)
        sha3_init
        sha3_256_absorb (poly = 1)
        r0 = sha3_256_digest
        """)
        m.run()
        data = b"".join(v.to_bytes(3, "little") for v in range(64))
        assert m.r0 == keccak.sha3_digest(data, 256)

    def test_digest_512_fills_both_seeds(self):
        m = seeded()
        m.load_program("""
        sha3_init
        sha3_512_absorb (r0)
        r0 || r1 = sha3_512_digest
        """)
        m.run()
        want = keccak.sha3_digest(bytes(range(32)), 512)
        assert m.r0 + m.r1 == want

    def test_mode_mismatch_faults(self):
        m = seeded()
        m.load_program("""
        sha3_init
        sha3_256_absorb (r0)
        r0 || r1 = sha3_512_digest
        """)
        with pytest.raises(MachineFault):
            m.run()


class TestFaults:
    def test_transform_without_config(self):
        m = Machine()
        m.load_program("transform (mode = DIF_NTT, poly_dst = 4, poly_src = 0)")
        with pytest.raises(MachineFault):
            m.run()

    def test_transform_without_ntt_modulus(self):
        m = Machine()
        m.load_program("config (n = 256, q = 32768)\n"
                       "transform (mode = DIF_NTT, poly_dst = 16, poly_src = 0)")
        with pytest.raises(MachineFault):
            m.run()

    def test_slot_out_of_range(self):
        m = Machine()
        m.load_program("config (n = 1024, q = 12289)\nmult_psi (poly = 9)")
        with pytest.raises(MachineFault):
            m.run()

    def test_same_bank_transform(self):
        m = Machine()
        m.load_program("config (n = 1024, q = 12289)\n"
                       "transform (mode = DIF_NTT, poly_dst = 1, poly_src = 0)")
        with pytest.raises(MachineFault) as err:
            m.run()
        assert str(err.value) == "pc=1: transform: src slot 0 and dst slot 1 share a bank"

    def test_psi_multiply_fault_names_its_op(self):
        for op in ("mult_psi", "mult_psi_inv"):
            m = Machine()
            m.load_program(f"config (n = 256, q = 32768)\n{op} (poly = 0)")
            with pytest.raises(MachineFault) as err:
                m.run()
            assert str(err.value) == f"pc=1: {op} with q=32768: no NTT constants"

    def test_unknown_op_refused_by_the_program(self):
        m = Machine()
        with pytest.raises(isa.DecodeError) as err:
            m.load_program(isa.Program([isa.Instruction("sha3_init", {}),
                                        isa.Instruction("frobnicate", {})]))
        assert str(err.value) == "instruction 1: unknown instruction 'frobnicate'"
        assert m.program is None and m.halted

    def test_branch_past_the_end_refused_by_the_program(self):
        """The target is checked when the Program is made, so the machine
        never sees it and keeps the program it has."""
        m = Machine()
        m.load_program("c0 = 1")
        with pytest.raises(isa.DecodeError) as err:
            m.load_program(isa.Program([isa.Instruction(
                "branch", {"sense": "==", "flag": 0, "target": 9})]))
        assert (err.value.index, err.value.reason) == (0, "branch target 9 out of range [0, 1]")
        assert (len(m.program), m.pc, m.cycles, m.halted) == (1, 0, 0, False)
        assert m.run().total == 1 and m.c0 == 1

    def test_sampler_word_budget(self):
        # eta = 0 over 16-bit candidates accepts 1 word in 65536: about
        # 67 M words for n = 1024, far past the 2^20-word budget
        m = seeded()
        m.load_program("""
        config (n = 1024, q = 12289)
        uni_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, eta = 0, bitlen = 16, poly = 1)
        """)
        with pytest.raises(MachineFault, match="pc=1: uni_sample: word budget"):
            m.run()

    # CONST_OR writes 16000000 | v: 24-bit words far above q, which the
    # transform once turned into a 28-bit word (OverflowError at the
    # absorb) and psi-multiply into silent non-residues
    NON_RESIDUES = ("config (n = 8, q = 7681)\n"
                    "reg = 16000000\n"
                    "poly_op (op = CONST_OR, poly_dst = 0, poly_src = 0)\n")

    def test_transform_of_non_residues_faults(self):
        m = seeded()
        m.load_program(self.NON_RESIDUES
                       + "transform (mode = DIF_NTT, poly_dst = 70, poly_src = 0)\n"
                       "sha3_256_absorb (poly = 70)")
        with pytest.raises(MachineFault, match="transform: residue 16000000"):
            m.run()

    # a faulting step must not first run its access (mem_cycle 0 -> 192),
    # write reg (0 -> 9) or tag a src whose scan passed (slot 3 holds
    # zeros that the configure left untagged)
    FAULTS_AFTER_AN_EFFECT = {
        "non-residue ADD": (False, "poly_op (op = ADD, poly_dst = 0, poly_src = 5)",
                            "poly_op: residue 9000 out of range [0, 7681)"),
        "gated max_elems": (True, "reg = max_elems (poly = 0)",
                            "elems drives clock-gated unit 'ntt'"),
        "transform bank clash": (False, "transform (mode = DIF_NTT, poly_dst = 1, poly_src = 3)",
                                 "transform: src slot 3 and dst slot 1 share a bank"),
    }

    @pytest.mark.parametrize("case", list(FAULTS_AFTER_AN_EFFECT))
    def test_a_faulting_step_changes_nothing(self, case):
        strict, program, message = self.FAULTS_AFTER_AN_EFFECT[case]
        m = Machine(strict_gating=strict)
        m.configure(64, 7681)
        m.write_slot(0, [9] + [0] * 63)
        m.write_slot(5, [9000] * 64)
        m.gate_config["ntt"] = not strict
        m.cache.trace_enabled = True
        m.load_program(program)

        def state():
            return (copy.deepcopy(m.cache.data), m.reg, m.tmp, m.flag, m.c0, m.c1,
                    m.r0, m.r1, m.sha3, m.pc, m.cycles, dict(m.per_unit),
                    dict(m.per_insn), m.cache.mem_cycle, list(m.cache.ledger),
                    set(m.residues))
        before = state()
        with pytest.raises(MachineFault) as err:
            m.step()
        assert str(err.value) == f"pc=0: {message}"
        assert state() == before

    @pytest.mark.parametrize("op", ["mult_psi", "mult_psi_inv"])
    def test_psi_multiply_of_non_residues_faults(self, op):
        m = seeded()
        m.load_program(self.NON_RESIDUES + f"{op} (poly = 0)")
        with pytest.raises(MachineFault, match=f"{op}: residue 16000000"):
            m.run()
        assert m.read_slot(0) == [16000000] * 8


class TestHostInterface:
    # True would dump as "True"; float words left a transform's output as
    # floats, a str escaped as TypeError, and numpy words as AttributeError
    # at a later absorb
    @pytest.mark.parametrize("word", [3.5, "a", np.int64(5), True],
                             ids=["float", "str", "numpy-int64", "bool"])
    def test_write_slot_takes_only_int_words(self, word):
        m = Machine()
        m.configure(64, 7681)
        m.write_slot(0, list(range(64)))
        with pytest.raises(CacheError, match="not an int"):
            m.write_slot(0, [1] * 63 + [word])
        assert m.read_slot(0) == list(range(64)) and m.residues == {0}

    def test_numpy_words_do_not_reach_the_absorb(self):
        m = seeded()
        m.configure(8, 7681)
        with pytest.raises(CacheError, match="int64, not an int"):
            m.write_slot(0, np.arange(8, dtype=np.int64))
        m.load_program("sha3_init\nsha3_256_absorb (poly = 0)\nr0 = sha3_256_digest")
        m.run()
        assert m.r0 == hashlib.sha3_256(bytes(24)).digest()

    @pytest.mark.parametrize("data", ["a" * 32, [300] * 32, list(range(32)), bytes(31), None],
                             ids=["str", "list-300", "int-list", "31-bytes", "none"])
    def test_write_seed_takes_32_bytes(self, data):
        m = seeded()
        with pytest.raises(MachineFault, match="seed registers are 32 bytes"):
            m.write_seed("r0", data)
        m.write_seed("r1", bytearray(32))
        assert (m.r0, m.r1) == (bytes(range(32)), bytes(32))

    @pytest.mark.parametrize("entries", [[0.5, 1.5], ["a"], [np.int64(3)], [1 << 32]],
                             ids=["float", "str", "numpy-int64", "2^32"])
    def test_load_cdt_takes_32_bit_ints(self, entries):
        m = Machine()
        m.load_cdt([1, 2])
        with pytest.raises(MachineFault, match="CDT entries are 32-bit words"):
            m.load_cdt(entries)
        assert m.cdt_ram[:3] == [1, 2, 0]

    # each escaped as TypeError or AttributeError, or, for the bool slot,
    # loaded slot 1 and left True among the residue tags; a run with a
    # str or float limit stepped once before its TypeError, and True ran
    # as a limit of 1
    @pytest.mark.parametrize("call, error", [
        (lambda m: m.read_slot(1.0), CacheError),
        (lambda m: m.write_slot("0", [0] * 8), CacheError),
        (lambda m: m.write_slot(True, [0] * 8), CacheError),
        (lambda m: m.write_slot(0, iter([0] * 8)), CacheError),
        (lambda m: m.load_cdt(None), MachineFault),
        (lambda m: m.load_program([]), MachineFault),
        (lambda m: m.configure("8", 7681), MachineFault),
        (lambda m: m.configure(8, "7681"), MachineFault),
        (lambda m: m.configure(8.0, 7681), MachineFault),
        (lambda m: m.configure(None, None), MachineFault),
        (lambda m: m.run(max_cycles="5"), MachineFault),
        (lambda m: m.run(max_cycles=1.5), MachineFault),
        (lambda m: m.run(max_cycles=True), MachineFault),
    ], ids=["float-slot", "str-slot", "bool-slot", "iterator-words", "none-cdt",
            "list-program", "str-n", "str-q", "float-n", "none-n-q",
            "str-max-cycles", "float-max-cycles", "bool-max-cycles"])
    def test_host_calls_take_only_their_documented_types(self, call, error):
        m = Machine()
        m.configure(8, 7681)
        m.write_slot(1, [9000] * 8)
        m.load_cdt([1, 2])
        m.load_program("c0 = 1")

        def state():
            return (m.cache.data, m.residues, m.cdt_ram, m.program, m.halted,
                    m.n, m.q, m.cfg)
        before = copy.deepcopy(state()[:3]) + state()[3:]
        with pytest.raises(error):
            call(m)
        assert state() == before

    def test_configure_refuses_none_on_a_fresh_machine(self):
        # (None, None) is what a fresh machine holds, so it once passed as
        # a call that changes nothing
        m = Machine()
        with pytest.raises(MachineFault, match="n and q must be ints"):
            m.configure(None, None)
        assert (m.n, m.q, m.cache.n) == (None, None, None)

    def test_slot_round_trip(self):
        m = Machine()
        m.load_program("config (n = 512, q = 12289)")
        m.run()
        rng = random.Random(2)
        v = [rng.randrange(12289) for _ in range(512)]
        m.write_slot(5, v)
        assert m.read_slot(5) == v

    def test_slot_count_tracks_n(self):
        m = Machine()
        for n, slots in ((1024, 8), (256, 32)):
            m.load_program(f"config (n = {n}, q = 12289 )".replace("12289 ", "12289"))
            m.run()
            assert m.cache.slots == slots

    def test_configure_again(self):
        m = Machine()
        m.configure(64, 7681)
        m.write_slot(0, [7680] * 64)
        m.write_slot(1, [7681] * 64)
        assert m.residues == {0}
        consts = m.consts
        m.configure(64, 7681)           # changes nothing
        assert m.consts is consts and m.residues == {0}
        m.configure(64, 12289)          # a new q for the same n
        assert (m.cfg.q, m.consts.q, m.rej_plan.q) == (12289,) * 3
        assert m.residues == set() and m.read_slot(0) == [7680] * 64
        m.cache.configure(8)            # the cache repartitioned by itself
        m.configure(64, 12289)
        assert m.cache.n == 64 and m.read_slot(1) == [7681] * 64

    def test_determinism_end_to_end(self):
        def run_once():
            m = seeded()
            m.load_program("""
            config (n = 256, q = 7681)
            rej_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, poly = 0)
            bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 4, poly = 1)
            mult_psi (poly = 1)
            transform (mode = DIF_NTT, poly_dst = 16, poly_src = 1)
            poly_op (op = MUL, poly_dst = 0, poly_src = 16)
            """)
            rep = m.run()
            return m.read_slot(0), rep.total
        assert run_once() == run_once()


class TestLoadProgram:
    """load_program replaces the program that step and run execute."""

    def test_second_program_replaces_the_first(self):
        m = Machine()
        m.load_program("c0 = 5\nc0 = c0 + 1\nc0 = c0 + 1\nc0 = c0 + 1")
        m.step()
        m.step()
        m.load_program("c1 = 7\nc1 = c1 - 2")
        assert (m.pc, m.cycles, m.halted) == (0, 0, False)
        m.step()
        assert (m.pc, m.c0, m.c1, m.per_insn) == (1, 6, 7, {"cnt": 1})
        report = m.run()
        assert (m.pc, m.c0, m.c1, report.total, report.halted) == (2, 6, 5, 2, True)
        m.load_program("tmp = 3\nreg = 4\ntmp = tmp MUL reg\nreg = tmp\nc0 = 1")
        report = m.run()
        assert (m.pc, m.reg, m.c0, report.per_instruction) == (
            5, 12, 1, {"regop": 4, "cnt": 1})

    def test_unknown_op_refused_and_the_loaded_program_kept(self):
        m = Machine()
        m.load_program("c0 = 1\nc0 = c0 + 1")
        m.step()
        with pytest.raises(isa.DecodeError) as err:
            m.load_program(isa.Program(
                [isa.Instruction("cnt", {"counter": "c1", "mode": "set", "value": 9})] * 2
                + [isa.Instruction("frobnicate", {})]))
        assert str(err.value) == "instruction 2: unknown instruction 'frobnicate'"
        m.run()
        assert (m.c0, m.c1, m.pc, m.cycles) == (2, 0, 2, 2)

    def test_stepping_a_halted_machine_raises(self):
        m = Machine()
        with pytest.raises(MachineFault, match="machine is halted"):
            m.step()
        m.load_program("c0 = 1")
        m.run()
        with pytest.raises(MachineFault, match="machine is halted"):
            m.step()
        assert (m.pc, m.cycles) == (1, 1)


def test_readme_cycle_table_matches_the_machine():
    """README's "Cycle model" rows against ``Machine._OPS``: the same ops,
    each op's bucket column naming the units that strict gating checks,
    each fixed rule's cycles at several n, and a data-dependent row
    exactly for the ops without a fixed rule."""
    table = readme_cycle_table()
    assert set(table) == set(Machine._OPS)
    for op, (_handler, units, _rule) in Machine._OPS.items():
        assert table[op][1] == " + ".join(units), op
    m = Machine()
    for n in (8, 256, 1024, 2048):
        m.configure(n, 12289)
        for op, (_handler, _units, rule) in Machine._OPS.items():
            cycles = table[op][0]
            if rule is None:
                assert "/permutation" in cycles, op
            else:
                assert fixed_cycles(cycles, n) == rule(m), (op, n)


def test_step_returns_execution_events():
    m = Machine()
    m.load_program("c0 = 1\nc0 = c0 + 1")
    m.step()
    assert (m.pc, m.cycles, m.per_insn, m.halted) == (1, 1, {"cnt": 1}, False)
    m.step()
    assert (m.pc, m.cycles, m.per_insn, m.halted) == (2, 2, {"cnt": 2}, True)
    assert m.c0 == 2


class TestRemainingSamplerWiring:
    def test_uni_sample_instruction(self):
        m = seeded()
        m.load_program("""
        config (n = 256, q = 12289)
        uni_sample (prng = SHAKE-128, seed = r0, c0 = 2, c1 = 1, eta = 5, bitlen = 4, poly = 3)
        """)
        m.run()
        prng = keccak.sampler_prng("SHAKE-128", bytes(range(32)), 2, 1)
        assert m.read_slot(3) == sampler.uni_sample(256, 5, 4, 12289, prng)

    def test_tri_sample_instructions(self):
        q = 7681
        for line, fn in [
            ("tri_sample_1 (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, m = 40, poly = 3)",
             lambda p: sampler.tri_sample_fixed(256, 40, q, p)),
            ("tri_sample_2 (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, m0 = 11, m1 = 12, poly = 3)",
             lambda p: sampler.tri_sample_split(256, 11, 12, q, p)),
            ("tri_sample_3 (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, rho = 3, poly = 3)",
             lambda p: sampler.tri_sample_prob(256, 3, q, p)),
        ]:
            m = seeded()
            m.load_program(f"config (n = 256, q = {q})\n{line}")
            m.run()
            prng = keccak.sampler_prng("SHAKE-256", bytes(range(32, 64)), 0, 0)
            assert m.read_slot(3) == fn(prng), line

    def test_sampler_precondition_faults(self):
        m = seeded()
        m.load_program("config (n = 256, q = 7681)\n"
                       "uni_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, eta = 200, bitlen = 8, poly = 3)")
        with pytest.raises(MachineFault):
            m.run()   # 2*eta+1 = 401 > 2^8

    def test_cdt_support_reaching_q_faults(self):
        # |sample| <= s = 5 >= q = 3: one conditional add cannot make a
        # residue, which once escaped as CacheError
        m = seeded()
        m.load_cdt([1, 2, 3, 4, 5])
        m.load_program("config (n = 8, q = 3)\n"
                       "cdt_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, r = 8, s = 5, poly = 0)")
        with pytest.raises(MachineFault, match="cdt_sample"):
            m.run()

    def test_bin_k_reaching_q_faults(self):
        # k = 19 >= q = 3 used to store the non-residues 3, 4 and 5
        m = seeded()
        m.load_program("config (n = 8, q = 3)\n"
                       "bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 19, poly = 0)")
        with pytest.raises(MachineFault, match="bin_sample"):
            m.run()


def test_measurement_loop_corpus_full_1000_iterations():
    # the shipped measurement program: 1000 gated transform iterations
    from sapphire.protocols import _program_text
    m = seeded()
    m.load_program(_program_text("ntt_measurement_loop.sph"))
    rep = m.run()
    assert m.c0 == 1000
    assert rep.per_unit["ntt"] == 1000 * 6155
    assert rep.per_unit["keccak"] == 0 and rep.per_unit["sampler"] == 0
    # control overhead: 3 scalar ops per iteration plus setup
    assert rep.per_unit["alu"] == 2 + 1 + 3 * 1000


def test_sampler_keccak_cycle_formula():
    m = seeded()
    m.load_program("""
    config (n = 256, q = 7681)
    bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, k = 8, poly = 1)
    """)
    rep = m.run()
    # 256 32-bit words from SHAKE-256 (rate 1088): the seed-block finalize
    # permutation plus seven block refills
    assert rep.per_unit["keccak"] == 24 * 8
    assert rep.per_unit["sampler"] == 256 + 256
