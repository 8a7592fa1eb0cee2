"""Fetch/decode/execute engine with cycle accounting and clock-gate stats.

The cycle model is one table, ``Machine._OPS``: each op's handler, the
units it drives and its fixed cycle rule.  README's "Cycle model" section
lists it.  The transform and psi-multiply rules reproduce the hardware's
(n/2 + 1) * lg n + (n + 1) transform cost exactly; the others are
documented emulator estimates.  Ops whose cost depends on the data (the
samplers, ``sha3_absorb`` and ``sha3_digest``) have no fixed rule and
charge themselves.

Cycles are attributed to one of four statistics buckets: "alu" (scalar
and control), "ntt" (butterfly/polynomial datapath), "keccak"
(permutations) and "sampler" (word shifts and sample writes).  The
clock_config instruction gates buckets: a gated unit's cycles still count
toward the total (functional behavior is unchanged) but stop accumulating
in its bucket.  In strict gating mode, touching a gated unit faults.

``isa.Program`` admits only instructions the decoder could produce, so
``Machine.step`` takes ops, enum operands and branch targets as given.
It looks the instruction up in ``_OPS``, runs its handler, charges its
rule, and is the one fault boundary: the units check their own operands,
and step turns any error an instruction raises into a ``MachineFault``
carrying that instruction's pc.  Every check of a step comes before its
first effect, so a faulting step changes nothing.

The transform, the psi-multiplies and ``poly_op ADD/SUB/MUL`` fault on an
operand word outside [0, q).  ``Machine.residues`` holds the slots known
to contain only such residues, so that only the others are scanned: the
writers that reduce mod q tag their dst, copies and permutations pass
the tag of their src on, a host load tags its slot when its largest word
is below q, and every other write clears it.
"""

import operator

from . import isa, keccak, modmath, nttcore, polycache, sampler
from .record import Record

WORD_MASK = (1 << 24) - 1

# what the units raise on a bad operand; step makes each a MachineFault
_UNIT_ERRORS = (polycache.CacheError, nttcore.NttError, sampler.SamplerError,
                modmath.ModMathError)

# regop ALU operations on (tmp, reg), in isa.REG_ALU_OPS order
_ALU = (operator.add, operator.sub, operator.mul, operator.and_, operator.or_,
        operator.xor, lambda x, y: x >> (y & 31), lambda x, y: x << (y & 31))

# poly_op kinds whose every result word is reduced mod q
_REDUCING = frozenset(("ADD", "SUB", "MUL", "CONST_ADD", "CONST_SUB", "CONST_MUL"))

# poly_op kind -> whole-slot kernel (src x, dst y, reg r, q) -> new dst;
# the CONST_* kinds take their scalar operand from reg.  Python % equals
# every reduction strategy of modmath.reducer on [0, q^2).
_POLY_OPS = {
    "ADD": lambda x, y, r, q: [(a + b) % q for a, b in zip(x, y)],
    "SUB": lambda x, y, r, q: [(a - b) % q for a, b in zip(x, y)],
    "MUL": lambda x, y, r, q: [a * b % q for a, b in zip(x, y)],
    "BITREV": lambda x, y, r, q: [x[i] for i in polycache.bit_reversal(len(x))],
    "CONST_ADD": lambda x, y, r, q: [(a + r) % q for a in x],
    "CONST_SUB": lambda x, y, r, q: [(a - r) % q for a in x],
    "CONST_MUL": lambda x, y, r, q: [a * r % q for a in x],
    "CONST_AND": lambda x, y, r, q: [a & r for a in x],
    "CONST_OR": lambda x, y, r, q: [(a | r) & WORD_MASK for a in x],
    "CONST_XOR": lambda x, y, r, q: [(a ^ r) & WORD_MASK for a in x],
    "CONST_RSHIFT": lambda x, y, r, q: [a >> (r & 31) for a in x],
    "CONST_LSHIFT": lambda x, y, r, q: [(a << (r & 31)) & WORD_MASK for a in x],
}

# sampler instruction -> (function of the sampler module, its keyword
# arguments other than n and prng); the function is looked up per call
_SAMPLERS = {
    "rej_sample": ("rej_sample", lambda m, a: {"plan": m.rej_plan}),
    "bin_sample": ("bin_sample", lambda m, a: {"k": a["k"], "q": m.q}),
    "cdt_sample": ("cdt_sample", lambda m, a: {
        "table": sampler.CdtTable(tuple(m.cdt_ram[:a["s"]]), a["s"], a["r"]),
        "q": m.q}),
    "uni_sample": ("uni_sample", lambda m, a: {
        "eta": a["eta"], "bitlen": a["bitlen"], "q": m.q}),
    "tri_sample_1": ("tri_sample_fixed", lambda m, a: {"m": a["m"], "q": m.q}),
    "tri_sample_2": ("tri_sample_split", lambda m, a: {
        "m0": a["m0"], "m1": a["m1"], "q": m.q}),
    "tri_sample_3": ("tri_sample_prob", lambda m, a: {"k": a["rho"], "q": m.q}),
}

# (units, fixed cycle rule) pairs of Machine._OPS; a fixed rule charges
# the first unit, and an op with no rule charges its cycles itself
_SCALAR = (("alu",), lambda m: 1)
_PER_COEFF = (("ntt",), lambda m: m.n + 1)


class MachineFault(RuntimeError):
    def __init__(self, message, pc=None):
        self.pc = pc
        super().__init__(message if pc is None else f"pc={pc}: {message}")


class CycleReport(Record):
    _fields = ("total", "per_unit", "per_instruction", "halted")

    def __init__(self, total, per_unit, per_instruction, halted):
        self.total = total
        self.per_unit = per_unit
        self.per_instruction = per_instruction
        self.halted = halted

    def lines(self):
        out = [f"cycles_total {self.total}", f"halted {int(self.halted)}"]
        for unit in sorted(self.per_unit):
            out.append(f"cycles_{unit} {self.per_unit[unit]}")
        for op in sorted(self.per_instruction):
            out.append(f"insn_{op} {self.per_instruction[op]}")
        return out


class Machine:
    """One crypto-processor instance: cache, registers and cycle ledger."""

    def __init__(self, strict_gating=False):
        self.cache = polycache.PolynomialCache()
        self.r0 = bytes(32)
        self.r1 = bytes(32)
        self.c0 = 0
        self.c1 = 0
        self.reg = 0
        self.tmp = 0
        self.flag = 0
        self.cdt_ram = [0] * 64
        self.pc = 0
        self.cycles = 0
        self.halted = True
        self.gate_config = {"keccak": True, "ntt": True, "sampler": True}
        self.strict_gating = strict_gating
        self.program = None
        self.n = None
        self.q = None
        self.consts = None
        self.rej_plan = None
        self.sha3 = None
        self.residues = set()   # slots holding only words in [0, q)
        self.per_unit = {"alu": 0, "ntt": 0, "keccak": 0, "sampler": 0}
        self.per_insn = {}

    # ------------------------------------------------------------- host API

    def load_program(self, program):
        """Load listing text or an ``isa.Program``."""
        if isinstance(program, str):
            program = isa.assemble(program)
        elif not isinstance(program, isa.Program):
            raise MachineFault(f"a program is listing text or an isa.Program, "
                               f"not a {type(program).__name__}")
        self.program = program
        self.reset()

    def reset(self):
        """Clear pc/cycle/statistics state; registers and memories persist."""
        self.pc = 0
        self.cycles = 0
        self.halted = self.program is None or not self.program.instructions
        self.per_unit = {"alu": 0, "ntt": 0, "keccak": 0, "sampler": 0}
        self.per_insn = {}
        self.cache.clear_ledger()

    def write_seed(self, which, data):
        if not isinstance(data, (bytes, bytearray)) or len(data) != 32:
            raise MachineFault("seed registers are 32 bytes")
        if which == "r0":
            self.r0 = bytes(data)
        elif which == "r1":
            self.r1 = bytes(data)
        else:
            raise MachineFault(f"unknown seed register {which!r}")

    def configure(self, n, q):
        """Host-side parameter setup, equivalent to the config instruction
        but free of program cycles; needed before host data movement on a
        fresh machine.  n and q must be ints; a call that changes nothing
        returns at once."""
        if type(n) is not int or type(q) is not int:
            raise MachineFault(f"configure: n and q must be ints, not "
                               f"{type(n).__name__} and {type(q).__name__}")
        if (n, q) == (self.n, self.q) and self.cache.n == n:
            return
        try:
            # the profile rejects a q that has no valid Barrett (m, k) pair
            cfg = nttcore.LatticeConfig.make(n, q)
        except (modmath.ModMathError, nttcore.NttError) as exc:
            raise MachineFault(f"configure: {exc}") from None
        if (n, q) != (self.n, self.q):
            self.residues.clear()
        self.n, self.q = n, q
        self.cfg = cfg
        try:
            self.consts = nttcore.gen_constants(cfg)
        except nttcore.NttError:
            self.consts = None   # no NTT for this modulus (e.g. Frodo)
        self.rej_plan = sampler.RejectionPlan.for_modulus(q)
        self.cache.configure(n)

    def write_slot(self, slot, values):
        self._tag(slot, self.cache.load_slot(slot, values) < self.q)

    def read_slot(self, slot):
        return self.cache.dump_slot(slot)

    def load_cdt(self, table):
        """Load a CdtTable (or raw entry list) into the 64x32 CDT RAM."""
        entries = table.entries if isinstance(table, sampler.CdtTable) else table
        if not isinstance(entries, (list, tuple)) or len(entries) > 64:
            raise MachineFault("CDT RAM takes a list of at most 64 entries")
        for e in entries:
            if type(e) is not int or not 0 <= e < (1 << 32):
                raise MachineFault("CDT entries are 32-bit words")
        self.cdt_ram = list(entries) + [0] * (64 - len(entries))

    def cycle_report(self):
        return CycleReport(self.cycles, dict(self.per_unit),
                           dict(self.per_insn), self.halted)

    def trace(self):
        return self.cache.trace_lines()

    # ------------------------------------------------------------ execution

    def _use(self, op, *charges):
        """Charge op's (unit, cycles) pairs; a gated unit's cycles count
        toward the total only."""
        gates = self.gate_config        # no entry for the ungateable alu
        for unit, cycles in charges:
            if gates.get(unit, True):
                self.per_unit[unit] += cycles
            self.cycles += cycles
            self.per_insn[op] = self.per_insn.get(op, 0) + cycles

    def step(self):
        if self.halted:
            raise MachineFault("machine is halted")
        pc = self.pc
        insn = self.program.instructions[pc]
        handler, units, rule = self._OPS[insn.op]
        try:
            if self.strict_gating:
                for unit in units:
                    if not self.gate_config.get(unit, True):
                        raise MachineFault(f"{insn.op} drives clock-gated unit {unit!r}")
            jump = handler(self, insn.args, insn.op)
            if rule is not None:
                self._use(insn.op, (units[0], rule(self)))
        except MachineFault as exc:
            raise MachineFault(str(exc), pc) from None
        except _UNIT_ERRORS as exc:
            raise MachineFault(f"{insn.op}: {exc}", pc) from None
        self.pc = pc + 1 if jump is None else jump
        if self.pc == len(self.program.instructions):
            self.halted = True

    def run(self, max_cycles=None):
        """Step until halted or until max_cycles (None or an int) have run."""
        if max_cycles is not None and type(max_cycles) is not int:
            raise MachineFault(f"run: max_cycles must be None or an int, not "
                               f"{type(max_cycles).__name__}")
        while not self.halted:
            self.step()
            if max_cycles is not None and self.cycles >= max_cycles:
                break
        return self.cycle_report()

    # ----------------------------------------------------------- semantics

    def _exec_config(self, a, op):
        self.configure(a["n"], a["q"])

    def _exec_clock_config(self, a, op):
        for unit in ("keccak", "ntt", "sampler"):
            self.gate_config[unit] = a[unit] == "UNGATE"

    def _exec_cnt(self, a, op):
        cur = getattr(self, a["counter"])
        v = a["value"]
        new = {"set": v, "add": cur + v, "sub": cur - v}[a["mode"]]
        setattr(self, a["counter"], new & 0xFFFF)

    def _exec_regop(self, a, op):
        if a["mode"] == "imm":
            setattr(self, a["target"], a["value"])
        elif a["mode"] == "copy":
            self.reg = self.tmp
        else:
            self.tmp = _ALU[a["value"]](self.tmp, self.reg) & WORD_MASK

    def _exec_elems(self, a, op):
        values, = self.cache.access("read", (a["poly"],))
        if a["fn"] == "max":
            self.reg = max(values)
        else:
            self.reg = sum(values) % self.q

    def _poly_index(self, a):
        return a["index"] if a["sel"] == "imm" else getattr(self, a["sel"])

    def _exec_poly_get(self, a, op):
        self.reg = self.cache.slot_read(a["poly"], self._poly_index(a))

    def _exec_poly_set(self, a, op):
        self.cache.slot_write(a["poly"], self._poly_index(a), self.reg)
        self.residues.discard(a["poly"])

    def _need_residues(self, *slots):
        """Raise ModMathError unless every coefficient of the given slots is
        a residue in [0, q); the error names the first one that is not.
        Only untagged slots are scanned; no slot word is negative, so the
        scan is ``max < q``."""
        q, data = self.q, self.cache.data
        if any(max(data[s]) >= q for s in slots if s not in self.residues):
            for vals in zip(*(data[s] for s in slots)):
                modmath._check_residues(q, *vals)

    def _tag(self, slot, known):
        """Record whether slot is known to hold only residues."""
        if known:
            self.residues.add(slot)
        else:
            self.residues.discard(slot)

    def _exec_transform(self, a, op):
        dst, src = a["poly_dst"], a["poly_src"]
        self.cache.slot_bank(src)       # range-check before the other faults
        if self.consts is None:
            raise MachineFault(f"transform with q={self.q}: no 2n-th root of unity")
        self._need_residues(src)
        nttcore.ntt(self.cfg, self.consts, self.cache, dst, src, a["mode"])
        self.residues.update((dst, src))    # dst and its scratch src

    def _exec_mult_psi(self, a, op):
        slot = a["poly"]
        self.cache.slot_bank(slot)
        if self.consts is None:
            raise MachineFault(f"{op} with q={self.q}: no NTT constants")
        self._need_residues(slot)
        fn = nttcore.mult_psi if op == "mult_psi" else nttcore.mult_psi_inv
        fn(self.cfg, self.consts, self.cache, slot)
        self.residues.add(slot)

    def _exec_sample(self, a, op):
        slot = a["poly"]
        self.cache.slot_bank(slot)      # range-check before the draw
        name, build = _SAMPLERS[op]
        seed = self.r0 if a["seed"] == "r0" else self.r1
        c0, c1 = (getattr(self, c) if c in ("c0", "c1") else c
                  for c in (a["c0"], a["c1"]))   # register or literal
        prng = keccak.sampler_prng(a["prng"], seed, c0, c1)
        values = getattr(sampler, name)(self.n, prng=prng, **build(self, a))
        self.cache.access("write", (slot,))[0][:] = values
        self.residues.add(slot)
        self._use(op, ("keccak", 24 * prng.permutes),
                  ("sampler", prng.words_out + self.n))

    def _exec_init(self, a, op):
        self.cache.slot_clear(a["poly"])
        self.residues.add(a["poly"])

    def _exec_poly_copy(self, a, op):
        y, x = self.cache.access("map", (a["poly_dst"], a["poly_src"]))
        y[:] = x
        self._tag(a["poly_dst"], a["poly_src"] in self.residues)

    def _exec_poly_op(self, a, op):
        kind = a["op"]
        ring = kind in ("ADD", "SUB", "MUL")
        schedule = "zip" if ring else "bitrev" if kind == "BITREV" else "map"
        dst, src = a["poly_dst"], a["poly_src"]
        if ring:        # range-check, as access does, before the scan
            self.cache.slot_bank(dst)
            self.cache.slot_bank(src)
            self._need_residues(src, dst)
        y, x = self.cache.access(schedule, (dst, src))
        y[:] = _POLY_OPS[kind](x, y, self.reg, self.q)
        self._tag(dst, kind in _REDUCING or kind == "BITREV" and src in self.residues)

    def _exec_shift_poly(self, a, op):
        y, x = self.cache.access("gather", (a["poly_dst"], a["poly_src"]))
        if a["ring"] == "x^N+1":
            head = (-x[-1]) % self.q     # negacyclic wrap picks up a sign
        else:
            head = x[-1]
        y[:] = [head] + x[:-1]
        self._tag(a["poly_dst"], a["poly_src"] in self.residues)

    def _exec_eq_check(self, a, op):
        # the whole compare schedule runs whatever the data
        x, y = self.cache.access("compare", (a["poly_a"], a["poly_b"]))
        self.flag = 1 if x == y else 0

    def _exec_inf_norm(self, a, op):
        values, = self.cache.access("read", (a["poly"],))
        q, half = self.q, self.q // 2
        worst = max([v if v <= half else abs(v - q) for v in values])
        self.flag = 1 if worst <= a["bound"] else 0

    def _exec_compare(self, a, op):
        cur = getattr(self, a["reg"])
        v = a["value"]
        self.flag = -1 if cur < v else (0 if cur == v else 1)

    def _exec_branch(self, a, op):
        taken = (self.flag == a["flag"]) == (a["sense"] == "==")
        return a["target"] if taken else None

    def _exec_sha3_init(self, a, op):
        self.sha3 = None

    def _sha3_state(self, bits):
        if self.sha3 is None:
            return keccak.KeccakState(f"SHA3-{bits}")    # the caller stores it
        if self.sha3[0] != bits:
            raise MachineFault(
                f"sha3 mode {bits} does not match absorbed mode {self.sha3[0]}")
        return self.sha3[1]

    def _exec_sha3_absorb(self, a, op):
        state = self._sha3_state(a["bits"])
        if a["source"] == "poly":
            values, = self.cache.access("read", (a["poly"],))
            data = b"".join([v.to_bytes(3, "little") for v in values])
        else:
            data = self.r0 if a["source"] == "r0" else self.r1
        self.sha3 = (a["bits"], state)
        before = state.permutes
        state.absorb(data)
        self._use(op, ("keccak",
                       24 * (state.permutes - before) + (len(data) + 3) // 4 + 1))

    def _exec_sha3_digest(self, a, op):
        state = self._sha3_state(a["bits"])
        before = state.permutes
        state.finalize()
        digest = state.squeeze(a["bits"] // 8)
        self.sha3 = None
        self._use(op, ("keccak", 24 * (state.permutes - before) + a["bits"] // 32 + 1))
        if a["bits"] == 256:
            self.write_seed(a["dest"], digest)
        else:
            self.write_seed("r0", digest[:32])
            self.write_seed("r1", digest[32:])

    # op -> (handler, units, fixed cycle rule); README's "Cycle model"
    _OPS = {
        "config": (_exec_config, *_SCALAR),
        "clock_config": (_exec_clock_config, *_SCALAR),
        "cnt": (_exec_cnt, *_SCALAR),
        "regop": (_exec_regop, *_SCALAR),
        "elems": (_exec_elems, *_PER_COEFF),
        "poly_get": (_exec_poly_get, *_SCALAR),
        "poly_set": (_exec_poly_set, *_SCALAR),
        "transform": (_exec_transform, ("ntt",), lambda m: (m.n // 2 + 1) * m.cfg.lg_n),
        "mult_psi": (_exec_mult_psi, *_PER_COEFF),
        "mult_psi_inv": (_exec_mult_psi, *_PER_COEFF),
        **dict.fromkeys(_SAMPLERS, (_exec_sample, ("keccak", "sampler"), None)),
        "init": (_exec_init, *_PER_COEFF),
        "poly_copy": (_exec_poly_copy, *_PER_COEFF),
        "poly_op": (_exec_poly_op, *_PER_COEFF),
        "shift_poly": (_exec_shift_poly, *_PER_COEFF),
        "eq_check": (_exec_eq_check, *_PER_COEFF),
        "inf_norm_check": (_exec_inf_norm, *_PER_COEFF),
        "compare": (_exec_compare, *_SCALAR),
        "branch": (_exec_branch, *_SCALAR),
        "sha3_init": (_exec_sha3_init, ("keccak",), lambda m: 1),
        "sha3_absorb": (_exec_sha3_absorb, ("keccak",), None),
        "sha3_digest": (_exec_sha3_digest, ("keccak",), None),
    }
