"""Spans around the emulator's layer entry points, recorded from outside.

Each layer is one module of ``sapphire``.  ``LAYERS`` names the public
functions and methods through which the rest of the emulator (and the
benchmark) calls into that layer.  ``Tracer.installed()`` replaces each of
them with a timing wrapper, on the module or on the class, and puts the
originals back on exit; no file of the emulator changes.  Because the
emulator looks these names up at call time (``modmath.mod_mul``,
``keccak_f1600`` inside ``KeccakState``, ``self.slot_read``), the wrappers
see calls made inside the emulator as well as calls made by the benchmark.

A span stands for every call of one entry point along one call path within
one op: it carries a name, a parent, the start of its first call, the end
of its last call, the number of calls and their summed duration.  Folding
repeated calls into one span keeps a frodo-tiled op, which makes about a
million accessor calls, at a few hundred spans.  All spans of an op share
the op's id and stay in memory until the run ends.

A span's self time is its summed duration minus the summed duration of its
child spans.  The op's root span has no layer; its self time is the
benchmark's own code between layer calls (the untraced remainder), so the
self times of all spans of an op add up to the op's traced duration.
"""

import contextlib
import statistics
import time

from sapphire import isa, keccak, machine, modmath, nttcore, polycache, protocols, sampler

SAMPLERS = ("rej_sample", "bin_sample", "cdt_sample", "uni_sample",
            "tri_sample_fixed", "tri_sample_split", "tri_sample_prob")

# layer -> (module, entry points).  "Class.method" entries are wrapped on
# the class; plain names on the module.
LAYERS = {
    "modmath": (modmath, (
        "mod_add", "mod_sub", "mod_mul", "reduce", "reducer",
        "ModulusProfile.for_modulus")),
    "keccak": (keccak, (
        "keccak_f1600", "sampler_prng", "shake128", "shake256", "sha3_digest",
        "KeccakState.__init__", "KeccakState.absorb", "KeccakState.finalize",
        "KeccakState.squeeze", "KeccakState.next_word")),
    "sampler": (sampler, SAMPLERS + (
        "RejectionPlan.for_modulus", "CdtTable.from_sigma")),
    "polycache": (polycache, (
        "PolynomialCache.configure", "PolynomialCache.clear_ledger",
        "PolynomialCache.slot_read", "PolynomialCache.slot_write",
        "PolynomialCache.slot_clear", "PolynomialCache.load_slot",
        "PolynomialCache.dump_slot")),
    "nttcore": (nttcore, (
        "gen_constants", "ntt", "mult_psi", "mult_psi_inv", "bit_reverse",
        "LatticeConfig.make")),
    "isa": (isa, ("assemble", "encode", "decode", "disassemble")),
    "machine": (machine, (
        "Machine.load_program", "Machine.reset", "Machine.configure",
        "Machine.write_seed", "Machine.write_slot", "Machine.read_slot",
        "Machine.load_cdt", "Machine.run", "Machine.step")),
    "protocols": (protocols, (
        "load_program", "newhope_keygen", "newhope_encrypt", "newhope_decrypt",
        "add_ciphertexts", "masked_decrypt", "encode_message", "decode_message",
        "frodo_as_plus_e", "frodo_sa_plus_e")),
}

# Sponges made inside Machine.run are the emulated PRNG and SHA3 units; the
# op's emulated Keccak counts are their own counters, ``permutes`` and
# ``words_out``.  Sponges the host makes for itself are not counted there.
SPONGE_INIT = "keccak.KeccakState.__init__"
MACHINE_RUN = "machine.Machine.run"

# Work done by one call, for the per-unit costs: samples drawn, butterflies.
WORK = {f"sampler.{name}": (lambda n, *_a, **_k: n) for name in SAMPLERS}
WORK["nttcore.ntt"] = lambda cfg, *_a, **_k: (cfg.n // 2) * cfg.lg_n


class Span:
    __slots__ = ("name", "layer", "parent", "children", "calls", "start",
                 "end", "total", "child_total", "work", "sponges")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.start = self.end = 0
        self.total = 0          # summed duration of all calls, ns
        self.child_total = 0    # summed duration of direct child calls, ns
        self.work = 0
        self.sponges = []       # root only: emulated KeccakStates of the op

    @property
    def self_ns(self):
        return self.total - self.child_total

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def ancestors(self):
        span = self
        while span is not None:
            yield span
            span = span.parent


class Tracer:
    """Collects one root span per op while its wrappers are installed."""

    def __init__(self):
        self.current = None     # innermost open span, None outside an op
        self.root = None        # root span of the open op
        self.ops = []           # (op id, root span)

    def _wrap(self, name, layer, fn):
        perf = time.perf_counter_ns
        work = WORK.get(name)
        sponge = name == SPONGE_INIT

        def traced(*args, **kwargs):
            parent = self.current
            if parent is None:
                return fn(*args, **kwargs)
            span = parent.children.get(name)
            if span is None:
                span = parent.children[name] = Span(name, layer, parent)
            self.current = span
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                self.current = parent
                if not span.calls:
                    span.start = t0
                span.end = t1
                span.calls += 1
                span.total += t1 - t0
                parent.child_total += t1 - t0
                if work is not None:
                    span.work += work(*args, **kwargs)
                if sponge and any(s.name == MACHINE_RUN for s in parent.ancestors()):
                    self.root.sponges.append(args[0])
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point in LAYERS; restore the originals on exit."""
        undo = []
        try:
            for layer, (module, entries) in LAYERS.items():
                for entry in entries:
                    owner_name, _, attr = entry.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    raw = vars(owner)[attr]
                    name = f"{layer}.{entry}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, layer, raw.__func__))
                    else:
                        new = self._wrap(name, layer, raw)
                    setattr(owner, attr, new)
                    undo.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; layer calls inside it become its children."""
        root = Span("op", None, None)
        self.current = self.root = root
        root.start = time.perf_counter_ns()
        try:
            yield root
        finally:
            root.end = time.perf_counter_ns()
            root.total = root.end - root.start
            root.calls = 1
            self.current = self.root = None
            self.ops.append((op_id, root))

    def spans(self):
        """Every recorded span as a flat record, times relative to its op."""
        out = []
        for op_id, root in self.ops:
            ids = {}
            for span in root.walk():
                ids[span] = len(out)
                out.append({
                    "id": len(out), "op": op_id, "name": span.name,
                    "parent": ids[span.parent] if span.parent else None,
                    "start_ns": span.start - root.start,
                    "end_ns": span.end - root.start,
                    "calls": span.calls, "total_ns": span.total,
                    "self_ns": span.self_ns,
                })
        return out


def summarize(roots):
    """Totals over the given op roots.

    Returns (by_name, under, layer_self, remainder): per span name
    [calls, total_ns, self_ns, work]; calls per (parent name, name); self
    ns per layer; and the summed self ns of the op roots.
    """
    by_name, under, layer_self = {}, {}, dict.fromkeys(LAYERS, 0)
    remainder = 0
    for root in roots:
        remainder += root.self_ns
        for span in root.walk():
            if span is root:
                continue
            row = by_name.setdefault(span.name, [0, 0, 0, 0])
            row[0] += span.calls
            row[1] += span.total
            row[2] += span.self_ns
            row[3] += span.work
            key = (span.parent.name, span.name)
            under[key] = under.get(key, 0) + span.calls
            layer_self[span.layer] += span.self_ns
    return by_name, under, layer_self, remainder


def sponge_counts(roots):
    """Emulated Keccak permutations and words summed over the ops' sponges."""
    sponges = [s for root in roots for s in root.sponges]
    return (sum(s.permutes for s in sponges), sum(s.words_out for s in sponges))


def op_counts(root, tally):
    """Emulated counts of one op: machine cycles per unit, memory cycles,
    Keccak permutations and words.  They depend only on the op's inputs."""
    counts = {key: tally[key] for key in (
        "emu_cycles", "emu_cycles.alu", "emu_cycles.ntt", "emu_cycles.keccak",
        "emu_cycles.sampler", "mem_cycles")}
    counts["keccak.permutations"], counts["keccak.words"] = sponge_counts([root])
    return counts


def layer_metrics(roots, tally, untraced_ms, traced_ms):
    """Per-layer metrics over the traced ops, normalised per op.

    ``tally`` holds the emulated counts summed over the same ops;
    ``untraced_ms`` and ``traced_ms`` are the latencies of the same inputs
    run without and with tracing.  Returns {name: (value, unit)}; a ratio
    whose base is zero (a layer the workload bypasses) reads 0.
    """
    by_name, under, layer_self, remainder = summarize(roots)
    permutes, words = sponge_counts(roots)
    ops = len(roots)

    def column(index, names):
        return sum(by_name.get(n, (0, 0, 0, 0))[index] for n in names)

    def calls(*names):
        return column(0, names)

    def total(*names):
        return column(1, names)

    def work(*names):
        return column(3, names)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_ms(layer):
        return (f"{layer}.self_ms_per_op", layer_self[layer] / 1e6 / ops, "ms")

    read, write = "polycache.PolynomialCache.slot_read", "polycache.PolynomialCache.slot_write"
    load, dump = "polycache.PolynomialCache.load_slot", "polycache.PolynomialCache.dump_slot"
    psi = ("nttcore.mult_psi", "nttcore.mult_psi_inv")
    samplers = tuple(f"sampler.{n}" for n in SAMPLERS)
    modmath_names = tuple(f"modmath.{e}" for e in LAYERS["modmath"][1])
    protocol_names = tuple(f"protocols.{e}" for e in LAYERS["protocols"][1])
    accesses = calls(read, write)
    rows = [
        ("machine.programs_per_op", calls("machine.Machine.load_program") / ops, "count"),
        ("machine.insns_per_op", calls("machine.Machine.step") / ops, "count"),
        ("machine.emu_cycles_per_op", tally["emu_cycles"] / ops, "cycles"),
        *((f"machine.emu_cycles.{u}_per_op", tally[f"emu_cycles.{u}"] / ops, "cycles")
          for u in ("alu", "ntt", "keccak", "sampler")),
        self_ms("machine"),
        ("machine.faults_per_op", tally["faults"] / ops, "count"),
        ("polycache.reads_per_op", (calls(read) - under.get((dump, read), 0)) / ops, "count"),
        ("polycache.writes_per_op", (calls(write) - under.get((load, write), 0)) / ops, "count"),
        ("polycache.host_io_per_op", calls(load, dump) / ops, "count"),
        self_ms("polycache"),
        ("polycache.ns_per_access", ratio(layer_self["polycache"], accesses), "ns"),
        ("polycache.mem_cycles_per_op", tally["mem_cycles"] / ops, "cycles"),
        ("polycache.mem_per_insn_cycle", ratio(tally["mem_cycles"], tally["emu_cycles"]), "ratio"),
        ("nttcore.transforms_per_op", calls("nttcore.ntt") / ops, "count"),
        ("nttcore.transform_ms", ratio(total("nttcore.ntt"), calls("nttcore.ntt")) / 1e6, "ms"),
        ("nttcore.ns_per_butterfly", ratio(total("nttcore.ntt"), work("nttcore.ntt")), "ns"),
        ("nttcore.psi_mults_per_op", calls(*psi) / ops, "count"),
        ("nttcore.psi_mult_ms", ratio(total(*psi), calls(*psi)) / 1e6, "ms"),
        self_ms("nttcore"),
        ("keccak.streams_per_op", calls("keccak.KeccakState.__init__") / ops, "count"),
        ("keccak.permutations_per_op", permutes / ops, "count"),
        ("keccak.us_per_permutation",
         ratio(total("keccak.keccak_f1600"), calls("keccak.keccak_f1600")) / 1e3, "us"),
        ("keccak.words_per_op", words / ops, "count"),
        ("keccak.ns_per_word",
         ratio(total("keccak.KeccakState.next_word"), calls("keccak.KeccakState.next_word")), "ns"),
        self_ms("keccak"),
        ("sampler.rej.calls_per_op", calls("sampler.rej_sample") / ops, "count"),
        ("sampler.bin.calls_per_op", calls("sampler.bin_sample") / ops, "count"),
        ("sampler.cdt.calls_per_op", calls("sampler.cdt_sample") / ops, "count"),
        ("sampler.rej.accept_ratio",
         ratio(work("sampler.rej_sample"),
               under.get(("sampler.rej_sample", "keccak.KeccakState.next_word"), 0)), "ratio"),
        ("sampler.us_per_sample", ratio(total(*samplers), work(*samplers)) / 1e3, "us"),
        self_ms("sampler"),
        ("modmath.calls_per_op", calls(*modmath_names) / ops, "count"),
        ("modmath.ns_per_call", ratio(layer_self["modmath"], calls(*modmath_names)), "ns"),
        self_ms("modmath"),
        ("isa.assembles_per_op", calls("isa.assemble") / ops, "count"),
        ("isa.us_per_assemble", ratio(total("isa.assemble"), calls("isa.assemble")) / 1e3, "us"),
        self_ms("isa"),
        ("protocols.calls_per_op", calls(*protocol_names) / ops, "count"),
        self_ms("protocols"),
        ("trace.remainder_ms_per_op", remainder / 1e6 / ops, "ms"),
        ("trace.overhead_ratio",
         ratio(statistics.median(traced_ms), statistics.median(untraced_ms)), "ratio"),
    ]
    return {name: (value, unit) for name, value, unit in rows}
