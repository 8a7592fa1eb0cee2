"""Two-pass assembler, 32-bit binary encoder/decoder and disassembler.

Source format is the processor's plain-text listing style: one instruction
per line in keyword-argument form, ``#`` comments, ``label:`` prefixes and
``if (flag == -1) goto label`` branches.

Binary encoding (implementer-defined; frozen here and documented in the
README): a word whose top three bits are zero is ``config`` with lg(n) in
bits [28:24] and q in [23:0]; every other instruction has a 5-bit opcode
in [31:27] and packs its operand fields MSB-first below it.  Counter
operands of sampler instructions are 3-bit selectors: literals 0..3, or
the current value of register c0 or c1.
"""

from dataclasses import dataclass, field
import re
import struct

MAGIC = b"SPH1"
MAX_PROGRAM = 256

REG_ALU_OPS = ("ADD", "SUB", "MUL", "AND", "OR", "XOR", "RSHIFT", "LSHIFT")
POLY_OPS = ("ADD", "SUB", "MUL", "BITREV", "CONST_ADD", "CONST_SUB",
            "CONST_MUL", "CONST_AND", "CONST_OR", "CONST_XOR",
            "CONST_RSHIFT", "CONST_LSHIFT")
TRANSFORM_MODES = ("DIF_NTT", "DIF_INTT", "DIT_NTT", "DIT_INTT")
RINGS = ("x^N+1", "x^N-1")
PRNGS = ("SHAKE-128", "SHAKE-256")
SEEDS = ("r0", "r1")


class AsmError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class DecodeError(ValueError):
    def __init__(self, message, index=None):
        self.index = index
        prefix = f"word {index}: " if index is not None else ""
        super().__init__(prefix + message)


@dataclass
class Instruction:
    op: str
    args: dict

    def __eq__(self, other):
        return (isinstance(other, Instruction)
                and self.op == other.op and self.args == other.args)


@dataclass
class Program:
    instructions: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)   # (source line no, text)

    def __len__(self):
        return len(self.instructions)


# ---------------------------------------------------------------- fields

def _int_codec(width, lo=0, offset=0):
    def enc(v):
        if not lo <= v <= offset + (1 << width) - 1:
            raise ValueError(f"value {v} outside [{lo}, {offset + (1 << width) - 1}]")
        return v - offset

    def dec(b):
        v = b + offset
        if v < lo:
            raise ValueError(f"decoded value {v} below minimum {lo}")
        return v
    return enc, dec


def _enum_codec(values, reserved_ok=()):
    table = {v: i for i, v in enumerate(values)}

    def enc(v):
        if v not in table:
            raise ValueError(f"expected one of {values}, got {v!r}")
        return table[v]

    def dec(b):
        if b >= len(values):
            raise ValueError(f"reserved field value {b}")
        return values[b]
    return enc, dec


def _counter_codec():
    def enc(v):
        if v in ("c0", "c1"):
            return 4 + ("c0", "c1").index(v)
        if isinstance(v, int) and 0 <= v <= 3:
            return v
        raise ValueError(f"counter operand must be 0..3 or c0/c1, got {v!r}")

    def dec(b):
        if b <= 3:
            return b
        if b in (4, 5):
            return ("c0", "c1")[b - 4]
        raise ValueError(f"reserved counter selector {b}")
    return enc, dec


POLY = ("poly", 7, _int_codec(7))
_SAMPLER_HEAD = [
    ("prng", 1, _enum_codec(PRNGS)),
    ("seed", 1, _enum_codec(SEEDS)),
    ("c0", 3, _counter_codec()),
    ("c1", 3, _counter_codec()),
]

# opcode number -> (mnemonic, [(arg, width, (enc, dec)), ...])
FORMATS = {
    4: ("clock_config", [("keccak", 1, _enum_codec(("GATE", "UNGATE"))),
                         ("ntt", 1, _enum_codec(("GATE", "UNGATE"))),
                         ("sampler", 1, _enum_codec(("GATE", "UNGATE")))]),
    5: ("cnt", [("counter", 1, _enum_codec(("c0", "c1"))),
                ("mode", 2, _enum_codec(("set", "add", "sub"))),
                ("value", 16, _int_codec(16))]),
    6: ("regop", [("target", 1, _enum_codec(("reg", "tmp"))),
                  ("mode", 2, _enum_codec(("imm", "copy", "alu"))),
                  ("value", 24, _int_codec(24))]),
    7: ("elems", [("fn", 1, _enum_codec(("max", "sum"))), POLY]),
    8: ("poly_get", [POLY, ("sel", 2, _enum_codec(("imm", "c0", "c1"))),
                     ("index", 11, _int_codec(11))]),
    9: ("poly_set", [POLY, ("sel", 2, _enum_codec(("imm", "c0", "c1"))),
                     ("index", 11, _int_codec(11))]),
    10: ("transform", [("mode", 2, _enum_codec(TRANSFORM_MODES)),
                       ("poly_dst", 7, _int_codec(7)),
                       ("poly_src", 7, _int_codec(7))]),
    11: ("mult_psi", [POLY]),
    12: ("mult_psi_inv", [POLY]),
    13: ("bin_sample", _SAMPLER_HEAD + [("k", 5, _int_codec(5, lo=1, offset=1)), POLY]),
    14: ("cdt_sample", _SAMPLER_HEAD + [("r", 5, _int_codec(5, lo=1, offset=1)),
                                        ("s", 6, _int_codec(6, lo=1, offset=1)), POLY]),
    15: ("rej_sample", _SAMPLER_HEAD + [POLY]),
    16: ("uni_sample", _SAMPLER_HEAD + [("eta", 8, _int_codec(8)),
                                        ("bitlen", 4, _int_codec(4, lo=1, offset=1)), POLY]),
    17: ("tri_sample_1", _SAMPLER_HEAD + [("m", 11, _int_codec(11)), POLY]),
    18: ("tri_sample_2", _SAMPLER_HEAD + [("m0", 6, _int_codec(6)),
                                          ("m1", 6, _int_codec(6)), POLY]),
    19: ("tri_sample_3", _SAMPLER_HEAD + [("rho", 3, _int_codec(3, lo=1)), POLY]),
    20: ("init", [POLY]),
    21: ("poly_copy", [("poly_dst", 7, _int_codec(7)), ("poly_src", 7, _int_codec(7))]),
    22: ("poly_op", [("op", 4, _enum_codec(POLY_OPS)),
                     ("poly_dst", 7, _int_codec(7)), ("poly_src", 7, _int_codec(7))]),
    23: ("shift_poly", [("ring", 1, _enum_codec(RINGS)),
                        ("poly_dst", 7, _int_codec(7)), ("poly_src", 7, _int_codec(7))]),
    24: ("eq_check", [("poly_a", 7, _int_codec(7)), ("poly_b", 7, _int_codec(7))]),
    25: ("inf_norm_check", [POLY, ("bound", 20, _int_codec(20))]),
    26: ("compare", [("reg", 2, _enum_codec(("reg", "tmp", "c0", "c1"))),
                     ("value", 16, _int_codec(16))]),
    27: ("branch", [("sense", 1, _enum_codec(("==", "!="))),
                    ("flag", 2, _enum_codec((-1, 0, 1))),
                    ("target", 8, _int_codec(8))]),
    28: ("sha3_init", []),
    29: ("sha3_absorb", [("bits", 1, _enum_codec((256, 512))),
                         ("source", 2, _enum_codec(("poly", "r0", "r1"))),
                         POLY]),
    30: ("sha3_digest", [("bits", 1, _enum_codec((256, 512))),
                         ("dest", 1, _enum_codec(("r0", "r1")))]),
}

OPCODES = {mnem: code for code, (mnem, _) in FORMATS.items()}


def encode_instruction(insn):
    if insn.op == "config":
        n, q = insn.args["n"], insn.args["q"]
        if n & (n - 1) or not 8 <= n <= 2048:
            raise ValueError(f"config n={n} must be a power of two in [8, 2048]")
        if not 2 <= q < (1 << 24):
            raise ValueError(f"config q={q} outside [2, 2^24)")
        return ((n.bit_length() - 1) << 24) | q
    code = OPCODES.get(insn.op)
    if code is None:
        raise ValueError(f"unknown instruction {insn.op!r}")
    word = code << 27
    pos = 27
    for name, width, (enc, _dec) in FORMATS[code][1]:
        pos -= width
        try:
            word |= enc(insn.args[name]) << pos
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{insn.op} operand {name}: {exc}") from exc
    return word


def decode_instruction(word, index=None):
    if word >> 29 == 0:
        lgn = (word >> 24) & 0x1F
        q = word & 0xFFFFFF
        if not 3 <= lgn <= 11:
            raise DecodeError(f"config lg(n)={lgn} outside [3, 11]", index)
        if q < 2:
            raise DecodeError(f"config q={q} below 2", index)
        return Instruction("config", {"n": 1 << lgn, "q": q})
    code = word >> 27
    if code not in FORMATS:
        raise DecodeError(f"reserved opcode {code}", index)
    mnem, fields = FORMATS[code]
    args = {}
    pos = 27
    used = 0
    for name, width, (_enc, dec) in fields:
        pos -= width
        bits = (word >> pos) & ((1 << width) - 1)
        used |= ((1 << width) - 1) << pos
        try:
            args[name] = dec(bits)
        except ValueError as exc:
            raise DecodeError(f"{mnem} operand {name}: {exc}", index) from exc
    if word & ~used & ((1 << 27) - 1):
        raise DecodeError(f"{mnem}: reserved operand bits set", index)
    return Instruction(mnem, args)


def encode(program):
    if len(program.instructions) > MAX_PROGRAM:
        raise ValueError(f"program exceeds {MAX_PROGRAM} instructions")
    return [encode_instruction(i) for i in program.instructions]


def decode(words):
    prog = Program()
    for i, w in enumerate(words):
        insn = decode_instruction(w, i)
        if insn.op == "branch" and insn.args["target"] >= len(words):
            raise DecodeError(f"branch target {insn.args['target']} out of range", i)
        prog.instructions.append(insn)
        prog.spans.append((i, f"<word {i}>"))
    for i, insn in enumerate(prog.instructions):
        if insn.op == "branch":
            prog.labels.setdefault(f"L{insn.args['target']}", insn.args["target"])
    return prog


def write_binary(path, program):
    words = encode(program)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(words)))
        fh.write(struct.pack(f"<{len(words)}I", *words))


def read_binary(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DecodeError("bad magic; not a program file")
    if len(blob) < 8:
        raise DecodeError("file ends inside its 8-byte header")
    (count,) = struct.unpack_from("<I", blob, 4)
    if len(blob) != 8 + 4 * count:
        raise DecodeError(f"file length does not match count {count}")
    return decode(list(struct.unpack_from(f"<{count}I", blob, 8)))


# ---------------------------------------------------------------- parser

_LABEL_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*(.*)$")
_CALL_RE = re.compile(r"^([a-z_0-9]+)\s*\((.*)\)\s*$")
_CNT_RE = re.compile(r"^(c[01])\s*=\s*(?:(c[01])\s*([+\-])\s*)?(\d+)$")
_REG_FN_RE = re.compile(r"^reg\s*=\s*(max_elems|sum_elems)\s*\((.*)\)\s*$")
_REG_IMM_RE = re.compile(r"^(reg|tmp)\s*=\s*(\d+)$")
_REG_COPY_RE = re.compile(r"^reg\s*=\s*tmp$")
_REG_ALU_RE = re.compile(r"^tmp\s*=\s*tmp\s+([A-Z]+)\s+reg$")
_POLY_GET_RE = re.compile(r"^reg\s*=\s*\(\s*poly\s*=\s*(\d+)\s*\)\s*\[\s*(\w+)\s*\]$")
_POLY_SET_RE = re.compile(r"^\(\s*poly\s*=\s*(\d+)\s*\)\s*\[\s*(\w+)\s*\]\s*=\s*reg$")
_FLAG_RE = re.compile(r"^flag\s*=\s*([a-z_0-9]+)\s*\((.*)\)\s*$")
_BRANCH_RE = re.compile(
    r"^if\s*\(\s*flag\s*(==|!=)\s*([+-]?\d+)\s*\)\s*goto\s+([A-Za-z_]\w*)$")
_DIGEST_RE = re.compile(r"^(r0|r1)\s*=\s*sha3_256_digest$")
_DIGEST512_RE = re.compile(r"^r0\s*\|\|\s*r1\s*=\s*sha3_512_digest$")


def _parse_args(text, line):
    """Split a parenthesized argument list into (key-or-None, value) pairs."""
    pairs = []
    if not text.strip():
        return pairs
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise AsmError("empty argument", line)
        if "=" in part:
            key, _, val = part.partition("=")
            pairs.append((key.strip(), val.strip()))
        else:
            pairs.append((None, part))
    return pairs


def _want_int(value, line, what):
    try:
        return int(value, 0)
    except ValueError:
        raise AsmError(f"{what} expects an integer, got {value!r}", line) from None


def _counter_arg(value, line):
    if value in ("c0", "c1"):
        return value
    return _want_int(value, line, "counter")


def _kv(pairs, line, spec, mnemonic):
    """Match ordered (key, value) pairs against a list of expected keys."""
    if len(pairs) != len(spec):
        raise AsmError(
            f"{mnemonic} expects {len(spec)} operands, got {len(pairs)}", line)
    out = {}
    for (key, value), want in zip(pairs, spec):
        if key is not None and key != want:
            raise AsmError(
                f"{mnemonic}: expected operand {want!r}, got {key!r}", line)
        out[want] = value
    return out


def _parse_call(mnemonic, argtext, line):
    pairs = _parse_args(argtext, line)

    def sampler_args(extra):
        kv = _kv(pairs, line, ["prng", "seed", "c0", "c1"] + extra + ["poly"],
                 mnemonic)
        args = {
            "prng": kv["prng"], "seed": kv["seed"],
            "c0": _counter_arg(kv["c0"], line),
            "c1": _counter_arg(kv["c1"], line),
            "poly": _want_int(kv["poly"], line, "poly"),
        }
        if args["prng"] not in PRNGS:
            raise AsmError(f"unknown prng {args['prng']!r}", line)
        if args["seed"] not in SEEDS:
            raise AsmError(f"seed must be r0 or r1, got {kv['seed']!r}", line)
        for name in extra:
            args[name] = _want_int(kv[name], line, name)
        return args

    if mnemonic == "config":
        kv = _kv(pairs, line, ["n", "q"], mnemonic)
        return Instruction("config", {"n": _want_int(kv["n"], line, "n"),
                                      "q": _want_int(kv["q"], line, "q")})
    if mnemonic == "clock_config":
        kv = _kv(pairs, line, ["keccak", "ntt", "sampler"], mnemonic)
        for unit, v in kv.items():
            if v not in ("GATE", "UNGATE"):
                raise AsmError(f"{unit} must be GATE or UNGATE, got {v!r}", line)
        return Instruction("clock_config", kv)
    if mnemonic == "transform":
        kv = _kv(pairs, line, ["mode", "poly_dst", "poly_src"], mnemonic)
        if kv["mode"] not in TRANSFORM_MODES:
            raise AsmError(f"unknown transform mode {kv['mode']!r}", line)
        return Instruction("transform", {
            "mode": kv["mode"],
            "poly_dst": _want_int(kv["poly_dst"], line, "poly_dst"),
            "poly_src": _want_int(kv["poly_src"], line, "poly_src")})
    if mnemonic in ("mult_psi", "mult_psi_inv", "init"):
        kv = _kv(pairs, line, ["poly"], mnemonic)
        return Instruction(mnemonic, {"poly": _want_int(kv["poly"], line, "poly")})
    if mnemonic == "bin_sample":
        return Instruction(mnemonic, sampler_args(["k"]))
    if mnemonic == "cdt_sample":
        return Instruction(mnemonic, sampler_args(["r", "s"]))
    if mnemonic == "rej_sample":
        return Instruction(mnemonic, sampler_args([]))
    if mnemonic == "uni_sample":
        return Instruction(mnemonic, sampler_args(["eta", "bitlen"]))
    if mnemonic == "tri_sample_1":
        return Instruction(mnemonic, sampler_args(["m"]))
    if mnemonic == "tri_sample_2":
        return Instruction(mnemonic, sampler_args(["m0", "m1"]))
    if mnemonic == "tri_sample_3":
        return Instruction(mnemonic, sampler_args(["rho"]))
    if mnemonic == "poly_copy":
        kv = _kv(pairs, line, ["poly_dst", "poly_src"], mnemonic)
        return Instruction(mnemonic, {
            "poly_dst": _want_int(kv["poly_dst"], line, "poly_dst"),
            "poly_src": _want_int(kv["poly_src"], line, "poly_src")})
    if mnemonic == "poly_op":
        kv = _kv(pairs, line, ["op", "poly_dst", "poly_src"], mnemonic)
        if kv["op"] not in POLY_OPS:
            raise AsmError(f"unknown poly_op operation {kv['op']!r}", line)
        return Instruction(mnemonic, {
            "op": kv["op"],
            "poly_dst": _want_int(kv["poly_dst"], line, "poly_dst"),
            "poly_src": _want_int(kv["poly_src"], line, "poly_src")})
    if mnemonic == "shift_poly":
        kv = _kv(pairs, line, ["ring", "poly_dst", "poly_src"], mnemonic)
        if kv["ring"] not in RINGS:
            raise AsmError(f"ring must be x^N+1 or x^N-1, got {kv['ring']!r}", line)
        return Instruction(mnemonic, {
            "ring": kv["ring"],
            "poly_dst": _want_int(kv["poly_dst"], line, "poly_dst"),
            "poly_src": _want_int(kv["poly_src"], line, "poly_src")})
    if mnemonic in ("max_elems", "sum_elems"):
        kv = _kv(pairs, line, ["poly"], mnemonic)
        return Instruction("elems", {"fn": mnemonic[:3],
                                     "poly": _want_int(kv["poly"], line, "poly")})
    if mnemonic in ("sha3_256_absorb", "sha3_512_absorb"):
        bits = 256 if mnemonic == "sha3_256_absorb" else 512
        if len(pairs) != 1:
            raise AsmError(f"{mnemonic} expects one operand", line)
        key, value = pairs[0]
        if key == "poly" or (key is None and value.isdigit()):
            return Instruction("sha3_absorb", {
                "bits": bits, "source": "poly",
                "poly": _want_int(value, line, "poly")})
        if key is None and value in ("r0", "r1"):
            return Instruction("sha3_absorb", {"bits": bits, "source": value,
                                               "poly": 0})
        raise AsmError(f"{mnemonic} operand must be poly = N, r0 or r1", line)
    raise AsmError(f"unknown instruction {mnemonic!r}", line)


def _parse_flag_call(fn, argtext, line):
    pairs = _parse_args(argtext, line)
    if fn == "eq_check":
        if len(pairs) != 2:
            raise AsmError("eq_check expects two polynomial operands", line)
        vals = []
        for (key, value), want in zip(pairs, ("poly_a", "poly_b")):
            if key is not None and key not in (want, "poly"):
                raise AsmError(f"eq_check: unexpected operand {key!r}", line)
            vals.append(_want_int(value, line, want))
        return Instruction("eq_check", {"poly_a": vals[0], "poly_b": vals[1]})
    if fn == "inf_norm_check":
        kv = _kv(pairs, line, ["poly", "bound"], fn)
        return Instruction(fn, {"poly": _want_int(kv["poly"], line, "poly"),
                                "bound": _want_int(kv["bound"], line, "bound")})
    if fn == "compare":
        if len(pairs) != 2:
            raise AsmError("compare expects (register, value)", line)
        (k0, reg), (k1, value) = pairs
        if k0 is not None or reg not in ("reg", "tmp", "c0", "c1"):
            raise AsmError(f"compare register must be reg/tmp/c0/c1, got {reg!r}", line)
        if k1 is not None:
            raise AsmError("compare value must be positional", line)
        return Instruction("compare", {"reg": reg,
                                       "value": _want_int(value, line, "value")})
    raise AsmError(f"unknown flag function {fn!r}", line)


def _parse_statement(text, line):
    m = _REG_FN_RE.match(text)
    if m:
        return _parse_call(m.group(1), m.group(2), line)
    m = _CALL_RE.match(text)
    if m:
        return _parse_call(m.group(1), m.group(2), line)
    m = _CNT_RE.match(text)
    if m:
        counter, rhs_reg, sign, value = m.groups()
        if rhs_reg is None:
            mode = "set"
        else:
            if rhs_reg != counter:
                raise AsmError(
                    f"counter arithmetic must use {counter} on both sides", line)
            mode = "add" if sign == "+" else "sub"
        return Instruction("cnt", {"counter": counter, "mode": mode,
                                   "value": _want_int(value, line, "value")})
    m = _REG_IMM_RE.match(text)
    if m:
        return Instruction("regop", {"target": m.group(1), "mode": "imm",
                                     "value": _want_int(m.group(2), line, "value")})
    if _REG_COPY_RE.match(text):
        return Instruction("regop", {"target": "reg", "mode": "copy", "value": 0})
    m = _REG_ALU_RE.match(text)
    if m:
        op = m.group(1)
        if op not in REG_ALU_OPS:
            raise AsmError(f"unknown register ALU op {op!r}", line)
        return Instruction("regop", {"target": "tmp", "mode": "alu",
                                     "value": REG_ALU_OPS.index(op)})
    m = _POLY_GET_RE.match(text)
    if m:
        poly, idx = m.groups()
        args = {"poly": int(poly)}
        if idx in ("c0", "c1"):
            args.update(sel=idx, index=0)
        else:
            args.update(sel="imm", index=_want_int(idx, line, "index"))
        return Instruction("poly_get", args)
    m = _POLY_SET_RE.match(text)
    if m:
        poly, idx = m.groups()
        args = {"poly": int(poly)}
        if idx in ("c0", "c1"):
            args.update(sel=idx, index=0)
        else:
            args.update(sel="imm", index=_want_int(idx, line, "index"))
        return Instruction("poly_set", args)
    m = _FLAG_RE.match(text)
    if m:
        return _parse_flag_call(m.group(1), m.group(2), line)
    m = _BRANCH_RE.match(text)
    if m:
        sense, flagval, label = m.groups()
        flag = int(flagval)
        if flag not in (-1, 0, 1):
            raise AsmError(f"flag comparison value must be -1, 0 or +1", line)
        return Instruction("branch", {"sense": sense, "flag": flag,
                                      "target": label})
    if text == "sha3_init":
        return Instruction("sha3_init", {})
    m = _DIGEST_RE.match(text)
    if m:
        return Instruction("sha3_digest", {"bits": 256, "dest": m.group(1)})
    if _DIGEST512_RE.match(text):
        return Instruction("sha3_digest", {"bits": 512, "dest": "r0"})
    raise AsmError(f"cannot parse statement: {text!r}", line)


def assemble(source):
    """Assemble listing text into a Program (two passes for labels)."""
    prog = Program()
    pending = []   # (instruction index, label, line) for branch fixups
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        while text:
            m = _LABEL_RE.match(text)
            if m and not _CNT_RE.match(text) and "=" not in m.group(1):
                label, rest = m.group(1), m.group(2).strip()
                if label in prog.labels:
                    raise AsmError(f"duplicate label {label!r}", lineno)
                prog.labels[label] = len(prog.instructions)
                text = rest
                continue
            break
        if not text:
            continue
        insn = _parse_statement(text, lineno)
        if insn.op == "branch":
            pending.append((len(prog.instructions), insn.args["target"], lineno))
        # validate encodability now for line-precise diagnostics
        if insn.op != "branch":
            try:
                encode_instruction(insn)
            except ValueError as exc:
                raise AsmError(str(exc), lineno) from None
        prog.instructions.append(insn)
        prog.spans.append((lineno, text))
        if len(prog.instructions) > MAX_PROGRAM:
            raise AsmError(f"program exceeds {MAX_PROGRAM} instructions", lineno)
    for index, label, lineno in pending:
        if label not in prog.labels:
            raise AsmError(f"unresolved label {label!r}", lineno)
        prog.instructions[index].args["target"] = prog.labels[label]
    return prog


def assemble_file(path):
    with open(path) as fh:
        return assemble(fh.read())


# ------------------------------------------------------------- disassembler

def _render(insn, labels_by_index):
    op, a = insn.op, insn.args
    if op == "config":
        return f"config (n = {a['n']}, q = {a['q']})"
    if op == "clock_config":
        return (f"clock_config (keccak = {a['keccak']}, ntt = {a['ntt']}, "
                f"sampler = {a['sampler']})")
    if op == "cnt":
        c = a["counter"]
        if a["mode"] == "set":
            return f"{c} = {a['value']}"
        sign = "+" if a["mode"] == "add" else "-"
        return f"{c} = {c} {sign} {a['value']}"
    if op == "regop":
        if a["mode"] == "imm":
            return f"{a['target']} = {a['value']}"
        if a["mode"] == "copy":
            return "reg = tmp"
        return f"tmp = tmp {REG_ALU_OPS[a['value'] & 7]} reg"
    if op == "elems":
        return f"reg = {a['fn']}_elems (poly = {a['poly']})"
    if op == "poly_get":
        idx = a["sel"] if a["sel"] != "imm" else a["index"]
        return f"reg = (poly = {a['poly']})[{idx}]"
    if op == "poly_set":
        idx = a["sel"] if a["sel"] != "imm" else a["index"]
        return f"(poly = {a['poly']})[{idx}] = reg"
    if op == "transform":
        return (f"transform (mode = {a['mode']}, poly_dst = {a['poly_dst']}, "
                f"poly_src = {a['poly_src']})")
    if op in ("mult_psi", "mult_psi_inv", "init"):
        return f"{op} (poly = {a['poly']})"
    if op in ("bin_sample", "cdt_sample", "rej_sample", "uni_sample",
              "tri_sample_1", "tri_sample_2", "tri_sample_3"):
        extra = {"bin_sample": ["k"], "cdt_sample": ["r", "s"],
                 "rej_sample": [], "uni_sample": ["eta", "bitlen"],
                 "tri_sample_1": ["m"], "tri_sample_2": ["m0", "m1"],
                 "tri_sample_3": ["rho"]}[op]
        parts = [f"prng = {a['prng']}", f"seed = {a['seed']}",
                 f"c0 = {a['c0']}", f"c1 = {a['c1']}"]
        parts += [f"{name} = {a[name]}" for name in extra]
        parts.append(f"poly = {a['poly']}")
        return f"{op} ({', '.join(parts)})"
    if op == "poly_copy":
        return f"poly_copy (poly_dst = {a['poly_dst']}, poly_src = {a['poly_src']})"
    if op == "poly_op":
        return (f"poly_op (op = {a['op']}, poly_dst = {a['poly_dst']}, "
                f"poly_src = {a['poly_src']})")
    if op == "shift_poly":
        return (f"shift_poly (ring = {a['ring']}, poly_dst = {a['poly_dst']}, "
                f"poly_src = {a['poly_src']})")
    if op == "eq_check":
        return f"flag = eq_check (poly_a = {a['poly_a']}, poly_b = {a['poly_b']})"
    if op == "inf_norm_check":
        return f"flag = inf_norm_check (poly = {a['poly']}, bound = {a['bound']})"
    if op == "compare":
        return f"flag = compare ({a['reg']}, {a['value']})"
    if op == "branch":
        label = labels_by_index.get(a["target"], f"L{a['target']}")
        flag = a["flag"] if a["flag"] <= 0 else f"+{a['flag']}"
        return f"if (flag {a['sense']} {flag}) goto {label}"
    if op == "sha3_init":
        return "sha3_init"
    if op == "sha3_absorb":
        src = f"poly = {a['poly']}" if a["source"] == "poly" else a["source"]
        return f"sha3_{a['bits']}_absorb ({src})"
    if op == "sha3_digest":
        if a["bits"] == 512:
            return "r0 || r1 = sha3_512_digest"
        return f"{a['dest']} = sha3_256_digest"
    raise ValueError(f"cannot render {op!r}")


def disassemble(program):
    """Render a Program back to listing text (branch labels re-synthesized)."""
    targets = {i.args["target"] for i in program.instructions
               if i.op == "branch"}
    labels_by_index = {}
    for name, idx in program.labels.items():
        if idx in targets:
            labels_by_index.setdefault(idx, name)
    for idx in sorted(targets):
        labels_by_index.setdefault(idx, f"L{idx}")
    lines = []
    for i, insn in enumerate(program.instructions):
        if i in labels_by_index:
            lines.append(f"{labels_by_index[i]}:")
        lines.append(_render(insn, labels_by_index))
    if len(program.instructions) in labels_by_index:
        lines.append(f"{labels_by_index[len(program.instructions)]}:")
    return "\n".join(lines) + "\n"
