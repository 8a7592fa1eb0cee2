"""Two-pass assembler, 32-bit binary encoder/decoder and disassembler.

Source format is the processor's plain-text listing style: one instruction
per line in keyword-argument form, ``#`` comments, ``label:`` prefixes and
``if (flag == -1) goto label`` branches.

One table, ``FORMS``, states every instruction once.  Each entry is one
listing form of one mnemonic: its opcode, its operand fields (name, bit
width and codec), its listing template and the field values that select
the form.  The encoder, decoder, parser and disassembler are loops over
that table.

Binary encoding (implementer-defined; frozen here and documented in the
README): a word whose top three bits are zero is ``config`` with lg(n) in
bits [28:24] and q in [23:0]; every other instruction has a 5-bit opcode
in [31:27] and packs its operand fields MSB-first below it.  Counter
operands of sampler instructions are 3-bit selectors: literals 0..3, or
the current value of register c0 or c1.  A word decodes only when it
matches one form exactly: the form's fixed fields hold their values and
every bit the form leaves unused is zero.

``Program`` is the one door for instructions, however made: at most
``MAX_PROGRAM``, each stored read-only as the decoder gives it, branch
targets in [0, len]; anything else is a ``DecodeError`` naming its index.
An operand value is an ``int`` or a ``str`` from its field's list; a
``bool`` counts as its int, and a float or any other type is refused,
naming the field, even where it equals a valid value.

Templates: ``{name}`` is an operand.  Spaces are optional, except that
two words never run together.  In a call (a word followed by a
parenthesised operand list) each ``key = `` may be left out, and
``key|alias = `` accepts either key.  Every integer operand is read by
``_int``.
"""

import functools
import re
import struct
from types import MappingProxyType

from .record import Frozen

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
        self.index, self.reason = index, message
        prefix = f"instruction {index}: " if index is not None else ""
        super().__init__(prefix + message)


class Instruction(Frozen):
    _fields = ("op", "args")

    def __init__(self, op, args):
        vars(self).update(op=op, args=MappingProxyType(dict(args)))


class Program(Frozen):
    """A checked program (see above).  Its instructions, their args, labels
    and spans are read-only, so ``protocols.load_program`` shares them."""

    _fields = ("instructions", "labels", "spans")

    def __init__(self, instructions=(), labels=None, spans=()):
        instructions = tuple(instructions)
        if len(instructions) > MAX_PROGRAM:
            raise DecodeError(f"program exceeds {MAX_PROGRAM} instructions", MAX_PROGRAM)
        checked = []
        for index, insn in enumerate(instructions):
            try:
                checked.append(_checked(insn, len(instructions)))
            except ValueError as exc:
                raise DecodeError(str(exc), index) from None
        vars(self).update(instructions=tuple(checked),
                          labels=MappingProxyType(dict(labels or {})),
                          spans=tuple(spans))     # (source line no, text)

    def __len__(self):
        return len(self.instructions)


# ---------------------------------------------------------------- fields

_INT = r"[+-]?\d\w*"


def _int(text):
    """The integer rule of every operand: a Python literal (sign, 0x/0o/0b
    prefix, underscores) or a decimal with leading zeros."""
    try:
        return int(text, 0)
    except ValueError:
        return int(text, 10)


class Int:
    """Integer operand v in [lo, hi], stored as v - offset."""

    token = _INT

    def __init__(self, name, width, lo=0, hi=None, offset=0):
        self.name, self.width, self.lo, self.offset = name, width, lo, offset
        self.hi = offset + (1 << width) - 1 if hi is None else hi

    def enc(self, v):
        if not isinstance(v, int) or not self.lo <= v <= self.hi:
            raise ValueError(f"value {v!r} is not an int in [{self.lo}, {self.hi}]")
        return v - self.offset

    def dec(self, bits):
        v = bits + self.offset
        self.enc(v)
        return v

    def parse(self, text):
        return _int(text)

    def render(self, v):
        return str(v)


class Flag(Int):
    """Branch flag operand -1, 0 or +1, written with its sign."""

    def render(self, v):
        return f"+{v}" if v > 0 else str(v)


class Label(Int):
    """Branch target: an instruction index, written as a label name."""

    token = r"[A-Za-z_]\w*"

    def parse(self, text):
        return text            # resolved once every label is known


class Log2(Int):
    """config's n, stored as lg n in [lo, hi]."""

    def enc(self, v):
        if not isinstance(v, int) or v & (v - 1) or not 1 << self.lo <= v <= 1 << self.hi:
            raise ValueError(f"n={v!r} must be a power of two in "
                             f"[{1 << self.lo}, {1 << self.hi}]")
        return v.bit_length() - 1

    def dec(self, bits):
        if not self.lo <= bits <= self.hi:
            raise ValueError(f"lg(n)={bits} outside [{self.lo}, {self.hi}]")
        return 1 << bits


class Counter(Int):
    """Sampler counter selector: literal 0..3, or register c0/c1 (4, 5)."""

    REGS = ("c0", "c1")
    token = r"c[01]|" + _INT

    def enc(self, v):
        if v in self.REGS:
            return 4 + self.REGS.index(v)
        if isinstance(v, int) and 0 <= v <= 3:
            return v
        raise ValueError(f"counter operand must be 0..3 or c0/c1, got {v!r}")

    def dec(self, bits):
        if bits > 5:
            raise ValueError(f"reserved counter selector {bits}")
        return bits if bits <= 3 else self.REGS[bits - 4]

    def parse(self, text):
        return text if text in self.REGS else _int(text)


class Enum:
    """Operand taking one of ``values``, stored as its index and written
    as the matching entry of ``names``."""

    def __init__(self, name, width, values, names=None):
        self.name, self.width, self.values = name, width, tuple(values)
        self.names = tuple(map(str, self.values) if names is None else names)
        self.token = "|".join(map(re.escape, sorted(self.names, key=len, reverse=True)))

    def enc(self, v):
        if not isinstance(v, (int, str)) or v not in self.values:
            raise ValueError(f"expected one of {self.values}, got {v!r}")
        return self.values.index(v)

    def dec(self, bits):
        if bits >= len(self.values):
            raise ValueError(f"reserved field value {bits}")
        return self.values[bits]

    def parse(self, text):
        return self.values[self.names.index(text)]

    def render(self, v):
        return self.names[self.values.index(v)]


# ------------------------------------------------------------- templates

# optional space between two words (or operands), where the words may not
# run together; next to punctuation plain \s* does the same
_SEP = r"(?:\s+|(?<!\w)|(?!\w))"
_PIECE = re.compile(r"( ?)(\{\w+\}|\w+(?:\|\w+)*|==|!=|\|\||\S)")


def _wordy(piece):
    return piece[0] == "{" or piece[0].isalnum() or piece[0] == "_"


def _compile(template, fields, tag):
    """The regex of one template, with one group ``tag + name`` per operand."""
    pieces = _PIECE.findall(template)
    out, seen, call, i = [], set(), False, 0
    while i < len(pieces):
        space, piece = pieces[i]
        prev = pieces[i - 1][1] if i else None
        if prev is not None and _wordy(prev) and _wordy(piece):
            out.append(_SEP if space else "")
        elif prev is not None:
            out.append(r"\s*")
        after = [p for _, p in pieces[i + 1:i + 3]]
        if call and prev in ("(", ",") and after[:1] == ["="] and after[1][0] == "{":
            out.append(f"(?:(?:{piece})\\s*=)?")     # key = , optional
            i += 2
            continue
        if piece[0] == "{":
            name = piece[1:-1]
            group = tag + name
            out.append(f"(?P={group})" if name in seen else f"(?P<{group}>{fields[name].token})")
            seen.add(name)
        else:
            out.append(re.escape(piece))
        if piece in ("(", ")"):
            call = piece == "(" and prev is not None and _wordy(prev)
        i += 1
    return "".join(out)


class Form:
    """One listing form of one mnemonic: opcode, operand fields, listing
    template and the field values that select the form.  A field the
    template does not show is fixed: to the given value, or else to zero.
    Of two forms with the same fixed values, the first is the one the
    disassembler writes; the second is an alternate spelling."""

    def __init__(self, code, op, fields, template, fixed=()):
        self.code, self.op, self.fields = code, op, fields
        self.by_name = {f.name: f for f in fields}
        shown = set(re.findall(r"\{(\w+)\}", template))
        self.fixed = {f.name: f.dec(0) for f in fields if f.name not in shown}
        self.fixed.update(fixed)
        self.template = template
        self.text = re.sub(r"(?<=\w)(\|\w+)+(?= =)", "", template)
        self.top = 29 if code == 0 else 27     # config has a 3-bit opcode

    def selects(self, args):
        return all(args.get(k) == v for k, v in self.fixed.items())

    def pack(self, args):
        word, pos = self.code << self.top, self.top
        for f in self.fields:
            pos -= f.width
            try:
                word |= f.enc(args.get(f.name)) << pos     # None if missing
            except ValueError as exc:
                raise ValueError(f"{self.op} operand {f.name}: {exc}") from exc
        return word

    def unpack(self, word):
        args, pos = {}, self.top
        for f in self.fields:
            pos -= f.width
            try:
                args[f.name] = f.dec((word >> pos) & ((1 << f.width) - 1))
            except ValueError as exc:
                raise ValueError(f"{self.op} operand {f.name}: {exc}") from None
        if word & ((1 << pos) - 1):
            raise ValueError(f"{self.op}: reserved operand bits set")
        return args

    def render(self, args):
        return self.text.format(**{f.name: f.render(args[f.name]) for f in self.fields})


def _call_template(mnemonic, fields, prefix=""):
    """Template of a call: every operand as ``key = {key}``."""
    return f"{prefix}{mnemonic} (" + ", ".join(
        f"{f.name} = {{{f.name}}}" for f in fields) + ")"


def _call_form(code, op, fields):
    return Form(code, op, fields, _call_template(op, fields))


_POLY = Int("poly", 7)
_DST_SRC = [Int("poly_dst", 7), Int("poly_src", 7)]
_SAMPLER = [Enum("prng", 1, PRNGS), Enum("seed", 1, SEEDS),
           Counter("c0", 3), Counter("c1", 3)]
_CNT = [Enum("counter", 1, ("c0", "c1")), Enum("mode", 2, ("set", "add", "sub")),
        Int("value", 16)]
_REG = [Enum("target", 1, ("reg", "tmp")), Enum("mode", 2, ("imm", "copy", "alu"))]
_ELEMS = [Enum("fn", 1, ("max", "sum")), _POLY]
_INDEXED = [_POLY, Enum("sel", 2, ("imm", "c0", "c1")), Int("index", 11)]
_ABSORB = [Enum("bits", 1, (256, 512)), Enum("source", 2, ("poly", "r0", "r1")), _POLY]
_DIGEST = [Enum("bits", 1, (256, 512)), Enum("dest", 1, SEEDS)]
_GATES = [Enum(unit, 1, ("GATE", "UNGATE")) for unit in ("keccak", "ntt", "sampler")]
_EQ = [Int("poly_a", 7), Int("poly_b", 7)]
_NORM = [_POLY, Int("bound", 20)]

# opcode, mnemonic, fields, template, fixed field values
FORMS = [
    _call_form(0, "config", [Log2("n", 5, lo=3, hi=11), Int("q", 24, lo=2)]),
    _call_form(4, "clock_config", _GATES),
    Form(5, "cnt", _CNT, "{counter} = {value}", {"mode": "set"}),
    Form(5, "cnt", _CNT, "{counter} = {counter} + {value}", {"mode": "add"}),
    Form(5, "cnt", _CNT, "{counter} = {counter} - {value}", {"mode": "sub"}),
    Form(6, "regop", _REG + [Int("value", 24)], "{target} = {value}", {"mode": "imm"}),
    Form(6, "regop", _REG + [Int("value", 24)], "reg = tmp",
         {"target": "reg", "mode": "copy"}),
    Form(6, "regop", _REG + [Enum("value", 24, range(8), REG_ALU_OPS)],
         "tmp = tmp {value} reg", {"target": "tmp", "mode": "alu"}),
    Form(7, "elems", _ELEMS, "reg = {fn}_elems (poly = {poly})"),
    Form(7, "elems", _ELEMS, "{fn}_elems (poly = {poly})"),
    Form(8, "poly_get", _INDEXED, "reg = (poly = {poly})[{index}]", {"sel": "imm"}),
    *(Form(8, "poly_get", _INDEXED, f"reg = (poly = {{poly}})[{r}]", {"sel": r})
      for r in ("c0", "c1")),
    Form(9, "poly_set", _INDEXED, "(poly = {poly})[{index}] = reg", {"sel": "imm"}),
    *(Form(9, "poly_set", _INDEXED, f"(poly = {{poly}})[{r}] = reg", {"sel": r})
      for r in ("c0", "c1")),
    _call_form(10, "transform", [Enum("mode", 2, TRANSFORM_MODES), *_DST_SRC]),
    _call_form(11, "mult_psi", [_POLY]),
    _call_form(12, "mult_psi_inv", [_POLY]),
    _call_form(13, "bin_sample", _SAMPLER + [Int("k", 5, lo=1, offset=1), _POLY]),
    _call_form(14, "cdt_sample", _SAMPLER + [Int("r", 5, lo=1, offset=1),
                                             Int("s", 6, lo=1, offset=1), _POLY]),
    _call_form(15, "rej_sample", _SAMPLER + [_POLY]),
    _call_form(16, "uni_sample", _SAMPLER + [Int("eta", 8),
                                             Int("bitlen", 4, lo=1, offset=1), _POLY]),
    _call_form(17, "tri_sample_1", _SAMPLER + [Int("m", 11), _POLY]),
    _call_form(18, "tri_sample_2", _SAMPLER + [Int("m0", 6), Int("m1", 6), _POLY]),
    _call_form(19, "tri_sample_3", _SAMPLER + [Int("rho", 3, lo=1), _POLY]),
    _call_form(20, "init", [_POLY]),
    _call_form(21, "poly_copy", _DST_SRC),
    _call_form(22, "poly_op", [Enum("op", 4, POLY_OPS), *_DST_SRC]),
    _call_form(23, "shift_poly", [Enum("ring", 1, RINGS), *_DST_SRC]),
    Form(24, "eq_check", _EQ,
         "flag = eq_check (poly_a|poly = {poly_a}, poly_b|poly = {poly_b})"),
    Form(25, "inf_norm_check", _NORM, _call_template("inf_norm_check", _NORM, "flag = ")),
    Form(26, "compare", [Enum("reg", 2, ("reg", "tmp", "c0", "c1")), Int("value", 16)],
         "flag = compare ({reg}, {value})"),
    Form(27, "branch", [Enum("sense", 1, ("==", "!=")),
                        Flag("flag", 2, lo=-1, hi=1, offset=-1), Label("target", 8)],
         "if (flag {sense} {flag}) goto {target}"),
    Form(28, "sha3_init", [], "sha3_init"),
    *(form for bits in (256, 512) for form in (
        Form(29, "sha3_absorb", _ABSORB, f"sha3_{bits}_absorb (poly = {{poly}})",
             {"bits": bits, "source": "poly"}),
        *(Form(29, "sha3_absorb", _ABSORB, f"sha3_{bits}_absorb ({r})",
               {"bits": bits, "source": r}) for r in SEEDS))),
    Form(30, "sha3_digest", _DIGEST, "{dest} = sha3_256_digest", {"bits": 256}),
    Form(30, "sha3_digest", _DIGEST, "r0 || r1 = sha3_512_digest",
         {"bits": 512, "dest": "r0"}),
]

_BY_CODE, _BY_OP = {}, {}
for _form in FORMS:
    _BY_CODE.setdefault(_form.code, []).append(_form)
    _BY_OP.setdefault(_form.op, []).append(_form)


def _heads(form):
    """The words a line of this form can start with: the template's first
    word, with a leading operand spelled out in each of its names."""
    heads = [""]
    for i, (space, piece) in enumerate(_PIECE.findall(form.template)):
        if i and (space or not _wordy(piece)):
            break
        names = form.by_name[piece[1:-1]].names if piece[0] == "{" else (piece,)
        heads = [h + n for h in heads for n in names]
        if not _wordy(piece):
            break
    return heads


# Forms by the word their lines start with.  Form k is group "f<k>" of its
# word's statement regex and its operands are groups "f<k>_<name>".
_BY_HEAD = {}
for _k, _form in enumerate(FORMS):
    for _head in _heads(_form):
        _BY_HEAD.setdefault(_head, []).append(_k)
_OPERANDS = [[(f"f{k}_{name}", form.by_name[name])
              for name in dict.fromkeys(re.findall(r"\{(\w+)\}", form.template))]
             for k, form in enumerate(FORMS)]
_HEAD = re.compile(r"\w+|\S")


@functools.cache
def _statement(head):
    """The templates of the forms whose lines start with ``head`` as one
    alternation, tried in table order; compiled on first use, so a process
    pays only for the forms it assembles."""
    return re.compile("|".join(
        f"(?P<f{k}>{_compile(FORMS[k].template, FORMS[k].by_name, f'f{k}_')})"
        for k in _BY_HEAD[head]))


def _form_of(insn):
    for form in _BY_OP.get(insn.op, ()):
        if form.selects(insn.args):
            return form
    if insn.op not in _BY_OP:
        raise ValueError(f"unknown instruction {insn.op!r}")
    raise ValueError(f"{insn.op} operands {dict(insn.args)} match no listing form")


def _checked(insn, length):
    """insn as the decoder gives it, or ValueError.  A branch target is
    checked against the program's length, so the field packs a stand-in."""
    if not (isinstance(insn, Instruction) and isinstance(insn.op, str)):
        raise ValueError(f"{insn!r} is not an Instruction with a str op")
    form = _form_of(insn)
    if form.op != "branch":
        return Instruction(form.op, form.unpack(form.pack(insn.args)))
    target = insn.args.get("target")
    if not isinstance(target, int) or not 0 <= target <= length:
        raise ValueError(f"branch target {target!r} out of range [0, {length}]")
    args = form.unpack(form.pack({**insn.args, "target": 0}))
    return Instruction("branch", {**args, "target": int(target)})


# ------------------------------------------------------------ binary form

def decode_instruction(word, index=None):
    code = word >> 27 if word >> 29 else 0
    error = f"reserved opcode {code}"
    for form in _BY_CODE.get(code, ()):
        try:
            args = form.unpack(word)
        except ValueError as exc:
            error = str(exc)
            continue
        if form.selects(args):
            return Instruction(form.op, args)
        error = f"{form.op}: operand fields match no listing form"
    raise DecodeError(error, index)


def encode(program):
    return [_form_of(i).pack(i.args) for i in program.instructions]


def decode(words):
    instructions = [decode_instruction(w, i) for i, w in enumerate(words)]
    targets = (i.args["target"] for i in instructions if i.op == "branch")
    return Program(instructions, {f"L{t}": t for t in targets},
                   [(i, f"<word {i}>") for i in range(len(instructions))])


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


# -------------------------------------------------------------- listings

_LABEL_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*:\s*(.*)$")


def _parse_statement(text, line):
    """The Instruction of the first form whose template matches."""
    head = _HEAD.match(text).group()
    m = _statement(head).fullmatch(text) if head in _BY_HEAD else None
    if m is None:
        raise AsmError(f"cannot parse statement: {text!r}", line)
    k = int(m.lastgroup[1:])
    form = FORMS[k]
    args = dict(form.fixed)
    for group, f in _OPERANDS[k]:
        token = m.group(group)
        try:
            args[f.name] = f.parse(token)
        except ValueError:
            raise AsmError(f"{f.name} expects an integer, got {token!r}", line) from None
    return Instruction(form.op, args)


def assemble(source):
    """Assemble listing text into a Program: branch labels resolve once
    every line is read, and an instruction the Program refuses is an
    AsmError on its line."""
    instructions, labels, spans = [], {}, []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        while m := _LABEL_RE.match(text):
            label, text = m.group(1), m.group(2).strip()
            if label in labels:
                raise AsmError(f"duplicate label {label!r}", lineno)
            labels[label] = len(instructions)
        if not text:
            continue
        instructions.append(_parse_statement(text, lineno))
        spans.append((lineno, text))
    for index, insn in enumerate(instructions):
        if insn.op == "branch":
            label = insn.args["target"]
            if label not in labels:
                raise AsmError(f"unresolved label {label!r}", spans[index][0])
            instructions[index] = Instruction("branch", {**insn.args, "target": labels[label]})
    try:
        return Program(instructions, labels, spans)
    except DecodeError as exc:
        raise AsmError(exc.reason, spans[exc.index][0]) from None


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
        args = insn.args
        if insn.op == "branch":
            args = {**args, "target": labels_by_index[args["target"]]}
        lines.append(_form_of(insn).render(args))
    if len(program.instructions) in labels_by_index:
        lines.append(f"{labels_by_index[len(program.instructions)]}:")
    return "\n".join(lines) + "\n"
