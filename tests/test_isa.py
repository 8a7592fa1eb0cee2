import json
import os
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import DATA_DIR
from sapphire import isa, protocols
from sapphire.isa import AsmError, DecodeError, Instruction, assemble
from sapphire.machine import Machine
from sapphire.protocols import _program_text

# One source line per Appendix-B mnemonic/variant; the coverage test
# asserts every one of them assembles and survives both round trips.
COVERAGE_LINES = [
    "config (n = 256, q = 7681)",
    "clock_config (keccak = GATE, ntt = UNGATE, sampler = GATE)",
    "c0 = 5",
    "c0 = c0 + 1",
    "c0 = c0 - 2",
    "c1 = 7",
    "c1 = c1 + 3",
    "c1 = c1 - 1",
    "reg = 42",
    "reg = tmp",
    "tmp = 9",
    "tmp = tmp ADD reg",
    "tmp = tmp SUB reg",
    "tmp = tmp MUL reg",
    "tmp = tmp AND reg",
    "tmp = tmp OR reg",
    "tmp = tmp XOR reg",
    "tmp = tmp RSHIFT reg",
    "tmp = tmp LSHIFT reg",
    "reg = max_elems (poly = 3)",
    "reg = sum_elems (poly = 4)",
    "reg = (poly = 2)[7]",
    "reg = (poly = 2)[c0]",
    "reg = (poly = 2)[c1]",
    "(poly = 2)[7] = reg",
    "(poly = 2)[c0] = reg",
    "(poly = 2)[c1] = reg",
    "transform (mode = DIF_NTT, poly_dst = 16, poly_src = 4)",
    "transform (mode = DIF_INTT, poly_dst = 16, poly_src = 4)",
    "transform (mode = DIT_NTT, poly_dst = 16, poly_src = 4)",
    "transform (mode = DIT_INTT, poly_dst = 16, poly_src = 4)",
    "mult_psi (poly = 1)",
    "mult_psi_inv (poly = 1)",
    "bin_sample (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 1, k = 8, poly = 2)",
    "cdt_sample (prng = SHAKE-256, seed = r1, c0 = c0, c1 = c1, r = 16, s = 12, poly = 0)",
    "rej_sample (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, poly = 0)",
    "uni_sample (prng = SHAKE-128, seed = r0, c0 = 1, c1 = 2, eta = 5, bitlen = 4, poly = 3)",
    "tri_sample_1 (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, m = 40, poly = 3)",
    "tri_sample_2 (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, m0 = 11, m1 = 12, poly = 3)",
    "tri_sample_3 (prng = SHAKE-128, seed = r0, c0 = 0, c1 = 0, rho = 3, poly = 3)",
    "init (poly = 20)",
    "poly_copy (poly_dst = 5, poly_src = 4)",
    "poly_op (op = ADD, poly_dst = 1, poly_src = 5)",
    "poly_op (op = SUB, poly_dst = 1, poly_src = 5)",
    "poly_op (op = MUL, poly_dst = 1, poly_src = 5)",
    "poly_op (op = BITREV, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_ADD, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_SUB, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_MUL, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_AND, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_OR, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_XOR, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_RSHIFT, poly_dst = 1, poly_src = 5)",
    "poly_op (op = CONST_LSHIFT, poly_dst = 1, poly_src = 5)",
    "shift_poly (ring = x^N+1, poly_dst = 1, poly_src = 0)",
    "shift_poly (ring = x^N-1, poly_dst = 1, poly_src = 0)",
    "flag = eq_check (poly_a = 1, poly_b = 2)",
    "flag = inf_norm_check (poly = 1, bound = 100)",
    "flag = compare (reg, 3)",
    "flag = compare (tmp, 3)",
    "flag = compare (c0, 1000)",
    "flag = compare (c1, 3)",
    "end: sha3_init",
    "sha3_256_absorb (poly = 1)",
    "sha3_512_absorb (poly = 1)",
    "sha3_256_absorb (r0)",
    "sha3_512_absorb (r1)",
    "r0 = sha3_256_digest",
    "r1 = sha3_256_digest",
    "r0 || r1 = sha3_512_digest",
    "if (flag == -1) goto end",
    "if (flag != 0) goto end",
    "if (flag == +1) goto end",
]


def test_every_mnemonic_assembles_and_round_trips():
    source = "\n".join(COVERAGE_LINES)
    prog = assemble(source)
    assert len(prog) == len(COVERAGE_LINES) - 0
    words = isa.encode(prog)
    assert all(0 <= w < (1 << 32) for w in words)
    assert isa.decode(words).instructions == prog.instructions
    again = assemble(isa.disassemble(prog))
    assert again.instructions == prog.instructions
    assert isa.encode(again) == words


def test_mnemonics_have_unique_opcodes():
    # one opcode per mnemonic and one mnemonic per opcode; the forms of an
    # opcode share one field layout
    op_of = {f.code: f.op for f in isa.FORMS}
    assert len(set(op_of.values())) == len(op_of)
    assert all(op_of[f.code] == f.op for f in isa.FORMS)
    for form in isa.FORMS:
        first = next(f for f in isa.FORMS if f.code == form.code)
        assert [(f.name, f.width) for f in form.fields] == \
            [(f.name, f.width) for f in first.fields]
        assert sum(f.width for f in form.fields) <= form.top


def test_config_examples():
    prog = assemble("config (n = 1024, q = 12289)")
    assert prog.instructions == (Instruction("config", {"n": 1024, "q": 12289}),)
    word = isa.encode(prog)[0]
    assert word >> 29 == 0
    assert isa.decode_instruction(word).args == {"n": 1024, "q": 12289}


def test_newhope_listing_is_ten_instructions():
    prog = assemble(_program_text("newhope_as_plus_e.sph"))
    assert len(prog) == 10


def test_corpus_assembles_clean():
    for name in ("newhope_as_plus_e.sph", "kyber512_as_plus_e.sph",
                 "ntt_measurement_loop.sph", "demo_8pt.sph"):
        prog = assemble(_program_text(name))
        assert len(prog) > 0
        # binary + text round trips hold for the whole corpus
        assert isa.decode(isa.encode(prog)).instructions == prog.instructions
        assert assemble(isa.disassemble(prog)).instructions == prog.instructions


def test_kyber_listing_slot_usage():
    prog = assemble(_program_text("kyber512_as_plus_e.sph"))
    adds = [i for i in prog.instructions
            if i.op == "poly_op" and i.args["op"] == "ADD"]
    assert {a.args["poly_dst"] for a in adds[-2:]} == {24, 25}


def test_empty_input():
    prog = assemble("")
    assert len(prog) == 0
    assert isa.encode(prog) == []


def test_labels_and_branches():
    prog = assemble("""
    start: c0 = 0
    loop: c0 = c0 + 1
    flag = compare (c0, 10)
    if (flag == -1) goto loop
    if (flag != -1) goto start
    """)
    assert prog.labels == {"start": 0, "loop": 1}
    assert prog.instructions[3].args["target"] == 1
    assert prog.instructions[4].args["target"] == 0


def test_assembler_diagnostics_carry_line_numbers():
    with pytest.raises(AsmError) as err:
        assemble("config (n = 256, q = 7681)\nbogus_insn (poly = 0)\n")
    assert err.value.line == 2
    with pytest.raises(AsmError) as err:
        assemble("if (flag == -1) goto nowhere")
    assert "nowhere" in str(err.value)
    with pytest.raises(AsmError):
        assemble("transform (mode = SIDEWAYS, poly_dst = 1, poly_src = 0)")
    with pytest.raises(AsmError):
        assemble("bin_sample (prng = SHAKE-256, seed = r1, c0 = 12, c1 = 0, k = 8, poly = 2)")
    with pytest.raises(AsmError):
        assemble("loop: c0 = 0\nloop: c0 = 1")   # duplicate label
    with pytest.raises(AsmError):
        assemble("tmp = reg")                    # not an Appendix-B form


def test_program_size_limit():
    src = "\n".join(["c0 = 0"] * 257)
    with pytest.raises(AsmError):
        assemble(src)


def test_reserved_opcode_decode_error():
    with pytest.raises(DecodeError) as err:
        isa.decode([31 << 27])
    assert err.value.index == 0


def test_reserved_field_decode_error():
    # counter selector 7 is a reserved pattern inside rej_sample
    word = (15 << 27) | (7 << 22)
    with pytest.raises(DecodeError):
        isa.decode_instruction(word, 0)


def test_binary_file_round_trip(tmp_path):
    prog = assemble(_program_text("kyber512_as_plus_e.sph"))
    path = tmp_path / "prog.bin"
    isa.write_binary(path, prog)
    blob = path.read_bytes()
    assert blob[:4] == b"SPH1"
    assert isa.read_binary(path).instructions == prog.instructions
    # idempotent assembly: same source -> byte-identical file
    path2 = tmp_path / "prog2.bin"
    isa.write_binary(path2, assemble(_program_text("kyber512_as_plus_e.sph")))
    assert path2.read_bytes() == blob


def test_bad_binary_files(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(DecodeError):
        isa.read_binary(path)
    path.write_bytes(b"SPH1" + (5).to_bytes(4, "little") + bytes(4))
    with pytest.raises(DecodeError):
        isa.read_binary(path)
    path.write_bytes(b"SPH1\x01")     # header cut short
    with pytest.raises(DecodeError):
        isa.read_binary(path)


# branches need label context and labels must stay unique
_SAMPLE_OPS = st.sampled_from(
    [l for l in COVERAGE_LINES if ":" not in l and "goto" not in l])


@settings(max_examples=50, deadline=None)
@given(st.lists(_SAMPLE_OPS, min_size=1, max_size=40))
def test_random_streams_round_trip(lines):
    prog = assemble("\n".join(lines))
    words = isa.encode(prog)
    assert isa.decode(words).instructions == prog.instructions
    assert assemble(isa.disassemble(prog)).instructions == prog.instructions


_CONDITIONS = st.sampled_from(["flag == -1", "flag != 0", "flag == +1"])


@st.composite
def _labelled_listings(draw):
    """Straight-line ops mixed with labels and branches to them; label Lk
    sits before instruction k, so L<count> follows the last instruction."""
    count = draw(st.integers(1, 40))
    spots = draw(st.lists(st.integers(0, count), min_size=1, max_size=4, unique=True))
    lines = []
    for i in range(count + 1):
        if i in spots:
            lines.append(f"L{i}:")
        if i == count:
            break
        if draw(st.booleans()):
            lines.append(f"if ({draw(_CONDITIONS)}) goto L{draw(st.sampled_from(spots))}")
        else:
            lines.append(draw(_SAMPLE_OPS))
    return "\n".join(lines)


@settings(max_examples=50, deadline=None)
@given(_labelled_listings())
@example("c0 = 5\nif (flag != 0) goto L2\nc1 = 7\nL2:")
def test_labelled_streams_round_trip(listing):
    prog = assemble(listing)
    assert isa.decode(isa.encode(prog)).instructions == prog.instructions
    assert assemble(isa.disassemble(prog)).instructions == prog.instructions


def test_branch_to_end_survives_the_binary_form():
    prog = assemble("flag = compare (c0, 1)\nif (flag == -1) goto end\nc1 = 7\nend:")
    decoded = isa.decode(isa.encode(prog))
    assert decoded.instructions == prog.instructions
    listing = isa.disassemble(decoded)
    assert listing.splitlines()[-1] == "L3:"
    m = Machine()
    m.load_program(assemble(listing))
    m.run()
    assert m.halted and m.c1 == 0       # c0 = 0 < 1: the branch skipped c1 = 7


def test_decode_rejects_out_of_range_branch():
    prog = assemble("flag = compare (c0, 1)\nL: if (flag == 0) goto L")
    words = isa.encode(prog)
    with pytest.raises(DecodeError):
        isa.decode(words[:1] + [words[1] | 0xFF])   # target 255 > length


def test_encoding_is_frozen():
    """The words of COVERAGE_LINES and of every checked-in program, with
    its templates filled the way the protocol drivers fill them, as the
    assembler before the table-driven one encoded them."""
    with open(os.path.join(DATA_DIR, "frozen_words.json")) as fh:
        frozen = json.load(fh)
    words = isa.encode(assemble("\n".join(COVERAGE_LINES)))
    assert [f"{w:08x}" for w in words] == frozen["coverage_lines"]
    for entry in frozen["programs"]:
        prog = protocols.load_program(entry["program"], **entry["params"])
        assert [f"{w:08x}" for w in isa.encode(prog)] == entry["words"], entry
    shipped = os.listdir(os.path.join(os.path.dirname(isa.__file__), "programs"))
    assert {e["program"] for e in frozen["programs"]} == \
        {name for name in shipped if name.endswith(".sph")}


_SHA3_INIT = 28 << 27


def _form_words(op):
    """Words of one mnemonic's opcode: each field holds the fixed value of
    one of its forms or random bits, sometimes with the bits below the
    fields set."""
    @st.composite
    def words(draw):
        form = draw(st.sampled_from([f for f in isa.FORMS if f.op == op]))
        word, pos = form.code << form.top, form.top
        for f in form.fields:
            pos -= f.width
            if f.name in form.fixed and draw(st.booleans()):
                bits = f.enc(form.fixed[f.name])
            else:
                bits = draw(st.integers(0, (1 << f.width) - 1))
            word |= bits << pos
        if pos and draw(st.integers(0, 3)) == 0:
            word |= draw(st.integers(1, (1 << pos) - 1))
        return word
    return words()


@pytest.mark.parametrize("op", sorted({f.op for f in isa.FORMS}))
def test_every_decodable_word_round_trips(op):
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_form_words(op))
    def round_trip(word):
        # a branch needs its target inside the program
        words = [word] + [_SHA3_INIT] * ((word & 0xFF) if op == "branch" else 0)
        try:
            prog = isa.decode(words)
        except DecodeError:
            return
        assert isa.encode(assemble(isa.disassemble(prog))) == words
    round_trip()


@pytest.mark.parametrize("word", [
    0x36000009,              # regop ALU op 9
    (6 << 27) | (1 << 26) | (1 << 24),             # reg = tmp, target tmp
    (6 << 27) | (1 << 24) | 5,                      # reg = tmp, immediate 5
    (6 << 27) | (2 << 24),                          # ALU on target reg
    (8 << 27) | (2 << 20) | (1 << 18) | 7,          # reg = (poly = 2)[c0], index 7
    (9 << 27) | (2 << 20) | (2 << 18) | 7,          # (poly = 2)[c1] = reg, index 7
    (30 << 27) | (1 << 26) | (1 << 25),             # r0 || r1 digest with dest r1
    (29 << 27) | (1 << 25) | (3 << 18),             # absorb from r0 with poly 3
    (29 << 27) | (1 << 26) | (2 << 24) | (5 << 17), # absorb from r1 with poly 5
])
def test_decoder_rejects_fields_the_listing_cannot_express(word):
    with pytest.raises(DecodeError):
        isa.decode_instruction(word, 0)


ALTERNATE_SPELLINGS = {
    # positional call operands
    "transform (DIF_NTT, 16, 4)":
        Instruction("transform", {"mode": "DIF_NTT", "poly_dst": 16, "poly_src": 4}),
    "bin_sample (SHAKE-256, r1, c0, 1, 8, 2)":
        Instruction("bin_sample", {"prng": "SHAKE-256", "seed": "r1", "c0": "c0",
                                   "c1": 1, "k": 8, "poly": 2}),
    "flag = eq_check (1, 2)": Instruction("eq_check", {"poly_a": 1, "poly_b": 2}),
    "sha3_256_absorb (3)":
        Instruction("sha3_absorb", {"bits": 256, "source": "poly", "poly": 3}),
    # poly as the key of either eq_check operand
    "flag = eq_check (poly = 1, poly = 2)":
        Instruction("eq_check", {"poly_a": 1, "poly_b": 2}),
    "flag = eq_check (poly_a = 1, poly = 2)":
        Instruction("eq_check", {"poly_a": 1, "poly_b": 2}),
    # max/sum_elems without "reg ="
    "max_elems (poly = 3)": Instruction("elems", {"fn": "max", "poly": 3}),
    # one integer rule for every operand
    "mult_psi (poly = 0x1)": Instruction("mult_psi", {"poly": 1}),
    "init (poly = 1_0)": Instruction("init", {"poly": 10}),
    "reg = (poly = 2)[0x7]":
        Instruction("poly_get", {"poly": 2, "sel": "imm", "index": 7}),
    "reg = (poly = 02)[7]":
        Instruction("poly_get", {"poly": 2, "sel": "imm", "index": 7}),
    "tmp = 0x10": Instruction("regop", {"target": "tmp", "mode": "imm", "value": 16}),
    "c1 = c1 - 0b11": Instruction("cnt", {"counter": "c1", "mode": "sub", "value": 3}),
    # spaces are optional where no two words meet
    "c0=c0+1": Instruction("cnt", {"counter": "c0", "mode": "add", "value": 1}),
    "reg=tmp": Instruction("regop", {"target": "reg", "mode": "copy", "value": 0}),
    "(poly=2)[c0]=reg": Instruction("poly_set", {"poly": 2, "sel": "c0", "index": 0}),
    "r0||r1=sha3_512_digest":
        Instruction("sha3_digest", {"bits": 512, "dest": "r0"}),
    "config(n=8,q=257)": Instruction("config", {"n": 8, "q": 257}),
}


def test_alternate_spellings():
    for line, insn in ALTERNATE_SPELLINGS.items():
        assert assemble(line).instructions == (insn,), line
    prog = assemble("if(flag==+01)goto end\nend:")
    assert prog.instructions == (
        Instruction("branch", {"sense": "==", "flag": 1, "target": 1}),)
    for line in ("tmp = tmpADDreg", "if (flag == 0) gotoend\nend:",
                 "transform (mode = DIF_NTT, poly = 16, poly_src = 4)",
                 "flag = eq_check (poly_b = 1, poly_a = 2)",
                 "flag = compare (reg, value = 3)", "reg = (2)[7]",
                 "sha3_0x100_absorb (r0)", "reg = (poly = 2)[imm]",
                 "if (flag == 2) goto end\nend:"):
        with pytest.raises(AsmError) as err:
            assemble("c0 = 0\n" + line)
        assert err.value.line == 2, line


def test_readme_encoding_table_matches_the_spec():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Instruction encoding (frozen)")[1].split("\n## ")[0]
    rows = re.findall(r"^\| (\d+) +\| [^|]+\| ([^|]+)\|$", section, re.M)
    documented = {int(op): [int(w) for w in re.findall(r"\((\d+)", fields)]
                  for op, fields in rows if "decode error" not in fields}
    spec = {f.code: [fld.width for fld in f.fields] for f in isa.FORMS if f.code}
    assert len(documented) == 27
    assert documented == spec


def test_programs_are_immutable():
    listing = "c0 = 1\nloop:\nc0 = c0 + 1\nif (flag == 0) goto loop"
    for prog in (assemble(listing), isa.decode(isa.encode(assemble(listing))),
                 protocols.load_program("newhope_decrypt.sph", n=1024, r0=32)):
        with pytest.raises(AttributeError):
            prog.instructions.append(Instruction("sha3_init", {}))
        with pytest.raises(TypeError):
            prog.instructions[0].args["n"] = 8
        with pytest.raises(AttributeError):
            prog.instructions[0].op = "init"
        with pytest.raises(TypeError):
            prog.spans[0] = (1, "c0 = 2")
        with pytest.raises(TypeError):
            prog.labels["end"] = 3
        with pytest.raises(AttributeError):
            prog.instructions = ()


def test_load_program_is_shared():
    prog = protocols.load_program("newhope_decrypt.sph", n=1024, r0=32)
    assert protocols.load_program("newhope_decrypt.sph", n=1024, r0=32) is prog
    assert protocols.load_program("newhope_decrypt.sph", n=512, r0=16) is not prog


# instructions no program may hold; each once ran or escaped Machine.run
# as an error other than MachineFault
REFUSED = {
    "cnt writes cycles": (Instruction("cnt", {"counter": "cycles", "mode": "set", "value": 5}),
                          "cnt operand counter: expected one of ('c0', 'c1'), got 'cycles'"),
    "cnt writes pc": (Instruction("cnt", {"counter": "pc", "mode": "add", "value": 1}),
                      "cnt operand counter: expected one of ('c0', 'c1'), got 'pc'"),
    "regop writes halted": (Instruction("regop", {"target": "halted", "mode": "imm",
                                                  "value": 1}),
                            "regop operand target: expected one of ('reg', 'tmp'), "
                            "got 'halted'"),
    "poly_get indexed by reg": (Instruction("poly_get", {"poly": 0, "sel": "reg",
                                                          "index": 0}),
                                "poly_get operands {'poly': 0, 'sel': 'reg', 'index': 0} "
                                "match no listing form"),
    "poly_op FOO": (Instruction("poly_op", {"op": "FOO", "poly_dst": 0, "poly_src": 1}),
                    "poly_op operand op: expected one of ('ADD', 'SUB', 'MUL', 'BITREV', "
                    "'CONST_ADD', 'CONST_SUB', 'CONST_MUL', 'CONST_AND', 'CONST_OR', "
                    "'CONST_XOR', 'CONST_RSHIFT', 'CONST_LSHIFT'), got 'FOO'"),
    "cnt without value": (Instruction("cnt", {"counter": "c0", "mode": "set"}),
                          "cnt operand value: value None is not an int in [0, 65535]"),
    "branch to a str": (Instruction("branch", {"sense": "==", "flag": 0, "target": "x"}),
                        "branch target 'x' out of range [0, 2]"),
    "float value": (Instruction("cnt", {"counter": "c0", "mode": "set", "value": 1.5}),
                    "cnt operand value: value 1.5 is not an int in [0, 65535]"),
    "str slot": (Instruction("init", {"poly": "3"}),
                 "init operand poly: value '3' is not an int in [0, 127]"),
    "float n": (Instruction("config", {"n": 64.0, "q": 7681}),
                "config operand n: n=64.0 must be a power of two in [8, 2048]"),
    "not an instruction": ("sha3_init", "'sha3_init' is not an Instruction with a str op"),
    "unhashable op": (Instruction(["init"], {"poly": 0}),
                      "Instruction(op=['init'], args=mappingproxy({'poly': 0})) is not an "
                      "Instruction with a str op"),
    "out-of-range value": (Instruction("regop", {"target": "reg", "mode": "imm",
                                                 "value": 1 << 24}),
                           "regop operand value: value 16777216 is not an int in "
                           "[0, 16777215]"),
}


@pytest.mark.parametrize("case", list(REFUSED))
def test_program_refuses_what_the_decoder_cannot_give(case):
    insn, message = REFUSED[case]
    with pytest.raises(DecodeError) as err:
        isa.Program([Instruction("sha3_init", {}), insn])
    assert (err.value.index, err.value.reason) == (1, message)


def test_program_stores_instructions_as_the_decoder_gives_them():
    prog = isa.Program([
        Instruction("cnt", {"counter": "c0", "mode": "set", "value": True, "extra": 1}),
        Instruction("regop", {"target": "tmp", "mode": "alu", "value": True}),
        Instruction("branch", {"sense": "!=", "flag": -1, "target": True}),
    ])
    assert prog.instructions == isa.decode(isa.encode(prog)).instructions
    assert [dict(i.args) for i in prog.instructions] == [
        {"counter": "c0", "mode": "set", "value": 1},
        {"target": "tmp", "mode": "alu", "value": 1},
        {"sense": "!=", "flag": -1, "target": 1}]
    assert [type(i.args["value"]) for i in prog.instructions[:2]] == [int, int]
    # a float is refused, naming its field, though it equals a valid value
    for insn, field in ((Instruction("regop", {"target": "tmp", "mode": "alu", "value": 2.0}),
                         "regop operand value"),
                        (Instruction("sha3_absorb", {"bits": 256.0, "source": "poly",
                                                     "poly": 0}), "sha3_absorb operand bits")):
        with pytest.raises(isa.DecodeError, match=f"instruction 0: {field}: .*got"):
            isa.Program([insn])


def test_branch_target_bounds():
    """A target may be the program's length, 256 included, where the
    branch halts; only the 8-bit encoding refuses 256."""
    pad = [Instruction("sha3_init", {})] * 255
    for target in (0, 256):
        prog = isa.Program(pad + [Instruction("branch", {"sense": "==", "flag": 0,
                                                         "target": target})])
        assert prog.instructions[-1].args["target"] == target
    with pytest.raises(ValueError, match="branch operand target: value 256"):
        isa.encode(prog)
    m = Machine()
    m.load_program(prog)
    assert m.run().halted and m.pc == 256
    for target in (-1, 257):
        with pytest.raises(DecodeError) as err:
            isa.Program(pad + [Instruction("branch", {"sense": "==", "flag": 0,
                                                      "target": target})])
        assert err.value.index == 255
    with pytest.raises(AsmError) as err:
        assemble("\n".join(["sha3_init"] * 3 + ["if (flag == 0) goto end", "end:"]
                           + ["c0 = 70000"]))
    assert (err.value.line, str(err.value)) == (
        6, "line 6: cnt operand value: value 70000 is not an int in [0, 65535]")
