import pytest
from hypothesis import given, settings, strategies as st

from sapphire import isa
from sapphire.isa import AsmError, DecodeError, Instruction, assemble
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
    codes = list(isa.FORMATS)
    assert len(set(codes)) == len(codes)
    mnems = [m for m, _ in isa.FORMATS.values()]
    assert len(set(mnems)) == len(mnems)


def test_config_examples():
    prog = assemble("config (n = 1024, q = 12289)")
    assert prog.instructions == [Instruction("config", {"n": 1024, "q": 12289})]
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


def test_decode_rejects_out_of_range_branch():
    prog = assemble("flag = compare (c0, 1)\nL: if (flag == 0) goto L")
    words = isa.encode(prog)
    with pytest.raises(DecodeError):
        isa.decode(words[:1] + [words[1] | 0xFF])   # target 255 > length
