import hashlib
import itertools
import os
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ReferenceSponge
from sapphire import isa, keccak

SPONGES = sorted(ReferenceSponge.SPONGES)
DIGEST_BITS = {"SHA3-256": 256, "SHA3-512": 512}


def test_permute_zero_state_vector():
    lanes = keccak.keccak_f1600([0] * 25)
    assert lanes[0] == 0xF1258F7940E1DDE7


def test_permute_bijective_spot_check():
    rng = random.Random(0)
    a = [rng.getrandbits(64) for _ in range(25)]
    b = list(a)
    b[7] ^= 1
    assert keccak.keccak_f1600(a) != keccak.keccak_f1600(b)
    once = keccak.keccak_f1600(a)
    assert keccak.keccak_f1600(once) != once   # not idempotent


def test_sha3_empty_vectors():
    assert keccak.sha3_digest(b"", 256).hex() == (
        "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a")
    assert keccak.sha3_digest(b"", 512) == hashlib.sha3_512(b"").digest()


def test_shake_empty_prefix():
    s = keccak.shake128().finalize()
    assert s.squeeze(16).hex() == "7f9c2ba4e88f827d616045507605853e"


@pytest.mark.parametrize("nbytes", [0, 1, 3, 135, 136, 137, 168, 169, 500])
def test_digests_match_hashlib(nbytes):
    """The emulator's sponge (whose bytes come from hashlib) and hashlib
    both agree with the pure-Python reference sponge, on inputs around the
    rate-block boundaries."""
    msg = (bytes(range(256)) * 2)[:nbytes]
    for mode, length, stdlib in (
            ("SHA3-256", 32, hashlib.sha3_256(msg).digest()),
            ("SHA3-512", 64, hashlib.sha3_512(msg).digest()),
            ("SHAKE-128", 73, hashlib.shake_128(msg).digest(73)),
            ("SHAKE-256", 73, hashlib.shake_256(msg).digest(73))):
        want = ReferenceSponge(mode).absorb(msg).squeeze(length)
        assert stdlib == want, mode
    assert keccak.sha3_digest(msg, 256) == \
        ReferenceSponge("SHA3-256").absorb(msg).squeeze(32)
    assert keccak.sha3_digest(msg, 512) == \
        ReferenceSponge("SHA3-512").absorb(msg).squeeze(64)
    assert keccak.shake128(msg).finalize().squeeze(73) == \
        ReferenceSponge("SHAKE-128").absorb(msg).squeeze(73)
    assert keccak.shake256(msg).finalize().squeeze(73) == \
        ReferenceSponge("SHAKE-256").absorb(msg).squeeze(73)


def kat_cases():
    path = os.path.join(os.path.dirname(__file__), "..", "src", "sapphire",
                        "data", "fips202_kat.txt")
    cases = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                mode, msg_hex, want_hex = line.split()
                msg = bytes.fromhex(msg_hex) if msg_hex != "-" else b""
                cases.append((mode, msg, bytes.fromhex(want_hex)))
    assert len(cases) >= 24
    return cases


def test_kat_file():
    for mode, msg, want in kat_cases():
        if mode == "SHA3-256":
            got = keccak.sha3_digest(msg, 256)
        elif mode == "SHA3-512":
            got = keccak.sha3_digest(msg, 512)
        elif mode == "SHAKE-128":
            got = keccak.shake128(msg).finalize().squeeze(len(want))
        else:
            got = keccak.shake256(msg).finalize().squeeze(len(want))
        assert got == want, f"{mode}({msg.hex()})"


def test_kat_file_reference_sponge():
    """The known answers through the pure-Python permutation."""
    for mode, msg, want in kat_cases():
        got = ReferenceSponge(mode).absorb(msg).squeeze(len(want))
        assert got == want, f"{mode}({msg.hex()})"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(SPONGES), st.data())
def test_sponge_matches_reference(name, data):
    """Random absorb chunkings (empty chunks and whole rate blocks among
    them), then random byte squeezes of 0 to 400 bytes (rate-block
    multiples among them), single words, and bulk draws of 0 to 600 words
    as ints or as bytes, often right after a squeeze that leaves the stream
    off a word boundary: equal output and equal counters after every call,
    against the bit-level reference sponge, whose bulk draws are
    ``next_word()`` calls."""
    fast, ref = keccak.KeccakState(name), ReferenceSponge(name)
    rate_bytes = ref.rate_bits // 8
    chunk = st.one_of(
        st.binary(max_size=2 * rate_bytes),
        st.integers(0, 2).flatmap(lambda k: st.binary(min_size=k * rate_bytes,
                                                      max_size=k * rate_bytes)))
    for piece in data.draw(st.lists(chunk, max_size=4), "absorbs"):
        fast.absorb(piece)
        ref.absorb(piece)
        assert fast.permutes == ref.permutes
    # SHA3 output ends at its digest
    room = DIGEST_BITS.get(name, 1 << 20) // 8
    width = st.one_of(st.integers(0, 400), st.sampled_from(
        [0, 1, 4, 8, 136, 168, 272, 336]))
    draw = st.sampled_from(["words", "raw"])
    step = st.one_of(width.map(lambda w: [("bytes", w)]),
                     st.integers(1, 80).map(lambda k: [("word", 1)] * k),
                     st.tuples(draw, st.integers(0, 600)).map(lambda p: [p]),
                     st.tuples(st.integers(1, 3), draw, st.integers(0, 600)).map(
                         lambda p: [("bytes", p[0]), p[1:]]))
    steps = data.draw(st.lists(step, min_size=1, max_size=8), "squeezes")
    for kind, w in itertools.chain(*steps):
        if kind == "bytes":
            w = min(w, room)
            got, want = fast.squeeze(w), ref.squeeze(w)
        else:
            w = min(w, room // 4)
            if kind == "word" and w:
                got, want = fast.next_word(), ref.next_word()
            elif kind == "words":
                got = fast.words(w)
                want = tuple(ref.next_word() for _ in range(w))
            elif kind == "raw":
                got, want = fast.raw(w), ref.raw(w)
            else:
                continue
            w *= 4
        room -= w
        assert (got, fast.permutes, fast.words_out) == \
            (want, ref.permutes, ref.words_out)


def test_rate_block_consumption():
    # squeezing exactly one SHAKE-128 rate block (168 bytes) costs no extra
    # permutation, nor does a zero-length squeeze; the next byte triggers one
    s = keccak.shake128(b"x")
    assert s.squeeze(0) == b""
    before = s.permutes
    s.squeeze(168)
    assert s.squeeze(0) == b""
    assert s.permutes == before
    s.squeeze(1)
    assert s.permutes == before + 1


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=64), st.lists(st.integers(0, 200), min_size=1,
                                        max_size=8))
def test_squeeze_granularity_independence(seed, widths):
    s1 = keccak.shake256(seed).finalize()
    s2 = keccak.shake256(seed).finalize()
    whole = s1.squeeze(sum(widths))
    assert b"".join(s2.squeeze(w) for w in widths) == whole
    assert s1.permutes == s2.permutes


def test_two_64s_equal_one_128():
    s1 = keccak.shake128(b"seed").finalize()
    s2 = keccak.shake128(b"seed").finalize()
    assert s1.squeeze(8) + s1.squeeze(8) == s2.squeeze(16)


def test_raw_zero_leaves_sponge_absorbing():
    s = keccak.shake128(b"seed")
    assert s.raw(0) == b"" and s.words(0) == ()
    assert (s.phase, s.words_out, s.permutes) == ("absorbing", 0, 0)
    s.absorb(b"more")


@pytest.mark.parametrize("skip", [0, 1, 3])
@pytest.mark.parametrize("count", [1, 7, 42, 43, 1024])
def test_raw_packs_words(skip, count):
    """raw(k) is the little-endian packing of words(k), at any byte offset
    of the stream, with the same counters after it."""
    a = keccak.sampler_prng("SHAKE-128", bytes(32), 1, 2)
    b = keccak.sampler_prng("SHAKE-128", bytes(32), 1, 2)
    a.squeeze(skip)
    b.squeeze(skip)
    assert a.raw(count) == struct.pack(f"<{count}I", *b.words(count))
    assert (a.words_out, a.permutes) == (b.words_out, b.permutes) == \
        (count, 1 + (skip + 4 * count - 1) // 168)
    assert a.squeeze(5) == b.squeeze(5)


def test_next_word_counters():
    s = keccak.shake128(b"w").finalize()
    for i in range(100):
        s.next_word()
    assert s.words_out == 100


def test_sampler_prng_layout():
    # seed || c0 || c1 little-endian is the canonical block
    seed = bytes(range(32))
    a = keccak.sampler_prng("SHAKE-128", seed, 0x0102, 0x0304)
    manual = keccak.shake128(seed + bytes([0x02, 0x01, 0x04, 0x03])).finalize()
    assert a.squeeze(32) == manual.squeeze(32)
    with pytest.raises(ValueError):
        keccak.sampler_prng("SHAKE-128", b"short", 0, 0)
    for mode in ("SHAKE-512", "SHA3-256"):     # a sponge, but no PRNG mode
        with pytest.raises(ValueError):
            keccak.sampler_prng(mode, seed, 0, 0)


def test_absorb_after_squeeze_rejected():
    s = keccak.shake128(b"a").finalize()
    with pytest.raises(ValueError):
        s.absorb(b"more")
    s = keccak.shake256(b"a")
    s.squeeze(1)
    with pytest.raises(ValueError):
        s.absorb(b"")


def test_digest_deterministic():
    assert keccak.sha3_digest(b"same", 256) == keccak.sha3_digest(b"same", 256)


def test_unsupported_sponge_rejected():
    for name in ("SHAKE-512", "SHA3-384", "shake-128", "SHAKE128", ""):
        with pytest.raises(ValueError):
            keccak.KeccakState(name)
    with pytest.raises(ValueError):
        keccak.sha3_digest(b"", 384)


def test_sponge_names_are_the_isa_and_kat_names():
    """The sponges are named once: the ISA's PRNG modes plus the two SHA-3
    digests, the modes of the known-answer file, and the oracle's table,
    whose FIPS-202 rates the hash objects' block sizes must equal (a
    backend with another block size would move every ``permutes``)."""
    names = set(keccak._SPONGES)
    assert names == set(isa.PRNGS) | {"SHA3-256", "SHA3-512"}
    assert names == {mode for mode, _msg, _want in kat_cases()}
    assert names == set(ReferenceSponge.SPONGES)
    assert {name: keccak.KeccakState(name).rate * 8 for name in names} == \
        {name: rate for name, (rate, _suffix) in ReferenceSponge.SPONGES.items()} == \
        {"SHAKE-128": 1344, "SHAKE-256": 1088, "SHA3-256": 1088, "SHA3-512": 576}


@pytest.mark.parametrize("bits", [256, 512])
def test_sha3_squeeze_past_digest_rejected(bits):
    mode = f"SHA3-{bits}"
    s = keccak.KeccakState(mode).absorb(b"x")
    assert s.squeeze(bits // 8) == keccak.sha3_digest(b"x", bits)
    with pytest.raises(ValueError):
        s.squeeze(1)
    with pytest.raises(ValueError):
        keccak.KeccakState(mode).squeeze(bits // 8 + 1)


@pytest.mark.parametrize("mode", SPONGES)
def test_one_full_block_then_padding_block(mode):
    rate_bits, _suffix = ReferenceSponge.SPONGES[mode]
    s = keccak.KeccakState(mode).absorb(bytes(rate_bits // 8))
    assert s.permutes == 1
    assert s.finalize().permutes == 2
