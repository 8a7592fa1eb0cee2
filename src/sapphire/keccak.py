"""SHA3-256/512 digests and SHAKE-128/256 XOF, plus the Keccak-f[1600]
permutation in pure Python as the reference model.

The sponge state doubles as the CS-PRNG of the emulated processor: samplers
pull the next count 32-bit words out of a seeded SHAKE state, as ints
(``KeccakState.words(count)``) or as little-endian bytes (``raw(count)``).
``hashlib`` supplies the bytes; each state derives from its byte counts the
permutations run and 32-bit words shifted out, which the machine's cycle
model reads back (24 cycles per permutation, one cycle per word).

Lane layout follows FIPS-202: lane (x, y) sits at flat index x + 5*y and is
serialized as 8 little-endian bytes.
"""

import hashlib
import struct

_MASK64 = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def keccak_f1600(lanes):
    """All 24 rounds over a 25-lane list (index x + 5*y). Returns a new list.

    The round body is unrolled across the 25 lanes; only the round loop
    remains.
    """
    (a00, a10, a20, a30, a40,
     a01, a11, a21, a31, a41,
     a02, a12, a22, a32, a42,
     a03, a13, a23, a33, a43,
     a04, a14, a24, a34, a44) = lanes
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & _MASK64)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & _MASK64)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & _MASK64)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & _MASK64)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & _MASK64)
        a00 ^= d0; a01 ^= d0; a02 ^= d0; a03 ^= d0; a04 ^= d0
        a10 ^= d1; a11 ^= d1; a12 ^= d1; a13 ^= d1; a14 ^= d1
        a20 ^= d2; a21 ^= d2; a22 ^= d2; a23 ^= d2; a24 ^= d2
        a30 ^= d3; a31 ^= d3; a32 ^= d3; a33 ^= d3; a34 ^= d3
        a40 ^= d4; a41 ^= d4; a42 ^= d4; a43 ^= d4; a44 ^= d4
        # rho + pi: b[y][(2x+3y)%5] = rotl(a[x][y], r[x][y])
        b00 = a00
        b02 = (a10 << 1 | a10 >> 63) & _MASK64
        b04 = (a20 << 62 | a20 >> 2) & _MASK64
        b01 = (a30 << 28 | a30 >> 36) & _MASK64
        b03 = (a40 << 27 | a40 >> 37) & _MASK64
        b13 = (a01 << 36 | a01 >> 28) & _MASK64
        b10 = (a11 << 44 | a11 >> 20) & _MASK64
        b12 = (a21 << 6 | a21 >> 58) & _MASK64
        b14 = (a31 << 55 | a31 >> 9) & _MASK64
        b11 = (a41 << 20 | a41 >> 44) & _MASK64
        b21 = (a02 << 3 | a02 >> 61) & _MASK64
        b23 = (a12 << 10 | a12 >> 54) & _MASK64
        b20 = (a22 << 43 | a22 >> 21) & _MASK64
        b22 = (a32 << 25 | a32 >> 39) & _MASK64
        b24 = (a42 << 39 | a42 >> 25) & _MASK64
        b34 = (a03 << 41 | a03 >> 23) & _MASK64
        b31 = (a13 << 45 | a13 >> 19) & _MASK64
        b33 = (a23 << 15 | a23 >> 49) & _MASK64
        b30 = (a33 << 21 | a33 >> 43) & _MASK64
        b32 = (a43 << 8 | a43 >> 56) & _MASK64
        b42 = (a04 << 18 | a04 >> 46) & _MASK64
        b44 = (a14 << 2 | a14 >> 62) & _MASK64
        b41 = (a24 << 61 | a24 >> 3) & _MASK64
        b43 = (a34 << 56 | a34 >> 8) & _MASK64
        b40 = (a44 << 14 | a44 >> 50) & _MASK64
        # chi + iota
        a00 = b00 ^ (~b10 & b20) & _MASK64 ^ rc
        a10 = b10 ^ (~b20 & b30) & _MASK64
        a20 = b20 ^ (~b30 & b40) & _MASK64
        a30 = b30 ^ (~b40 & b00) & _MASK64
        a40 = b40 ^ (~b00 & b10) & _MASK64
        a01 = b01 ^ (~b11 & b21) & _MASK64
        a11 = b11 ^ (~b21 & b31) & _MASK64
        a21 = b21 ^ (~b31 & b41) & _MASK64
        a31 = b31 ^ (~b41 & b01) & _MASK64
        a41 = b41 ^ (~b01 & b11) & _MASK64
        a02 = b02 ^ (~b12 & b22) & _MASK64
        a12 = b12 ^ (~b22 & b32) & _MASK64
        a22 = b22 ^ (~b32 & b42) & _MASK64
        a32 = b32 ^ (~b42 & b02) & _MASK64
        a42 = b42 ^ (~b02 & b12) & _MASK64
        a03 = b03 ^ (~b13 & b23) & _MASK64
        a13 = b13 ^ (~b23 & b33) & _MASK64
        a23 = b23 ^ (~b33 & b43) & _MASK64
        a33 = b33 ^ (~b43 & b03) & _MASK64
        a43 = b43 ^ (~b03 & b13) & _MASK64
        a04 = b04 ^ (~b14 & b24) & _MASK64
        a14 = b14 ^ (~b24 & b34) & _MASK64
        a24 = b24 ^ (~b34 & b44) & _MASK64
        a34 = b34 ^ (~b44 & b04) & _MASK64
        a44 = b44 ^ (~b04 & b14) & _MASK64
    return [a00, a10, a20, a30, a40,
            a01, a11, a21, a31, a41,
            a02, a12, a22, a32, a42,
            a03, a13, a23, a33, a43,
            a04, a14, a24, a34, a44]


# FIPS-202 name -> hashlib constructor.  The rate is the hash object's
# block_size, and a digest_size of 0 marks an extendable-output function.
_SPONGES = {
    "SHAKE-128": hashlib.shake_128,
    "SHAKE-256": hashlib.shake_256,
    "SHA3-256": hashlib.sha3_256,
    "SHA3-512": hashlib.sha3_512,
}


class KeccakState:
    """One sponge instance, named as in FIPS-202: absorb bytes, then
    squeeze bytes.

    Counters mirror the hardware PRNG datapath: ``permutes`` counts the
    Keccak-f[1600] runs needed so far (24 cycles each), ``words_out`` counts
    32-bit shift-outs (one cycle each).
    """

    def __init__(self, kind):
        if kind not in _SPONGES:
            raise ValueError(f"no sponge named {kind!r}")
        self._hash = _SPONGES[kind]()
        self.rate = self._hash.block_size     # bytes
        self.phase = "absorbing"
        self._absorbed = 0         # bytes
        self._squeezed = 0         # bytes
        self._out = b""            # output stream computed so far
        self.words_out = 0

    @property
    def permutes(self):
        """One per full input block, one for the padded last block, one per
        further output block started."""
        count = self._absorbed // self.rate
        if self.phase == "squeezing":
            count += 1 + max(self._squeezed - 1, 0) // self.rate
        return count

    def absorb(self, data):
        if self.phase != "absorbing":
            raise ValueError("cannot absorb after squeezing started")
        self._hash.update(data)
        self._absorbed += len(data)
        return self

    def finalize(self):
        """Apply the domain-separation suffix and padding; start squeezing.
        The output itself is computed by the first squeeze."""
        self.phase = "squeezing"
        return self

    def _extend(self, nbytes):
        """Compute at least nbytes of output.  SHAKE output is prefix-stable,
        so its stream grows by recomputing it at twice the length."""
        if self._hash.digest_size:
            if nbytes > self._hash.digest_size:
                raise ValueError("cannot squeeze past the SHA3 digest")
            self._out = self._hash.digest()
        else:
            blocks = -(-max(nbytes, 2 * len(self._out)) // self.rate)
            self._out = self._hash.digest(blocks * self.rate)

    def squeeze(self, nbytes):
        if self.phase != "squeezing":
            self.finalize()
        start, stop = self._squeezed, self._squeezed + nbytes
        if stop > len(self._out):
            self._extend(stop)
        self._squeezed = stop
        return self._out[start:stop]

    def raw(self, count):
        """Shift out count 32-bit words as 4*count little-endian bytes."""
        if not count:
            return b""
        self.words_out += count
        return self.squeeze(4 * count)

    def words(self, count):
        """Shift out count 32-bit words at once, exactly as count next_word()
        calls would."""
        return struct.unpack(f"<{count}I", self.raw(count))

    def next_word(self):
        """Shift out one 32-bit word, as the sampler datapath does."""
        return self.words(1)[0]


def shake128(data=b""):
    return KeccakState("SHAKE-128").absorb(data)


def shake256(data=b""):
    return KeccakState("SHAKE-256").absorb(data)


def sha3_digest(data, bits=256):
    """SHA3-256 or SHA3-512 digest of a byte string."""
    return KeccakState(f"SHA3-{bits}").absorb(data).finalize().squeeze(bits // 8)


def sampler_prng(mode, seed, c0, c1):
    """Seeded sampler PRNG: absorbs seed (32 bytes) || c0 || c1 (LE16 each).

    This block layout is the emulator's canonical choice for deriving
    multiple polynomials from one seed register.
    """
    if len(seed) != 32:
        raise ValueError("sampler seed must be 32 bytes")
    if not (0 <= c0 < 1 << 16 and 0 <= c1 < 1 << 16):
        raise ValueError("sampler counters must be 16-bit")
    if mode not in ("SHAKE-128", "SHAKE-256"):
        raise ValueError(f"unknown PRNG mode {mode!r}")
    state = KeccakState(mode)
    state.absorb(seed)
    state.absorb(c0.to_bytes(2, "little"))
    state.absorb(c1.to_bytes(2, "little"))
    return state.finalize()
