"""Protocol drivers: CPA-PKE over Ring-LWE, a Module-LWE kernel and tiled
LWE matrix kernels, all executed as assembled programs on the emulated
processor, plus the host-side oracles used to validate them.

The drivers move data through the memory-mapped host interface, run the
checked-in programs from ``programs/`` and post-process results exactly
the way the protocol host processor would.  Each listing is a whole
program: the drivers fill its fields with numbers (the active dimension,
slot numbers, counters) and, for Frodo, with line flags: a field that
opens a line is filled with ``""`` to keep the line or ``"#"`` to make it
a comment, which the assembler drops.
"""

import functools
import operator
import secrets
from importlib import resources

from . import isa, keccak, nttcore, polycache, sampler
from .record import Record

NEWHOPE_Q = 12289
NEWHOPE_K = 8           # the binomial noise parameter of every NewHope sample
KYBER_Q = 7681
KYBER_N = 256


def _program_text(name):
    return resources.files("sapphire").joinpath(f"programs/{name}").read_text()


@functools.cache
def load_program(name, **params):
    """The checked-in program ``name``, its template filled in with params;
    assembled once per (name, params) and shared, as Programs are
    immutable."""
    text = _program_text(name)
    if params:
        text = text.format(**params)
    return isa.assemble(text)


# --------------------------------------------------------------- messages

def encode_message(msg, n):
    """Spread each of the 256 message bits over n/256 coefficients.

    Bit i drives coefficients i + 256*t for t < n/256, set to 0 or
    floor(q/2).
    """
    if len(msg) != 32:
        raise ValueError("message must be 32 bytes")
    if n % 256:
        raise ValueError("ring dimension must be a multiple of 256")
    bits = int.from_bytes(msg, "little")      # bit i = msg[i >> 3] bit i & 7
    return [NEWHOPE_Q // 2 * (bits >> i & 1) for i in range(256)] * (n // 256)


def decode_message(coeffs, n):
    """Threshold-decode: bit = 1 iff the group's summed distance from
    floor(q/2) stays at or below (n/256) * q/4 (ties decode to 1)."""
    half = NEWHOPE_Q // 2
    threshold = ((n // 256) * NEWHOPE_Q) // 4
    dist = [abs(c - half) for c in coeffs[:n]]
    # group i holds coefficients i, i + 256, ...: the columns of n/256 rows
    totals = map(sum, zip(*[dist[t:t + 256] for t in range(0, n, 256)]))
    bits = sum(1 << i for i, total in enumerate(totals) if total <= threshold)
    return bits.to_bytes(32, "little")


# ----------------------------------------------------------------- NewHope

class CpaKeyPair(Record):
    _fields = ("n", "a_hat", "b_hat", "s_hat")

    def __init__(self, n, a_hat, b_hat, s_hat):
        vars(self).update(n=n, a_hat=a_hat, b_hat=b_hat, s_hat=s_hat)


class CpaCiphertext(Record):
    _fields = ("n", "u_hat", "v_prime")

    def __init__(self, n, u_hat, v_prime):
        vars(self).update(n=n, u_hat=u_hat, v_prime=v_prime)


class DriverError(RuntimeError):
    pass


def _newhope_run(m, name, n, seeds, inputs, right=0, **params):
    """One program step at n, q = 12289: load template ``name`` with params
    and its first ``right`` right-bank slots as r0, r1, r2, write the seeds
    and the input slots 0, 1, ..., run; returns the first right-bank slot.
    Only the CPA-PKE programs use the right bank and need n in (512, 1024)."""
    if right and n not in (512, 1024):
        raise DriverError(f"CPA-PKE supports n in (512, 1024), got {n}")
    m.configure(n, NEWHOPE_Q)
    rb = polycache.slots_per_bank(n)
    m.load_program(load_program(name, n=n, **params,
                                **{f"r{i}": rb + i for i in range(right)}))
    for register, data in seeds.items():
        m.write_seed(register, data)
    for slot, values in enumerate(inputs):
        m.write_slot(slot, values)
    m.run()
    return rb


def newhope_keygen(m, seed, n=1024):
    """Run the keygen program; seed expands to (public, noise) seeds."""
    expanded = keccak.shake256(seed).finalize().squeeze(64)
    rb = _newhope_run(m, "newhope_keygen.sph", n,
                      {"r0": expanded[:32], "r1": expanded[32:]}, (),
                      right=3, k=NEWHOPE_K)
    return CpaKeyPair(n, m.read_slot(0), m.read_slot(rb + 2), m.read_slot(rb))


def newhope_encrypt(m, pk, coin, msg):
    """Encrypt a 32-byte message under pk using coin as the noise seed."""
    rb = _newhope_run(m, "newhope_encrypt.sph", pk.n, {"r1": coin},
                      (pk.a_hat, pk.b_hat, encode_message(msg, pk.n)),
                      right=3, k=NEWHOPE_K)
    return CpaCiphertext(pk.n, m.read_slot(0), m.read_slot(rb + 2))


def newhope_decrypt(m, sk, ct):
    rb = _newhope_run(m, "newhope_decrypt.sph", ct.n, {},
                      (ct.u_hat, sk.s_hat, ct.v_prime), right=1)
    return decode_message(m.read_slot(rb), ct.n)


def add_ciphertexts(m, ct_a, ct_b):
    """(u_a + u_b, v'_a + v'_b): the additive-homomorphism step."""
    _newhope_run(m, "ciphertext_add.sph", ct_a.n, {},
                 (ct_a.u_hat, ct_b.u_hat, ct_a.v_prime, ct_b.v_prime))
    return CpaCiphertext(ct_a.n, m.read_slot(0), m.read_slot(2))


def masked_decrypt(m, keypair, ct, rng=secrets.token_bytes):
    """First-order masked decryption via ciphertext re-randomization.

    Decrypts ct + Enc(mu_r) for a fresh random mask message mu_r, then
    unmasks the result with XOR.  Needs the public half of the key pair
    to encrypt the mask.
    """
    mask_msg = rng(32)
    mask_coin = rng(32)
    ct_r = newhope_encrypt(m, keypair, mask_coin, mask_msg)
    masked = add_ciphertexts(m, ct, ct_r)
    mu_m = newhope_decrypt(m, keypair, masked)
    return bytes(a ^ b for a, b in zip(mu_m, mask_msg))


# ------------------------------------------------------------ host oracles

def negacyclic_mul(a, b, q):
    """Schoolbook product in Z_q[x]/(x^n + 1)."""
    n = len(a)
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            k = i + j
            if k >= n:
                out[k - n] -= ai * bj
            else:
                out[k] += ai * bj
    return [v % q for v in out]


def intt_direct(hat_bitrev, n, q):
    """Inverse negacyclic transform by direct summation (O(n^2) oracle).

    Input is in the bit-reversed order the forward transform leaves in
    the polynomial cache.
    """
    cfg = nttcore.LatticeConfig.make(n, q)
    consts = nttcore.gen_constants(cfg)
    lgn = cfg.lg_n
    nat = [hat_bitrev[nttcore.bit_reverse(u, lgn)] for u in range(n)]
    omega = consts.psi * consts.psi % q
    wpow = nttcore._powers(pow(omega, q - 2, q), 1, n, q)    # omega^-i
    out = []
    for t in range(n):
        acc = 0
        for u in range(n):
            acc += nat[u] * wpow[(t * u) % n]
        out.append(acc % q * consts.psi_inv_scaled[t] % q)
    return out


def kyber_as_plus_e(m, seed_a, seed_s):
    """Run the checked-in 2x2 Module-LWE A*s+e program; returns both rows."""
    m.write_seed("r0", seed_a)
    m.write_seed("r1", seed_s)
    m.load_program(load_program("kyber512_as_plus_e.sph"))
    m.run()
    return m.read_slot(24), m.read_slot(25)


def kyber_as_plus_e_oracle(seed_a, seed_s):
    """NTT-free recomputation: direct inverse transforms plus schoolbook
    negacyclic matrix-vector arithmetic, O(k^2 n^2)."""
    n, q = KYBER_N, KYBER_Q
    plan = sampler.RejectionPlan.for_modulus(q)
    s = [sampler.bin_sample(n, 3, q, keccak.sampler_prng("SHAKE-256", seed_s, 0, c1))
         for c1 in (0, 1)]
    e = [sampler.bin_sample(n, 3, q, keccak.sampler_prng("SHAKE-256", seed_s, 0, c1))
         for c1 in (2, 3)]
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            hat = sampler.rej_sample(
                n, plan, keccak.sampler_prng("SHAKE-128", seed_a, j, i))
            row.append(intt_direct(hat, n, q))
        rows.append(row)
    out = []
    for i in range(2):
        acc = [0] * n
        for j in range(2):
            prod = negacyclic_mul(rows[i][j], s[j], q)
            acc = [(x + y) % q for x, y in zip(acc, prod)]
        out.append([(x + y) % q for x, y in zip(acc, e[i])])
    return out[0], out[1]


# -------------------------------------------------------------------- Frodo

class FrodoProfile(Record):
    _fields = ("name", "n", "q", "tiles", "two_cols", "nbar", "sigma", "s", "r")
    chunk = 64              # rows of A (or of S') per program run

    def __init__(self, name, n, q, tiles, two_cols, nbar, sigma, s, r):
        vars(self).update(
            name=name,
            n=n,                # logical matrix dimension
            q=q,
            tiles=tiles,        # ((array_len, zeroed_tail), ...)
            two_cols=two_cols,  # generate S two columns/rows at a time
            nbar=nbar,
            sigma=sigma,
            s=s,                # CDT support bound
            r=r)                # CDT precision


# the tiles cover n with power-of-two arrays: 640 = 512 + 128, 976 = 1024
# with 48 zeroed, 1344 = 1024 + 512 with the last 192 zeroed
FRODO_PROFILES = {
    "frodo640": FrodoProfile("frodo640", 640, 1 << 15, ((512, 0), (128, 0)),
                             True, 8, 2.8, 12, 16),
    "frodo976": FrodoProfile("frodo976", 976, 1 << 16, ((1024, 48),),
                             True, 8, 2.3, 10, 16),
    "frodo1344": FrodoProfile("frodo1344", 1344, 1 << 16, ((1024, 0), (512, 192)),
                              False, 8, 1.4, 6, 16),
    # desk-scale mirrors of the three tiling shapes
    "desk640": FrodoProfile("desk640", 192, 1 << 15, ((128, 0), (64, 0)),
                            True, 8, 2.8, 12, 16),
    "desk976": FrodoProfile("desk976", 120, 1 << 15, ((128, 8),),
                            True, 8, 2.3, 10, 16),
    "desk1344": FrodoProfile("desk1344", 176, 1 << 15, ((128, 0), (64, 16)),
                             False, 8, 1.4, 6, 16),
}

# counter-space bases on the noise seed r1 (the public seed r0 uses
# (c0 = row, c1 = tile) for just-in-time rows of A); E and E' sit above
# every S' chunk counter of every profile (frodo1344's reach 20 + 20)
_S_COL_BASE = 0       # c0 = tile, c1 = column
_SP_CHUNK_BASE = 20   # c0 = 20 + chunk, c1 = row
_E_BASE = 64          # c0 = 64 (E) / 65 (E'), c1 = column / row


def _frodo_cdt_host(profile, seed, c0, c1, count):
    table = sampler.CdtTable.from_sigma(profile.sigma, profile.s, profile.r)
    prng = keccak.sampler_prng("SHAKE-256", seed, c0, c1)
    return sampler.cdt_sample(count, table, prng, q=profile.q)


def _frodo_profile(profile):
    """The profile as given, or the one its name names."""
    return FRODO_PROFILES[profile] if isinstance(profile, str) else profile


def _frodo_setup(m, profile, seed_a, seed_s):
    """The profile (by name or as is), with its CDT and both seeds loaded."""
    profile = _frodo_profile(profile)
    m.load_cdt(sampler.CdtTable.from_sigma(profile.sigma, profile.s, profile.r))
    m.write_seed("r0", seed_a)
    m.write_seed("r1", seed_s)
    return profile


def _line_flag(keep):
    """A listing field that opens a line: "" keeps the line, "#" makes it
    a comment."""
    return "" if keep else "#"


def _frodo_sample(m, profile, tile_n, c0, col):
    """Sample the S (or S') segment (c0, col) into slot 0 and, when the
    profile takes two at a time, (c0, col + 1) into slot 1."""
    m.load_program(load_program(
        "frodo_s_cols.sph", tile_n=tile_n, q=profile.q, r=profile.r, s=profile.s,
        c0val=c0, col0=col, col1=col + 1, pair=_line_flag(profile.two_cols)))
    m.run()


def _frodo_add_noise(profile, seed_s, c0, vectors):
    """Each vector j plus the host-drawn noise vector (c0, j), mod q."""
    q = profile.q
    return [[(x + e) % q for x, e in
             zip(vector, _frodo_cdt_host(profile, seed_s, c0, j, profile.n))]
            for j, vector in enumerate(vectors)]


def frodo_as_plus_e(m, profile, seed_a, seed_s):
    """Tiled A*S + E on the machine; returns the n x nbar result matrix."""
    profile = _frodo_setup(m, profile, seed_a, seed_s)
    n, q, chunk = profile.n, profile.q, profile.chunk
    step = 2 if profile.two_cols else 1
    pair = _line_flag(profile.two_cols)
    cols = [[0] * n for _ in range(profile.nbar)]     # the columns of A*S
    for tile, (tile_n, pad) in enumerate(profile.tiles):
        for col in range(0, profile.nbar, step):
            _frodo_sample(m, profile, tile_n, _S_COL_BASE + tile, col)
            if pad:
                for slot in range(step):
                    m.write_slot(slot, m.read_slot(slot)[:tile_n - pad] + [0] * pad)
            for base in range(0, n, chunk):
                rows = min(chunk, n - base)
                m.load_program(load_program(
                    "frodo_as_rows.sph", tile_n=tile_n, q=q, row_base=base,
                    tile=tile, chunk=rows, pair=pair))
                m.run()
                # slots 2 (and 3) hold this chunk's dot products
                for j in range(step):
                    acc = cols[col + j]
                    acc[base:base + rows] = map(operator.add, acc[base:base + rows],
                                                m.read_slot(2 + j))
    cols = _frodo_add_noise(profile, seed_s, _E_BASE, cols)
    return [list(row) for row in zip(*cols)]


def frodo_sa_plus_e(m, profile, seed_a, seed_s):
    """Tiled S'*A + E' on the machine; returns the nbar x n result matrix."""
    profile = _frodo_setup(m, profile, seed_a, seed_s)
    n, q, chunk = profile.n, profile.q, profile.chunk
    step = 2 if profile.two_cols else 1
    pair = _line_flag(profile.two_cols)
    rows = [[] for _ in range(profile.nbar)]
    for tile, (tile_n, pad) in enumerate(profile.tiles):
        for row in range(0, profile.nbar, step):
            for index, base in enumerate(range(0, n, chunk)):
                _frodo_sample(m, profile, tile_n, _SP_CHUNK_BASE + index, row)
                m.load_program(load_program(
                    "frodo_sa_chunk.sph", tile_n=tile_n, q=q, row_base=base,
                    tile=tile, chunk=min(chunk, n - base), pair=pair,
                    first=_line_flag(base == 0)))
                m.run()
            # accumulators 6 (and 7) hold this tile's segment of the row(s)
            for j in range(step):
                rows[row + j] += m.read_slot(6 + j)[:tile_n - pad]
    return _frodo_add_noise(profile, seed_s, _E_BASE + 1, rows)


def _frodo_rebuild_a(profile, seed_a):
    """Row-major A exactly as the just-in-time generation produces it."""
    plan = sampler.RejectionPlan.for_modulus(profile.q)
    rows = []
    for i in range(profile.n):
        row = []
        for tile_idx, (tile_n, pad) in enumerate(profile.tiles):
            prng = keccak.sampler_prng("SHAKE-128", seed_a, i, tile_idx)
            row.extend(sampler.rej_sample(tile_n, plan, prng)[:tile_n - pad])
        rows.append(row)
    return rows


def _frodo_rebuild_secret(profile, seed_s, segments):
    """The nbar secret vectors of S (or S'): vector j joins, for each
    segment (c0, count, keep), the first keep of count host draws (c0, j)."""
    return [[x for c0, count, keep in segments
             for x in _frodo_cdt_host(profile, seed_s, c0, j, count)[:keep]]
            for j in range(profile.nbar)]


def frodo_as_plus_e_oracle(profile, seed_a, seed_s):
    """Dense matrix product oracle for the tiled A*S + E kernel."""
    profile = _frodo_profile(profile)
    n, q, nbar = profile.n, profile.q, profile.nbar
    a = _frodo_rebuild_a(profile, seed_a)
    # column-major S: each column joins the per-tile segments
    s = _frodo_rebuild_secret(profile, seed_s, [
        (_S_COL_BASE + tile, tile_n, tile_n - pad)
        for tile, (tile_n, pad) in enumerate(profile.tiles)])
    out = []
    for i in range(n):
        arow = a[i]
        row = []
        for j in range(nbar):
            sj = s[j]
            row.append(sum(x * y for x, y in zip(arow, sj)) % q)
        out.append(row)
    for col in range(nbar):
        e = _frodo_cdt_host(profile, seed_s, _E_BASE, col, n)
        for i in range(n):
            out[i][col] = (out[i][col] + e[i]) % q
    return out


def frodo_sa_plus_e_oracle(profile, seed_a, seed_s):
    profile = _frodo_profile(profile)
    n, q, nbar = profile.n, profile.q, profile.nbar
    a = _frodo_rebuild_a(profile, seed_a)
    # row-major S': each row joins the per-chunk segments
    chunks = [min(profile.chunk, n - base) for base in range(0, n, profile.chunk)]
    sp = _frodo_rebuild_secret(profile, seed_s, [
        (_SP_CHUNK_BASE + index, rows, rows) for index, rows in enumerate(chunks)])
    out = []
    for row in range(nbar):
        acc = [0] * n
        srow = sp[row]
        for i in range(n):
            si = srow[i]
            if si == 0:
                continue
            arow = a[i]
            for t in range(n):
                acc[t] += si * arow[t]
        e = _frodo_cdt_host(profile, seed_s, _E_BASE + 1, row, n)
        out.append([(x + y) % q for x, y in zip(acc, e)])
    return out
