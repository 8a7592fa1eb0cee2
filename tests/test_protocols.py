import itertools
import random

import pytest

from sapphire import keccak, machine, polycache, protocols
from sapphire.protocols import (
    FRODO_PROFILES, DriverError, decode_message, encode_message,
    newhope_decrypt, newhope_encrypt, newhope_keygen,
)


def stream_bytes(tag, k=32):
    return keccak.shake256(tag).finalize().squeeze(k)


class SlotWriteRecorder(machine.Machine):
    """A Machine that records, for each instruction of the programs
    ``masked_decrypt`` runs, the contents of every slot it writes."""

    # op -> its slot operands that it writes; a transform's src is scratch
    WRITES = {"config": (), "bin_sample": ("poly",), "mult_psi": ("poly",),
              "mult_psi_inv": ("poly",), "poly_op": ("poly_dst",),
              "transform": ("poly_dst", "poly_src")}

    def __init__(self):
        super().__init__()
        self.writes = []        # ((op, slot), contents)

    def step(self):
        insn = self.program.instructions[self.pc]
        super().step()
        for field in self.WRITES[insn.op]:
            slot = insn.args[field]
            self.writes.append(((insn.op, slot), self.read_slot(slot)))


class TestEncodeDecode:
    def test_zero_message_encodes_to_zero(self):
        assert encode_message(bytes(32), 1024) == [0] * 1024
        assert encode_message(bytes(32), 512) == [0] * 512

    def test_noiseless_identity_all_single_byte_messages(self):
        for n in (512, 1024):
            for byte in range(256):
                msg = bytes([byte]) + bytes(31)
                coeffs = encode_message(msg, n)
                assert decode_message(coeffs, n) == msg

    def test_spread_positions(self):
        msg = bytes([1]) + bytes(31)   # bit 0 set
        coeffs = encode_message(msg, 1024)
        half = 12289 // 2
        for t in range(4):
            assert coeffs[256 * t] == half
        assert sum(c != 0 for c in coeffs) == 4

    def test_threshold_tie_decodes_to_one(self):
        # a group summing exactly to the threshold stays a 1
        n, q = 1024, 12289
        threshold = ((n // 256) * q) // 4
        coeffs = [0] * n
        half = q // 2
        coeffs[0] = half + threshold   # distance exactly threshold
        for t in range(1, 4):
            coeffs[256 * t] = half
        assert decode_message(coeffs, n)[0] & 1 == 1

    def test_noise_monotonicity(self):
        # decode failures appear once injected noise approaches q/4 per
        # coefficient and never at tiny noise
        n, q = 512, 12289
        rng = random.Random(4)
        msg = stream_bytes(b"mono")
        clean = encode_message(msg, n)
        for amp, expect_clean in ((10, True), (q // 2 - 1, False)):
            noisy = [(c + rng.randrange(-amp, amp + 1)) % q for c in clean]
            ok = decode_message(noisy, n) == msg
            assert ok == expect_clean


class TestNewHope:
    @pytest.mark.parametrize("n", [512, 1024])
    def test_round_trip(self, n):
        m = machine.Machine()
        kp = newhope_keygen(m, stream_bytes(b"kg%d" % n), n=n)
        for trial in range(3):
            msg = stream_bytes(b"msg%d" % trial)
            coin = stream_bytes(b"coin%d" % trial)
            ct = newhope_encrypt(m, kp, coin, msg)
            assert newhope_decrypt(m, kp, ct) == msg

    def test_keygen_is_deterministic_in_seed(self):
        m = machine.Machine()
        a = newhope_keygen(m, bytes(32), n=512)
        b = newhope_keygen(m, bytes(32), n=512)
        assert (a.a_hat, a.b_hat, a.s_hat) == (b.a_hat, b.b_hat, b.s_hat)

    def test_fresh_machine_decrypts(self):
        m1 = machine.Machine()
        kp = newhope_keygen(m1, stream_bytes(b"kg"), n=512)
        ct = newhope_encrypt(m1, kp, stream_bytes(b"c"), stream_bytes(b"m"))
        m2 = machine.Machine()   # no prior config on this one
        assert newhope_decrypt(m2, kp, ct) == stream_bytes(b"m")

    def test_masked_equals_unmasked(self):
        m = machine.Machine()
        kp = newhope_keygen(m, stream_bytes(b"masked"), n=1024)
        rng = keccak.shake256(b"maskrng").finalize()
        for trial in range(5):
            msg = stream_bytes(b"mm%d" % trial)
            ct = newhope_encrypt(m, kp, stream_bytes(b"mc%d" % trial), msg)
            got = protocols.masked_decrypt(m, kp, ct, rng=rng.squeeze)
            assert got == newhope_decrypt(m, kp, ct) == msg

    @pytest.mark.parametrize("n", [512, 1024])
    def test_masked_decrypt_first_order(self, n):
        # fixed key pair and ciphertext, two masks: every slot write of the
        # masked run must differ, or it is a function of the secret and
        # public inputs alone
        m = machine.Machine()
        kp = newhope_keygen(m, stream_bytes(b"fo-kg%d" % n), n=n)
        msg = stream_bytes(b"fo-msg")
        ct = newhope_encrypt(m, kp, stream_bytes(b"fo-coin"), msg)
        runs = []
        for tag in (b"mask a", b"mask b"):
            m = SlotWriteRecorder()
            rng = keccak.shake256(tag).finalize().squeeze
            assert protocols.masked_decrypt(m, kp, ct, rng=rng) == msg
            runs.append(m.writes)
        a, b = runs
        assert len(a) == 24
        assert [where for where, _ in a] == [where for where, _ in b]
        assert [where for (where, x), (_, y) in zip(a, b) if x == y] == []

    def test_zero_mask_degenerates(self):
        # masking with mu_r = 0 adds an encryption of zero: output unchanged
        m = machine.Machine()
        kp = newhope_keygen(m, stream_bytes(b"zm"), n=512)
        msg = stream_bytes(b"zmsg")
        ct = newhope_encrypt(m, kp, stream_bytes(b"zc"), msg)
        ct_zero = newhope_encrypt(m, kp, stream_bytes(b"zr"), bytes(32))
        summed = protocols.add_ciphertexts(m, ct, ct_zero)
        assert newhope_decrypt(m, kp, summed) == msg

    def test_homomorphism_at_reduced_noise(self, monkeypatch):
        # with k = 4 noise, ct(m1) + ct(m2) decrypts to m1 xor m2
        monkeypatch.setattr(protocols, "NEWHOPE_K", 4)
        m = machine.Machine()
        kp = newhope_keygen(m, stream_bytes(b"hom"), n=1024)
        for trial in range(5):
            m1 = stream_bytes(b"h1%d" % trial)
            m2 = stream_bytes(b"h2%d" % trial)
            c1 = newhope_encrypt(m, kp, stream_bytes(b"hc1%d" % trial), m1)
            c2 = newhope_encrypt(m, kp, stream_bytes(b"hc2%d" % trial), m2)
            summed = protocols.add_ciphertexts(m, c1, c2)
            want = bytes(a ^ b for a, b in zip(m1, m2))
            assert newhope_decrypt(m, kp, summed) == want

    def test_drivers_check_n_except_ciphertext_add(self):
        m = machine.Machine()
        with pytest.raises(DriverError):
            newhope_keygen(m, bytes(32), n=256)
        ct = protocols.CpaCiphertext(256, [1] * 256, [2] * 256)
        kp = protocols.CpaKeyPair(256, [0] * 256, [0] * 256, [0] * 256)
        with pytest.raises(DriverError):
            newhope_encrypt(m, kp, bytes(32), bytes(32))
        with pytest.raises(DriverError):
            newhope_decrypt(m, kp, ct)
        # homomorphic addition is defined at any n the machine takes
        assert protocols.add_ciphertexts(m, ct, ct) == \
            protocols.CpaCiphertext(256, [2] * 256, [4] * 256)


class TestKyber:
    def test_matches_oracle_exactly(self):
        m = machine.Machine()
        for trial in range(2):
            sa = stream_bytes(b"ka%d" % trial)
            ss = stream_bytes(b"ks%d" % trial)
            assert protocols.kyber_as_plus_e(m, sa, ss) == \
                protocols.kyber_as_plus_e_oracle(sa, ss)

    def test_zero_secret_zero_error_gives_zero(self):
        # INTT(A_hat * 0) + 0 = 0, checked via the oracle's arithmetic
        n, q = protocols.KYBER_N, protocols.KYBER_Q
        zero = [0] * n
        acc = protocols.negacyclic_mul(list(range(n)), zero, q)
        assert acc == zero

    def test_intt_direct_inverts_pipeline(self):
        from sapphire import nttcore, polycache
        n, q = 256, 7681
        cfg = nttcore.LatticeConfig.make(n, q)
        consts = nttcore.gen_constants(cfg)
        cache = polycache.PolynomialCache().configure(n)
        rng = random.Random(8)
        a = [rng.randrange(q) for _ in range(n)]
        cache.load_slot(0, a)
        nttcore.mult_psi(cfg, consts, cache, 0)
        nttcore.ntt(cfg, consts, cache, 16, 0, nttcore.DIF_NTT)
        assert protocols.intt_direct(cache.dump_slot(16), n, q) == a


class TestFrodo:
    def test_tile_plans_match_real_sizes(self):
        assert FRODO_PROFILES["frodo640"].tiles == ((512, 0), (128, 0))
        assert FRODO_PROFILES["frodo976"].tiles == ((1024, 48),)
        assert FRODO_PROFILES["frodo1344"].tiles == ((1024, 0), (512, 192))
        assert 640 == 512 + 128
        assert 976 == 1024 - 48
        assert 1344 == 1024 + 512 - 192

    @pytest.mark.parametrize("name", ["desk640", "desk976", "desk1344"])
    def test_as_plus_e_matches_dense_oracle(self, name):
        prof = FRODO_PROFILES[name]
        sa, ss = stream_bytes(b"fa" + name.encode()), stream_bytes(b"fs" + name.encode())
        m = machine.Machine()
        assert protocols.frodo_as_plus_e(m, prof, sa, ss) == \
            protocols.frodo_as_plus_e_oracle(prof, sa, ss)

    @pytest.mark.parametrize("name", ["desk640", "desk1344"])
    def test_sa_plus_e_matches_dense_oracle(self, name):
        prof = FRODO_PROFILES[name]
        sa, ss = stream_bytes(b"ga" + name.encode()), stream_bytes(b"gs" + name.encode())
        m = machine.Machine()
        assert protocols.frodo_sa_plus_e(m, prof, sa, ss) == \
            protocols.frodo_sa_plus_e_oracle(prof, sa, ss)

    def test_zero_secret_leaves_only_error(self):
        # S = 0 makes every dot product of the row loop 0, so A*S + E = E;
        # the full-scale profiles run it at a 1024-word tile, which has 8 slots
        for name in ("desk976", "desk1344", "frodo976", "frodo1344"):
            prof = FRODO_PROFILES[name]
            tile_n, chunk = prof.tiles[0][0], prof.chunk
            vectors = range(2 if prof.two_cols else 1)
            m = machine.Machine()
            m.configure(tile_n, prof.q)
            m.write_seed("r0", stream_bytes(b"zero-secret"))
            for j in vectors:
                m.write_slot(j, [0] * tile_n)
                m.write_slot(2 + j, [1] * tile_n)     # the program overwrites these
            m.load_program(protocols.load_program(
                "frodo_as_rows.sph", tile_n=tile_n, q=prof.q, row_base=0, tile=0,
                chunk=chunk, pair=protocols._line_flag(prof.two_cols)))
            m.run()
            for j in vectors:
                assert m.read_slot(2 + j) == [0] * chunk + [1] * (tile_n - chunk)

    @pytest.mark.parametrize("name, tile", [
        (name, tile) for name, prof in FRODO_PROFILES.items()
        for tile in range(len(prof.tiles))])
    def test_listings_name_only_slots_of_the_tile(self, name, tile):
        prof = FRODO_PROFILES[name]
        tile_n = prof.tiles[tile][0]
        pair = protocols._line_flag(prof.two_cols)
        programs = [
            protocols.load_program(
                "frodo_s_cols.sph", tile_n=tile_n, q=prof.q, r=prof.r, s=prof.s,
                c0val=tile, col0=0, col1=1, pair=pair),
            protocols.load_program(
                "frodo_as_rows.sph", tile_n=tile_n, q=prof.q, row_base=0,
                tile=tile, chunk=prof.chunk, pair=pair),
            protocols.load_program(
                "frodo_sa_chunk.sph", tile_n=tile_n, q=prof.q, row_base=0,
                tile=tile, chunk=prof.chunk, pair=pair, first=""),
        ]
        slots = {insn.args[field] for program in programs
                 for insn in program.instructions
                 for field in ("poly", "poly_dst", "poly_src") if field in insn.args}
        assert slots and max(slots) < polycache.slot_count(tile_n)

    def test_noise_counters_are_disjoint(self):
        """The (c0, c1) counters of S, S', E and E' on the noise seed name
        distinct SHAKE-256 streams in every profile."""
        for name, prof in FRODO_PROFILES.items():
            vectors = range(prof.nbar)
            chunks = range(-(-prof.n // prof.chunk))
            counters = {
                "S": {(protocols._S_COL_BASE + t, j)
                      for t in range(len(prof.tiles)) for j in vectors},
                "S'": {(protocols._SP_CHUNK_BASE + c, j)
                       for c in chunks for j in vectors},
                "E": {(protocols._E_BASE, j) for j in vectors},
                "E'": {(protocols._E_BASE + 1, j) for j in vectors},
            }
            for a, b in itertools.combinations(counters, 2):
                assert not counters[a] & counters[b], (name, a, b)

    def test_unknown_profile_is_key_error(self):
        m = machine.Machine()
        for kernel in (protocols.frodo_as_plus_e, protocols.frodo_sa_plus_e):
            with pytest.raises(KeyError):
                kernel(m, "frodo512", bytes(32), bytes(32))

    def test_profiles_shapes(self):
        assert FRODO_PROFILES["frodo640"].tiles == ((512, 0), (128, 0))
        assert FRODO_PROFILES["desk640"].tiles == ((128, 0), (64, 0))
        assert not FRODO_PROFILES["desk1344"].two_cols
        assert FRODO_PROFILES["desk976"].tiles[0][1] == 8


@pytest.mark.slow
@pytest.mark.parametrize("name", ["frodo640", "frodo976", "frodo1344"])
def test_frodo_full_scale(name):
    prof = FRODO_PROFILES[name]
    sa, ss = stream_bytes(b"full-a"), stream_bytes(b"full-s")
    m = machine.Machine()
    assert protocols.frodo_as_plus_e(m, prof, sa, ss) == \
        protocols.frodo_as_plus_e_oracle(prof, sa, ss)
    assert protocols.frodo_sa_plus_e(m, prof, sa, ss) == \
        protocols.frodo_sa_plus_e_oracle(prof, sa, ss)
