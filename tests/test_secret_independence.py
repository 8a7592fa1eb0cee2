"""Whole-run secret independence of the shipped listings and of every
sampler instruction.

The paper claims that Sapphire's building blocks run in constant time.
Here each protocol driver or listing runs several times with only its
secret inputs varied: the noise seed r1, the secret key, the message, the
mask.  For every program run, ``RunRecorder`` keeps what a timing or
simple-power observer of the core could see: the pc sequence, the cycle
report and the memory ledger.  The emulator is deterministic, so one
differing pair of records is a leak.

Declassified on purpose:

* rejection sampling from the public seed r0, whose run time depends on
  how many candidates r0's stream rejects; r0 is held fixed, and
  ``test_public_seed_rejection_shows_in_the_record`` checks that the
  recorder sees that dependence;
* the host-side ``decode_message`` and the host's noise additions, which
  run on the host processor, not on the core.

Each of the seven sampler instructions also runs alone, with its noise
seed r1 varied.  ``bin_sample``, ``cdt_sample`` and ``tri_sample_3`` draw
a fixed number of words, so their records must be identical.  The
rejection-style samplers draw until they have enough, so their keccak and
sampler cycles (24 per permutation, 1 per word, 1 per sample) vary with
the draw and are declassified, each for its own reason:

* ``rej_sample`` and ``uni_sample``: a candidate is rejected by its own
  value alone, so the number of rejected candidates is independent of the
  values of the accepted ones, which are the output;
* ``tri_sample_1`` and ``tri_sample_2``: a placement is retried when its
  uniform position is already taken, and by the symmetry of uniform
  placement under any permutation of the positions, the retry count is
  independent of which positions end up nonzero and of their signs.

Their pc sequence and ledger must still be identical, and their cycle
reports may differ only by the draw's own cycles.
"""

import pytest

from sapphire import keccak, polycache, protocols, sampler
from sapphire.machine import Machine
from test_protocols import stream_bytes


class RunRecorder(Machine):
    """A Machine that records, for each ``run``, its pc sequence, its
    cycle report lines and its ledger segments."""

    def __init__(self):
        super().__init__()
        self.cache.trace_enabled = True
        self.records = []

    def step(self):
        self.pcs.append(self.pc)
        super().step()

    def run(self, max_cycles=None):
        self.pcs = []
        report = super().run(max_cycles)
        self.records.append((self.pcs, report.lines(), list(self.cache.ledger)))
        return report


def _records(drive, secrets):
    """Each secret's records from a fresh machine, and drive's results."""
    records, results = [], []
    for secret in secrets:
        m = RunRecorder()
        results.append(drive(m, secret))
        assert m.records
        records.append(m.records)
    return records, results


def _assert_independent(drive, secrets):
    records, results = _records(drive, secrets)
    assert all(r == records[0] for r in records[1:])
    # the secrets reach the results, so the runs did differ
    assert len({repr(r) for r in results}) == len(secrets)


def _keygen(n):
    """Run newhope_keygen.sph on a public seed r0 and a noise seed r1;
    returns the secret key slot."""
    def drive(m, seeds):
        r0, r1 = seeds
        m.configure(n, protocols.NEWHOPE_Q)
        rb = polycache.slots_per_bank(n)
        m.load_program(protocols.load_program(
            "newhope_keygen.sph", n=n, k=protocols.NEWHOPE_K, r0=rb, r1=rb + 1, r2=rb + 2))
        m.write_seed("r0", r0)
        m.write_seed("r1", r1)
        m.run()
        return m.read_slot(rb)
    return drive


@pytest.mark.parametrize("n", [512, 1024])
def test_newhope_keygen_with_the_noise_seed_varied(n):
    r0 = stream_bytes(b"si-public")
    _assert_independent(_keygen(n), [(r0, stream_bytes(b"si-noise%d" % i))
                                     for i in range(3)])


def test_public_seed_rejection_shows_in_the_record():
    r1 = stream_bytes(b"si-noise")
    records, _ = _records(_keygen(1024), [(stream_bytes(b"si-public%d" % i), r1)
                                          for i in range(3)])
    totals = {lines[0] for (_pcs, lines, _ledger), in records}
    assert len(totals) > 1


@pytest.fixture(scope="module")
def keypair():
    return protocols.newhope_keygen(Machine(), stream_bytes(b"si-kg"), n=1024)


def test_newhope_encrypt_with_coin_and_message_varied(keypair):
    def drive(m, i):
        return protocols.newhope_encrypt(
            m, keypair, stream_bytes(b"si-coin%d" % i), stream_bytes(b"si-msg%d" % i))
    _assert_independent(drive, range(4))


def test_newhope_decrypt_under_four_keys(keypair):
    ct = protocols.newhope_encrypt(Machine(), keypair, stream_bytes(b"si-c"),
                                   stream_bytes(b"si-m"))
    keys = [protocols.newhope_keygen(Machine(), stream_bytes(b"si-key%d" % i), n=1024)
            for i in range(4)]
    _assert_independent(lambda m, sk: protocols.newhope_decrypt(m, sk, ct), keys)


def test_masked_decrypt_with_the_mask_varied(keypair):
    msg = stream_bytes(b"si-masked")
    ct = protocols.newhope_encrypt(Machine(), keypair, stream_bytes(b"si-mc"), msg)

    def drive(m, i):
        rng = keccak.shake256(b"si-mask%d" % i).finalize().squeeze
        assert protocols.masked_decrypt(m, keypair, ct, rng=rng) == msg
        return m.read_slot(0)       # the masked ciphertext's u
    _assert_independent(drive, range(3))


def test_kyber_as_plus_e_with_seed_s_varied():
    seed_a = stream_bytes(b"si-kyber-a")
    _assert_independent(
        lambda m, seed_s: protocols.kyber_as_plus_e(m, seed_a, seed_s),
        [stream_bytes(b"si-kyber-s%d" % i) for i in range(4)])


@pytest.mark.parametrize("kernel", ["frodo_as_plus_e", "frodo_sa_plus_e"])
def test_desk640_frodo_kernels_with_seed_s_varied(kernel):
    seed_a = stream_bytes(b"si-frodo-a")
    run = getattr(protocols, kernel)
    _assert_independent(
        lambda m, seed_s: run(m, "desk640", seed_a, seed_s),
        [stream_bytes(b"si-frodo-s%d" % i) for i in range(3)])


N, Q = 1024, 12289
CDT = sampler.CdtTable.from_sigma(2.75, 11, 16)
NOISE_SEEDS = [stream_bytes(b"si-sampler%d" % i) for i in range(20)]


def _sampler_run(op, operands):
    """Run `op` alone on seed r1, after config (n = 1024, q = 12289);
    returns the written slot."""
    def drive(m, r1):
        m.load_cdt(CDT)
        m.load_program(f"config (n = {N}, q = {Q})\n"
                       f"{op} (prng = SHAKE-256, seed = r1, c0 = 0, c1 = 0, "
                       f"{operands}poly = 0)\n")
        m.write_seed("r1", r1)
        m.run()
        return m.read_slot(0)
    return drive


# op -> its operands
FIXED_DRAW = {
    "bin_sample": "k = 8, ",
    "cdt_sample": f"r = {CDT.precision}, s = {CDT.support}, ",
    "tri_sample_3": "rho = 3, ",
}


@pytest.mark.parametrize("op", sorted(FIXED_DRAW))
def test_fixed_draw_samplers_with_the_noise_seed_varied(op):
    _assert_independent(_sampler_run(op, FIXED_DRAW[op]), NOISE_SEEDS)


# op -> (its operands, the same draw replayed on the host)
REJECTION_STYLE = {
    "rej_sample": ("", lambda prng: sampler.rej_sample(
        N, sampler.RejectionPlan.for_modulus(Q), prng)),
    "uni_sample": ("eta = 5, bitlen = 4, ",
                   lambda prng: sampler.uni_sample(N, 5, 4, Q, prng)),
    "tri_sample_1": ("m = 64, ",
                     lambda prng: sampler.tri_sample_fixed(N, 64, Q, prng)),
    "tri_sample_2": ("m0 = 32, m1 = 32, ",
                     lambda prng: sampler.tri_sample_split(N, 32, 32, Q, prng)),
}


@pytest.mark.parametrize("op", sorted(REJECTION_STYLE))
def test_rejection_style_samplers_with_the_noise_seed_varied(op):
    operands, replay = REJECTION_STYLE[op]
    records, results = _records(_sampler_run(op, operands), NOISE_SEEDS)
    undrawn, totals = set(), set()
    for r1, ((pcs, lines, ledger),), values in zip(NOISE_SEEDS, records, results):
        prng = keccak.sampler_prng("SHAKE-256", r1, 0, 0)
        assert replay(prng) == values
        draw = {"cycles_keccak": 24 * prng.permutes,
                "cycles_sampler": prng.words_out + N}
        draw["cycles_total"] = draw[f"insn_{op}"] = sum(draw.values())
        counts = [line.split() for line in lines]
        undrawn.add((tuple(pcs), tuple(ledger),
                     tuple((k, int(v) - draw.get(k, 0)) for k, v in counts)))
        totals.add(lines[0])
    assert len(undrawn) == 1
    assert len(totals) > 1      # the draw did vary, and was declassified
