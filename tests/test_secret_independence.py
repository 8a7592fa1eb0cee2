"""Whole-run secret independence of the shipped listings.

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

The sampler instructions whose cycles depend on their draws
(``tri_sample_1``, ``tri_sample_2`` and ``uni_sample``) appear in no
shipped listing and are not covered here.
"""

import pytest

from sapphire import keccak, polycache, protocols
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
            "newhope_keygen.sph", n=n, k=8, r0=rb, r1=rb + 1, r2=rb + 2))
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
