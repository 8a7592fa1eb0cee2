"""Frozen per-unit cycle reports of the protocol drivers and a SHA-3 listing.

Each case runs with fixed seeds on a machine that sums, over every program
the case runs, the cycle report (total, per unit, per instruction) and the
memory cycles of each run.  The sums are frozen in
``tests/data/golden_cycle_reports.json``; record them again with
``python tests/test_cycle_reports.py`` only when the cycle model changes on
purpose.
"""

import json
import os

from conftest import DATA_DIR
from sapphire import keccak, protocols
from sapphire.machine import Machine

GOLDEN = os.path.join(DATA_DIR, "golden_cycle_reports.json")

SEED_A = bytes(range(32))
SEED_S = bytes(range(32, 64))

# poly absorbs are 3 bytes a word, so neither stream is word-aligned; the
# SHA3-512 one goes on with both 32-byte seed registers
SHA3_LISTING = """\
config (n = 256, q = 7681)
sha3_init
sha3_256_absorb (poly = 0)
r1 = sha3_256_digest
sha3_512_absorb (poly = 1)
sha3_512_absorb (r1)
sha3_512_absorb (r0)
r0 || r1 = sha3_512_digest
"""


class RecordingMachine(Machine):
    """A Machine that sums the reports of all its runs."""

    def __init__(self):
        super().__init__()
        self.summary = None
        self.take()

    def take(self):
        """The sums so far; start new ones."""
        summary, self.summary = self.summary, {
            "runs": 0, "cycles": 0, "mem_cycle": 0,
            "per_unit": {}, "per_instruction": {}}
        return summary

    def run(self, max_cycles=None):
        report = super().run(max_cycles)
        s = self.summary
        s["runs"] += 1
        s["cycles"] += report.total
        s["mem_cycle"] += self.cache.mem_cycle
        for key, counts in (("per_unit", report.per_unit),
                            ("per_instruction", report.per_instruction)):
            for name, cycles in counts.items():
                s[key][name] = s[key].get(name, 0) + cycles
        return report


def _newhope(n):
    m = RecordingMachine()
    kp = protocols.newhope_keygen(m, SEED_A, n=n)
    keygen = m.take()
    msg = keccak.shake256(b"message %d" % n).finalize().squeeze(32)
    ct = protocols.newhope_encrypt(m, kp, SEED_S, msg)
    encrypt = m.take()
    assert protocols.newhope_decrypt(m, kp, ct) == msg
    return {f"newhope_keygen_{n}": keygen, f"newhope_encrypt_{n}": encrypt,
            f"newhope_decrypt_{n}": m.take()}


def _masked_decrypt():
    m = RecordingMachine()
    kp = protocols.newhope_keygen(m, SEED_A, n=1024)
    msg = bytes(range(100, 132))
    ct = protocols.newhope_encrypt(m, kp, SEED_S, msg)
    m.take()
    rng = keccak.shake256(b"mask").finalize().squeeze
    assert protocols.masked_decrypt(m, kp, ct, rng=rng) == msg
    return {"masked_decrypt": m.take()}


def _run(case):
    m = RecordingMachine()
    case(m)
    return m.take()


def _sha3(m):
    m.load_program(SHA3_LISTING)
    m.configure(256, 7681)
    m.write_slot(0, [(5 * i * i + 3) % 7681 for i in range(256)])
    m.write_slot(1, [(7681 - 1 - 11 * i) % 7681 for i in range(256)])
    m.run()
    m.summary["r0"], m.summary["r1"] = m.r0.hex(), m.r1.hex()


def cycle_reports():
    reports = {**_newhope(512), **_newhope(1024), **_masked_decrypt()}
    reports["kyber_as_plus_e"] = _run(
        lambda m: protocols.kyber_as_plus_e(m, SEED_A, SEED_S))
    for name in ("frodo_as_plus_e", "frodo_sa_plus_e"):
        driver = getattr(protocols, name)
        reports[f"{name}_desk640"] = _run(
            lambda m: driver(m, "desk640", SEED_A, SEED_S))
    reports["sha3_poly_absorb"] = _run(_sha3)
    return reports


def test_cycle_reports_are_frozen():
    with open(GOLDEN) as fh:
        assert cycle_reports() == json.load(fh)


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(cycle_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
