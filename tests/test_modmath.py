import random

import pytest
from hypothesis import given, settings, strategies as st

from sapphire import modmath
from sapphire.machine import Machine, MachineFault
from sapphire.modmath import (
    APPENDIX_PRIMES, ModulusProfile, ModMathError, mod_add, mod_mul, mod_sub, reduce,
)

ALL_PRIMES = list(APPENDIX_PRIMES) + [65537]


def test_add_examples():
    p = ModulusProfile.for_modulus(7681)
    assert mod_add(0, 0, p) == 0
    assert mod_add(7000, 5000, p) == 4319          # 12000 - 7681
    p = ModulusProfile.for_modulus(12289)
    assert mod_add(12288, 12288, p) == 12287       # (q-1)+(q-1) = q-2


def test_sub_examples():
    p = ModulusProfile.for_modulus(7681)
    assert mod_sub(5, 5, p) == 0
    p = ModulusProfile.for_modulus(12289)
    assert mod_sub(0, 1, p) == 12288
    assert mod_sub(123, 9876, p) == (123 - 9876) % 12289 == 2536


def test_mul_examples():
    p = ModulusProfile.for_modulus(7681)
    assert mod_mul(7680, 7680, p) == 1             # (q-1)^2 = 1
    for y in (0, 1, 5000, 7680):
        assert mod_mul(1, y, p) == y
    p = ModulusProfile.for_modulus(12289)
    assert mod_mul(12345 % 12289, 6789, p) == (12345 * 6789) % 12289


def test_fermat_shortcut():
    p = ModulusProfile.for_modulus(65537)
    assert (p.method, p.m, p.k) == (modmath.FERMAT_65537, None, None)
    assert reduce(1 << 32, p) == 1                 # 2^16 = -1 so 2^32 = 1


# The paper's appendix: q -> (m, k) of its Barrett reduction.
APPENDIX_PARAMS = {
    7681: (273, 21), 12289: (10921, 27), 40961: (52427, 31),
    120833: (71089, 33), 133121: (64527, 33), 184321: (46603, 33),
    8380417: (8396807, 46), 8058881: (8731825, 46),
    4205569: (4183069, 44), 4206593: (2091025, 43), 8404993: (4186127, 45),
}


def test_appendix_parameters():
    assert sorted(APPENDIX_PARAMS) == list(APPENDIX_PRIMES)
    for q, (m, k) in APPENDIX_PARAMS.items():
        assert modmath.barrett_params(q) == (m, k)
        p = ModulusProfile.for_modulus(q)
        assert (p.method, p.m, p.k) == (modmath.BARRETT, m, k)
        # m = floor(2^k / q) and the one-subtract validity bound
        assert m == (1 << k) // q
        assert (q * q - 1) * ((1 << k) % q) < q * (1 << k)


@pytest.mark.parametrize("q", ALL_PRIMES)
def test_below_modulus_identity(q):
    p = ModulusProfile.for_modulus(q)
    for x in [0, 1, q // 2, q - 1]:
        assert reduce(x, p) == x


@pytest.mark.parametrize("q", ALL_PRIMES)
def test_specialized_vs_generic_vs_oracle(q):
    # the one profile of q against int.__mod__
    p = ModulusProfile.for_modulus(q)
    rng = random.Random(q)
    edges = [0, 1, q - 1, q, q + 1, q * q - 1, q * q - q, q * q - q - 1]
    samples = edges + [rng.randrange(q * q) for _ in range(20_000)]
    for z in samples:
        assert reduce(z, p) == z % q


def test_power_of_two_masking():
    for w in (8, 15, 16, 23):
        p = ModulusProfile.for_modulus(1 << w)
        assert (p.method, p.m, p.k) == (modmath.POWER_OF_TWO, None, None)
        rng = random.Random(w)
        for z in [0, 1, (1 << w) - 1, 1 << w] + [rng.randrange(1 << (2 * w))
                                                 for _ in range(2000)]:
            assert reduce(z, p) == z & ((1 << w) - 1)


def test_reduce_contract_violations():
    p = ModulusProfile.for_modulus(7681)
    with pytest.raises(ModMathError):
        reduce(7681 * 7681, p)
    with pytest.raises(ModMathError):
        reduce(-1, p)
    with pytest.raises(ModMathError):
        mod_add(7681, 0, p)
    with pytest.raises(ModMathError):
        mod_sub(0, 99999, p)


def test_configuration_errors():
    for q in (0, 1, 1 << 24, 1 << 25, (1 << 24) + 1):
        with pytest.raises(ModMathError, match="outside"):
            ModulusProfile.for_modulus(q)
    p = ModulusProfile.for_modulus(3329)         # Kyber's prime: Barrett too
    assert (p.method, p.m, p.k) == (modmath.BARRETT, *modmath.barrett_params(3329))


def test_barrett_multiplier_wider_than_24_bits_refused():
    # the smallest one-subtract (m, k) of q = 2^24 - 3 needs m = 2^24 + 3
    with pytest.raises(ModMathError, match="m=16777219 exceeds 24 bits"):
        ModulusProfile.for_modulus(16777213)
    m = Machine()
    m.load_program("config (n = 8, q = 16777213)")
    with pytest.raises(MachineFault, match="exceeds 24 bits"):
        m.run()


def test_barrett_validity_bound():
    # floor(z*m / 2^k) is within one of floor(z/q) over sampled inputs
    for q, (m, k) in APPENDIX_PARAMS.items():
        rng = random.Random(q ^ 0x5A5A)
        for z in [0, 1, q - 1, q * q - 1] + [rng.randrange(q * q)
                                             for _ in range(2000)]:
            est = (z * m) >> k
            assert est in (z // q, z // q - 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_PRIMES), st.data())
def test_group_properties(q, data):
    p = ModulusProfile.for_modulus(q)
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    assert mod_mul(x, y, p) == mod_mul(y, x, p)
    assert mod_sub(mod_add(x, y, p), y, p) == x
    assert mod_add(mod_sub(x, y, p), y, p) == x


@settings(max_examples=100, deadline=None)
@given(st.integers(2, (1 << 24) - 1))
def test_generic_profile_any_modulus(q):
    # Some moduli admit no (m < 2^24, k <= 48) pair that keeps the
    # reduction to a single conditional subtract; construction must then
    # fail eagerly instead of looping.
    try:
        p = ModulusProfile.for_modulus(q)
    except ModMathError:
        return
    rng = random.Random(q)
    for z in (0, q - 1, q * q - 1, rng.randrange(q * q)):
        assert reduce(z, p) == z % q
