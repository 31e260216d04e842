import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockzero.ring import (
    ModulusContext,
    PreconditionError,
    factorize,
    is_cubic_residue,
    is_prime,
    pow_cycle,
    sqrt_3mod4,
)


def test_factorize_basics():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(7) == ((7, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    with pytest.raises(PreconditionError):
        factorize(1)


@given(st.integers(min_value=2, max_value=5000))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_pow_cycle_examples():
    assert pow_cycle(2, 4) == (1, 1)
    assert pow_cycle(3, 7) == (0, 6)
    assert pow_cycle(1, 5) == (0, 1)
    assert pow_cycle(9, 7) == (0, 3)  # 9 = 2 mod 7: the cycle 2, 4, 1
    assert pow_cycle(5, 1) == (0, 1)  # Z_1, F_0's product ring
    with pytest.raises(PreconditionError):
        pow_cycle(2, 0)


def test_pow_cycle_sound_and_minimal_exhaustive():
    for n in range(2, 31):
        for g in range(n):
            a, b = pow_cycle(g, n)
            seq = [pow(g, k + 1, n) for k in range(a + 2 * b + 2)]
            assert seq[a + b] == seq[a]

            def holds(a2, b2):
                # window long enough to reach well inside the true cycle
                return all(
                    pow(g, k + b2 + 1, n) == pow(g, k + 1, n)
                    for k in range(a2, a + 2 * (b + b2 + 1))
                )

            assert holds(a, b)
            # alpha minimal, then beta minimal for that alpha
            assert not any(holds(a2, b) for a2 in range(a))
            assert not any(holds(a, b2) for b2 in range(1, b))


def test_pow_cycle_memo_matches_a_power_walk():
    # the memo is keyed on (g, n): every g over every n <= 40, g outside
    # [0, n) included, against a plain walk g^1, g^2, ... to the first
    # repeated power
    for n in range(2, 41):
        for g in range(-n, 2 * n):
            powers = []
            x = g % n
            while x not in powers:
                powers.append(x)
                x = x * g % n
            alpha = powers.index(x)
            assert pow_cycle(g, n) == (alpha, len(powers) - alpha)
    # one g under two moduli is two entries with two different cycles
    pow_cycle.cache_clear()
    five, seven = pow_cycle(2, 5), pow_cycle(2, 7)
    assert (five[1], seven[1]) == (4, 3)
    assert pow_cycle.cache_info().currsize == 2
    assert pow_cycle(9, 7) == seven  # 9 = 2 mod 7


def test_pow_cycle_reduces_its_base():
    # a walk that starts at g >= n itself, not at g mod n, never returns
    # to its first term, so its preperiod is one too long (9 mod 7: 1,
    # where the true preperiod is 0)
    for n in range(1, 31):
        for g in range(3 * n):
            assert pow_cycle(g, n) == pow_cycle(g % n, n), (g, n)


def test_sqrt_3mod4_examples():
    assert sqrt_3mod4(4, 7) == 2
    assert sqrt_3mod4(3, 7) is None
    assert sqrt_3mod4(0, 7) == 0
    with pytest.raises(PreconditionError):
        sqrt_3mod4(1, 13)  # 13 = 1 mod 4
    with pytest.raises(PreconditionError):
        sqrt_3mod4(1, 15)  # not prime


def test_sqrt_3mod4_against_square_tables():
    for p in range(3, 100, 4):
        if not is_prime(p):
            continue
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_3mod4(a, p)
            if a in squares:
                assert r is not None and r * r % p == a
            else:
                assert r is None


def test_is_cubic_residue_examples():
    assert is_cubic_residue(6, 7)
    assert not is_cubic_residue(4, 7)
    assert is_cubic_residue(4, 5)  # p = 2 mod 3: everything is a cube


def test_is_cubic_residue_against_cube_tables():
    for p in range(2, 100):
        if not is_prime(p):
            continue
        cubes = {pow(x, 3, p) for x in range(p)}
        for a in range(p):
            assert is_cubic_residue(a, p) == (a in cubes)


def test_modulus_context_is_plain_data():
    ctx = ModulusContext(5)
    assert repr(ctx) == "ModulusContext(n=5)"
    assert ctx == ModulusContext(5) != ModulusContext(6)
    assert hash(ctx) == hash(ModulusContext(5)) and len({ctx, ModulusContext(5)}) == 1
    assert ctx != 5
    for n in (1, 0, -3):
        with pytest.raises(PreconditionError):
            ModulusContext(n)
