import pytest

from blockzero.families import sum_plus_c_prod
from blockzero.ring import ModulusContext, PreconditionError
from blockzero.words import PeriodicWord, min_rotation, parse_symbols

from oracles import Lcg, naive_block_product, naive_block_sum


def block_sum_product(symbols, n):
    """A block's sum and product mod n, read off the one block-value path
    (FunctionalFamily.value): F_0's value is the sum, and F_1's value
    minus F_0's is the product."""
    ctx = ModulusContext(n)
    (total,) = sum_plus_c_prod(ctx, 0).value(symbols)
    (f1,) = sum_plus_c_prod(ctx, 1).value(symbols)
    return total, (f1 - total) % n


def test_block_sum_examples():
    assert block_sum_product((1, 3, 5), 6)[0] == 3
    assert block_sum_product((1, 4), 5)[0] == 0
    assert block_sum_product((0, 0), 5)[0] == 0


def test_block_product_examples():
    assert block_sum_product((2, 10), 12)[1] == 8
    assert block_sum_product((7, 4, 4), 9)[1] == 4
    assert block_sum_product((7, 0, 4), 9)[1] == 0


def test_block_out_of_range():
    # a block has length >= 2
    fam = sum_plus_c_prod(ModulusContext(5), 1)
    for short in ((), (3,)):
        with pytest.raises(PreconditionError):
            fam.value(short)


def test_block_values_match_naive_folds():
    gen = Lcg(99)
    for _ in range(600):
        n = 2 + gen.below(29)
        length = 2 + gen.below(12)
        symbols = [gen.below(n) for _ in range(length)]
        l = 2 + gen.below(length - 1) if length > 2 else 2
        s = gen.below(length - l + 1)
        blk = symbols[s : s + l]
        assert block_sum_product(blk, n) == (naive_block_sum(blk, n), naive_block_product(blk, n))


def test_periodic_word_negative_literals_reduce():
    pw = PeriodicWord((3, -3), 16)
    assert pw.period == (3, 13)


def test_canonical_rotation_equality_exhaustive():
    from itertools import product

    # every rotation of a period has the same canonical() necklace: the
    # least rotation
    for n in range(2, 7):
        for P in range(1, 5):
            for t in product(range(n), repeat=P):
                rotations = [t[i:] + t[:i] for i in range(P)]
                canon = PeriodicWord(t, n).canonical()
                assert canon == min(rotations)
                assert all(PeriodicWord(r, n).canonical() == canon for r in rotations)
    # distinct necklaces have distinct canonical forms
    assert PeriodicWord((1, 2), 6).canonical() != PeriodicWord((1, 3), 6).canonical()
    # a word compares as data: its period and modulus, not its necklace
    assert PeriodicWord((1, 2), 6) == PeriodicWord((1, 2), 6)
    assert PeriodicWord((2, 1), 6) != PeriodicWord((1, 2), 6)
    assert PeriodicWord((1, 2), 6) != PeriodicWord((1, 2), 12)
    assert PeriodicWord((1, 8), 6) == PeriodicWord((1, 2), 6)  # symbols reduce mod n
    assert hash(PeriodicWord((1, 2), 6)) == hash(PeriodicWord((1, 2), 6))


def test_min_rotation():
    assert min_rotation((3, 1, 2)) == (1, 2, 3)
    assert min_rotation((1, 3, 5, 3)) == (1, 3, 5, 3)


def test_parse_symbols():
    ctx = ModulusContext(16)
    assert parse_symbols("3,-3", ctx) == (3, 13)
    assert parse_symbols("7,4,4", ModulusContext(9)) == (7, 4, 4)
    with pytest.raises(PreconditionError):
        parse_symbols("", ctx)
    with pytest.raises(PreconditionError):
        parse_symbols("1,x", ctx)
