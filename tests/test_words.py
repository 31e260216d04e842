import pytest

from blockzero.ring import ModulusContext, PreconditionError
from blockzero.words import PeriodicWord, Word, min_rotation, parse_symbols

from oracles import Lcg, naive_block_product, naive_block_sum


def test_block_sum_examples():
    ctx = ModulusContext(6)
    w = Word(ctx, (1, 3, 5, 3))
    assert w.block_sum(0, 3) == 3
    ctx5 = ModulusContext(5)
    w5 = Word(ctx5, (4, 1, 4, 1))
    assert w5.block_sum(1, 2) == 0
    wz = Word(ctx5, (0, 0))
    assert wz.block_sum(0, 2) == 0


def test_block_product_examples():
    ctx = ModulusContext(12)
    w = Word(ctx, (2, 10, 2, 10))
    assert w.block_product(0, 2) == 8
    ctx9 = ModulusContext(9)
    w9 = Word(ctx9, (7, 4, 4))
    assert w9.block_product(0, 3) == 4
    w0 = Word(ctx9, (7, 0, 4))
    assert w0.block_product(0, 3) == 0


def test_block_out_of_range():
    ctx = ModulusContext(5)
    w = Word(ctx, (1, 2, 3))
    with pytest.raises(PreconditionError):
        w.block_sum(2, 2)
    with pytest.raises(PreconditionError):
        w.block_product(0, 4)


def test_prefix_structures_match_naive_folds():
    gen = Lcg(99)
    for _ in range(600):
        n = 2 + gen.below(29)
        ctx = ModulusContext(n)
        length = 2 + gen.below(12)
        symbols = [gen.below(n) for _ in range(length)]
        w = Word(ctx, symbols)
        l = 2 + gen.below(length - 1) if length > 2 else 2
        s = gen.below(length - l + 1)
        blk = symbols[s : s + l]
        assert w.block_sum(s, l) == naive_block_sum(blk, n)
        assert w.block_product(s, l) == naive_block_product(blk, n)


def test_unroll_examples():
    pw = PeriodicWord((3, 13), 16)
    assert tuple(pw.unroll(5).symbols) == (3, 13, 3, 13, 3)
    pw = PeriodicWord((5, 3, 3), 11)
    assert tuple(pw.unroll(7).symbols) == (5, 3, 3, 5, 3, 3, 5)
    pw = PeriodicWord((4,), 9)
    assert tuple(pw.unroll(3).symbols) == (4, 4, 4)
    with pytest.raises(PreconditionError):
        pw.unroll(0)


def test_periodic_word_negative_literals_reduce():
    pw = PeriodicWord((3, -3), 16)
    assert pw.period == (3, 13)


def test_canonical_rotation_equality_exhaustive():
    from itertools import product

    for n in range(2, 7):
        for P in range(1, 5):
            for t in product(range(n), repeat=P):
                pw = PeriodicWord(t, n)
                for i in range(P):
                    rot = PeriodicWord(t[i:] + t[:i], n)
                    assert rot == pw
                    assert hash(rot) == hash(pw)
    # distinct necklaces compare unequal
    assert PeriodicWord((1, 2), 6) != PeriodicWord((1, 3), 6)
    assert PeriodicWord((1, 2), 6) != PeriodicWord((1, 2), 12)


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
