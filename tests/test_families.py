import json
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockzero.families import (
    _k_periods_vanish,
    elementary_symmetric_family,
    family_from_descriptor,
    newton_implication_check,
    power_sums,
    sum_plus_c_prod,
    transformation_sums,
    vanishing_pairs,
)
from blockzero.classify import family_hash
from blockzero.ring import ModulusContext, PreconditionError
from blockzero.search import _StateTable

from oracles import Lcg, naive_elementary_symmetric, naive_f_c, naive_value, naive_vanishing_mask


def test_eval_sum_plus_c_prod_examples():
    ctx3 = ModulusContext(3)
    assert sum_plus_c_prod(ctx3, 1).value((1, 1)) == (0,)
    ctx6 = ModulusContext(6)
    assert sum_plus_c_prod(ctx6, 1).value((1, 5)) == (5,)
    ctx5 = ModulusContext(5)
    assert sum_plus_c_prod(ctx5, 2).value((4, 1)) == (3,)
    for n in (2, 5, 9):
        ctx = ModulusContext(n)
        for c in range(n):
            assert sum_plus_c_prod(ctx, c).value((0, 0)) == (0,)


def test_eval_power_sums_example():
    ctx = ModulusContext(3)
    fam = power_sums(ctx, 2)
    assert fam.value((1, 2)) == (0, 2)


def test_power_sums_first_component_is_plain_sum():
    gen = Lcg(7)
    for _ in range(300):
        n = 2 + gen.below(20)
        ctx = ModulusContext(n)
        fam = power_sums(ctx, 1 + gen.below(4))
        l = 2 + gen.below(6)
        symbols = tuple(gen.below(n) for _ in range(l))
        value = fam.value(symbols)
        assert value[0] == sum(symbols) % n


def test_sum_plus_zero_prod_matches_identity_transformation_sum():
    gen = Lcg(11)
    for _ in range(300):
        n = 2 + gen.below(20)
        ctx = ModulusContext(n)
        f0 = sum_plus_c_prod(ctx, 0)
        ft = transformation_sums(ctx, [range(n)])
        l = 2 + gen.below(6)
        symbols = tuple(gen.below(n) for _ in range(l))
        assert f0.value(symbols) == ft.value(symbols)


def test_value_matches_naive_folds():
    gen = Lcg(61)
    for _ in range(400):
        n = 2 + gen.below(20)
        ctx = ModulusContext(n)
        r = 1 + gen.below(4)
        tables = [[gen.below(n) for _ in range(n)] for _ in range(1 + gen.below(3))]
        symbols = tuple(gen.below(n) for _ in range(2 + gen.below(6)))
        for fam in (
            sum_plus_c_prod(ctx, gen.below(n)),
            transformation_sums(ctx, tables),
            power_sums(ctx, r),
            elementary_symmetric_family(ctx, r),
        ):
            assert fam.value(symbols) == naive_value(fam.to_descriptor(), symbols, n)


def test_power_sums_are_table_sums_of_the_power_tables():
    for n in (2, 6, 9):
        ctx = ModulusContext(n)
        fam = power_sums(ctx, 3)
        assert fam.tables == tuple(tuple(x**k % n for x in range(n)) for k in (1, 2, 3))
        assert fam.sum_tables() == fam.tables and fam.output_dim == 3
        # the descriptor, and so the cache file names, keep their old form
        assert fam.to_descriptor() == {"kind": "power_sums", "r": 3}
        assert family_hash(power_sums(ctx, 2)) == "61789ae1a42b"


def test_block_length_below_two_rejected():
    ctx = ModulusContext(5)
    for fam in (sum_plus_c_prod(ctx, 1), power_sums(ctx, 2), elementary_symmetric_family(ctx, 1)):
        with pytest.raises(PreconditionError):
            fam.value((3,))


def e_r(symbols, r, ctx):
    return elementary_symmetric_family(ctx, r).value(symbols)[0]


def test_elementary_symmetric_examples():
    ctx7 = ModulusContext(7)
    assert e_r((1, 2, 3), 2, ctx7) == 4
    ctx5 = ModulusContext(5)
    assert e_r((1, 2, 3), 1, ctx5) == 1
    assert e_r((1, 2, 3), 3, ctx5) == 1
    assert e_r((1, 2, 3), 4, ctx5) == 0  # r > l


@given(
    st.integers(min_value=2, max_value=30),
    st.lists(st.integers(min_value=0, max_value=29), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=300, deadline=None)
def test_elementary_symmetric_matches_subset_expansion(n, symbols, r):
    ctx = ModulusContext(n)
    symbols = [s % n for s in symbols]
    assert e_r(symbols, r, ctx) == naive_elementary_symmetric(symbols, r, n)


def test_e1_is_sum_and_el_is_product_fuzzed():
    gen = Lcg(23)
    for _ in range(400):
        n = 2 + gen.below(29)
        ctx = ModulusContext(n)
        l = 2 + gen.below(7)
        symbols = [gen.below(n) for _ in range(l)]
        assert e_r(symbols, 1, ctx) == sum(symbols) % n
        prod = 1
        for s in symbols:
            prod = prod * s % n
        assert e_r(symbols, l, ctx) == prod


def test_elementary_symmetric_family_eval():
    ctx = ModulusContext(7)
    fam = elementary_symmetric_family(ctx, 2)
    assert fam.value((1, 2, 3)) == (4,)


def test_vanishing_pairs_examples():
    ctx6 = ModulusContext(6)
    assert vanishing_pairs(sum_plus_c_prod(ctx6, 1)) == {(0, 0), (4, 4)}
    assert vanishing_pairs(sum_plus_c_prod(ctx6, 5)) == {(0, 0), (2, 2)}
    ctx2 = ModulusContext(2)
    assert vanishing_pairs(sum_plus_c_prod(ctx2, 0)) == {(0, 0), (1, 1)}


def test_vanishing_pairs_rejects_vector_families():
    ctx = ModulusContext(4)
    fam = power_sums(ctx, 2)
    with pytest.raises(PreconditionError):
        vanishing_pairs(fam)


def test_f1_pair_characterization():
    # f_1(a, b) = 0 iff (a+1)(b+1) = 1 mod n
    for n in range(2, 31):
        ctx = ModulusContext(n)
        fam = sum_plus_c_prod(ctx, 1)
        expected = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if (a + 1) * (b + 1) % n == 1
        }
        assert vanishing_pairs(fam) == expected


def test_newton_implication_counterexample_mod_2():
    ctx = ModulusContext(2)
    rep = newton_implication_check(ctx, 2, 2)
    assert rep.status == "counterexample"
    assert rep.counterexample == (1, 1)


def test_newton_implication_holds_cases():
    assert newton_implication_check(ModulusContext(5), 2, 4).status == "holds"
    assert newton_implication_check(ModulusContext(3), 1, 3).status == "holds"
    assert newton_implication_check(ModulusContext(3), 2, 4).status == "holds"


def test_newton_implication_budget_is_explicit():
    rep = newton_implication_check(ModulusContext(5), 2, 6, budget=100)
    assert rep.status == "partial"
    assert rep.blocks_checked == 100


def test_descriptor_round_trip():
    ctx = ModulusContext(6)
    for fam in (
        sum_plus_c_prod(ctx, 5),
        transformation_sums(ctx, [[0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]),
        power_sums(ctx, 3),
        elementary_symmetric_family(ctx, 2),
    ):
        again = family_from_descriptor(ctx, fam.to_descriptor())
        assert again == fam
        assert again.output_dim == fam.output_dim
    # certificates compare these dicts and cache files are named by their
    # JSON, so each kind's descriptor keeps its one key (tables as lists)
    assert [json.dumps(fam.to_descriptor()) for fam in (
        sum_plus_c_prod(ctx, 5), transformation_sums(ctx, [[0, 1, 2, 3, 4, 5]]),
        power_sums(ctx, 3), elementary_symmetric_family(ctx, 2),
    )] == [
        '{"kind": "sum_plus_c_prod", "c": 5}',
        '{"kind": "transformation_sums", "tables": [[0, 1, 2, 3, 4, 5]]}',
        '{"kind": "power_sums", "r": 3}',
        '{"kind": "elementary_symmetric", "r": 2}',
    ]
    for desc in ({"kind": ["sum_plus_c_prod"], "c": 1}, {"kind": "nosuch"}, [], None):
        with pytest.raises(PreconditionError, match="unknown family kind"):
            family_from_descriptor(ctx, desc)


def test_eval_agrees_with_naive_f_c():
    gen = Lcg(31)
    for _ in range(500):
        n = 2 + gen.below(29)
        ctx = ModulusContext(n)
        c = gen.below(n)
        l = 2 + gen.below(7)
        symbols = tuple(gen.below(n) for _ in range(l))
        fam = sum_plus_c_prod(ctx, c)
        assert fam.value(symbols) == (naive_f_c(symbols, n, c),)


def test_f_c_state_keeps_the_product_mod_n_over_gcd():
    # F_c reads the product only through c*p, so the hook keeps p mod
    # n / gcd(n, c) (the sum alone for c = 0) and still tells every block
    # value's vanishing
    gen = Lcg(53)
    for _ in range(500):
        n = 2 + gen.below(29)
        ctx = ModulusContext(n)
        c = gen.below(n)
        fam = sum_plus_c_prod(ctx, c)
        symbols = tuple(gen.below(n) for _ in range(1 + gen.below(8)))
        states = fam.block_states(symbols[:1])
        for a in symbols[1:]:
            states = fam.extend_all(states, (a,))
        q = n // gcd(n, c)
        assert states == [(sum(symbols) % n, prod(symbols) % q)]
        if len(symbols) >= 2:
            assert fam.vanishing_mask(states) == (naive_f_c(symbols, n, c) == 0)
    assert set(sum_plus_c_prod(ModulusContext(7), 0).block_states(range(7))) == {
        (a, 0) for a in range(7)
    }


def hook_families(n):
    """Every kind of family over Z_n: F_c for c in {0, 1, n - 1, 2, n/2},
    the table family (x, x^2 + 1), power sums and e_r for r in {2, 3}."""
    ctx = ModulusContext(n)
    cs = {0, 1, n - 1, 2 % n} | ({n // 2} if n % 2 == 0 else set())
    fams = [sum_plus_c_prod(ctx, c) for c in sorted(cs)]
    fams.append(transformation_sums(ctx, [range(n), [(x * x + 1) % n for x in range(n)]]))
    for r in (2, 3):
        fams += [power_sums(ctx, r), elementary_symmetric_family(ctx, r)]
    return fams


def test_vector_hook_agrees_with_naive_folds():
    # batches of equal-length blocks fold in lockstep: after each symbol,
    # vanishing_mask of the states must match the naive folds of the
    # prefixes, and value each block's naive value; symbols run from -2n
    # to 2n - 1, so some are negative and some >= n, and give the states
    # that the same symbols reduced mod n give
    gen = Lcg(71)
    for n in range(2, 10):
        for fam in hook_families(n):
            desc = fam.to_descriptor()
            for l in range(2, 13):
                blocks = [[gen.below(4 * n) - 2 * n for _ in range(l)] for _ in range(1 + gen.below(6))]
                states = fam.block_states([b[0] for b in blocks])
                assert states == fam.block_states([b[0] % n for b in blocks])
                for k in range(1, l):
                    reduced = fam.extend_all(states, [b[k] % n for b in blocks])
                    states = fam.extend_all(states, [b[k] for b in blocks])
                    assert states == reduced
                    prefixes = [b[: k + 1] for b in blocks]
                    assert fam.vanishing_mask(states) == naive_vanishing_mask(desc, prefixes, n), (
                        desc, n, prefixes)
                for b in blocks:
                    assert fam.value(b) == naive_value(desc, [a % n for a in b], n)


def test_state_table_rows_and_masks_agree_with_naive_folds():
    # every block of length <= 3 walked through the interned table: bit a
    # of its state's mask is set iff the block extended by a vanishes
    for n in range(2, 10):
        for fam in hook_families(n):
            desc, table = fam.to_descriptor(), _StateTable(fam)
            for l in (1, 2, 3):
                for block in product(range(n), repeat=l):
                    i = table.singles[block[0]]
                    for a in block[1:]:
                        i = (table.rows[i] or table.expand(i))[a]
                    row = table.rows[i] or table.expand(i)
                    want = naive_vanishing_mask(desc, [block + (a,) for a in range(n)], n)
                    assert table.masks[i] == want, (desc, n, block)
                    assert [table.states[j] for j in row] == fam.extend_all(
                        [table.states[i]] * n, range(n))


def test_families_from_one_descriptor_are_equal_and_hash_equal():
    # the bound hook stays out of __eq__ and __hash__
    for n in range(2, 10):
        ctx = ModulusContext(n)
        for fam in hook_families(n):
            again = family_from_descriptor(ModulusContext(n), fam.to_descriptor())
            assert again is not fam and again.extend_all is not fam.extend_all
            assert again == fam and hash(again) == hash(fam)
            assert len({fam, again}) == 1
        assert sum_plus_c_prod(ctx, 1) != sum_plus_c_prod(ctx, 0)


def brute_whole_period_masks(n, c, g, solutions):
    """Bitmasks over T in Z_n of the k >= 1 and of the k >= 2 with
    k*T + c*g^k = 0 (mod n), walking k up to alpha + lcm(n, beta) + 2, past
    which k*T mod n and g^k mod q = n / gcd(n, c) repeat.  solutions[k][z]
    is the mask of the T with k*T = z (mod n)."""
    q = n // gcd(n, c)
    seen, x = {}, g % q  # g^(k + 1) mod q -> k
    while x not in seen:
        seen[x] = len(seen)
        x = x * g % q
    alpha, beta = seen[x], len(seen) - seen[x]
    first = second = 0
    x = 1
    for k in range(1, alpha + n * beta // gcd(n, beta) + 3):
        x = x * g % n
        hits = solutions[k % n][-c * x % n]
        if k == 1:
            first = hits
        else:
            second |= hits
    return first | second, second


def test_whole_periods_vanish_matches_a_walk_over_k():
    # every n <= 30, c, g in Z_q and T: the F_c closure on a period of
    # length >= 2, (g, 1, ..., 1), and the closed form with k >= 2 (the
    # closure's P = 1 case) against a walk over k
    for n in range(2, 31):
        solutions = [[0] * n for _ in range(n)]
        for k in range(n):
            for T in range(n):
                solutions[k][k * T % n] |= 1 << T
        ctx = ModulusContext(n)
        for c in range(n):
            fam = sum_plus_c_prod(ctx, c)
            q = n // gcd(n, c)
            zero_sum = [-c * p % n for p in range(q)]
            for g in range(q):
                some_k, k_past_1 = brute_whole_period_masks(n, c, g, solutions)
                for T in range(n):
                    period = (g,) + (1,) * ((T - g - 1) % n + 1)
                    assert sum(period) % n == T and len(period) >= 2
                    want = bool(some_k >> T & 1)
                    assert fam.whole_periods_vanish(period) is want, (n, c, g, T)
                    want = bool(k_past_1 >> T & 1)
                    assert _k_periods_vanish(zero_sum, n, T, g, 2) is want, (n, c, g, T)
                    if T % q == g:
                        assert fam.whole_periods_vanish((T,)) is want, (n, c, T)
            # F_0: k = n / gcd(n, T) refutes every period
            if c == 0:
                assert all(fam.whole_periods_vanish(t) for t in product(range(n), repeat=2))


def test_whole_periods_vanish_on_table_and_e_r_families():
    # table sums vanish at k = n; e_r has no periodic decomposition
    for n in range(2, 8):
        ctx = ModulusContext(n)
        tables = transformation_sums(ctx, [[x * x + 1 for x in range(n)]])
        for P in (1, 2, 3):
            for t in product(range(n), repeat=P):
                assert tables.whole_periods_vanish(t) and power_sums(ctx, 2).whole_periods_vanish(t)
                assert not any(naive_value(tables.to_descriptor(), t * n, n))
                assert not elementary_symmetric_family(ctx, 2).whole_periods_vanish(t)
