import time
from dataclasses import replace
from itertools import combinations_with_replacement, product
from math import prod

import pytest

from blockzero.classify import VANISHING_PROVED, classify
from blockzero.families import (
    elementary_symmetric_family,
    power_sums,
    sum_plus_c_prod,
    transformation_sums,
)
from blockzero.ring import ModulusContext, PreconditionError, pow_cycle
from blockzero.search import (
    CAP_REACHED,
    EXHAUSTED,
    InternalInvariantError,
    SearchOutcome,
    _necklace_count,
    _necklaces,
    build_xyr_witness,
    longest_avoiding_word,
    mine_witness,
    suffix_set_search,
    xyr_solve,
)
from blockzero.verify import AVOIDING, REFUTED, recheck_certificate, scan_word, verify_periodic
from blockzero.words import PeriodicWord, min_rotation

from oracles import (
    Lcg,
    bfs_threshold,
    bfs_threshold_tables,
    count_necklaces,
    first_vanishing_window,
    naive_elementary_symmetric,
    naive_f_c,
    naive_value,
    necklaces,
    suffix_set_walk,
    vanishing_windows,
    xyr_brute_force,
)


def assert_avoids(ctx, fam, m, word):
    desc = fam.to_descriptor()
    assert vanishing_windows(word, m, lambda b: not any(naive_value(desc, b, ctx.n))) == []


def search(n, c, m, cap=32, **kw):
    return longest_avoiding_word(sum_plus_c_prod(ModulusContext(n), c), m, cap, **kw)


def test_plain_sum_mod_2_threshold():
    out = search(2, 0, 1)
    assert out.status == EXHAUSTED
    assert out.threshold == 4
    assert out.longest_word == (0, 1, 0)


def test_f1_mod_3_threshold_matches_oracle():
    oracle_threshold, _ = bfs_threshold(3, 1, 1)
    out = search(3, 1, 1)
    assert out.status == EXHAUSTED
    assert out.threshold == oracle_threshold == 6


def test_exhausted_soundness_tiny():
    out = search(2, 1, 1)
    assert out.status == EXHAUSTED
    t = out.threshold
    # every word of length t contains a vanishing window
    for w in product(range(2), repeat=t):
        assert any(
            naive_f_c(w[s : s + l], 2, 1) == 0
            for l in range(2, t + 1)
            for s in range(0, t - l + 1)
        )
    # the recorded longest word avoids
    ctx = ModulusContext(2)
    assert_avoids(ctx, sum_plus_c_prod(ctx, 1), 1, out.longest_word)
    assert len(out.longest_word) == t - 1


def test_cap_reached_on_nonvanishing_family():
    out = search(5, 2, 1, cap=48)
    assert out.status == CAP_REACHED
    assert not out.budget_exhausted
    assert len(out.longest_word) == 48
    ctx = ModulusContext(5)
    assert_avoids(ctx, sum_plus_c_prod(ctx, 2), 1, out.longest_word)
    # caps far past Python's recursion limit: the DFS keeps its own stack.
    # At m = 2 the ascending search of F_2 mod 5 sinks into a finite
    # subtree below depth 86, so the m = 2 input is power sums mod 7, whose
    # first branch runs straight down (the naive check, cubic in the
    # length, stays with the cap-48 case)
    for fam, m in [(sum_plus_c_prod(ctx, 2), 1), (power_sums(ModulusContext(7), 2), 2)]:
        out = longest_avoiding_word(fam, m, 5000)
        assert (out.status, len(out.longest_word)) == (CAP_REACHED, 5000)


def test_budget_exhaustion_is_flagged():
    out = search(3, 1, 2, cap=64, max_nodes=50)
    assert out.status == CAP_REACHED
    assert out.budget_exhausted
    ctx = ModulusContext(3)
    assert_avoids(ctx, sum_plus_c_prod(ctx, 1), 2, out.longest_word)
    # the deadline is read at the root and then every 2,048 nodes, so a
    # search that starts after its deadline does no work
    out = search(3, 1, 2, cap=64, deadline=time.monotonic() - 1)
    assert out == SearchOutcome((), 1, "deadline")


def test_cap_below_two_rejected():
    with pytest.raises(PreconditionError):
        search(2, 0, 1, cap=1)


def test_prefix_sum_reduction_for_plain_sums():
    # m consecutive zero-sum blocks of length l at start s exist exactly when
    # the running prefix sums repeat at s, s+l, ..., s+m*l
    gen = Lcg(41)
    for _ in range(300):
        n = 2 + gen.below(9)
        m = 1 + gen.below(2)
        length = 2 * m + gen.below(12)
        word = [gen.below(n) for _ in range(length)]
        prefix = [0]
        for x in word:
            prefix.append((prefix[-1] + x) % n)
        for l in range(2, length // m + 1):
            for s in range(0, length - m * l + 1):
                blocks_vanish = all(
                    sum(word[s + j * l : s + (j + 1) * l]) % n == 0 for j in range(m)
                )
                equally_spaced = all(
                    prefix[s + j * l] == prefix[s] for j in range(1, m + 1)
                )
                assert blocks_vanish == equally_spaced


def test_mine_witness_examples():
    ctx12 = ModulusContext(12)
    res = mine_witness(ctx12, sum_plus_c_prod(ctx12, 1), 1, 2)
    assert PeriodicWord((2, 10), 12) in [pw for pw, _ in res.witnesses]
    assert res.complete

    ctx7 = ModulusContext(7)
    res7 = mine_witness(ctx7, sum_plus_c_prod(ctx7, 1), 1, 5)
    assert PeriodicWord((2, 3, 3, 3, 3), 7) in [pw for pw, _ in res7.witnesses]

    # regression: the smallest mined witness mod 5
    ctx5 = ModulusContext(5)
    res5 = mine_witness(ctx5, sum_plus_c_prod(ctx5, 1), 1, 4)
    assert res5.witnesses
    assert res5.witnesses[0][0] == PeriodicWord((2, 3), 5)


@pytest.mark.parametrize(
    "n, m, p_max, limit, periods, checked, complete",
    [
        (12, 1, 2, None, [(2, 10)], 90, True),
        # the limit stops the enumeration, so it is incomplete; the count
        # holds all 18 necklaces of length 2 that whole periods refute
        (6, 2, 4, 1, [(1, 2)], 20, False),
        # a witness and its mirror image, each with its own certificate
        (7, 2, 3, None, [(1, 2, 4), (1, 4, 2)], 154, True),
    ],
)
def test_mine_witness_pinned(n, m, p_max, limit, periods, checked, complete):
    ctx = ModulusContext(n)
    res = mine_witness(ctx, sum_plus_c_prod(ctx, 1), m, p_max, limit=limit)
    assert [cert.period for _, cert in res.witnesses] == periods
    assert all(cert.period == pw.period for pw, cert in res.witnesses)
    assert res.candidates_checked == checked
    assert res.complete is complete


@pytest.mark.parametrize(
    "n, c, m, p_max, witnesses, checked, verified",
    [(11, 10, 2, 4, 0, 4224, 165), (10, 1, 2, 4, 161, 2935, 332), (23, 1, 1, 3, 7, 4370, 102)],
)
def test_mine_witness_complete_counts(n, c, m, p_max, witnesses, checked, verified):
    # complete enumerations count every necklace, refuted classes included
    ctx = ModulusContext(n)
    res = mine_witness(ctx, sum_plus_c_prod(ctx, c), m, p_max)
    assert (len(res.witnesses), res.candidates_checked, res.verified) == (witnesses, checked, verified)
    assert res.complete


def reference_mine(n, fam, m, p_max, symbols, limit):
    """The miner with no skip: every necklace over the symbols, in
    lexicographic order, is verified.  It counts as the miner does: a
    length's necklaces that whole periods refute all at once, then the
    others one by one up to a stop."""
    witnesses, checked = [], 0
    for P in range(1, p_max + 1):
        batch = necklaces(symbols, P)
        refuted = [fam.whole_periods_vanish(t) for t in batch]
        checked += sum(refuted)
        for t, skip in zip(batch, refuted):
            checked += not skip
            cert = verify_periodic(PeriodicWord(t, n), fam, m)
            if cert.verdict == AVOIDING:
                witnesses.append(cert)
                if limit is not None and len(witnesses) >= limit:
                    return witnesses, False, checked
    return witnesses, True, checked


@pytest.mark.parametrize(
    "n, c, m",
    [(n, 0, 2) for n in range(2, 12)]
    + [(8, 2, 1), (12, 4, 1), (12, 6, 2), (8, 1, 1), (9, 8, 2), (12, 11, 1)],
)
def test_mine_witness_matches_a_miner_without_skips(n, c, m):
    # the mirror and whole-period skips change how many candidates are
    # verified, nothing else; (8, 2, 1), (12, 4, 1) and (12, 6, 2) have
    # witnesses whose smaller mirror avoids, so the skip's "verify t too"
    # branch runs; the F_{+-1} cells have necklaces whose product is not a
    # unit, so refutations with g's preperiod run
    ctx = ModulusContext(n)
    fam = sum_plus_c_prod(ctx, c)
    skipped = mirror_avoided = 0
    pre_refuted = any(
        pow_cycle(prod(t), n)[0] > 0 and fam.whole_periods_vanish(t)
        for P in range(1, 5)
        for t in necklaces(range(n), P)
    )
    for d in (d for d in range(2, n + 1) if n % d == 0):
        for limit in (None, 1):
            res = mine_witness(ctx, fam, m, 4, alphabet=range(d), limit=limit)
            certs, complete, checked = reference_mine(n, fam, m, 4, range(d), limit)
            assert [cert for _, cert in res.witnesses] == certs
            assert all(pw.period == cert.period for pw, cert in res.witnesses)
            assert (res.complete, res.candidates_checked) == (complete, checked)
            assert res.verified <= checked
            skipped += checked - res.verified
            for cert in certs:
                t = cert.period
                mirror_avoided += min_rotation(t[::-1]) < t
    assert skipped > 0 or n == 2
    assert mirror_avoided > 0 or c in (0, 1, n - 1)
    assert pre_refuted or c not in (1, n - 1)


def test_whole_period_refutations_are_refuted_by_verify():
    # each F_c period that whole_periods_vanish refutes has a k with
    # k*P >= 2 whose block of k periods vanishes under the naive fold, so
    # the window at 0 of length k*P vanishes for every m
    for n in range(2, 13):
        ctx = ModulusContext(n)
        for c in range(n):
            fam = sum_plus_c_prod(ctx, c)
            for P in (1, 2, 3):
                for t in necklaces(range(n), P):
                    if not fam.whole_periods_vanish(t):
                        continue
                    ks = range(-(-2 // P), 2 * n * n)  # k*P >= 2
                    assert any(naive_f_c(t * k, n, c) == 0 for k in ks), (n, c, t)
                    for m in (1, 2, 3):
                        cert = verify_periodic(PeriodicWord(t, n), fam, m)
                        assert cert.verdict == REFUTED, (n, c, t, m)


def test_necklaces_match_filtered_tuples():
    # the content classes partition the necklaces, and each class comes
    # out sorted, holding its own content
    for k in range(1, 7):
        symbols = tuple(range(0, 2 * k, 2))  # gaps: indices are not symbols
        for P in range(1, 6):
            union = []
            for content in combinations_with_replacement(symbols, P):
                got = _necklaces(content)
                assert got == sorted(got), content
                assert all(tuple(sorted(t)) == content for t in got), content
                union += got
            assert sorted(union) == necklaces(symbols, P), (k, P)


def test_necklace_count_matches_a_brute_force_count():
    for k in range(1, 7):
        for P in range(1, 9):
            assert _necklace_count(k, P) == count_necklaces(k, P), (k, P)


def test_mine_alphabet_is_a_set():
    # order, repeats and residues >= n do not change the result
    ctx = ModulusContext(12)
    fam = sum_plus_c_prod(ctx, 1)
    want = mine_witness(ctx, fam, 1, 2, alphabet=range(11))
    assert [cert.period for _, cert in want.witnesses] == [(2, 10)]
    assert want.candidates_checked == 77
    for alphabet in ([10, 2, 2, 9, 8, 7, 6, 5, 4, 3, 1, 0], [22, 2, 9, 8, 7, 6, 5, 4, 3, 13, 0, -2]):
        assert mine_witness(ctx, fam, 1, 2, alphabet=alphabet) == want
    with pytest.raises(PreconditionError):
        mine_witness(ctx, fam, 1, 2, alphabet=[])


def test_mine_rejects_a_modulus_that_is_not_the_familys():
    # the family carries its modulus: a different ctx would enumerate the
    # wrong alphabet and report a complete enumeration with no witness
    ctx5, ctx7 = ModulusContext(5), ModulusContext(7)
    for fam, p_max in [(sum_plus_c_prod(ctx7, 0), 3), (power_sums(ctx7, 2), 2)]:
        with pytest.raises(PreconditionError):
            mine_witness(ctx5, fam, 1, p_max)


def test_mine_limit_below_one_is_rejected():
    # a limit is checked only after a witness is appended, so limit <= 0
    # used to return one witness
    ctx = ModulusContext(12)
    fam = sum_plus_c_prod(ctx, 1)
    for limit in (0, -3):
        with pytest.raises(PreconditionError):
            mine_witness(ctx, fam, 1, 2, limit=limit)
    res = mine_witness(ctx, fam, 1, 2, limit=1)
    assert (len(res.witnesses), res.complete) == (1, False)


def test_mined_witnesses_carry_recheckable_certificates():
    ctx = ModulusContext(13)
    res = mine_witness(ctx, sum_plus_c_prod(ctx, 1), 1, 2)
    assert res.witnesses
    for pw, cert in res.witnesses:
        assert cert.verdict == AVOIDING
        assert cert.period == pw.canonical()
        assert recheck_certificate(cert)


def test_mine_respects_alphabet_and_canonical_form():
    ctx = ModulusContext(10)
    res = mine_witness(ctx, sum_plus_c_prod(ctx, 1), 1, 3, alphabet=range(5))
    assert res.witnesses
    for pw, _ in res.witnesses:
        assert all(s < 5 for s in pw.period)
        assert pw.period == min_rotation(pw.period)


def test_xyr_solve_examples():
    sol = xyr_solve(7)
    assert (sol.x, sol.y, sol.r) == (1, 2, 3)
    sol = xyr_solve(11)
    assert (sol.x, sol.y, sol.r) == (5, 3, 2)
    sol = xyr_solve(19)
    assert (sol.x, sol.y, sol.r) == (8, 10, 3)


def test_xyr_preconditions():
    for bad in (3, 13, 15):
        with pytest.raises(PreconditionError):
            xyr_solve(bad)


def test_xyr_constructive_and_brute_force_agree():
    from blockzero.ring import is_prime

    for p in range(7, 200, 4):
        if not is_prime(p):
            continue
        sol = xyr_solve(p)
        assert (sol.x + sol.r * sol.y) % p == 0
        assert sol.x * pow(sol.y, sol.r, p) % p == 1
        # r = 2 needs x^3 = 4, and both take the least cube root of 4
        x, y, r = xyr_brute_force(p)
        assert (x + r * y) % p == 0 and x * pow(y, r, p) % p == 1
        assert r == sol.r and (r == 3 or (x, y) == (sol.x, sol.y))


def test_build_xyr_witness():
    assert build_xyr_witness(xyr_solve(19)).period == (8, 10, 10, 10)
    assert build_xyr_witness(xyr_solve(11)).period == (5, 3, 3)
    assert build_xyr_witness(xyr_solve(7)).period == (1, 2, 2, 2)


def test_vector_valued_search_matches_oracle():
    n = 2
    tables = ((0, 1), (1, 0))  # identity and x+1
    oracle_threshold, _ = bfs_threshold_tables(n, tables, 1)
    ctx = ModulusContext(n)
    fam = transformation_sums(ctx, tables)
    out = longest_avoiding_word(fam, 1, cap=32)
    assert out.status == EXHAUSTED
    assert out.threshold == oracle_threshold
    # below the known threshold the DFS must reach its cap, not exhaust
    if oracle_threshold > 4:
        capped = longest_avoiding_word(fam, 1, cap=oracle_threshold - 2)
        assert capped.status == CAP_REACHED
        assert len(capped.longest_word) == oracle_threshold - 2


def digits(s):
    return tuple(map(int, s))


# Outcomes of the window-scanning DFS (m = 1, cap 24) and of the per-length
# list kernel (m >= 2) that this kernel replaced: it must visit the same
# nodes in the same order.  Inputs are (n, c, max_nodes) at m = 1 and
# cap 24, or (n, c, m, cap, max_nodes).
PINNED_OUTCOMES = [
    ((6, 1, None), SearchOutcome(
        (0, 1, 0, 3, 1, 4, 1, 1, 4, 1, 4, 1, 1, 4, 2, 5, 2), 23_392,
        "exhausted")),
    ((6, 0, None), SearchOutcome(
        (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0), 12_662, "exhausted")),
    ((6, 5, 40_000), SearchOutcome(
        (1, 4, 1, 1, 5, 1, 4, 2, 5, 3, 5, 2, 4, 1, 5, 1, 1, 4, 1), 40_000,
        "nodes")),
    ((7, 6, None), SearchOutcome(
        (0, 1, 0, 1, 2, 5, 2, 5, 2, 5, 2, 1, 0, 1, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3),
        6_181, "cap")),
    ((3, 1, 2, 200, 20_000), SearchOutcome(
        digits("00010002000200210020002000200010002"),
        20_000, "nodes")),
    ((4, 3, 2, 200, 20_000), SearchOutcome(
        digits(
            "000100010001000100010001000100021000100010001003010023100100"
            "1310001000"
        ),
        20_000, "nodes")),
    ((5, 4, 2, 200, 20_000), SearchOutcome(
        digits(
            "000100010001000100010001000100010001000210001000100010001000"
            "10001000100010001310001000"
        ),
        20_000, "nodes")),
    ((3, 1, 3, 200, 20_000), SearchOutcome(
        digits(
            "000001000001000001000001000001000001000001000001000002000100"
            "0010000012001000001010001000001000120020000100000100021000"
        ),
        20_000, "nodes")),
]


@pytest.mark.parametrize("args,expected", PINNED_OUTCOMES, ids=lambda v: str(v))
def test_pinned_outcomes(args, expected):
    n, c, m, cap, max_nodes = args if len(args) == 5 else (*args[:2], 1, 24, args[2])
    assert search(n, c, m, cap=cap, max_nodes=max_nodes) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_f_c_matches_bfs_oracle(n, m):
    ctx = ModulusContext(n)
    for c in range(n):
        fam = sum_plus_c_prod(ctx, c)
        out = longest_avoiding_word(fam, m, cap=24)
        assert_avoids(ctx, fam, m, out.longest_word)
        if out.status == EXHAUSTED:
            # BFS levels are in lexicographic order, and so is the DFS
            assert (out.threshold, out.longest_word) == bfs_threshold(n, c, m)
        else:
            assert len(out.longest_word) == 24 and not out.budget_exhausted
            with pytest.raises(RuntimeError, match="no threshold"):
                bfs_threshold(n, c, m, max_len=6)


@pytest.mark.parametrize(
    "n,tables,m",
    [
        (3, ((0, 1, 2), (1, 2, 2)), 1),  # identity and x^2 + 1
        (2, ((0, 1), (1, 0)), 2),  # identity and x + 1
    ],
)
def test_transformation_sums_match_bfs_oracle(n, tables, m):
    ctx = ModulusContext(n)
    fam = transformation_sums(ctx, tables)
    out = longest_avoiding_word(fam, m, cap=24)
    assert out.status == EXHAUSTED
    assert (out.threshold, out.longest_word) == bfs_threshold_tables(n, tables, m)
    assert_avoids(ctx, fam, m, out.longest_word)


@pytest.mark.parametrize("n,m", [(3, 1), (2, 2)])
def test_power_sums_match_bfs_oracle(n, m):
    ctx = ModulusContext(n)
    fam = power_sums(ctx, 2)
    tables = (tuple(range(n)), tuple(x * x % n for x in range(n)))
    out = longest_avoiding_word(fam, m, cap=24)
    assert out.status == EXHAUSTED
    assert (out.threshold, out.longest_word) == bfs_threshold_tables(n, tables, m)
    assert_avoids(ctx, fam, m, out.longest_word)


def bfs_threshold_e_r(n, r, m, max_len=32):
    """BFS oracle for e_r by naive folds over subsets."""

    def avoids_at_end(w):
        L = len(w)
        for l in range(2, L // m + 1):
            s = L - m * l
            blocks = [w[s + j * l : s + (j + 1) * l] for j in range(m)]
            if all(naive_elementary_symmetric(b, r, n) == 0 for b in blocks):
                return False
        return True

    level = [()]
    for L in range(1, max_len + 1):
        nxt = [w + (a,) for w in level for a in range(n) if avoids_at_end(w + (a,))]
        if not nxt:
            return L, level[0]
        level = nxt
    raise RuntimeError(f"no threshold up to length {max_len}")


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)])
def test_elementary_symmetric_matches_bfs_oracle(n, m):
    ctx = ModulusContext(n)
    fam = elementary_symmetric_family(ctx, 2)
    out = longest_avoiding_word(fam, m, cap=24)
    assert out.status == EXHAUSTED
    assert (out.threshold, out.longest_word) == bfs_threshold_e_r(n, 2, m)
    assert_avoids(ctx, fam, m, out.longest_word)


def test_elementary_symmetric_cap_reached_word_avoids():
    ctx = ModulusContext(3)
    fam = elementary_symmetric_family(ctx, 2)
    out = longest_avoiding_word(fam, 2, cap=16)
    assert out.status == CAP_REACHED and not out.budget_exhausted
    assert len(out.longest_word) == 16
    assert_avoids(ctx, fam, 2, out.longest_word)


def set_search(n, c, **kw):
    return suffix_set_search(sum_plus_c_prod(ModulusContext(n), c), **kw)


def assert_same_as_dfs(fam, found):
    """The set search's outcome is the exhausted DFS's, up to the count."""
    dfs = longest_avoiding_word(fam, 1, cap=24)
    assert dfs.status == EXHAUSTED
    assert found.certificate is None
    assert found.outcome == SearchOutcome(dfs.longest_word, found.states, "exhausted")
    assert found.outcome.threshold == dfs.threshold


def test_suffix_set_search_matches_dfs_and_oracle_on_f_c():
    # every F_c with n <= 6: a cell the DFS exhausts gets the same
    # threshold and lexicographically first longest word, and a cell where
    # the DFS reaches its cap closes a cycle instead
    cycles = 0
    for n in range(2, 7):
        ctx = ModulusContext(n)
        for c in range(n):
            fam = sum_plus_c_prod(ctx, c)
            found = suffix_set_search(fam, max_nodes=20_000)
            if found.certificate is not None:
                assert longest_avoiding_word(fam, 1, cap=24).status == CAP_REACHED
                assert found.certificate.verdict == AVOIDING
                cycles += 1
                continue
            assert_same_as_dfs(fam, found)
            if n <= 4:
                assert (found.outcome.threshold, found.outcome.longest_word) == bfs_threshold(n, c, 1)
    assert cycles == 7


def test_suffix_set_search_folds_the_tree():
    # F_0 mod 7: the DFS takes 151,946 nodes, the sets of suffix sums are 128
    ctx = ModulusContext(7)
    fam = sum_plus_c_prod(ctx, 0)
    found = suffix_set_search(fam)
    assert found.states == 128
    assert found.outcome.threshold == 14
    assert_same_as_dfs(fam, found)
    found = set_search(6, 5)
    assert (found.outcome.threshold, found.states) == (20, 5_783)


@pytest.mark.parametrize(
    "n,tables",
    [
        (2, ((0, 1), (1, 0))),  # identity and x + 1
        (3, ((0, 1, 2), (1, 2, 2))),  # identity and x^2 + 1
        (4, ((0, 1, 2, 3), (0, 1, 0, 1))),  # identity and x^2
    ],
)
def test_suffix_set_search_matches_on_transformation_sums(n, tables):
    ctx = ModulusContext(n)
    fam = transformation_sums(ctx, tables)
    found = suffix_set_search(fam)
    assert_same_as_dfs(fam, found)
    if n <= 3:
        want = bfs_threshold_tables(n, tables, 1)
        assert (found.outcome.threshold, found.outcome.longest_word) == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_suffix_set_search_matches_on_power_sums(n):
    ctx = ModulusContext(n)
    fam = power_sums(ctx, 2)
    found = suffix_set_search(fam)
    assert_same_as_dfs(fam, found)
    if n <= 3:
        tables = (tuple(range(n)), tuple(x * x % n for x in range(n)))
        want = bfs_threshold_tables(n, tables, 1)
        assert (found.outcome.threshold, found.outcome.longest_word) == want


# (n, c) -> (states walked, certified period) of the walk's first cycle
CYCLE_PINS = {
    (5, 1): (20, (2, 3)),
    (6, 2): (119, (1, 5)),
    (12, 1): (50, (1, 1, 10, 2, 10, 1, 1, 10, 2, 10)),
}


@pytest.mark.parametrize("n,c", list(CYCLE_PINS))
def test_suffix_set_cycle_is_a_certified_period(n, c):
    found = set_search(n, c, max_nodes=10_000)
    cert = found.certificate
    assert found.outcome is None and cert is not None
    assert (found.states, cert.period) == CYCLE_PINS[n, c]
    assert cert.verdict == AVOIDING and recheck_certificate(cert)
    naive = first_vanishing_window(
        cert.period, 1, cert.checked_max_l, lambda b: naive_f_c(b, n, c) == 0
    )
    assert naive is None


def test_suffix_set_cycle_that_fails_verification_is_an_error(monkeypatch):
    import blockzero.search as search_mod

    real = search_mod.verify_periodic

    def refuting(pw, fam, m):
        return replace(real(pw, fam, m), verdict=REFUTED)

    monkeypatch.setattr(search_mod, "verify_periodic", refuting)
    with pytest.raises(InternalInvariantError):
        set_search(5, 1)


def test_suffix_set_search_budgets():
    # F_{-1} mod 7 has 692,823 reachable sets: every budget stops it, and
    # the stop is a budget outcome with the deepest path walked
    ctx = ModulusContext(7)
    out = set_search(7, 6, max_nodes=1000)
    assert (out.states, out.certificate) == (1000, None)
    assert out.outcome == SearchOutcome(
        (0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 4, 3, 4, 3, 4, 3, 4, 3, 4, 3),
        1000, "sets",
    )
    assert_avoids(ctx, sum_plus_c_prod(ctx, 6), 1, out.outcome.longest_word)
    # the deadline is read at the root and then every 64 sets
    out = set_search(7, 6, deadline=time.monotonic() - 1)
    assert (out.states, out.certificate) == (1, None)
    assert out.outcome == SearchOutcome((), 1, "deadline")
    out = set_search(7, 6, deadline=time.monotonic() + 0.05)
    assert out.states == 1 or out.states % 64 == 0
    assert out.certificate is None and out.outcome.stop == "deadline"
    assert out.outcome.nodes_expanded == out.states


def test_suffix_set_walk_is_pinned():
    # the walk's visiting order decides the set a budget stops at and the
    # first longest word: grid_m1's UNKNOWN cell (7, 6, 1) and (8, 1, 1),
    # the largest m = 1 cell the n <= 18 grid exhausts
    out = set_search(7, 6, max_nodes=40_000)
    assert out.states == 40_000 and out.outcome == SearchOutcome(
        (0, 1, 0, 2, 6, 3, 6, 5, 2, 6, 3, 6, 5, 6, 3, 6, 2, 5, 6, 3, 6),
        40_000, "sets",
    )
    out = set_search(8, 1)
    assert out.states == 264_712 and out.outcome == SearchOutcome(
        (1, 1, 1, 5, 1, 1, 6, 1, 2, 5, 1, 1, 4, 6, 1, 1, 1, 5, 1, 1, 6, 1, 2, 5, 1),
        264_712, "exhausted",
    )



def assert_walk_matches_oracle(n, c, budgets=None):
    """suffix_set_search at each budget (by default every one up to one
    past exhaustion) stops where the plain walk of suffix_set_walk has
    entered that many sets, or ends as it does; returns the budgets that
    stop on a dead end."""
    entered, (end, word) = suffix_set_walk(n, c)
    budgets = budgets or range(1, len(entered) + 2)
    fam = sum_plus_c_prod(ModulusContext(n), c)
    for b in budgets:
        found = suffix_set_search(fam, max_nodes=b)
        if b <= len(entered):  # the b-th set entered meets the budget
            deepest = max((w for w, _ in entered[:b]), key=len)
            assert (found.states, found.certificate) == (b, None), (n, c, b)
            assert found.outcome == SearchOutcome(deepest, b, "sets"), (n, c, b)
        elif end == "cycle":
            assert found.states == len(entered) and found.outcome is None, (n, c, b)
            assert found.certificate.period == min_rotation(word), (n, c, b)
        else:
            assert found.states == len(entered) and found.certificate is None, (n, c, b)
            assert found.outcome == SearchOutcome(word, len(entered), "exhausted"), (n, c, b)
    return [b for b in budgets if b <= len(entered) and entered[b - 1][1]]


def test_suffix_set_walk_matches_the_plain_walk_at_every_budget():
    # every budget up to one past exhaustion for n <= 5, and a spread for
    # (6, 5, 1); a budget that stops on a dead end (a set that forbids
    # every symbol) stops on a set the walk enters without its own acc
    dead_stops = []
    for n in range(2, 6):
        for c in range(n):
            dead_stops += assert_walk_matches_oracle(n, c)
    dead_stops += assert_walk_matches_oracle(6, 5, [1, 2, 63, 64, 65, 1000, 4321, 5783, 5784])
    assert len(dead_stops) > 100


def test_f0_at_m1_is_the_pigeonhole_word():
    # two equal prefix sums at distance >= 2 make a vanishing block, so
    # 2n prefix sums avoid only as n adjacent pairs: the threshold is 2n
    # and classify builds the word (0, 1, ..., 0) without a search
    for n in range(2, 25):
        cls = classify(n, 0, 1)
        word = (0, 1) * (n - 1) + (0,)
        assert (cls.verdict, cls.threshold, cls.outcome.longest_word) == (
            VANISHING_PROVED, 2 * n, word)
        assert cls.nodes_expanded == cls.outcome.nodes_expanded == 0
        ctx = ModulusContext(n)
        assert_avoids(ctx, sum_plus_c_prod(ctx, 0), 1, word)
        if n <= 10:
            found = set_search(n, 0).outcome
            assert cls.outcome == replace(found, nodes_expanded=0)
        if n <= 4:
            assert bfs_threshold(n, 0, 1) == (2 * n, word)


def test_outcome_record_is_pinned():
    # perfbench's spans.py and gate.py read status, budget_exhausted and
    # nodes_expanded off the outcome record of every classification
    cap = {"threshold": None, "longest_word": [0, 1, 0, 1], "nodes_expanded": 5,
           "stop": "cap", "status": "cap_reached", "budget_exhausted": False}
    sets = {**cap, "stop": "sets", "budget_exhausted": True}
    exhausted = {"threshold": 4, "longest_word": [0, 1, 0], "nodes_expanded": 6,
                 "stop": "exhausted", "status": "exhausted", "budget_exhausted": False}
    for out, record in [
        (search(7, 6, 1, cap=4), cap),
        (set_search(7, 6, max_nodes=5).outcome, sets),
        (search(2, 0, 1), exhausted),
    ]:
        assert out.to_dict() == record
        assert SearchOutcome.from_dict(record) == out
        # status, threshold and budget_exhausted are read off stop and the
        # longest word: a record whose copy of one disagrees is malformed
        other = CAP_REACHED if out.status == EXHAUSTED else EXHAUSTED
        for key, value in [("status", other), ("budget_exhausted", not out.budget_exhausted),
                           ("threshold", (out.threshold or 0) + 1)]:
            with pytest.raises(ValueError):
                SearchOutcome.from_dict({**record, key: value})
