"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test records "ACCEPTANCE <k>: PASS|FAIL" (echoed again in the
terminal summary via conftest) and then asserts, so a red criterion
stays red and visible.  Certificates produced by criterion 1 feed the
cross-checks of criterion 6.
"""

import time
from functools import lru_cache

from conftest import record_acceptance as report

from blockzero.classify import (
    NONVANISHING_PROVED,
    catalog_witness,
    is_contradiction,
    reproduce_table,
)
from blockzero.families import sum_plus_c_prod
from blockzero.ring import ModulusContext, is_prime
from blockzero.search import (
    CAP_REACHED,
    EXHAUSTED,
    build_xyr_witness,
    longest_avoiding_word,
    xyr_solve,
)
from blockzero.verify import (
    AVOIDING,
    REFUTED,
    reduce_witness,
    scan_word,
    verify_periodic,
)
from blockzero.words import PeriodicWord

from oracles import (
    Lcg,
    bfs_threshold,
    first_vanishing_window,
    naive_block_product,
    naive_block_sum,
    naive_f_c,
    newton_implication_check,
    unroll,
    vanishing_pairs,
)


# (n, c, m, period, reduce_to) -- reduce_to names the modulus actually certified
WITNESS_CASES = [
    (5, 2, 1, (4, 1), None),
    (7, 1, 1, (2, 3, 3, 3, 3), None),
    (11, 1, 1, (5, 3, 3), None),
    (16, 1, 1, (3, 13), None),
    (24, 1, 1, (2, 22), None),
    (48, 1, 1, (3, 45), None),
    (9, 1, 1, (7, 4, 4), None),
    (18, 1, 1, (7, 4, 4), 9),
    (12, 1, 1, (2, 10), None),
    (12, 11, 1, (2, 10), None),
    (6, 1, 2, (1, 3, 5, 3), None),
    (6, 5, 2, (1, 3, 5, 3), None),
]


@lru_cache(maxsize=None)
def witness_certificates():
    """(case, certificate, elapsed seconds) for every criterion-1 case."""
    out = []
    for n, c, m, period, reduce_to in WITNESS_CASES:
        pw = PeriodicWord(period, n)
        if reduce_to is not None:
            pw = reduce_witness(pw, reduce_to)
        ctx = ModulusContext(pw.n)
        t0 = time.monotonic()
        cert = verify_periodic(pw, sum_plus_c_prod(ctx, c % pw.n), m)
        out.append(((n, c, m, period, reduce_to), cert, time.monotonic() - t0))
    return tuple(out)


def test_criterion_1_witness_regression():
    failures = []
    for case, cert, dt in witness_certificates():
        if cert.verdict != AVOIDING:
            failures.append(f"{case}: verdict {cert.verdict} at window {cert.counter_window}")
        if dt >= 5.0:
            failures.append(f"{case}: took {dt:.1f}s")
    report(1, failures)
    assert not failures, "; ".join(failures)


def test_criterion_2_refutation():
    failures = []
    ctx = ModulusContext(6)
    cert = verify_periodic(PeriodicWord((1, 3, 5, 3), 6), sum_plus_c_prod(ctx, 1), 1)
    if cert.verdict != REFUTED:
        failures.append(f"verdict {cert.verdict}")
    elif cert.counter_window != (0, 3):
        failures.append(f"window {cert.counter_window}")
    elif first_vanishing_window(
        cert.period, 1, 3, lambda b: naive_f_c(b, 6, 1) == 0
    ) != cert.counter_window:
        failures.append("embedded window does not re-evaluate to zero")
    report(2, failures)
    assert not failures, "; ".join(failures)


def test_criterion_3_search_decisions():
    failures = []
    t0 = time.monotonic()
    for n, c in [(2, 0), (3, 1)]:
        out = longest_avoiding_word(sum_plus_c_prod(ModulusContext(n), c), 1, cap=32)
        oracle, _ = bfs_threshold(n, c, 1)
        if out.status != EXHAUSTED or out.threshold != oracle:
            failures.append(f"n={n} c={c}: {out.status} threshold {out.threshold} vs oracle {oracle}")
    if time.monotonic() - t0 >= 10.0:
        failures.append("first two cases exceeded 10s")
    for n, cap, nodes in [(4, 32, None), (8, 32, 300_000)]:
        fam = sum_plus_c_prod(ModulusContext(n), 1)
        out = longest_avoiding_word(fam, 1, cap=cap, max_nodes=nodes)
        if out.status == EXHAUSTED:
            oracle, _ = bfs_threshold(n, 1, 1)
            if out.threshold != oracle:
                failures.append(f"n={n}: threshold {out.threshold} vs oracle {oracle}")
        elif out.status != CAP_REACHED:
            failures.append(f"n={n}: unexpected status {out.status}")
    report(3, failures)
    assert not failures, "; ".join(failures)


def test_criterion_4_xyr_suite():
    failures = []
    for p in range(7, 200):
        if p % 4 != 3 or not is_prime(p):
            continue
        sol = xyr_solve(p)
        if (sol.x + sol.r * sol.y) % p != 0 or sol.x * pow(sol.y, sol.r, p) % p != 1:
            failures.append(f"p={p}: invalid solution {sol}")
    for p in (19, 23, 31):
        t0 = time.monotonic()
        pw = build_xyr_witness(xyr_solve(p))
        cert = verify_periodic(pw, sum_plus_c_prod(ModulusContext(p), 1), 1)
        if cert.verdict != AVOIDING:
            failures.append(f"p={p}: witness {pw.period} not avoiding")
        if time.monotonic() - t0 >= 10.0:
            failures.append(f"p={p}: over 10s")
    # explicit certified witnesses for the two small primes
    for p, period in [(7, (2, 3, 3, 3, 3)), (11, (5, 3, 3))]:
        cert = verify_periodic(
            PeriodicWord(period, p), sum_plus_c_prod(ModulusContext(p), 1), 1
        )
        if cert.verdict != AVOIDING:
            failures.append(f"p={p}: explicit witness {period} not avoiding")
    # for p=11 the construction lands on the explicit witness
    if build_xyr_witness(xyr_solve(11)).period != (5, 3, 3):
        failures.append("p=11 construction diverged from explicit witness")
    report(4, failures)
    assert not failures, "; ".join(failures)


def test_criterion_5_newton_implication():
    failures = []
    t0 = time.monotonic()
    rep = newton_implication_check(ModulusContext(2), 2, 2)
    if rep.status != "counterexample" or rep.counterexample != (1, 1):
        failures.append(f"n=2: {rep.status} {rep.counterexample}")
    for n in (5, 3):
        rep = newton_implication_check(ModulusContext(n), 2, 4)
        if rep.status != "holds":
            failures.append(f"n={n}: {rep.status}")
    if time.monotonic() - t0 >= 5.0:
        failures.append("exceeded 5s")
    report(5, failures)
    assert not failures, "; ".join(failures)


def test_criterion_6_property_suites():
    failures = []
    # block folds vs naive, 10^4 cases, on the one block-value path (the
    # family hook): F_0's value is the sum, F_1's minus F_0's the product
    gen = Lcg(2024)
    for _ in range(10_000):
        n = 2 + gen.below(29)
        ctx = ModulusContext(n)
        length = 2 + gen.below(8)
        symbols = [gen.below(n) for _ in range(length)]
        l = 2 + (gen.below(length - 1) if length > 2 else 0)
        s = gen.below(length - l + 1)
        blk = symbols[s : s + l]
        (total,) = sum_plus_c_prod(ctx, 0).value(blk)
        (f1,) = sum_plus_c_prod(ctx, 1).value(blk)
        if total != naive_block_sum(blk, n):
            failures.append(f"block sum mismatch n={n} {symbols} ({s},{l})")
            break
        if (f1 - total) % n != naive_block_product(blk, n):
            failures.append(f"block product mismatch n={n} {symbols} ({s},{l})")
            break
    # F_1 pair characterization, exhaustive n <= 30
    for n in range(2, 31):
        ctx = ModulusContext(n)
        got = vanishing_pairs(sum_plus_c_prod(ctx, 1))
        want = {(a, b) for a in range(n) for b in range(n) if (a + 1) * (b + 1) % n == 1}
        if got != want:
            failures.append(f"F_1 pairs wrong for n={n}")
    # prefix-sum reduction for c=0, 10^3 words
    gen = Lcg(7)
    for _ in range(1000):
        n = 2 + gen.below(9)
        length = 3 + gen.below(10)
        word = [gen.below(n) for _ in range(length)]
        prefix = [0]
        for x in word:
            prefix.append((prefix[-1] + x) % n)
        for l in range(2, length + 1):
            for s in range(0, length - l + 1):
                if (sum(word[s : s + l]) % n == 0) != (prefix[s + l] == prefix[s]):
                    failures.append(f"prefix reduction mismatch n={n} {word}")
    # certificate/scan cross-check for every avoiding criterion-1 certificate
    for case, cert, _ in witness_certificates():
        if cert.verdict != AVOIDING:
            continue
        n, c, m = case[0], case[1], case[2]
        ctx = ModulusContext(n)
        fam = sum_plus_c_prod(ctx, c)
        word = unroll(case[3], 4 * m * cert.checked_max_l)
        if scan_word(word, fam, m) != []:
            failures.append(f"{case}: unrolled word has a vanishing window mod {n}")
    report(6, failures)
    assert not failures, "; ".join(failures)


def test_criterion_7_reproduce_table(tmp_path):
    failures = []
    cells = reproduce_table(
        18, m_set=(1, 2),
        budget_ms=60_000, cap=24, p_max=4, max_nodes=300_000,
        cache_dir=str(tmp_path),
    )
    contradictions = sum(map(is_contradiction, cells))
    if contradictions:
        failures.append(f"{contradictions} contradiction(s)")
    for cls in cells:
        if cls.verdict != NONVANISHING_PROVED:
            continue
        if catalog_witness(cls.n, cls.c, cls.m) is not None and cls.provenance != "catalog":
            failures.append(
                f"(n={cls.n}, c={cls.c}, m={cls.m}): predicate applies but provenance {cls.provenance}"
            )
    report(7, failures)
    assert not failures, "; ".join(failures)
