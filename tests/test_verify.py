import itertools

import pytest

from blockzero.families import power_sums, sum_plus_c_prod, transformation_sums
from blockzero.ring import ModulusContext, PreconditionError
from blockzero.verify import (
    AVOIDING,
    REFUTED,
    Certificate,
    UnsupportedFamilyError,
    load_certificate,
    recheck_certificate,
    recheck_counter_window,
    reduce_witness,
    save_certificate,
    lockstep_states,
    scan_word,
    verify_periodic,
)
from blockzero.words import PeriodicWord, Word, min_rotation
from oracles import first_vanishing_window, naive_block_sum, naive_f_c


def test_scan_word_examples():
    ctx = ModulusContext(6)
    fam = sum_plus_c_prod(ctx, 1)
    hits = scan_word(Word(ctx, (1, 3, 5)), fam, 1)
    assert [(w.start, w.length) for w in hits] == [(0, 3)]

    ctx3 = ModulusContext(3)
    hits = scan_word(Word(ctx3, (0, 0)), sum_plus_c_prod(ctx3, 1), 1)
    assert [(w.start, w.length) for w in hits] == [(0, 2)]

    ctx5 = ModulusContext(5)
    hits = scan_word(Word(ctx5, (4, 1, 4, 1, 4, 1)), sum_plus_c_prod(ctx5, 2), 1)
    assert hits == []


def test_scan_word_ordered_by_length_then_start():
    ctx = ModulusContext(3)
    hits = scan_word(Word(ctx, (0, 0, 0, 0)), sum_plus_c_prod(ctx, 1), 1)
    assert [(w.length, w.start) for w in hits] == sorted((w.length, w.start) for w in hits)


def avoiding_cert(n, c, period, m=1):
    ctx = ModulusContext(n)
    return verify_periodic(PeriodicWord(period, n), sum_plus_c_prod(ctx, c), m)


def test_verify_periodic_avoiding_examples():
    assert avoiding_cert(12, 1, (2, 10)).verdict == AVOIDING
    assert avoiding_cert(6, 1, (1, 3, 5, 3), m=2).verdict == AVOIDING
    assert avoiding_cert(6, 5, (1, 3, 5, 3), m=2).verdict == AVOIDING
    assert avoiding_cert(9, 1, (7, 4, 4)).verdict == AVOIDING


def test_verify_periodic_refuted_example():
    cert = avoiding_cert(6, 1, (1, 3, 5, 3), m=1)
    assert cert.verdict == REFUTED
    assert cert.counter_window == (0, 3)
    assert recheck_counter_window(cert)

    # the block (3, 21, 3) has sum 27 and product 189; 27 + 189 = 216 = 0 mod 24
    cert = avoiding_cert(24, 1, (3, 21))
    assert cert.verdict == REFUTED
    assert cert.counter_window == (0, 3)
    assert recheck_counter_window(cert)


def test_certificate_bound_fields():
    cert = avoiding_cert(12, 1, (2, 10))
    assert cert.pre == 2 * (cert.alpha + 1)
    assert cert.checked_max_l == cert.pre + cert.per
    assert cert.per % (len(cert.period) * cert.beta) == 0
    assert cert.per % (len(cert.period) * cert.n) == 0


def test_certificate_scan_cross_check():
    for n, c, period, m in [
        (12, 1, (2, 10), 1),
        (9, 1, (7, 4, 4), 1),
        (6, 1, (1, 3, 5, 3), 2),
    ]:
        cert = avoiding_cert(n, c, period, m)
        assert cert.verdict == AVOIDING
        ctx = ModulusContext(n)
        fam = sum_plus_c_prod(ctx, c)
        length = 4 * m * cert.checked_max_l
        word = PeriodicWord(period, n).unroll(length, ctx)
        assert scan_word(word, fam, m) == []


def test_eventual_periodicity_of_window_verdicts():
    # past pre, the P block states at length l recur at length l + per
    cert = avoiding_cert(9, 1, (7, 4, 4))
    fam = sum_plus_c_prod(ModulusContext(9), 1)
    states = dict(lockstep_states(cert.period, fam, cert.checked_max_l + cert.per))
    for l in range(cert.pre + 1, cert.checked_max_l + 1):
        assert states[l] == states[l + cert.per]


def test_lockstep_states_match_direct_blocks():
    ctx = ModulusContext(12)
    fam = sum_plus_c_prod(ctx, 11)
    period = (2, 10, 7)
    word = PeriodicWord(period, 12).unroll(100, ctx)
    for l, states in lockstep_states(period, fam, 29):
        for s, (total, prod) in enumerate(states):
            direct = (word.block_sum(s, l) + 11 * word.block_product(s, l)) % 12
            assert (total + 11 * prod) % 12 == direct


def test_verify_periodic_matches_naive_first_window():
    # every canonical period with P <= 3 over n <= 8, against folds of the
    # unrolled word up to checked_max_l
    for n in range(2, 9):
        ctx = ModulusContext(n)
        cases = [
            (sum_plus_c_prod(ctx, c), lambda b, c=c: naive_f_c(b, n, c) == 0)
            for c in sorted({0, 1, n - 1, 2 % n})
        ]
        squares = [x * x % n for x in range(n)]
        cases.append((
            transformation_sums(ctx, [list(range(n)), squares]),
            lambda b: naive_block_sum(b, n) == 0 and naive_block_sum(b, n, squares) == 0,
        ))
        for P in (1, 2, 3):
            for period in itertools.product(range(n), repeat=P):
                if period != min_rotation(period):
                    continue
                for fam, vanishes in cases:
                    for m in (1, 2, 3):
                        cert = verify_periodic(PeriodicWord(period, n), fam, m)
                        want = first_vanishing_window(period, m, cert.checked_max_l, vanishes)
                        assert cert.counter_window == want, (n, fam.to_descriptor(), period, m)
                        assert cert.verdict == (AVOIDING if want is None else REFUTED)


def test_mirror_image_shares_the_verdict():
    # block values are symmetric functions of the block, so the reversed
    # period avoids iff the period does (the miner's mirror skip rests on it)
    for n in range(2, 8):
        ctx = ModulusContext(n)
        fams = [sum_plus_c_prod(ctx, c) for c in sorted({0, 1, n - 1, 2 % n})]
        fams.append(transformation_sums(ctx, [list(range(n)), [x * x % n for x in range(n)]]))
        for P in (1, 2, 3, 4):
            for period in itertools.product(range(n), repeat=P):
                mirror = min_rotation(period[::-1])
                if period != min_rotation(period) or mirror == period:
                    continue
                for fam in fams:
                    for m in (1, 2, 3):
                        a = verify_periodic(PeriodicWord(period, n), fam, m)
                        b = verify_periodic(PeriodicWord(mirror, n), fam, m)
                        assert a.verdict == b.verdict, (n, fam.to_descriptor(), period, m)


def test_verify_supports_vector_transformation_sums():
    ctx = ModulusContext(4)
    fam = transformation_sums(ctx, [[0, 1, 2, 3], [1, 2, 3, 0]])
    cert = verify_periodic(PeriodicWord((1, 2), 4), fam, 1)
    assert cert.verdict in (AVOIDING, REFUTED)
    assert recheck_certificate(cert)


def test_verify_rejects_unsupported_families():
    ctx = ModulusContext(5)
    with pytest.raises(UnsupportedFamilyError):
        verify_periodic(PeriodicWord((1, 2), 5), power_sums(ctx, 2), 1)


def test_reduce_witness_examples():
    pw = reduce_witness(PeriodicWord((7, 4, 4), 18), 9)
    assert pw == PeriodicWord((7, 4, 4), 9)
    pw = reduce_witness(PeriodicWord((3, 21), 24), 8)
    assert pw == PeriodicWord((3, 5), 8)
    pw = reduce_witness(PeriodicWord((2, 10), 12), 12)
    assert pw == PeriodicWord((2, 10), 12)
    with pytest.raises(PreconditionError):
        reduce_witness(PeriodicWord((2, 10), 12), 5)


def test_reduce_witness_soundness_empirical():
    # avoidance mod 9 certified, then the unrolled word scans clean mod 18
    cert9 = avoiding_cert(9, 1, (7, 4, 4))
    assert cert9.verdict == AVOIDING
    ctx18 = ModulusContext(18)
    fam18 = sum_plus_c_prod(ctx18, 1)
    word = PeriodicWord((7, 4, 4), 18).unroll(500, ctx18)
    assert scan_word(word, fam18, 1) == []


def test_certificate_round_trip_bit_exact(tmp_path):
    cert = avoiding_cert(12, 1, (2, 10))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_certificate(cert, p1)
    loaded = load_certificate(p1, recheck=True)
    assert loaded == cert
    save_certificate(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_tampered_certificate(tmp_path):
    cert = avoiding_cert(6, 1, (1, 3, 5, 3), m=1)
    assert cert.verdict == REFUTED
    forged = Certificate.from_dict({**cert.to_dict(), "verdict": AVOIDING})
    # drop the counter window too, as a forger would
    d = forged.to_dict()
    d.pop("counter_window", None)
    path = tmp_path / "forged.json"
    import json

    path.write_text(json.dumps(d))
    with pytest.raises(PreconditionError):
        load_certificate(path, recheck=True)


def test_certificate_version_checked():
    with pytest.raises(PreconditionError):
        Certificate.from_dict({"version": 99})
