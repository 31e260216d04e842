import itertools
import json
import math

import pytest

import blockzero.families
import blockzero.verify
from blockzero.families import (
    elementary_symmetric_family,
    power_sums,
    sum_plus_c_prod,
    transformation_sums,
)
from blockzero.ring import ModulusContext, PreconditionError
from blockzero.search import build_xyr_witness, xyr_solve
from blockzero.verify import (
    AVOIDING,
    CERTIFICATE_VERSION,
    REFUTED,
    Certificate,
    UnsupportedFamilyError,
    load_certificate,
    recheck_certificate,
    reduce_witness,
    save_certificate,
    lockstep_states,
    scan_word,
    verify_periodic,
)
from blockzero.words import PeriodicWord, min_rotation
from oracles import (
    Lcg,
    first_vanishing_window,
    naive_block_sum,
    naive_f_c,
    naive_value,
    unroll,
    vanishing_windows,
)


def test_scan_word_examples():
    ctx = ModulusContext(6)
    fam = sum_plus_c_prod(ctx, 1)
    assert scan_word((1, 3, 5), fam, 1) == [(0, 3)]

    ctx3 = ModulusContext(3)
    assert scan_word((0, 0), sum_plus_c_prod(ctx3, 1), 1) == [(0, 2)]

    ctx5 = ModulusContext(5)
    assert scan_word((4, 1, 4, 1, 4, 1), sum_plus_c_prod(ctx5, 2), 1) == []


def test_scan_word_matches_naive_windows():
    gen = Lcg(73)
    for _ in range(200):
        n = 2 + gen.below(7)
        ctx = ModulusContext(n)
        r = 1 + gen.below(3)
        tables = [[gen.below(n) for _ in range(n)] for _ in range(1 + gen.below(2))]
        word = tuple(gen.below(n) for _ in range(gen.below(16)))
        m = 1 + gen.below(3)
        for fam in (
            sum_plus_c_prod(ctx, gen.below(n)),
            transformation_sums(ctx, tables),
            power_sums(ctx, r),
            elementary_symmetric_family(ctx, r),
        ):
            desc = fam.to_descriptor()
            want = vanishing_windows(word, m, lambda b: not any(naive_value(desc, b, n)))
            assert scan_word(word, fam, m) == want


def test_scan_word_ordered_by_length_then_start():
    ctx = ModulusContext(3)
    hits = scan_word((0, 0, 0, 0), sum_plus_c_prod(ctx, 1), 1)
    assert hits == sorted(hits, key=lambda w: (w[1], w[0]))
    assert hits == [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (0, 4)]


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
    assert first_vanishing_window(
        cert.period, 1, 3, lambda b: naive_f_c(b, 6, 1) == 0
    ) == cert.counter_window

    # the block (3, 21, 3) has sum 27 and product 189; 27 + 189 = 216 = 0 mod 24
    cert = avoiding_cert(24, 1, (3, 21))
    assert cert.verdict == REFUTED
    assert cert.counter_window == (0, 3)
    assert first_vanishing_window(
        cert.period, 1, 3, lambda b: naive_f_c(b, 24, 1) == 0
    ) == cert.counter_window


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
        word = unroll(period, length)
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
    word = unroll(period, 100)
    for l, states in lockstep_states(period, fam, 29):
        for s, (total, prod) in enumerate(states):
            assert (total + 11 * prod) % 12 == naive_f_c(word[s : s + l], 12, 11)


def full_scan_certificate(period, fam, m):
    """The certificate dict of a scan that runs every length up to the
    bound, with no repeat stop: naive bound fields and lockstep_states."""
    n, P = fam.ctx.n, len(period)
    G = math.prod(period) % n
    powers = []  # G^1, G^2, ... up to the first repeat
    x = G
    while x not in powers:
        powers.append(x)
        x = x * G % n
    alpha = powers.index(x)
    pre, per = P * (alpha + 1), math.lcm(P * n, P * (len(powers) - alpha))
    counter = None
    for l, states in lockstep_states(period, fam, pre + per):
        z = fam.vanishing_mask(states)
        hits = [s for s in range(P) if all(z >> (s + j * l) % P & 1 for j in range(m))]
        if hits:
            counter = [hits[0], l]
            break
    d = {
        "version": CERTIFICATE_VERSION, "n": n, "family": fam.to_descriptor(), "m": m,
        "period": list(period), "G": G,
        "T": [sum(t[x] for x in period) % n for t in fam.sum_tables()],
        "alpha": alpha, "beta": len(powers) - alpha, "pre": pre, "per": per,
        "checked_max_l": pre + per, "verdict": AVOIDING if counter is None else REFUTED,
    }
    if counter is not None:
        d["counter_window"] = counter
    return d


def test_verify_periodic_matches_naive_first_window():
    # every canonical period with P <= 3 over n <= 8, and with P = 4, 5
    # over n <= 5 at m = 3, where the window's residues (s + j*l) mod P
    # wrap past P in more ways, against folds of the unrolled word up to
    # checked_max_l, and the whole certificate against a full scan with no
    # repeat stop
    for n in range(2, 9):
        ctx = ModulusContext(n)
        cases = [
            (sum_plus_c_prod(ctx, c), lambda b, c=c: naive_f_c(b, n, c) == 0)
            for c in sorted({0, 1, n - 1, 2 % n})
        ]
        for table in ([x * x % n for x in range(n)], [(x * x + 1) % n for x in range(n)]):
            cases.append((
                transformation_sums(ctx, [list(range(n)), table]),
                lambda b, table=table: naive_block_sum(b, n) == 0 and naive_block_sum(b, n, table) == 0,
            ))
        fam = power_sums(ctx, 2)
        cases.append((fam, lambda b, d=fam.to_descriptor(): not any(naive_value(d, b, n))))
        shapes = [(P, (1, 2, 3)) for P in (1, 2, 3)] + [(P, (3,)) for P in (4, 5) if n <= 5]
        for P, ms in shapes:
            for period in itertools.product(range(n), repeat=P):
                if period != min_rotation(period):
                    continue
                for fam, vanishes in cases:
                    for m in ms:
                        cert = verify_periodic(PeriodicWord(period, n), fam, m)
                        want = first_vanishing_window(period, m, cert.checked_max_l, vanishes)
                        assert cert.counter_window == want, (n, fam.to_descriptor(), period, m)
                        assert cert.verdict == (AVOIDING if want is None else REFUTED)
                        assert cert.to_dict() == full_scan_certificate(period, fam, m)
    # the state of residue 0 recurs at length 6, but the block at residue 2
    # does not, and the window (2, 7) vanishes: 1+7+1+3+1+7+1 + 147 = 0 mod 12
    fam = sum_plus_c_prod(ModulusContext(12), 1)
    cert = verify_periodic(PeriodicWord((1, 3, 1, 7), 12), fam, 1)
    assert cert.to_dict() == full_scan_certificate((1, 3, 1, 7), fam, 1)
    assert cert.counter_window == (2, 7)


def scan_trace(monkeypatch, n, c, period, m):
    """(certificate, lengths the scan generated, states it read vanishing
    masks of)."""
    lengths, calls = [], []
    full_states = lockstep_states
    full_bind = blockzero.families._bind_hook

    def counted_states(*args):
        for l, states in full_states(*args):
            lengths.append(l)
            yield l, states

    def counted_bind(fam):
        block_states, extend_all, vanishing_mask, *rest = full_bind(fam)

        def counted_mask(states):
            calls.extend(states)
            return vanishing_mask(states)

        return block_states, extend_all, counted_mask, *rest

    monkeypatch.setattr(blockzero.verify, "lockstep_states", counted_states)
    monkeypatch.setattr(blockzero.families, "_bind_hook", counted_bind)
    try:
        cert = avoiding_cert(n, c, period, m)
    finally:
        monkeypatch.undo()
    return cert, lengths, len(calls)


def test_scan_stops_at_the_first_repeated_state_vector(monkeypatch):
    # the xyr witness has period sum 0 and period product 1, so every block
    # state recurs after one period: the states at length 5 equal those at 2
    period = build_xyr_witness(xyr_solve(983)).period
    cert, lengths, calls = scan_trace(monkeypatch, 983, 1, period, 1)
    assert cert.verdict == AVOIDING and cert.checked_max_l == 2952
    assert lengths == [2, 3, 4, 5]
    # the windows of every generated length are checked, the last one too
    assert calls == len(period) * len(lengths)
    # states are compared only at lengths P apart: the doubled period
    # stops at 2 + 6, although its states at 5 already equal those at 2
    cert, lengths, calls = scan_trace(monkeypatch, 983, 1, period * 2, 1)
    assert cert.verdict == AVOIDING and lengths == list(range(2, 9))

    # two criterion-1 witnesses and an m = 2 witness settle below their bound
    for n, c, period, m, last, bound in [
        (24, 1, (2, 22), 1, 10, 52), (9, 1, (7, 4, 4), 1, 17, 30), (35, 1, (1, 9), 2, 210, 422),
    ]:
        cert, lengths, calls = scan_trace(monkeypatch, n, c, period, m)
        assert cert.verdict == AVOIDING and cert.checked_max_l == bound
        assert lengths == list(range(2, last + 1))
        assert calls == len(period) * len(lengths)

    # a refuted scan still stops at its first vanishing window
    cert, lengths, _ = scan_trace(monkeypatch, 24, 1, (3, 21), 1)
    assert cert.counter_window == (0, 3) and lengths == [2, 3]


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


def test_unit_scaled_image_shares_the_verdict():
    # for a unit u = 1 mod n / gcd(n, c), u*B vanishes iff B does, and
    # scaling the period maps each window (s, l) onto the same window of
    # the scaled word
    for n in range(2, 13):
        ctx = ModulusContext(n)
        for c in sorted({0, 1, n - 1, 2, 4, 6}):
            if c >= n:
                continue
            fam = sum_plus_c_prod(ctx, c)
            # u = 1 mod n / gcd(n, c) iff (u - 1) * c = 0 mod n: none for
            # c = 1, -1 or a c prime to n
            units = [u for u in range(2, n) if math.gcd(u, n) == 1 and (u - 1) * c % n == 0]
            if not units:
                continue
            periods = [
                t for P in (1, 2, 3, 4) for t in itertools.product(range(n), repeat=P)
                if t == min_rotation(t)
            ]
            for m in (1, 2):
                # verify_periodic canonicalises, so each image's certificate is
                # the one of its canonical rotation
                certs = {t: verify_periodic(PeriodicWord(t, n), fam, m) for t in periods}
                for period, cert in certs.items():
                    for u in units:
                        scaled = tuple(u * x % n for x in period)
                        image = certs[min_rotation(scaled)]
                        assert image.verdict == cert.verdict, (n, c, period, u, m)
                        if scaled == min_rotation(scaled):
                            # the same frame: the same first window
                            assert image.counter_window == cert.counter_window
                        elif cert.counter_window is not None:
                            # a rotation moves the start, not the length
                            assert image.counter_window[1] == cert.counter_window[1]
            for period in periods:
                for block in (period, period * 2):
                    if len(block) < 2:
                        continue
                    want = naive_f_c(block, n, c)
                    for u in units:
                        scaled = tuple(u * x % n for x in block)
                        assert naive_f_c(scaled, n, c) == u * want % n
                        assert fam.value(scaled) == (u * want % n,)


def test_verify_supports_vector_transformation_sums():
    ctx = ModulusContext(4)
    fam = transformation_sums(ctx, [[0, 1, 2, 3], [1, 2, 3, 0]])
    cert = verify_periodic(PeriodicWord((1, 2), 4), fam, 1)
    assert cert.verdict in (AVOIDING, REFUTED)
    assert recheck_certificate(cert)
    # power sums are the table sums of the power tables x -> x^i
    cert = verify_periodic(PeriodicWord((1, 2), 5), power_sums(ModulusContext(5), 2), 1)
    assert (cert.verdict, cert.counter_window) == (REFUTED, (0, 10))
    assert recheck_certificate(cert)
    assert first_vanishing_window(
        cert.period, 1, 10, lambda b: not any(naive_value(cert.family, b, 5))
    ) == cert.counter_window


def test_verify_rejects_unsupported_families():
    ctx = ModulusContext(5)
    with pytest.raises(UnsupportedFamilyError):
        verify_periodic(PeriodicWord((1, 2), 5), elementary_symmetric_family(ctx, 2), 1)


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
    word = unroll((7, 4, 4), 500)
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
    path.write_text(json.dumps(d))
    with pytest.raises(PreconditionError):
        load_certificate(path, recheck=True)


def test_certificate_record_is_pinned():
    # perfbench's gate reads these keys; an avoiding record has no
    # counter_window key
    avoiding = avoiding_cert(12, 1, (2, 10))
    assert avoiding.to_dict() == {
        "version": 1, "n": 12, "family": {"kind": "sum_plus_c_prod", "c": 1}, "m": 1,
        "period": [2, 10], "G": 8, "T": [0], "alpha": 0, "beta": 2, "pre": 2, "per": 24,
        "checked_max_l": 26, "verdict": "avoiding",
    }
    refuted = avoiding_cert(24, 1, (3, 21))
    assert refuted.to_dict() == {
        "version": 1, "n": 24, "family": {"kind": "sum_plus_c_prod", "c": 1}, "m": 1,
        "period": [3, 21], "G": 15, "T": [0], "alpha": 0, "beta": 2, "pre": 2, "per": 48,
        "checked_max_l": 50, "verdict": "refuted", "counter_window": [0, 3],
    }
    for cert in (avoiding, refuted):
        assert Certificate.from_dict(json.loads(json.dumps(cert.to_dict()))) == cert


def test_certificate_version_checked():
    with pytest.raises(PreconditionError):
        Certificate.from_dict({"version": 99})


def test_certificate_with_a_missing_or_unknown_field_is_rejected(tmp_path):
    path = tmp_path / "c.json"
    # an avoiding certificate, and a refuted one with its counter_window
    for cert in (avoiding_cert(12, 1, (2, 10)), avoiding_cert(6, 1, (1, 3, 5, 3))):
        d = cert.to_dict()
        for bad in ({k: v for k, v in d.items() if k != "G"}, {**d, "extra": 1}):
            path.write_text(json.dumps(bad))
            with pytest.raises(PreconditionError):
                load_certificate(path, recheck=False)


def test_load_rejects_a_malformed_family(tmp_path):
    d = avoiding_cert(12, 1, (2, 10)).to_dict()
    path = tmp_path / "family.json"
    bad = [{**d, "family": family} for family in (
        {"kind": "sum_plus_c_prod"}, {"kind": "sum_plus_c_prod", "c": "x"},
        {"kind": "transformation_sums", "tables": 3}, {"kind": "nosuch"}, "sum_plus_c_prod",
    )]
    # the right keys with values of the wrong type, and a record that is a list
    bad += [{**d, "period": ["a"]}, {**d, "n": "12"}, {**d, "m": "1"}, [d]]
    # a truncated file and one that is not JSON at all
    texts = [json.dumps(record) for record in bad] + ['{"version": 1, "n": 12', "certificate"]
    for text in texts:
        path.write_text(text)
        with pytest.raises(PreconditionError):
            load_certificate(path, recheck=True)


@pytest.mark.parametrize("field, value", [
    ("checked_max_l", 27), ("G", 5), ("T", [1]), ("alpha", 9),
])
def test_load_rejects_a_wrong_bound_field(tmp_path, field, value):
    cert = avoiding_cert(12, 1, (2, 10))
    assert cert.verdict == AVOIDING and cert.to_dict()[field] != value
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({**cert.to_dict(), field: value}))
    with pytest.raises(PreconditionError):
        load_certificate(path, recheck=True)
