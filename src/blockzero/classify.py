"""Per-(n, c, m) verdicts for the sum-plus-c-product families.

The pipeline first looks for a witness: the cell's own cataloged
construction, then the catalog constructions of the divisors of n lifted
to Z_n (largest divisor first), then mined periodic witnesses (smallest
divisor alphabets first).  For c = 0 it looks for none: a block of
k = n / gcd(n, T) whole periods of a period with sum T has sum 0, so F_0
has no periodic witness (zero-sum van der Waerden).  Only without a
witness does it decide by search, except for c = 0 at m = 1, which has a
closed form (a residue may occur only at one adjacent pair of prefix
sums, so the threshold is 2n).  Otherwise at m = 1 it runs the
suffix-state-set graph alone, and at m >= 2 the avoidance-tree DFS.  Every
returned proof object is independently re-checkable, and verdicts are
compared against the known classification of these families; a verified
disagreement is a hard error, not a result.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from itertools import repeat

from .families import FunctionalFamily, sum_plus_c_prod
from .ring import ModulusContext, PreconditionError, factorize, is_prime
from .search import (
    EXHAUSTED,
    InternalInvariantError,
    SearchOutcome,
    build_xyr_witness,
    from_record,
    longest_avoiding_word,
    mine_witness,
    suffix_set_search,
    xyr_solve,
)
from .verify import AVOIDING, Certificate, scan_word, verify_periodic
from .words import PeriodicWord

VANISHING_PROVED = "vanishing_proved"
NONVANISHING_PROVED = "nonvanishing_proved"
UNKNOWN = "unknown"

VANISHING = "vanishing"
NONVANISHING = "nonvanishing"


class ContradictionError(RuntimeError):
    """A verified verdict disagrees with the known classification."""


def _has_pq2(n: int):
    """Smallest prime q with q^2 | n while n has another prime factor."""
    fac = factorize(n)
    if len(fac) < 2:
        return None
    for p, e in fac:
        if e >= 2:
            return p
    return None


def _alternating_threes_avoid(n: int) -> bool:
    """Whether the period (3, -3) avoids F_1 mod n, for 8 | n.

    An even block of length 2k has sum 0 and the odd product (-9)^k, so it
    never vanishes when n is even.  An odd block of length 2k + 1 (k >= 1)
    has value +-3(1 + (-9)^k).  So the word avoids iff -1 is not a power
    (-9)^k, k >= 1, modulo n / gcd(n, 3).
    """
    r = n // math.gcd(n, 3)
    # the powers of -9 mod r repeat within r steps
    return all(pow(-9, k, r) != r - 1 for k in range(1, r + 1))


def expected_verdict(n: int, c: int, m: int) -> str | None:
    """The known classification, where it says anything.

    F_0 is vanishing for every n (zero-sum Van der Waerden).  F_1 is
    vanishing exactly for n in {2,3,4,8}, 1-vanishing only for n=6, and
    otherwise non-vanishing.  F_{-1} is vanishing for prime powers and
    non-vanishing when p*q^2 | n; the remaining square-free cases are open
    (except n=6, m>1, which is non-vanishing).  Every other c is
    non-vanishing for every n > 1.
    """
    c %= n
    if c == 0:
        return VANISHING
    if c == 1:
        if n in (2, 3, 4, 8):
            return VANISHING
        if n == 6:
            return VANISHING if m == 1 else NONVANISHING
        return NONVANISHING
    if c == n - 1:
        if len(factorize(n)) == 1:
            return VANISHING
        if _has_pq2(n) is not None:
            return NONVANISHING
        if n == 6 and m > 1:
            return NONVANISHING
        return None
    return NONVANISHING


def catalog_witness(n: int, c: int, m: int) -> PeriodicWord | None:
    """First applicable cataloged witness construction, or None.

    Order: the alternating (-1, 1) period for |c| > 1; the (x, y..y)
    construction (with explicit periods for n = 7, 11) for primes
    n = 3 mod 4, c = 1; (3, -3) when 8 | n and -1 is not a power (-9)^k,
    k >= 1, modulo n / gcd(n, 3); (7, 4, 4) when 9 | n; (q, -q) when
    p*q^2 | n and c = +-1; (1, 3, 5, 3) for n = 6, m > 1.
    """
    c %= n
    if c not in (0, 1, n - 1):
        return PeriodicWord((n - 1, 1), n)
    if c == 1:
        if n > 3 and n % 4 == 3 and is_prime(n):
            if n == 7:
                return PeriodicWord((2, 3, 3, 3, 3), n)
            if n == 11:
                return PeriodicWord((5, 3, 3), n)
            return build_xyr_witness(xyr_solve(n))
        if n % 8 == 0 and _alternating_threes_avoid(n):
            return PeriodicWord((3, n - 3), n)
        if n % 9 == 0:
            return PeriodicWord((7, 4, 4), n)
    if c in (1, n - 1):
        q = _has_pq2(n)
        if q is not None:
            return PeriodicWord((q, n - q), n)
        if n == 6 and m >= 2:
            return PeriodicWord((1, 3, 5, 3), n)
    return None


@dataclass(frozen=True)
class Classification:
    """The verdict of cell (n, c, m), read off the one proof it carries:
    an avoiding certificate makes it NONVANISHING_PROVED with the
    certificate's period as witness, an exhausted outcome VANISHING_PROVED
    with the outcome's threshold, and any other outcome UNKNOWN.  Both
    proofs or neither, or a refuted certificate, raise ValueError."""

    n: int
    c: int
    m: int
    verdict: str = field(init=False)  # VANISHING_PROVED | NONVANISHING_PROVED | UNKNOWN
    provenance: str | None  # "catalog" | "miner" | "search"
    threshold: int | None = field(init=False)
    witness: tuple[int, ...] | None = field(init=False)
    certificate: Certificate | None = None
    outcome: SearchOutcome | None = None
    nodes_expanded: int = 0
    elapsed_ms: int = 0

    def __post_init__(self):
        cert, out = self.certificate, self.outcome
        if (cert is None) == (out is None):
            raise ValueError("a classification carries one proof: a certificate or an outcome")
        if cert and cert.verdict != AVOIDING:
            raise ValueError(f"a {cert.verdict} certificate is no witness")
        verdict = (NONVANISHING_PROVED if cert
                   else VANISHING_PROVED if out.stop == EXHAUSTED else UNKNOWN)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "threshold", out.threshold if out else None)
        object.__setattr__(self, "witness", cert.period if cert else None)

    def to_dict(self) -> dict:
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        d["certificate"] = self.certificate.to_dict() if self.certificate else None
        d["outcome"] = self.outcome.to_dict() if self.outcome else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Classification":
        """The record to_dict wrote (see search.from_record): a verdict,
        threshold or witness that disagrees with the record's proof raises
        ValueError, and a malformed certificate or outcome raises what its
        own from_dict raises."""
        d = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
        cert, out = d.get("certificate"), d.get("outcome")
        d["certificate"] = Certificate.from_dict(cert) if cert else None
        d["outcome"] = SearchOutcome.from_dict(out) if out else None
        return from_record(cls, d)


def family_hash(fam: FunctionalFamily) -> str:
    blob = json.dumps(fam.to_descriptor(), sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


def _cache_path(cache_dir: str, n: int, fam: FunctionalFamily, m: int) -> str:
    return os.path.join(cache_dir, f"cls_{n}_{family_hash(fam)}_{m}.json")


def _load_cached(path: str, n: int, fam: FunctionalFamily, m: int) -> Classification | None:
    """The cached proved verdict of cell (n, fam, m), or None to recompute.

    An entry is served only if it is about the requested cell and its
    proof holds: a certificate equal to the one verify_periodic derives
    afresh from its period for the cell's own family, or an exhausted
    search whose longest word is a word over Z_n with no vanishing
    m-window (scan_word); that no longer word avoids is not re-derived.
    The record derives its verdict, threshold and witness from that proof.
    An UNKNOWN records only that one budget ran out, so it is never
    served: a later call may have more.  A missing, truncated or malformed
    file is a miss too: a record from before outcomes had a stop, a copy
    of a derived field that disagrees with its proof, or a hand-edited
    proof that cannot be re-derived."""
    try:
        with open(path) as fh:
            cls = Classification.from_dict(json.load(fh))
        if (cls.n, cls.c, cls.m) != (n, fam.c, m):
            return None  # a file of another cell
        if cls.verdict == NONVANISHING_PROVED:
            cert = cls.certificate
            ok = cert == verify_periodic(PeriodicWord(cert.period, n), fam, m)
        elif cls.verdict == VANISHING_PROVED:
            word = cls.outcome.longest_word
            ok = all(0 <= a < n for a in word) and not scan_word(word, fam, m)
        else:
            ok = False
    except (FileNotFoundError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return cls if ok else None  # otherwise stale or corrupt: recompute


def _save_cached(path: str, fam: FunctionalFamily, cls: Classification) -> None:
    """Write cls, a cell of fam, to path.  A proved verdict of the same cell
    there whose proof holds (_load_cached serves it) must not flip; any
    other file, a record whose proof fails included, is simply replaced."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    old = _load_cached(path, cls.n, fam, cls.m)
    if old is not None and {old.verdict, cls.verdict} == {VANISHING_PROVED, NONVANISHING_PROVED}:
        raise ContradictionError(
            f"cache at {path} holds {old.verdict} but new result is {cls.verdict}"
        )
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(cls.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


def _witness(fam: FunctionalFamily, m: int, p_max: int,
             deadline: float) -> tuple[str, Certificate] | None:
    """A verified avoiding period for the cell, with its provenance, or None.

    The cataloged constructions for the divisors d of n, largest first,
    lift to Z_n (a window vanishing mod n vanishes mod every divisor): d = n
    is the cell's own catalog entry ("catalog"), d < n a lift ("miner").
    Then necklace enumeration over growing divisor alphabets ("miner"),
    until the deadline.  F_0 has no witness, so nothing is tried there: a
    block of k whole periods of a period with sum T has value k*T, which
    is 0 for every multiple k of n / gcd(n, T)."""
    if fam.c == 0:
        return None
    n = fam.ctx.n
    divisors = _divisors(n)
    for d in reversed(divisors):
        wd = catalog_witness(d, fam.c % d, m)
        if wd is None:
            continue
        cert = verify_periodic(PeriodicWord(wd.period, n), fam, m)
        if cert.verdict == AVOIDING:
            return ("catalog" if d == n else "miner"), cert
    for d in divisors:
        res = mine_witness(fam.ctx, fam, m, p_max, deadline=deadline, alphabet=range(d), limit=1)
        if res.witnesses:
            return "miner", res.witnesses[0][1]
        if time.monotonic() > deadline:
            break
    return None


def _pigeonhole_outcome(fam: FunctionalFamily) -> SearchOutcome:
    """F_0 (the plain block sum) over Z_n at m = 1, in closed form.

    With prefix sums S_0 = 0 and S_i = a_1 + ... + a_i, the block of
    length l >= 2 at s vanishes iff S_s = S_{s+l}.  So a word of length L
    avoids iff each residue takes one of the positions 0..L or one adjacent
    pair of them: then L + 1 <= 2n, and every word of length 2n has a
    vanishing block.  The word (0, 1, 0, 1, ..., 0) of length 2n - 1 has
    the prefix sums 0, 0, 1, 1, ..., n - 1, n - 1, so it avoids and the
    threshold is exactly 2n.  It is the first longest word in ascending
    symbol order, the one the DFS and the set search return: in a word of
    length 2n - 1 every residue takes exactly one adjacent pair, position
    0 can pair only with 1, then 2 with 3 and so on, so a_1, a_3, ... are
    0 and a_2, a_4, ... are nonzero, and 1 at each of them keeps the n
    pairs' residues 0, 1, ..., n - 1 distinct.  Nothing is searched, so
    the outcome counts no nodes and no budget applies; the word is scanned
    once before it stands as the proof."""
    n = fam.ctx.n
    word = (0, 1) * (n - 1) + (0,)
    if scan_word(word, fam, 1):
        raise InternalInvariantError(f"the pigeonhole word over Z_{n} has a vanishing block")
    return SearchOutcome(word, 0, EXHAUSTED)


def classify(
    n: int,
    c: int,
    m: int,
    budget_ms: int = 60_000,
    cap: int = 24,
    p_max: int = 4,
    max_nodes: int = 300_000,
    cache_dir: str | None = None,
) -> Classification:
    """A witness, else the avoidance search; Unknown absorbs budget
    exhaustion.  cap bounds the depth of the tree DFS (m >= 2) alone: the
    m = 1 set search and the F_0 closed form decide at any depth, and
    p_max bounds the miner's periods alone.  Both are checked for every
    cell, whichever stage decides it."""
    if n < 2 or m < 1 or cap < 2 or p_max < 1:
        raise PreconditionError(f"need n >= 2, m >= 1, cap >= 2 and p_max >= 1, "
                                f"got n={n}, m={m}, cap={cap}, p_max={p_max}")
    c %= n
    fam = sum_plus_c_prod(ModulusContext(n), c)
    path = _cache_path(cache_dir, n, fam, m) if cache_dir else None
    if path:
        cached = _load_cached(path, n, fam, m)
        if cached is not None:
            return cached

    t0 = time.monotonic()
    found = _witness(fam, m, p_max, t0 + 0.3 * budget_ms / 1000.0)
    outcome, nodes = None, 0
    if found is None:
        # at m = 1 F_0 has a closed form, and otherwise the graph of
        # suffix-state sets decides either way or reports its own
        # budget stop (each reachable set is some tree node's, so the DFS
        # under the same node budget exhausts no cell the graph leaves
        # open); the tree DFS at m >= 2
        search_deadline = t0 + budget_ms / 1000.0
        if m == 1 and c == 0:
            outcome = _pigeonhole_outcome(fam)
        elif m == 1:
            sets = suffix_set_search(fam, max_nodes=max_nodes, deadline=search_deadline)
            outcome = sets.outcome
            if sets.certificate is not None:
                found, nodes = ("search", sets.certificate), sets.states
        else:
            outcome = longest_avoiding_word(
                fam, m, cap, max_nodes=max_nodes, deadline=search_deadline
            )
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    if found is not None:
        provenance, cert = found
    else:
        provenance, cert = "search" if outcome.stop == EXHAUSTED else None, None
        nodes = outcome.nodes_expanded
    cls = Classification(n, c, m, provenance, cert, outcome, nodes, elapsed_ms)
    if path:
        _save_cached(path, fam, cls)
    return cls


def is_contradiction(cls: Classification) -> bool:
    """Whether cls's verdict proves the opposite of the known classification
    of its cell (expected_verdict); UNKNOWN never contradicts."""
    flips = ((VANISHING, NONVANISHING_PROVED), (NONVANISHING, VANISHING_PROVED))
    return (expected_verdict(cls.n, cls.c, cls.m), cls.verdict) in flips


def _cell_args(n_max, m_set):
    for n in range(2, n_max + 1):
        for c in dict.fromkeys((0, 1 % n, (n - 1) % n)):
            for m in dict.fromkeys(m_set):
                yield n, c, m


def reproduce_table(
    n_max: int,
    m_set=(1, 2),
    budget_ms: int = 60_000,
    cap: int = 24,
    p_max: int = 4,
    max_nodes: int = 300_000,
    cache_dir: str | None = None,
    jobs: int = 1,
) -> tuple[Classification, ...]:
    """The classification of every cell of the grid, in report order: n
    from 2 to n_max, c in {0, 1, -1} mod n, m in m_set.

    classify itself is mapped over the cells, in this process or, for
    jobs > 1, in a pool of jobs processes; either way each call reads and
    writes its own cell's cache entry, so both give the same report and
    leave the same cache.  An empty grid (n_max below 2, or no m) and jobs
    below 1 are refused."""
    if n_max < 2:
        raise PreconditionError(f"n_max must be >= 2, got {n_max}")
    if not m_set:
        raise PreconditionError("m_set must hold at least one m")
    if jobs < 1:
        raise PreconditionError(f"jobs must be >= 1, got {jobs}")
    grid = list(_cell_args(n_max, m_set))
    args = [[cell[k] for cell in grid] for k in range(3)]  # the n, c and m columns
    args += [repeat(v) for v in (budget_ms, cap, p_max, max_nodes, cache_dir)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay its import

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return tuple(pool.map(classify, *args))
    return tuple(map(classify, *args))


def render_table(cells: tuple[Classification, ...]) -> str:
    """One line per cell, then the cells and summed elapsed_ms of each
    outcome ("witness" for a non-vanishing proof, else the search's stop),
    then the number of contradictions."""
    spent = {k: [0, 0] for k in ("witness", EXHAUSTED, "cap", "nodes", "sets", "deadline")}
    lines, contradictions = [], 0
    header = f"{'n':>3} {'c':>3} {'m':>2}  {'verdict':22} {'provenance':10} {'detail'}"
    lines.append(header)
    lines.append("-" * len(header))
    for cls in cells:
        if cls.verdict == NONVANISHING_PROVED:
            stop, detail = "witness", "witness " + ",".join(map(str, cls.witness))
        elif cls.verdict == VANISHING_PROVED:
            stop, detail = EXHAUSTED, f"threshold {cls.threshold}"
        else:
            out = cls.outcome
            stop, detail = out.stop, {
                "cap": f"cap reached at length {len(out.longest_word)}",
                "nodes": f"node budget after {out.nodes_expanded} nodes",
                "sets": f"set budget after {out.nodes_expanded} sets",
                "deadline": f"time budget after {out.nodes_expanded} nodes or sets",
            }[out.stop]
        spent[stop][0] += 1
        spent[stop][1] += cls.elapsed_ms
        if is_contradiction(cls):
            contradictions += 1
            detail += "  ** CONTRADICTS KNOWN CLASSIFICATION **"
        lines.append(
            f"{cls.n:>3} {cls.c:>3} {cls.m:>2}  {cls.verdict:22} {str(cls.provenance):10} {detail}"
        )
    lines.append("time by outcome: " + ", ".join(
        f"{stop} {count} cells {ms} ms" for stop, (count, ms) in spent.items() if count
    ))
    lines.append(f"{contradictions} contradiction(s)")
    return "\n".join(lines)
