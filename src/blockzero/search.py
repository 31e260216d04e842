"""Decision procedures: avoidance-tree DFS, periodic-witness mining, and
the constructive solver for x + r*y = 0, x*y^r = 1 over a prime field.

The avoidance tree of words with no vanishing m-window is finite exactly
when the family is m-vanishing, so an exhausted DFS is a proof and its
maximal depth plus one is the exact threshold.  The DFS works on the
family's block states (FunctionalFamily.block_state/extend/vanishes), not
on a Word: every distinct state is expanded once into its successors and
the set of symbols whose extension vanishes, so a node finds all of its
forbidden children with a few bitmask ORs instead of scanning windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .families import FunctionalFamily
from .ring import ModulusContext, PreconditionError, is_cubic_residue, is_prime, sqrt_3mod4
from .verify import AVOIDING, verify_periodic
from .words import PeriodicWord, min_rotation

EXHAUSTED = "exhausted"
CAP_REACHED = "cap_reached"


class InternalInvariantError(AssertionError):
    """A constructive path produced a value failing its defining equations."""


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # EXHAUSTED | CAP_REACHED
    threshold: int | None
    longest_word: tuple[int, ...]
    nodes_expanded: int
    cap: int
    budget_exhausted: bool = False


def longest_avoiding_word(
    ctx: ModulusContext,
    fam: FunctionalFamily,
    m: int,
    cap: int,
    max_nodes: int | None = None,
    deadline: float | None = None,
) -> SearchOutcome:
    """DFS over the avoidance tree in ascending symbol order.

    Exhausted: the tree is finite; threshold is 1 + the maximal depth and
    longest_word is the first word found at that depth.  Cap or budget
    exhaustion yields CapReached with the deepest avoiding frontier found.

    A node keeps the block states of its suffixes, interned as ids; each
    id gets, on first use, a row of successor ids and a mask of the
    symbols whose extension vanishes.  Child a ends a vanishing window of
    block length l iff the m - 1 earlier blocks vanish and bit a of the
    length-(l - 1) suffix's mask is set.  For m = 1 the forbidden children
    are the OR of the masks over the set of suffix states; for m >= 2 the
    earlier blocks are read from per-depth bitmasks of vanishing lengths.
    """
    if cap < 2:
        raise PreconditionError(f"cap must be >= 2, got {cap}")
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    n = ctx.n
    ids: dict[tuple[int, ...], int] = {}
    states: list[tuple[int, ...]] = []
    rows: list[list[int] | None] = []  # rows[i][a]: id of state i extended by a
    masks: list[int] = []  # bit a: the extension of state i by a vanishes

    def intern(st: tuple[int, ...]) -> int:
        i = ids.get(st)
        if i is None:
            i = ids[st] = len(states)
            states.append(st)
            rows.append(None)
            masks.append(0)
        return i

    def expand(i: int) -> list[int]:
        row, mask = [], 0
        for a in range(n):
            nxt = fam.extend(states[i], a)
            row.append(intern(nxt))
            if fam.vanishes(nxt):
                mask |= 1 << a
        rows[i], masks[i] = row, mask
        return row

    singles = [intern(fam.block_state(a)) for a in range(n)]
    word: list[int] = []
    # vanishing[d]: bit l set iff the length-l block ending at depth d vanishes
    vanishing = [0]
    best, best_word, nodes, stop = 0, (), 0, None
    check_every = 2048

    def enter() -> bool:
        """Count the node; False when a stop condition ends the search."""
        nonlocal best, best_word, nodes, stop
        nodes += 1
        L = len(word)
        if L > best:
            best, best_word = L, tuple(word)
        if L >= cap:
            stop = "cap"
        elif max_nodes is not None and nodes >= max_nodes:
            stop = "budget"
        elif deadline is not None and nodes % check_every == 0 and time.monotonic() > deadline:
            stop = "budget"
        return stop is None

    def dfs_set(suffixes) -> None:
        # m = 1: only the set of suffix states matters
        if not enter():
            return
        forbidden = 0
        srows = []
        for i in suffixes:
            srows.append(rows[i] or expand(i))
            forbidden |= masks[i]
        for a in range(n):
            if forbidden >> a & 1:
                continue
            child = {row[a] for row in srows}
            child.add(singles[a])
            word.append(a)
            dfs_set(child)
            word.pop()
            if stop:
                return

    def dfs_list(suffixes: list[int]) -> None:
        # suffixes[k]: the state of the length-(k + 1) suffix
        if not enter():
            return
        srows = [rows[i] or expand(i) for i in suffixes]
        L1 = len(word) + 1
        forbidden = 0
        for l in range(2, L1 // m + 1):
            bit = 1 << l
            if all(vanishing[L1 - j * l] & bit for j in range(1, m)):
                forbidden |= masks[suffixes[l - 2]]
        for a in range(n):
            if forbidden >> a & 1:
                continue
            v = 0
            for k, i in enumerate(suffixes, 2):
                if masks[i] >> a & 1:
                    v |= 1 << k
            word.append(a)
            vanishing.append(v)
            dfs_list([singles[a]] + [row[a] for row in srows])
            vanishing.pop()
            word.pop()
            if stop:
                return

    if m == 1:
        dfs_set(())
    else:
        dfs_list([])
    if stop is None:
        return SearchOutcome(EXHAUSTED, best + 1, best_word, nodes, cap)
    return SearchOutcome(
        CAP_REACHED, None, best_word, nodes, best, budget_exhausted=(stop == "budget")
    )


@dataclass(frozen=True)
class MineResult:
    witnesses: tuple
    complete: bool  # False when the deadline or the limit stopped the enumeration
    candidates_checked: int


def _necklaces(symbols: tuple[int, ...], P: int):
    """Every necklace of length P over the sorted symbols, as its
    lexicographically least rotation, non-primitive ones included, in
    lexicographic order.

    This is the iterative FKM algorithm (Fredricksen & Maiorana 1978;
    Ruskey, Savage & Wang 1992): bump the last index below the top and
    repeat the first j + 1 indices to length P.  That walks the
    prenecklaces in order, and a prenecklace whose period p divides P is
    a necklace."""
    k = len(symbols)
    a = [0] * P
    p = 1
    while True:
        if P % p == 0:
            yield tuple([symbols[i] for i in a])
        j = P - 1
        while j >= 0 and a[j] == k - 1:
            j -= 1
        if j < 0:
            return
        a[j] += 1
        p = j + 1
        for i in range(p, P):
            a[i] = a[i - p]


def mine_witness(
    ctx: ModulusContext,
    fam: FunctionalFamily,
    m: int,
    p_max: int,
    deadline: float | None = None,
    alphabet=None,
    limit: int | None = None,
) -> MineResult:
    """Enumerate canonical necklaces of period <= p_max and keep every one
    whose infinite repetition is certified avoiding.

    Necklaces are generated directly, in lexicographic order, and go to
    verify_periodic, which stops at the first vanishing window, so most
    candidates are refuted after a few block lengths.  A necklace and its
    mirror image (the reversed period) share their verdict: every family's
    block value is a symmetric function of the block's symbols, so a block
    and its reversal vanish together, and reversing the periodic word maps
    each m-window of blocks of length l to one of the mirror's.  So a
    necklace whose mirror is smaller, and hence already enumerated, is
    skipped when the mirror was refuted, and verified for its own
    certificate when the mirror avoids; it still counts as checked.

    alphabet is the set of symbols tried (e.g. nonzero residues, or the
    residues below a divisor of n); it is reduced mod n, and order and
    repeats do not matter.  The result is incomplete (complete=False) when
    the deadline passes or when limit witnesses have been found before the
    enumeration ends.
    """
    if p_max < 1:
        raise PreconditionError(f"p_max must be >= 1, got {p_max}")
    n = ctx.n
    symbols = tuple(sorted({a % n for a in alphabet})) if alphabet is not None else tuple(range(n))
    if not symbols:
        raise PreconditionError("alphabet must be nonempty")
    witnesses = []
    checked = 0
    for P in range(1, p_max + 1):
        avoiding = set()
        for t in _necklaces(symbols, P):
            if deadline is not None and time.monotonic() > deadline:
                return MineResult(tuple(witnesses), False, checked)
            checked += 1
            mirror = min_rotation(t[::-1])
            if mirror < t and mirror not in avoiding:
                continue  # the mirror was refuted, so t is too
            pw = PeriodicWord(t, n)
            cert = verify_periodic(pw, fam, m)
            if cert.verdict == AVOIDING:
                avoiding.add(t)
                witnesses.append((pw, cert))
                if limit is not None and len(witnesses) >= limit:
                    return MineResult(tuple(witnesses), False, checked)
    return MineResult(tuple(witnesses), True, checked)


@dataclass(frozen=True)
class XYRSolution:
    p: int
    x: int
    y: int
    r: int
    method: str  # "cubic-residue" | "discriminant" | "brute-force"


def _validate_xyr(p: int, x: int, y: int, r: int) -> bool:
    return x % p != 0 and y % p != 0 and (x + r * y) % p == 0 and x * pow(y, r, p) % p == 1


def xyr_solve(p: int, method: str = "constructive") -> XYRSolution:
    """Nonzero x, y and r in {2, 3} with x + r*y = 0 and x*y^r = 1 mod p.

    Constructive path: a cube root of 4 gives r = 2; otherwise -3 is a
    square and x = (3z)^((p+1)/4) gives r = 3.  The result is always
    validated against the defining equations.
    """
    if not is_prime(p) or p % 4 != 3 or p <= 3:
        raise PreconditionError(f"p must be a prime > 3 with p = 3 mod 4, got {p}")
    if method == "brute-force":
        for r in (2, 3):
            for x in range(1, p):
                y = (-x * pow(r, -1, p)) % p
                if y and x * pow(y, r, p) % p == 1:
                    return XYRSolution(p, x, y, r, "brute-force")
        raise InternalInvariantError(f"no solution found by brute force for p={p}")
    if method != "constructive":
        raise PreconditionError(f"unknown method {method!r}")
    if is_cubic_residue(4, p):
        x = min(t for t in range(1, p) if pow(t, 3, p) == 4)
        y = (-x * pow(2, -1, p)) % p
        r = 2
        how = "cubic-residue"
    else:
        z = sqrt_3mod4(-3 % p, p)
        if z is None:
            raise InternalInvariantError(f"-3 must be a square mod {p} when 4 is not a cube")
        x = pow(3 * z % p, (p + 1) // 4, p)
        y = (-x * pow(3, -1, p)) % p
        r = 3
        how = "discriminant"
    if not _validate_xyr(p, x, y, r):
        raise InternalInvariantError(f"constructive xyr solution failed validation for p={p}")
    return XYRSolution(p, x, y, r, how)


def build_xyr_witness(sol: XYRSolution) -> PeriodicWord:
    """The period (x, y, ..., y) with r copies of y, over Z_p."""
    if not _validate_xyr(sol.p, sol.x, sol.y, sol.r):
        raise PreconditionError("invalid xyr solution")
    return PeriodicWord((sol.x,) + (sol.y,) * sol.r, sol.p)
