"""Decision procedures: avoidance-tree DFS, periodic-witness mining, and
the constructive solver for x + r*y = 0, x*y^r = 1 over a prime field.

The avoidance tree of words with no vanishing m-window is finite exactly
when the family is m-vanishing, so an exhausted DFS is a proof and its
maximal depth plus one is the exact threshold.  The DFS works on the
family's block states (the vector hook FunctionalFamily.block_states/
extend_all/vanishing_mask), not on the word: every distinct state is
expanded once, by one extend_all call, into its n successors, whose
vanishing_mask is the set of symbols whose extension vanishes.  One
kernel serves every m: a node keeps, per distinct suffix state, the
bitmask of the suffix lengths in that state (a column), and a per-depth
diagonal of the block lengths whose m - 1 earlier blocks vanish, so it
finds all of its forbidden children with one read and an OR per column
instead of scanning windows.  At m = 1 suffix_set_search folds the tree into a
graph on the sets of suffix states and decides either way: a cycle is a
periodic witness, and an exhausted graph gives the exact threshold.  Every
outcome names its stop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd
from operator import getitem, or_

from .families import FunctionalFamily
from .ring import ModulusContext, PreconditionError, is_cubic_residue, is_prime, sqrt_3mod4
from .verify import AVOIDING, Certificate, verify_periodic
from .words import PeriodicWord, min_rotation

EXHAUSTED = "exhausted"
CAP_REACHED = "cap_reached"


class InternalInvariantError(AssertionError):
    """A constructive path produced a value failing its defining equations."""


def from_record(cls, d: dict):
    """The dataclass cls built again from the record d of its to_dict.  A
    derived (init=False) field of d that disagrees with the new record's
    raises ValueError; a missing field KeyError or TypeError."""
    d = dict(d)
    recorded = {f.name: d.pop(f.name) for f in fields(cls) if not f.init}
    obj = cls(**d)
    if any(getattr(obj, k) != v for k, v in recorded.items()):
        raise ValueError(f"{cls.__name__} record {recorded} disagrees with its proof")
    return obj


@dataclass(frozen=True)
class SearchOutcome:
    """What a search settled.  stop says why it ended: "exhausted" (the
    threshold is exact), "cap" (a word reached the cap, so the cap is
    len(longest_word)), or the budget that ran out: "nodes", "sets"
    (suffix_set_search's count) or "deadline".  status (EXHAUSTED or
    CAP_REACHED), threshold (one past the longest word when exhausted,
    else None) and budget_exhausted are read off stop."""

    status: str = field(init=False)  # EXHAUSTED | CAP_REACHED
    threshold: int | None = field(init=False)
    longest_word: tuple[int, ...]
    nodes_expanded: int
    stop: str
    budget_exhausted: bool = field(init=False)

    def __post_init__(self):
        exhausted = self.stop == EXHAUSTED
        object.__setattr__(self, "status", EXHAUSTED if exhausted else CAP_REACHED)
        object.__setattr__(self, "threshold", len(self.longest_word) + 1 if exhausted else None)
        object.__setattr__(self, "budget_exhausted", self.stop in ("nodes", "sets", "deadline"))

    def to_dict(self) -> dict:
        return {**vars(self), "longest_word": list(self.longest_word)}

    @classmethod
    def from_dict(cls, d: dict) -> "SearchOutcome":
        """The record to_dict wrote.  A malformed record raises KeyError,
        TypeError or ValueError: a missing field, an unknown key, or a
        status, threshold or budget_exhausted that disagrees with its
        stop and longest word."""
        return from_record(cls, {**d, "longest_word": tuple(d["longest_word"])})


class _StateTable:
    """A family's block states interned as ids 0, 1, ...: each id gets, on
    first use (expand), a row of successor ids (rows[i][a]: state i
    extended by a) and a mask of the symbols whose extension vanishes.
    singles[a] is the id of the one-symbol block (a)."""

    def __init__(self, fam: FunctionalFamily):
        self.fam, self.n = fam, fam.ctx.n
        self.ids: dict[tuple[int, ...], int] = {}
        self.states: list[tuple[int, ...]] = []
        self.rows: list[list[int] | None] = []
        self.masks: list[int] = []
        self.singles = [self.intern(st) for st in fam.block_states(range(self.n))]

    def intern(self, st: tuple[int, ...]) -> int:
        i = self.ids.get(st)
        if i is None:
            i = self.ids[st] = len(self.states)
            self.states.append(st)
            self.rows.append(None)
            self.masks.append(0)
        return i

    def expand(self, i: int) -> list[int]:
        succ = self.fam.extend_all([self.states[i]] * self.n, range(self.n))
        row = [self.intern(st) for st in succ]
        self.rows[i], self.masks[i] = row, self.fam.vanishing_mask(succ)
        return row


def longest_avoiding_word(
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

    A node keeps columns: each distinct suffix state (an id in a
    _StateTable) maps to the bitmask of the suffix lengths in it, so a
    child shifts every column by one and merges them by successor state
    (Shift-And bit parallelism).  Child a ends a vanishing window of block
    length l iff bit a of the length-(l - 1) suffix's mask is set and bit
    l of ends[depth + 1] is: the m - 1 earlier blocks vanish (every l at
    m = 1).  ends is the last of m - 1 diagonals that each vanishing block
    feeds until the search backtracks past it.  The stack is explicit, so
    the cap does not meet Python's recursion limit; the deadline is read
    at the root and then every 2,048 nodes.
    """
    if cap < 2:
        raise PreconditionError(f"cap must be >= 2, got {cap}")
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    n = fam.ctx.n
    table = _StateTable(fam)
    rows, masks, expand, singles = table.rows, table.masks, table.expand, table.singles
    word: list[int] = []
    # diags[j][d]: bit l iff the j + 1 length-l blocks ending at d - l,
    # d - 2l, ... vanish; a vanishing block at depth d sets bit l of
    # diags[j][d + l] (d + l <= 2 * cap) for every j its run reaches
    diags = [[0] * (2 * cap + 1) for _ in range(m - 1)]
    ends = diags[-1] if diags else [-1] * (cap + 1)
    fed: list[list] = [[]]  # per depth, the (diagonal, lengths) it set

    def toggle(d: int) -> None:
        for diag, w in fed[d]:
            while w:
                bit = w & -w
                w ^= bit
                diag[d + bit.bit_length() - 1] ^= bit

    stack: list[tuple] = []  # (shifted columns, remaining children) of each parent
    limit = max_nodes if max_nodes is not None else float("inf")
    best, best_word, nodes = 0, (), 0
    cols: dict[int, int] = {}  # the empty word: no suffixes
    while True:
        nodes += 1
        L = len(word)
        if L > best:
            best, best_word = L, tuple(word)
        if L >= cap or nodes >= limit or (
            deadline is not None
            and (nodes == 1 or nodes % 2048 == 0)
            and time.monotonic() > deadline
        ):
            stop = "cap" if L >= cap else "nodes" if nodes >= limit else "deadline"
            return SearchOutcome(best_word, nodes, stop)
        # each column shifted to the lengths of the child's blocks
        E, forbidden, shifted = ends[L + 1], 0, []
        for i, col in cols.items():
            row, col = rows[i] or expand(i), col << 1
            if col & E:
                forbidden |= masks[i]
            shifted.append((row, col, masks[i]))
        todo = iter([a for a in range(n) if not forbidden >> a & 1])
        while (a := next(todo, None)) is None:
            if not stack:
                return SearchOutcome(best_word, nodes, EXHAUSTED)
            toggle(len(word))
            fed.pop()
            word.pop()
            shifted, todo = stack.pop()
        cols, vanish = {singles[a]: 2}, 0
        for row, col, mask in shifted:
            j = row[a]
            cols[j] = cols.get(j, 0) | col
            if mask >> a & 1:
                vanish |= col
        stack.append((shifted, todo))
        word.append(a)
        fed.append([])
        for diag in diags:
            fed[-1].append((diag, vanish))
            vanish &= diag[len(word)]
        toggle(len(word))


@dataclass(frozen=True)
class SuffixSetResult:
    """What suffix_set_search settled: certificate when it closed a cycle
    (an avoiding period), and otherwise outcome: EXHAUSTED with the exact
    threshold when it explored every reachable state, or a budget stop
    with the deepest path it walked."""

    states: int
    outcome: SearchOutcome | None = None
    certificate: Certificate | None = None


def suffix_set_search(
    fam: FunctionalFamily,
    max_nodes: int | None = None,
    deadline: float | None = None,
) -> SuffixSetResult:
    """Decide m = 1 exactly on the graph of suffix-state sets.

    At m = 1 an avoiding word's extensions depend only on the set of block
    states of its suffixes: symbol a is forbidden iff some state's
    extension by a vanishes, and otherwise the child's set is every
    state extended by a plus the one-symbol block (a).  So the avoidance
    tree folds into a graph on these sets (the subset construction), which
    an iterative DFS walks as a lasso search:

    - an edge back to a set on the current path closes a cycle; the
      symbols read since that set form a period v, and u·v^ω avoids, so
      v^ω does too.  The result carries v's AVOIDING certificate.
    - when every reachable set is finished, the longest path from the
      root plus one is the exact threshold, and the longest word (ascending
      symbol order, as the tree DFS finds it) is read off the memo.

    A set is an int bitmask over the ids of the closure of the one-symbol
    states.  Per-byte tables give, for each 8 ids, the OR of their
    vanishing masks, child bits and children's vanishing masks under every
    symbol, packed in one int.  A set's acc ORs one entry per byte of its
    mask with the one-symbol blocks' bits: its forbidden symbols sit above
    the child masks and each child's above those, so child a, acc >> a*K &
    full, is computed when the walk reads that arc, and a new child that
    forbids every symbol (a dead end) is finished on entry, with no acc.
    One memo serves the path and the finished sets: longest[S] is ~depth
    (negative) while S is on the path, so an arc to S closes a cycle whose
    period starts at word[~depth:], and then S's longest path.  Each set
    entered counts against max_nodes; no cap applies, since a proof does
    not depend on depth.  A budget stop is a CAP_REACHED outcome with stop
    "sets" or "deadline", the sets entered as its node count, and the
    first longest word the search walked.
    """
    n = fam.ctx.n
    table = _StateTable(fam)
    i = 0
    while i < len(table.states):  # the closure of the one-symbol states
        table.expand(i)
        i += 1
    K, masks = len(table.states), table.masks
    top = n * K  # the vanishing mask sits above the n packed child masks
    full, nfull, nbytes = (1 << K) - 1, (1 << n) - 1, (K + 7) // 8

    def entry(row: list[int]) -> int:  # row's child bits and their vanishing masks
        return sum(1 << (a * K + j) | masks[j] << (top + n + a * n) for a, j in enumerate(row))

    packed = [entry(row) | mask << top for row, mask in zip(table.rows, masks)]
    packed += [0] * (8 * nbytes - K)  # the last byte's padding
    byte_tables = []
    for k in range(nbytes):
        t = [0] * 256
        for b in range(1, 256):
            low = b & -b
            t[b] = t[b ^ low] | packed[8 * k + low.bit_length() - 1]
        byte_tables.append(t)

    singles = entry(table.singles)
    allowed_by_mask: dict[int, list[tuple[int, int, int]]] = {}

    def arcs(acc: int) -> list[tuple[int, int, int]]:
        """The (a, shift of a's child, shift of its forbidden mask) arcs a
        set with this acc allows, kept by forbidden mask for the first
        4,096 masks met, so the cache stays small at large n."""
        forbidden = acc >> top & nfull
        allowed = [(a, a * K, top + n + a * n) for a in range(n) if not forbidden >> a & 1]
        if len(allowed_by_mask) < 4096:
            allowed_by_mask[forbidden] = allowed
        return allowed

    # the running maximum of a set on the path is kept in best (in its
    # stack entry while a child is searched), not in longest
    longest = {0: ~0}
    word: list[int] = []
    deepest: tuple[int, ...] = ()  # the first longest word on the path so far
    stack: list[tuple] = []  # (set, acc, remaining arcs, best) of each parent of S
    limit = max_nodes if max_nodes is not None else float("inf")
    S, best, acc = 0, 0, singles  # the empty word: no suffixes, so no byte-table bits
    todo = iter(arcs(acc))
    depth, deep, states = 0, 0, 1  # len(word), len(deepest) and len(longest)
    # the deadline is read at the root and then every 64 sets: a search that
    # starts late does no work, and one that runs past it overshoots < 1 ms
    stop = None
    if limit <= 1 or (deadline is not None and time.monotonic() > deadline):
        stop = "sets" if limit <= 1 else "deadline"
    while stop is None:
        for a, shift, dead in todo:
            child = acc >> shift & full
            done = longest.get(child)
            if done is None:
                states += 1
                if depth == deep:
                    deep, deepest = deep + 1, (*word, a)
                if states >= limit:
                    stop = "sets"
                elif states % 64 == 0 and deadline is not None and time.monotonic() > deadline:
                    stop = "deadline"
                if acc >> dead & nfull != nfull:
                    stack.append((S, acc, todo, best))
                    word.append(a)
                    S, best, depth = child, 0, depth + 1
                    acc = reduce(or_, map(getitem, byte_tables, S.to_bytes(nbytes, "little")), singles)
                    todo = iter(allowed_by_mask.get(acc >> top & nfull) or arcs(acc))
                    longest[S] = ~depth
                    break
                longest[child], best = 0, best or 1  # a dead end: entered and finished
                if stop is not None:
                    break
                continue
            if done < 0:
                period = tuple(word[~done:]) + (a,)
                cert = verify_periodic(PeriodicWord(period, n), fam, 1)
                if cert.verdict != AVOIDING:
                    raise InternalInvariantError(
                        f"cycle period {period} is {cert.verdict} at m = 1"
                    )
                return SuffixSetResult(states, certificate=cert)
            if done >= best:
                best = done + 1
        else:
            longest[S] = best
            if not stack:
                break
            word.pop()
            done, depth = best, depth - 1
            S, acc, todo, best = stack.pop()
            if done >= best:
                best = done + 1
    if stop is not None:
        outcome = SearchOutcome(deepest, states, stop)
    else:
        # the lexicographically first longest word: the smallest symbol
        # whose child keeps the maximum, from the root down
        best_word, S = [], 0
        while longest[S]:
            acc = reduce(or_, map(getitem, byte_tables, S.to_bytes(nbytes, "little")), singles)
            want = longest[S] - 1
            a, S = next((a, ch) for a, shift, _ in arcs(acc) if longest[ch := acc >> shift & full] == want)
            best_word.append(a)
        outcome = SearchOutcome(tuple(best_word), states, EXHAUSTED)
    return SuffixSetResult(states, outcome=outcome)


@dataclass(frozen=True)
class MineResult:
    witnesses: tuple
    complete: bool  # False when the deadline or the limit stopped the enumeration
    candidates_checked: int
    verified: int  # the candidates verify_periodic saw: none refuted by a class or a mirror


def _necklace_count(k: int, P: int) -> int:
    """The number of necklaces of length P over k symbols, by Burnside's lemma."""
    return sum(k ** gcd(i, P) for i in range(P)) // P


def _necklaces(content: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every necklace with this content (a sorted tuple, each symbol as
    often as the necklace holds it) as its least rotation, non-primitive
    ones included, in lexicographic order: the FKM recursion with fixed
    content (Ruskey, Savage & Wang 1992; Sawada 2003).  From the least
    symbol, a prenecklace of period p grows at t by each symbol j >= a[t - p]
    left, keeping p iff j == a[t - p]; it is a necklace iff p divides P."""
    symbols = sorted(set(content))
    left = [content.count(x) for x in symbols]
    P, a, out = len(content), [0] * len(content), []

    def extend(t: int, p: int) -> None:
        if t == P:
            if P % p == 0:
                out.append(tuple([symbols[i] for i in a]))
            return
        for j in range(a[t - p], len(symbols)):
            if left[j]:
                a[t], left[j] = j, left[j] - 1
                extend(t + 1, p if j == a[t - p] else t + 1)
                left[j] += 1

    left[0] -= 1
    extend(1, 1)
    return out


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

    The walk goes by content class, one length P at a time: each multiset
    of P symbols is tested once by fam.whole_periods_vanish (it reads only
    the sum, the product and whether P = 1), which refutes every necklace
    of a class for every m: a block of k whole periods vanishes.  The
    surviving classes' necklaces are generated, sorted and verified by
    verify_periodic.  A necklace shares its verdict with its mirror (the
    period reversed: same content), as block values are symmetric; a
    verified one records its later mirror, which is then skipped if
    refuted, or verified for its own certificate if it avoids.

    candidates_checked counts each P's refuted necklaces at once (by
    Burnside's count, none generated), then its survivors one by one, so
    a stop among P's survivors has counted all of P's refuted ones.
    alphabet is the set of symbols tried, reduced mod n.  The result is
    incomplete (complete=False) when the deadline passes or limit
    witnesses are found before the enumeration ends.  ctx must be fam.ctx.
    """
    if ctx != fam.ctx:
        raise PreconditionError(f"{ctx} is not the family's modulus {fam.ctx}")
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    if p_max < 1:
        raise PreconditionError(f"p_max must be >= 1, got {p_max}")
    if limit is not None and limit < 1:
        raise PreconditionError(f"limit must be >= 1, got {limit}")
    n = ctx.n
    symbols = tuple(sorted({a % n for a in alphabet})) if alphabet is not None else tuple(range(n))
    if not symbols:
        raise PreconditionError("alphabet must be nonempty")
    whole_periods_vanish = fam.whole_periods_vanish
    witnesses = []
    checked = verified = 0
    for P in range(1, p_max + 1):
        survivors = []
        for content in combinations_with_replacement(symbols, P):
            if deadline is not None and time.monotonic() > deadline:
                return MineResult(tuple(witnesses), False, checked, verified)
            if not whole_periods_vanish(content):
                survivors += _necklaces(content)
        survivors.sort()
        checked += _necklace_count(len(symbols), P) - len(survivors)
        known: dict[tuple[int, ...], bool] = {}  # later mirror -> whether it avoids
        for t in survivors:
            if deadline is not None and time.monotonic() > deadline:
                return MineResult(tuple(witnesses), False, checked, verified)
            checked += 1
            avoids = known.pop(t, None)
            if avoids is False:
                continue  # refuted by its smaller mirror
            pw = PeriodicWord(t, n)
            cert = verify_periodic(pw, fam, m)
            verified += 1
            if avoids is None:
                mirror = min_rotation(t[::-1])
                if mirror > t:
                    known[mirror] = cert.verdict == AVOIDING
            if cert.verdict == AVOIDING:
                witnesses.append((pw, cert))
                if limit is not None and len(witnesses) >= limit:
                    return MineResult(tuple(witnesses), False, checked, verified)
    return MineResult(tuple(witnesses), True, checked, verified)


@dataclass(frozen=True)
class XYRSolution:
    p: int
    x: int
    y: int
    r: int
    method: str  # "cubic-residue" | "discriminant"


def _validate_xyr(p: int, x: int, y: int, r: int) -> bool:
    return x % p != 0 and y % p != 0 and (x + r * y) % p == 0 and x * pow(y, r, p) % p == 1


def xyr_solve(p: int) -> XYRSolution:
    """Nonzero x, y and r in {2, 3} with x + r*y = 0 and x*y^r = 1 mod p.

    A cube root of 4 gives r = 2; otherwise -3 is a square and
    x = (3z)^((p+1)/4) gives r = 3.  The result is always validated
    against the defining equations.
    """
    if not is_prime(p) or p % 4 != 3 or p <= 3:
        raise PreconditionError(f"p must be a prime > 3 with p = 3 mod 4, got {p}")
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
