"""Independent oracles used to freeze expected values.

Everything here is deliberately naive and self-contained: plain folds,
breadth-first enumeration, subset expansion.  Nothing imports the package
internals whose answers these oracles are checking.  The family probes at
the end (vanishing_pairs, newton_implication_check) are test-only code that
calls a family's value.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import prod

from blockzero.families import elementary_symmetric_family, power_sums
from blockzero.ring import PreconditionError


def naive_block_sum(symbols, n, table=None):
    if table is None:
        return sum(symbols) % n
    return sum(table[s] for s in symbols) % n


def naive_block_product(symbols, n):
    return prod(symbols) % n


def naive_f_c(symbols, n, c):
    return (naive_block_sum(symbols, n) + c * naive_block_product(symbols, n)) % n


def naive_elementary_symmetric(symbols, r, n):
    if r > len(symbols):
        return 0
    return sum(prod(sub) for sub in combinations(symbols, r)) % n


def has_vanishing_window(word, n, c, m, ending_at=None):
    """Naive scan for an all-zero m-window of the sum-plus-c-product family."""
    L = len(word)
    positions = [L] if ending_at else range(2 * m, L + 1)
    for end in positions:
        for l in range(2, end // m + 1):
            s = end - m * l
            if s < 0:
                continue
            if all(naive_f_c(word[s + j * l : s + (j + 1) * l], n, c) == 0 for j in range(m)):
                return True
    return False


def bfs_threshold(n, c, m, max_len=64, max_level=2_000_000):
    """Breadth-first search for the minimal L such that every word of
    length L contains a vanishing m-window.  Returns (threshold, one
    maximal avoiding word)."""
    level = [()]
    for L in range(1, max_len + 1):
        nxt = []
        for w in level:
            for a in range(n):
                w2 = w + (a,)
                if not has_vanishing_window(w2, n, c, m, ending_at=True):
                    nxt.append(w2)
        if not nxt:
            return L, level[0]
        if len(nxt) > max_level:
            raise RuntimeError(f"oracle blowup at length {L}")
        level = nxt
    raise RuntimeError(f"no threshold up to length {max_len}")


def bfs_threshold_tables(n, tables, m, max_len=64):
    """Same oracle for vector-valued transformation-sum families."""

    def window_ok(w2):
        L = len(w2)
        for l in range(2, L // m + 1):
            s = L - m * l
            for j in range(m):
                blk = w2[s + j * l : s + (j + 1) * l]
                if all(naive_block_sum(blk, n, t) == 0 for t in tables):
                    continue
                break
            else:
                return False
        return True

    level = [()]
    for L in range(1, max_len + 1):
        nxt = [w + (a,) for w in level for a in range(n) if window_ok(w + (a,))]
        if not nxt:
            return L, level[0]
        level = nxt
    raise RuntimeError(f"no threshold up to length {max_len}")


def unroll(period, length):
    """The first length symbols of the repetition of period."""
    return (tuple(period) * (length // len(period) + 1))[:length]


def first_vanishing_window(period, m, max_l, vanishes):
    """The first window (s, l) in (l, s) order, with s < len(period) and
    2 <= l <= max_l, whose m blocks all vanish on the unrolled periodic
    word, or None.  vanishes(block) folds one block of symbols."""
    P = len(period)
    word = tuple(period) * ((m * max_l) // P + 2)
    for l in range(2, max_l + 1):
        for s in range(P):
            if all(vanishes(word[s + j * l : s + (j + 1) * l]) for j in range(m)):
                return s, l
    return None


def vanishing_windows(word, m, vanishes):
    """All windows (s, l) of a finite word in (l, s) order, with l >= 2,
    whose m blocks all vanish.  vanishes(block) folds one block of
    symbols."""
    L = len(word)
    return [
        (s, l)
        for l in range(2, L // m + 1)
        for s in range(L - m * l + 1)
        if all(vanishes(word[s + j * l : s + (j + 1) * l]) for j in range(m))
    ]


def naive_value(desc, symbols, n):
    """The value vector, by plain folds, of the family with this
    descriptor (the dict of FunctionalFamily.to_descriptor) on a block."""
    kind = desc["kind"]
    if kind == "sum_plus_c_prod":
        return (naive_f_c(symbols, n, desc["c"]),)
    if kind == "elementary_symmetric":
        return (naive_elementary_symmetric(symbols, desc["r"], n),)
    if kind == "power_sums":
        tables = [[x**k % n for x in range(n)] for k in range(1, desc["r"] + 1)]
    else:
        tables = desc["tables"]
    return tuple(naive_block_sum(symbols, n, t) for t in tables)


def naive_vanishing_mask(desc, blocks, n):
    """Bit t set iff blocks[t] has the zero value: each block folded
    plainly by naive_value, its symbols read mod n."""
    return sum(
        1 << t
        for t, block in enumerate(blocks)
        if not any(naive_value(desc, [a % n for a in block], n))
    )


def xyr_brute_force(p):
    """The first (x, y, r), r in (2, 3) and then x ascending, of nonzero
    residues with x + r*y = 0 and x*y^r = 1 mod p, found by trying every
    x; None if there is none."""
    for r in (2, 3):
        for x in range(1, p):
            y = -x * pow(r, -1, p) % p
            if y and x * pow(y, r, p) % p == 1:
                return x, y, r
    return None


class Lcg:
    """Tiny deterministic generator: fixed enumeration order, no randomness
    beyond the seed."""

    def __init__(self, seed=0x2545F491):
        self.state = seed & 0xFFFFFFFF

    def next(self) -> int:
        self.state = (1103515245 * self.state + 12345) & 0xFFFFFFFF
        return self.state >> 16

    def below(self, bound: int) -> int:
        return self.next() % bound


class _Cycle(Exception):
    """Raised with the period of the cycle suffix_set_walk closes."""


def suffix_set_walk(n, c):
    """The m = 1 walk of F_c mod n on sets of suffix values, plainly.

    A word's set holds (block sum, c * block product mod n) of each of its
    nonempty suffixes, folded afresh from the word; a symbol a is forbidden
    iff some suffix u has naive_f_c(u + (a,)) == 0.  A recursive DFS enters
    each new set once, symbols ascending, with one memo: ~depth while a set
    is on the path, then its longest path.  An arc to a set on the path
    closes a cycle.  Returns (entered, end): entered lists each set's word,
    in the order the walk enters them, and whether it is a dead end (every
    symbol forbidden); end is ("cycle", period) or ("exhausted", the
    lexicographically first longest word)."""

    def values(word):
        return frozenset(
            (naive_block_sum(word[i:], n), c * naive_block_product(word[i:], n) % n)
            for i in range(len(word))
        )

    def allowed(word):
        return [
            a for a in range(n)
            if not any(naive_f_c(word[i:] + (a,), n, c) == 0 for i in range(len(word)))
        ]

    longest, entered = {}, []

    def walk(word):
        longest[values(word)] = ~len(word)
        todo = allowed(word)
        entered.append((word, not todo))
        best = 0
        for a in todo:
            done = longest.get(values(word + (a,)))
            if done is None:
                done = walk(word + (a,))
            elif done < 0:
                raise _Cycle(word[~done:] + (a,))
            best = max(best, done + 1)
        longest[values(word)] = best
        return best

    try:
        walk(())
    except _Cycle as cycle:
        return entered, ("cycle", cycle.args[0])
    word = ()
    while longest[values(word)]:
        want = longest[values(word)] - 1
        word += (min(a for a in allowed(word) if longest[values(word + (a,))] == want),)
    return entered, ("exhausted", word)


def necklaces(symbols, P):
    """Every word of length P over the symbols that is its own least
    rotation, in lexicographic order: the filtered product."""
    symbols = sorted(symbols)
    return [
        t for t in product(symbols, repeat=P)
        if t == min(t[i:] + t[:i] for i in range(P))
    ]


def count_necklaces(k, P):
    """The number of rotation classes of the k**P words of length P over k
    symbols, counted by marking each class's words as base-k integers."""
    seen, top, count = bytearray(k**P), k ** (P - 1), 0
    for w in range(k**P):
        if seen[w]:
            continue
        count += 1
        for _ in range(P):
            seen[w] = 1
            w = w % top * k + w // top
    return count


# Probes of a family's values that only the tests use.  Unlike the oracles
# above they call the package (FunctionalFamily.value), which is what they
# check.


def output_dim(fam):
    """The length of a value vector of fam."""
    return len(fam.tables) if fam.tables else 1


def vanishing_pairs(fam):
    """All pairs (a, b) with f^(2)(a, b) == 0, for scalar families."""
    if output_dim(fam) != 1:
        raise PreconditionError("vanishing_pairs requires a scalar-valued family")
    n = fam.ctx.n
    return {(a, b) for a in range(n) for b in range(n) if fam.value((a, b)) == (0,)}


@dataclass(frozen=True)
class NewtonReport:
    status: str  # "holds" | "counterexample" | "partial"
    counterexample: tuple | None
    blocks_checked: int
    max_len: int


def newton_implication_check(ctx, r, max_len, budget=2_000_000):
    """Search for a block whose first r power sums all vanish mod n while
    e_r does not.

    Enumerates all blocks of length 2..max_len in lexicographic order and
    returns the first counterexample, "holds" if none exists, or a partial
    status once the evaluation budget runs out.
    """
    if r < 1 or max_len < r:
        raise PreconditionError(f"need r >= 1 and max_len >= r, got r={r}, max_len={max_len}")
    sums, e_r = power_sums(ctx, r), elementary_symmetric_family(ctx, r)
    checked = 0
    for length in range(2, max_len + 1):
        for block in product(range(ctx.n), repeat=length):
            checked += 1
            if checked > budget:
                return NewtonReport("partial", None, checked - 1, max_len)
            if not any(sums.value(block)) and e_r.value(block) != (0,):
                return NewtonReport("counterexample", block, checked, max_len)
    return NewtonReport("holds", None, checked, max_len)
