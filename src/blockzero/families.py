"""Block-functional families over Z_n.

Supported shapes: sum plus c times product, transformation sums (possibly
vector-valued), combined power sums, and elementary symmetric polynomials.
Transformations are stored as explicit n-entry tables so families stay
serializable and user-definable from files; power sums are the table sums
of the power tables x -> x^i.

The block-state hook (block_states/extend_all/vanishing_mask) is the one
place that knows what a block's value is.  It is vector-shaped and bound
once per family (_bind_hook), so a scan steps many states per call and the
kind is tested once per family.  The DFS, the set search, the lockstep
periodic scan, the miner, finite-word scans and FunctionalFamily.value
all fold it.  Its fifth member, whole_periods_vanish(period), answers from
the same constants whether a block of k whole copies of a period vanishes
for some k: the miner's refutation before any scan.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from math import gcd, prod

from .ring import ModulusContext, PreconditionError, pow_cycle

SUM_PLUS_C_PROD = "sum_plus_c_prod"
TRANSFORMATION_SUMS = "transformation_sums"
POWER_SUMS = "power_sums"
ELEMENTARY_SYMMETRIC = "elementary_symmetric"


@dataclass(frozen=True)
class FunctionalFamily:
    ctx: ModulusContext
    kind: str
    c: int | None = None
    tables: tuple[tuple[int, ...], ...] | None = None
    r: int | None = None
    _sum_tables: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    # the block-state hook and the value of a state, bound by _bind_hook
    block_states: Callable[[Iterable[int]], list] = field(init=False, repr=False, compare=False)
    extend_all: Callable[[list, Iterable[int]], list] = field(init=False, repr=False, compare=False)
    vanishing_mask: Callable[[list], int] = field(init=False, repr=False, compare=False)
    whole_periods_vanish: Callable[[tuple[int, ...]], bool] = field(init=False, repr=False, compare=False)
    _read: Callable[[tuple[int, ...]], tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.ctx.n
        if self.kind == POWER_SUMS:
            powers = tuple(tuple(pow(x, i, n) for x in range(n)) for i in range(1, self.r + 1))
            object.__setattr__(self, "tables", powers)
        sums = self.tables or ((tuple(range(n)),) if self.kind == SUM_PLUS_C_PROD else ())
        object.__setattr__(self, "_sum_tables", sums)
        names = ("block_states", "extend_all", "vanishing_mask", "whole_periods_vanish", "_read")
        for name, f in zip(names, _bind_hook(self)):
            object.__setattr__(self, name, f)

    def sum_tables(self) -> tuple[tuple[int, ...], ...]:
        """Tables whose running sums fully determine this family's block
        values, or () when no such decomposition exists."""
        return self._sum_tables

    def value(self, symbols) -> tuple[int, ...]:
        """The exact value vector of the family's function on a block of
        l >= 2 symbols."""
        if len(symbols) < 2:
            raise PreconditionError(f"block length must be >= 2, got {len(symbols)}")
        states = self.block_states(symbols[:1])
        for a in symbols[1:]:
            states = self.extend_all(states, (a,))
        return self._read(states[0])

    def to_descriptor(self) -> dict:
        key = FAMILY_PARAMS[self.kind][0]
        value = getattr(self, key)
        return {"kind": self.kind, key: [list(t) for t in value] if key == "tables" else value}


def _bind_hook(fam: FunctionalFamily):
    """fam's (block_states, extend_all, vanishing_mask, whole_periods_vanish,
    read), bound to its kind's constants.  A block's value is read off a
    small state built one symbol (mod n) at a time: (sum, product) for F_c,
    the table sums for transformation and power sums, (e_1..e_r) for e_r.
    extend_all extends states[t] by symbols[t]; bit t of vanishing_mask is
    set iff states[t] has the zero value.  F_c reads the product p only
    through c*p mod n, so its state keeps p mod q = n / gcd(n, c) (for
    c = 0, only the sum is left) and has the value s - zero_sum[p].

    whole_periods_vanish(period) is True iff for some k >= 1 with
    k*len(period) >= 2 a block of k copies of period vanishes.  Values are
    symmetric functions, so every block of length k*P of the periodic word
    (k copies of a rotation) has that value, and the m blocks of the window
    at 0 of length k*P vanish for every m: a refutation of period^infinity
    with no scan.  For F_c the value is k*T + c*g^k with T the period's sum
    mod n and g its product mod q, memoised on (T, g, P == 1); table sums
    vanish at k = n; e_r answers False, so the miner still hands it to
    verify_periodic, which rejects the kind."""
    n = fam.ctx.n
    if fam.kind == SUM_PLUS_C_PROD:
        q = n // gcd(n, fam.c)
        zero_sum = [-fam.c * p % n for p in range(q)]
        memo: dict[tuple[int, int, bool], bool] = {}

        def block_states(symbols):
            return [(a % n, a % q) for a in symbols]

        def extend_all(states, symbols):
            return [((s + a) % n, p * a % q) for (s, p), a in zip(states, symbols)]

        def vanishing_mask(states):  # the scans' inner loop: no call per state
            mask, bit = 0, 1
            for s, p in states:
                if s == zero_sum[p]:
                    mask |= bit
                bit <<= 1
            return mask

        def whole_periods_vanish(period):
            key = (sum(period) % n, prod(period) % q, len(period) == 1)
            hit = memo.get(key)
            if hit is None:
                T, g, single = key
                hit = memo[key] = _k_periods_vanish(zero_sum, n, T, g, 2 if single else 1)
            return hit

        def read(state):
            return ((state[0] - zero_sum[state[1]]) % n,)

        return block_states, extend_all, vanishing_mask, whole_periods_vanish, read
    if fam.tables:
        columns = [tuple(t[a] for t in fam.tables) for a in range(n)]  # the state of (a)

        def block_states(symbols):
            return [columns[a % n] for a in symbols]

        def extend_all(states, symbols):
            return [tuple([(x + y) % n for x, y in zip(st, columns[a % n])])
                    for st, a in zip(states, symbols)]

        def read(state):
            return state

        def whole_periods_vanish(period):  # k = n copies: n times the period's sums
            return True

    elif fam.kind == ELEMENTARY_SYMMETRIC:
        zeros = (0,) * (fam.r - 1)

        def block_states(symbols):
            return [(a % n,) + zeros for a in symbols]

        def extend_all(states, symbols):  # e_k += a * e_{k-1}, with e_0 = 1
            return [tuple([(e + a * prev) % n for e, prev in zip(st, (1,) + st)])
                    for st, a in zip(states, symbols)]

        def read(state):
            return (state[-1],)

        def whole_periods_vanish(period):
            return False

    else:
        raise PreconditionError(f"unknown family kind {fam.kind!r}")

    def vanishing_mask(states):
        return sum([1 << t for t, st in enumerate(states) if not any(read(st))])

    return block_states, extend_all, vanishing_mask, whole_periods_vanish, read


def _k_periods_vanish(zero_sum: list[int], n: int, T: int, g: int, first: int) -> bool:
    """Whether k*T = zero_sum[g^k mod q] (mod n), q = len(zero_sum), for
    some k >= first: for F_c, whether the block of k copies of a period
    with sum T and product g (mod q) vanishes.

    The powers of g mod q are periodic from g^(alpha + 1) on, with cycle
    length beta ((alpha, beta) = ring.pow_cycle(g, q)), so each k <= alpha
    is tested directly.  Every k > alpha is e + j*beta with j >= 0 for one
    e among the beta exponents that follow max(alpha, first - 1), and
    g^k = g^e.  Then j*beta*T = zero_sum[g^e] - e*T (mod n) has a solution
    iff gcd(beta*T, n) divides the right side, and some solution is >= 0,
    since solutions repeat mod n."""
    q = len(zero_sum)
    alpha, beta = pow_cycle(g, q)
    start = max(alpha, first - 1)
    if any(k * T % n == zero_sum[pow(g, k, q)] for k in range(first, start + 1)):
        return True
    d = gcd(beta * T, n)
    return any(
        (zero_sum[pow(g, e, q)] - e * T) % n % d == 0 for e in range(start + 1, start + beta + 1)
    )


def sum_plus_c_prod(ctx: ModulusContext, c: int) -> FunctionalFamily:
    return FunctionalFamily(ctx, SUM_PLUS_C_PROD, c=c % ctx.n)


def transformation_sums(ctx: ModulusContext, tables) -> FunctionalFamily:
    tabs = tuple(tuple(x % ctx.n for x in t) for t in tables)
    if not tabs:
        raise PreconditionError("need at least one transformation table")
    for t in tabs:
        if len(t) != ctx.n:
            raise PreconditionError(f"table has {len(t)} entries, expected n={ctx.n}")
        if not all(isinstance(x, int) for x in t):
            raise PreconditionError(f"table entries must be integers, got {list(t)}")
    return FunctionalFamily(ctx, TRANSFORMATION_SUMS, tables=tabs)


def power_sums(ctx: ModulusContext, r: int) -> FunctionalFamily:
    if r < 1:
        raise PreconditionError(f"power sum degree must be >= 1, got {r}")
    return FunctionalFamily(ctx, POWER_SUMS, r=r)


def elementary_symmetric_family(ctx: ModulusContext, r: int) -> FunctionalFamily:
    if r < 1:
        raise PreconditionError(f"elementary symmetric degree must be >= 1, got {r}")
    return FunctionalFamily(ctx, ELEMENTARY_SYMMETRIC, r=r)


# each family kind's one parameter: its descriptor key (an int, or the
# tables as lists), and the builder that takes it
FAMILY_PARAMS = {
    SUM_PLUS_C_PROD: ("c", sum_plus_c_prod),
    TRANSFORMATION_SUMS: ("tables", transformation_sums),
    POWER_SUMS: ("r", power_sums),
    ELEMENTARY_SYMMETRIC: ("r", elementary_symmetric_family),
}


def family_from_descriptor(ctx: ModulusContext, desc: dict) -> FunctionalFamily:
    """The family desc names.  It is the one reader of --family specs and
    of certificate records, so a malformed descriptor raises
    PreconditionError."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if not isinstance(kind, str) or kind not in FAMILY_PARAMS:
        raise PreconditionError(f"unknown family kind {kind!r}")
    key, build = FAMILY_PARAMS[kind]
    try:
        return build(ctx, desc[key] if key == "tables" else int(desc[key]))
    except (KeyError, TypeError, ValueError) as e:
        raise PreconditionError(f"malformed family descriptor {desc!r}: {e}") from None
