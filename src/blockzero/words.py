"""Finite and periodic words over Z_n.

A Word keeps running transformation sums (one per tracked table), so
block sums are O(1); a block product is a plain fold over the block.
Words are built by push, and pop undoes the last push.  They serve
evaluation, scans and certificate re-checks; the avoidance-tree DFS keeps
its own per-suffix block states and builds no Word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import ModulusContext, PreconditionError


def identity_table(ctx: ModulusContext) -> tuple[int, ...]:
    return tuple(range(ctx.n))


def parse_symbols(text: str, ctx: ModulusContext) -> tuple[int, ...]:
    """Parse a comma-separated word literal; negatives reduce mod n."""
    try:
        parts = [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as e:
        raise PreconditionError(f"bad word literal {text!r}: {e}") from None
    if not parts:
        raise PreconditionError("empty word literal")
    return tuple(x % ctx.n for x in parts)


class Word:
    """A finite word with push/pop and prefix sums.

    tables: transformation tables whose running sums are maintained
    (defaults to the identity, giving plain block sums).
    """

    def __init__(self, ctx: ModulusContext, symbols=(), tables=None):
        self.ctx = ctx
        self.tables = tuple(tuple(t) for t in tables) if tables is not None else (identity_table(ctx),)
        for t in self.tables:
            if len(t) != ctx.n:
                raise PreconditionError(f"table has {len(t)} entries, expected n={ctx.n}")
        self.symbols: list[int] = []
        # prefix_sums[i][k] = sum of tables[i][sym] over the first k symbols, mod n
        self.prefix_sums = [[0] for _ in self.tables]
        for s in symbols:
            self.push(s)

    def __len__(self):
        return len(self.symbols)

    def push(self, sym: int) -> None:
        n = self.ctx.n
        sym %= n
        self.symbols.append(sym)
        for t, ps in zip(self.tables, self.prefix_sums):
            ps.append((ps[-1] + t[sym]) % n)

    def pop(self) -> int:
        sym = self.symbols.pop()
        for ps in self.prefix_sums:
            ps.pop()
        return sym

    def _check_range(self, start: int, length: int) -> None:
        if start < 0 or length < 2 or start + length > len(self.symbols):
            raise PreconditionError(
                f"block (start={start}, length={length}) out of range for word of length {len(self.symbols)}"
            )

    def block_sum(self, start: int, length: int, table_index: int = 0) -> int:
        self._check_range(start, length)
        ps = self.prefix_sums[table_index]
        return (ps[start + length] - ps[start]) % self.ctx.n

    def fold_sum(self, start: int, length: int, table) -> int:
        """Sum of table[sym] over a block for a table not tracked as prefix."""
        self._check_range(start, length)
        n = self.ctx.n
        total = 0
        for k in range(start, start + length):
            total += table[self.symbols[k]]
        return total % n

    def block_product(self, start: int, length: int) -> int:
        self._check_range(start, length)
        n = self.ctx.n
        v = 1
        for sym in self.symbols[start : start + length]:
            if sym == 0:
                return 0
            v = v * sym % n
        return v

    def rebuild_consistent(self) -> bool:
        """Debug check: prefix structures match a from-scratch rebuild."""
        fresh = Word(self.ctx, self.symbols, self.tables)
        return fresh.prefix_sums == self.prefix_sums


def min_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


@dataclass(frozen=True, eq=False)
class PeriodicWord:
    """An infinite periodic word, given by one period over Z_n.

    Rotations of the same period denote the same necklace and compare
    equal; the canonical form is the lexicographically minimal rotation.
    """

    period: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.period) < 1:
            raise PreconditionError("period must be nonempty")
        object.__setattr__(self, "period", tuple(x % self.n for x in self.period))

    def canonical(self) -> tuple[int, ...]:
        return min_rotation(self.period)

    def __eq__(self, other):
        if not isinstance(other, PeriodicWord):
            return NotImplemented
        return self.n == other.n and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.n, self.canonical()))

    def symbol(self, k: int) -> int:
        return self.period[k % len(self.period)]

    def unroll(self, length: int, ctx: ModulusContext | None = None, tables=None) -> Word:
        if length < 1:
            raise PreconditionError(f"unroll length must be >= 1, got {length}")
        ctx = ctx if ctx is not None else ModulusContext(self.n)
        P = len(self.period)
        reps = length // P + 1
        return Word(ctx, (self.period * reps)[:length], tables=tables)
