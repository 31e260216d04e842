"""Finite and periodic words over Z_n.

A Word is a plain finite word; its block sum and block product are plain
folds with a range check.  Block values of a family come from the
family's block-state hook (FunctionalFamily), not from the word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import ModulusContext, PreconditionError


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
    """A finite word over Z_n."""

    def __init__(self, ctx: ModulusContext, symbols=()):
        self.ctx = ctx
        self.symbols = tuple(s % ctx.n for s in symbols)

    def __len__(self):
        return len(self.symbols)

    def _check_range(self, start: int, length: int) -> None:
        if start < 0 or length < 2 or start + length > len(self.symbols):
            raise PreconditionError(
                f"block (start={start}, length={length}) out of range for word of length {len(self.symbols)}"
            )

    def block_sum(self, start: int, length: int) -> int:
        self._check_range(start, length)
        return sum(self.symbols[start : start + length]) % self.ctx.n

    def block_product(self, start: int, length: int) -> int:
        self._check_range(start, length)
        n = self.ctx.n
        v = 1
        for sym in self.symbols[start : start + length]:
            if sym == 0:
                return 0
            v = v * sym % n
        return v


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

    def unroll(self, length: int, ctx: ModulusContext | None = None) -> Word:
        if length < 1:
            raise PreconditionError(f"unroll length must be >= 1, got {length}")
        ctx = ctx if ctx is not None else ModulusContext(self.n)
        P = len(self.period)
        reps = length // P + 1
        return Word(ctx, (self.period * reps)[:length])
