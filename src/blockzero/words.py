"""Finite and periodic words over Z_n.

A finite word is a plain tuple of residues in [0, n); parse_symbols reads
one from a literal.  Block values come from the family's block-state hook
(FunctionalFamily), not from the word.
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


def min_rotation(seq: tuple[int, ...]) -> tuple[int, ...]:
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


@dataclass(frozen=True)
class PeriodicWord:
    """An infinite periodic word, given by one period over Z_n.  It
    compares as data, (period, n); canonical() is its necklace, the
    lexicographically minimal rotation, which every rotation shares.
    """

    period: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.period) < 1:
            raise PreconditionError("period must be nonempty")
        object.__setattr__(self, "period", tuple(x % self.n for x in self.period))

    def canonical(self) -> tuple[int, ...]:
        return min_rotation(self.period)
