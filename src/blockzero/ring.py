"""Exact arithmetic in Z_n.

Residues are plain ints in [0, n).  A ModulusContext carries the modulus;
the module also holds the number theory the witness constructions need
(power cycles, square and cube roots mod p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n by trial division, primes ascending."""
    if n < 2:
        raise PreconditionError(f"modulus must be >= 2, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return factorize(p) == ((p, 1),)


@dataclass(frozen=True)
class ModulusContext:
    """The ring Z_n, n >= 2."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise PreconditionError(f"modulus must be >= 2, got {self.n}")


@lru_cache(maxsize=4096)
def pow_cycle(g: int, n: int) -> tuple[int, int]:
    """The eventual cycle of g, g^2, g^3, ... mod n, n >= 1: the minimal
    preperiod alpha and then the minimal cycle length beta such that the
    sequence indexed from g^1 satisfies term[k + beta] == term[k] for all
    k > alpha.  g need not be reduced mod n."""
    if n < 1:
        raise PreconditionError(f"modulus must be >= 1, got {n}")
    g %= n
    seen: dict[int, int] = {}  # g^(k + 1) -> k
    x = g
    while x not in seen:
        seen[x] = len(seen)
        x = x * g % n
    return seen[x], len(seen) - seen[x]


def sqrt_3mod4(a: int, p: int) -> int | None:
    """Square root mod a prime p == 3 (mod 4), or None for a non-residue.

    Uses the exponent shortcut r = a^((p+1)/4), valid exactly for such p.
    """
    if not is_prime(p) or p % 4 != 3:
        raise PreconditionError(f"p must be a prime congruent to 3 mod 4, got {p}")
    a %= p
    r = pow(a, (p + 1) // 4, p)
    if r * r % p == a:
        return r
    return None


def is_cubic_residue(a: int, p: int) -> bool:
    """Whether a has a cube root mod the prime p."""
    if not is_prime(p):
        raise PreconditionError(f"p must be prime, got {p}")
    a %= p
    if a == 0:
        return True
    d = math.gcd(3, p - 1)
    return pow(a, (p - 1) // d, p) == 1
