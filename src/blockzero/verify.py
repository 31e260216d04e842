"""Finite certificates for periodic words avoiding vanishing windows.

A periodic word's block values depend on the block length l only through
(l mod P, l div P); the sum part is periodic in l and the product part is
eventually periodic via the power cycle of the one-period product G.
Checking every start residue and every l up to a computable bound
therefore settles the infinite claim.

verify_periodic makes that check in one lockstep pass on the family's
vector block-state hook (FunctionalFamily.block_states/extend_all/
vanishing_mask): it keeps the state of the length-l block at each of the P
start residues, grows all of them by one symbol per length in one
extend_all call, and reads each m-window off the residues its blocks start
at: the AND of the P-bit mask Z = vanishing_mask(states) rotated by
j*l mod P, j < m, has bit s set iff window (s, l) vanishes.
The length bound holds for every family with table sums (sum_tables():
F_c, transformation sums and power sums); e_r has none and raises
UnsupportedFamilyError.

The pass stops at the first vanishing window or at the first repeated
state vector, whichever comes first.  Going from length l to l + 1 extends
the block at residue t by period[(t + l - 1) mod P], and window (s, l)
reads the residues (s + j*l) mod P: both depend on l only through l mod P.
So if the P states at lengths l1 < l2 are equal and l2 = l1 (mod P), every
length from l2 on repeats the verdicts of [l1, l2), which the pass has
already checked.  The length bound checked_max_l = pre + per is both the
pass's upper limit and a certificate field, so the certificate does not
depend on where the pass stopped.

A Certificate is plain data: its record follows the dataclass's fields,
and a re-check is one comparison with a fresh verify_periodic
(recheck_certificate).

Finite words are scanned on the same hook (scan_word: the blocks at every
start grow in lockstep too): the family's hook is the one block-value path.
A window is the pair (s, l) of its start and block length.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .families import FunctionalFamily, family_from_descriptor
from .ring import ModulusContext, PreconditionError, pow_cycle
from .words import PeriodicWord

CERTIFICATE_VERSION = 1

AVOIDING = "avoiding"
REFUTED = "refuted"


class UnsupportedFamilyError(PreconditionError):
    """The family has no periodic decomposition here; use a bounded scan."""


@dataclass(frozen=True)
class Certificate:
    version: int
    n: int
    family: dict
    m: int
    period: tuple[int, ...]
    G: int
    T: tuple[int, ...]
    alpha: int
    beta: int
    pre: int
    per: int
    checked_max_l: int
    verdict: str
    counter_window: tuple[int, int] | None = None

    def to_dict(self) -> dict:
        d = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        if self.counter_window is None:
            del d["counter_window"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Certificate":
        """The record to_dict wrote; a wrong version, a missing field or an
        unknown key raises PreconditionError."""
        if d.get("version") != CERTIFICATE_VERSION:
            raise PreconditionError(f"unsupported certificate version {d.get('version')!r}")
        cw = d.get("counter_window")
        try:
            return cls(**{**d, "period": tuple(d["period"]), "T": tuple(d["T"]),
                          "counter_window": tuple(cw) if cw is not None else None})
        except (KeyError, TypeError) as e:
            raise PreconditionError(f"malformed certificate record: {e}") from None


def scan_word(symbols: tuple[int, ...], fam: FunctionalFamily, m: int) -> list[tuple[int, int]]:
    """The (s, l) of every vanishing m-window of the finite word symbols,
    ordered by (l, s)."""
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    L = len(symbols)
    windows = []
    # states[s]: the state of the length-l block at s, for s <= L - l
    states = fam.block_states(symbols[:-1])
    for l in range(2, L // m + 1):
        states = fam.extend_all(states, symbols[l - 1 :])
        # bit s of W: the blocks at s, s + l, ..., s + (m - 1)*l all vanish
        W = Z = fam.vanishing_mask(states)
        for j in range(1, m):
            W &= Z >> (j * l)
        windows += [(s, l) for s in range(L - m * l + 1) if W >> s & 1]
    return windows


def lockstep_states(period: tuple[int, ...], fam: FunctionalFamily, max_l: int):
    """Yield (l, states) for l = 2..max_l, where states[t] is the block
    state of the length-l block that starts at residue t of the infinite
    repetition of period.  All P blocks grow by one symbol per step."""
    P = len(period)
    extend_all = fam.extend_all
    # next_syms[r][t]: the symbol that extends the block at residue t when
    # its length becomes l with (l - 1) % P == r
    next_syms = [period[r:] + period[:r] for r in range(P)]
    states = fam.block_states(period)
    for l in range(2, max_l + 1):
        states = extend_all(states, next_syms[(l - 1) % P])
        yield l, states


def verify_periodic(pw: PeriodicWord, fam: FunctionalFamily, m: int) -> Certificate:
    """Decide whether the infinite repetition of pw avoids all vanishing
    m-windows, returning a finite re-checkable certificate either way.

    The window (s, l) vanishes iff the length-l blocks at residues
    (s + j*l) mod P vanish for every j < m, so one lockstep pass over the
    lengths finds the first vanishing window in (l, s) order.  The pass
    returns AVOIDING early when the state vector at some length equals the
    one at an earlier length congruent mod P (see the module docstring),
    and never scans beyond checked_max_l."""
    if m < 1:
        raise PreconditionError(f"m must be >= 1, got {m}")
    n = fam.ctx.n
    if pw.n != n:
        raise PreconditionError("periodic word and family moduli differ")
    tables = fam.sum_tables()
    if not tables:
        raise UnsupportedFamilyError(
            f"family kind {fam.kind!r} has no certified periodic check; use a bounded scan instead"
        )
    period = pw.canonical()
    P = len(period)
    G = math.prod(period) % n
    T = tuple(sum(t[x] for x in period) % n for t in tables)
    alpha, beta = pow_cycle(G, n)
    pre = P * (alpha + 1)
    per = math.lcm(P * n, P * beta)
    checked_max_l = pre + per
    vanishing_mask = fam.vanishing_mask
    counter = None
    # Brent's cycle test on (l mod P, states): a mark, first taken at
    # length 2, is compared at the multiples of P past it and moves on at
    # a span that doubles
    mark_l, mark, span = 2 - P, None, P
    for l, states in lockstep_states(period, fam, checked_max_l):
        # bit t of Z: the block at residue t vanishes; bit s of W: the
        # blocks at residues (s + j*l) mod P all vanish, j < m
        Z = vanishing_mask(states)
        if Z:
            W = Z
            for j in range(1, m):
                W &= (Z | Z << P) >> (j * l % P)
            if W:
                counter = ((W & -W).bit_length() - 1, l)
                break
        if (l - mark_l) % P == 0:
            if states == mark:
                break  # lengths from l on repeat the verdicts of [mark_l, l)
            if l - mark_l >= span:
                mark_l, mark, span = l, states, 2 * span
    return Certificate(
        version=CERTIFICATE_VERSION,
        n=n,
        family=fam.to_descriptor(),
        m=m,
        period=period,
        G=G,
        T=T,
        alpha=alpha,
        beta=beta,
        pre=pre,
        per=per,
        checked_max_l=checked_max_l,
        verdict=AVOIDING if counter is None else REFUTED,
        counter_window=counter,
    )


def recheck_certificate(cert: Certificate) -> bool:
    """Re-derive the certificate from scratch; True iff every field,
    the bound fields included, matches the stored one."""
    fam = family_from_descriptor(ModulusContext(cert.n), cert.family)
    return verify_periodic(PeriodicWord(cert.period, cert.n), fam, cert.m) == cert


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w") as fh:
        json.dump(cert.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_certificate(path, recheck: bool = True) -> Certificate:
    """Load a certificate; by default re-verify before trusting it.  A
    file that is not JSON, truncated ones included, or a record that is
    not a certificate's, its values of the wrong type included, raises
    PreconditionError."""
    with open(path) as fh:
        try:
            cert = Certificate.from_dict(json.load(fh))
            ok = not recheck or recheck_certificate(cert)
        except (ValueError, TypeError, AttributeError) as e:
            raise PreconditionError(f"malformed certificate at {path}: {e}") from None
    if not ok:
        raise PreconditionError(f"certificate at {path} failed re-verification")
    return cert


def reduce_witness(pw: PeriodicWord, d: int) -> PeriodicWord:
    """Reduce a periodic word over Z_n symbol-wise to Z_d for a divisor d.

    If the reduction is certified avoiding mod d, the original avoids mod n:
    a window vanishing mod n would vanish mod d as well.
    """
    if d < 2 or pw.n % d != 0:
        raise PreconditionError(f"{d} is not a divisor >= 2 of {pw.n}")
    return PeriodicWord(tuple(x % d for x in pw.period), d)
