"""Correctness gate for the benchmark's outputs.

Nothing here imports blockzero: the gate re-derives every claim it checks
with naive code of its own, so a fault in the program's verifier cannot
also hide the fault from the gate.

- A certificate's verdict is re-derived by folding the symbols of the
  periodic word one at a time, at every start residue and every block
  length up to a bound computed here from scratch.
- A grid cell must agree with the known classification of the F_c
  families, and a cell the seed commit decided must come back with the
  same verdict and threshold.
- Every UNKNOWN cell must name the cap or the node budget as its stop; a
  deadline stop makes the run depend on the machine's speed.
"""

from __future__ import annotations

import math

VANISHING_PROVED = "vanishing_proved"
NONVANISHING_PROVED = "nonvanishing_proved"
UNKNOWN = "unknown"
AVOIDING = "avoiding"
REFUTED = "refuted"


def _prime_factors(n: int) -> list[tuple[int, int]]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def expected_verdict(n: int, c: int, m: int) -> str | None:
    """The known classification of F_c over Z_n: 'vanishing',
    'nonvanishing', or None where it is open."""
    c %= n
    fac = _prime_factors(n)
    if c == 0:
        return "vanishing"
    if c == 1:
        if n in (2, 3, 4, 8):
            return "vanishing"
        if n == 6:
            return "vanishing" if m == 1 else "nonvanishing"
        return "nonvanishing"
    if c == n - 1:
        if len(fac) == 1:
            return "vanishing"
        if any(e >= 2 for _, e in fac):
            return "nonvanishing"
        if n == 6 and m > 1:
            return "nonvanishing"
        return None
    return "nonvanishing"


def _power_cycle(g: int, n: int) -> tuple[int, int]:
    """(alpha, beta): g^(alpha + beta) = g^alpha mod n, both minimal."""
    seen, x, k = {}, 1 % n, 0
    while x not in seen:
        seen[x] = k
        x = x * g % n
        k += 1
    return seen[x], k - seen[x]


def first_vanishing_window(n: int, c: int, m: int, period) -> tuple[int, int] | None:
    """First (start, length) in (length, start) order at which m
    consecutive blocks of period^infinity all have sum + c*product = 0
    mod n, or None when the word avoids every vanishing m-window.

    Block values depend on the length l only through l mod P*n (sums) and,
    once l >= P*alpha, through the power cycle of the period's product, so
    lengths up to P*(alpha + 1) + lcm(P*n, P*beta) cover every case.
    """
    P = len(period)
    g = 1
    for a in period:
        g = g * a % n
    alpha, beta = _power_cycle(g, n)
    bound = P * (alpha + 1) + math.lcm(P * n, P * beta)
    values = []  # values[t][l]: block of length l starting at residue t
    for t in range(P):
        row = [None] * (bound + 1)
        s, p = 0, 1
        for l in range(1, bound + 1):
            a = period[(t + l - 1) % P]
            s = (s + a) % n
            p = p * a % n
            row[l] = (s + c * p) % n
        values.append(row)
    for l in range(2, bound + 1):
        for s in range(P):
            if all(values[(s + j * l) % P][l] == 0 for j in range(m)):
                return (s, l)
    return None


def check_certificate(cert: dict, n: int, c: int, m: int) -> list[str]:
    """Problems with a certificate (as its JSON dict) for F_c over Z_n."""
    where = f"n={n} c={c} m={m} period={cert.get('period')}"
    family = cert.get("family") or {}
    if (cert.get("n"), family.get("kind"), family.get("c"), cert.get("m")) != (
        n, "sum_plus_c_prod", c % n, m,
    ):
        return [f"{where}: certificate is for another cell"]
    period = tuple(cert.get("period") or ())
    if not period or any(not 0 <= a < n for a in period):
        return [f"{where}: malformed period"]
    window = first_vanishing_window(n, c % n, m, period)
    verdict = AVOIDING if window is None else REFUTED
    if cert.get("verdict") != verdict:
        return [f"{where}: certificate says {cert.get('verdict')}, naive fold says {verdict}"]
    if window is not None and tuple(cert.get("counter_window") or ()) != window:
        return [f"{where}: counter window {cert.get('counter_window')}, naive fold finds {list(window)}"]
    return []


def stop_reason(cell: dict, max_nodes: int) -> str | None:
    """Which budget stopped an UNKNOWN cell: 'cap', 'nodes' or 'deadline'."""
    if cell["verdict"] != UNKNOWN:
        return None
    out = cell.get("outcome") or {}
    if not out.get("budget_exhausted"):
        return "cap"
    return "nodes" if out.get("nodes_expanded", 0) >= max_nodes else "deadline"


def check_cell(cell: dict, max_nodes: int, seed_decided: dict) -> list[str]:
    """Problems with one grid cell (a Classification JSON dict)."""
    n, c, m, verdict = cell["n"], cell["c"], cell["m"], cell["verdict"]
    where = f"cell ({n},{c},{m})"
    problems = []
    expected = expected_verdict(n, c, m)
    if (expected, verdict) in (
        ("vanishing", NONVANISHING_PROVED),
        ("nonvanishing", VANISHING_PROVED),
    ):
        problems.append(f"{where}: {verdict} contradicts the known classification")
    if verdict == NONVANISHING_PROVED:
        cert = cell.get("certificate")
        if cert is None:
            problems.append(f"{where}: no certificate")
        else:
            problems += check_certificate(cert, n, c, m)
            if cert.get("verdict") != AVOIDING or cell.get("witness") != cert.get("period"):
                problems.append(f"{where}: witness is not a certified avoiding period")
    elif verdict == VANISHING_PROVED:
        if not isinstance(cell.get("threshold"), int):
            problems.append(f"{where}: vanishing verdict without a threshold")
    elif verdict != UNKNOWN:
        problems.append(f"{where}: unknown verdict {verdict!r}")
    if stop_reason(cell, max_nodes) == "deadline":
        problems.append(f"{where}: stopped by the deadline")
    seed = seed_decided.get(f"{n},{c},{m}")
    if seed is not None and [verdict, cell.get("threshold")] != seed:
        problems.append(
            f"{where}: {verdict} threshold {cell.get('threshold')}, seed commit decided {seed}"
        )
    return problems


def check_grid(cells: list[dict], expected_cells: list[tuple[int, int, int]],
               max_nodes: int, seed_decided: dict) -> list[list[str]]:
    """Problems per expected cell, in order; a missing cell is a problem."""
    by_key = {(d["n"], d["c"], d["m"]): d for d in cells}
    out = []
    for key in expected_cells:
        cell = by_key.get(key)
        out.append([f"cell {key}: missing"] if cell is None
                   else check_cell(cell, max_nodes, seed_decided))
    if len(by_key) != len(cells) or set(by_key) - set(expected_cells):
        out.append(["grid has duplicate or unexpected cells"])
    return out
