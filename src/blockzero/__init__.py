"""Vanishing-window analysis of block functionals over Z_n.

Evaluates families of block functions (sum plus c times product,
transformation sums, power sums, elementary symmetric polynomials),
certifies periodic witnesses through a finite eventual-periodicity check,
and decides small cases exactly by exhausting the avoidance tree (at
m = 1, its fold into a graph of suffix-state sets; for the plain block
sum, the pigeonhole bound on its prefix sums).
"""

from .classify import (
    Classification,
    catalog_witness,
    classify,
    expected_verdict,
    reproduce_table,
)
from .families import (
    FunctionalFamily,
    elementary_symmetric_family,
    power_sums,
    sum_plus_c_prod,
    transformation_sums,
)
from .ring import (
    ModulusContext,
    PreconditionError,
    is_cubic_residue,
    pow_cycle,
    sqrt_3mod4,
)
from .search import (
    SearchOutcome,
    XYRSolution,
    build_xyr_witness,
    longest_avoiding_word,
    mine_witness,
    suffix_set_search,
    xyr_solve,
)
from .verify import (
    AVOIDING,
    REFUTED,
    Certificate,
    load_certificate,
    recheck_certificate,
    reduce_witness,
    save_certificate,
    scan_word,
    verify_periodic,
)
from .words import PeriodicWord, parse_symbols

__all__ = [
    "AVOIDING",
    "Certificate",
    "Classification",
    "FunctionalFamily",
    "ModulusContext",
    "PeriodicWord",
    "PreconditionError",
    "REFUTED",
    "SearchOutcome",
    "XYRSolution",
    "build_xyr_witness",
    "catalog_witness",
    "classify",
    "elementary_symmetric_family",
    "expected_verdict",
    "is_cubic_residue",
    "load_certificate",
    "longest_avoiding_word",
    "mine_witness",
    "parse_symbols",
    "pow_cycle",
    "power_sums",
    "recheck_certificate",
    "reduce_witness",
    "reproduce_table",
    "save_certificate",
    "scan_word",
    "sqrt_3mod4",
    "suffix_set_search",
    "sum_plus_c_prod",
    "transformation_sums",
    "verify_periodic",
    "xyr_solve",
]
