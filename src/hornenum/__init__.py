"""Exact enumeration of Horn theories over n propositional variables.

The pipeline: theories presented as binomial equations or Horn clauses
(`theory`) correspond to meet-closed families of bit vectors (`families`);
counting the families of a variant reduces to exact model counting
(`encoder` + `counter`); a brute-force oracle (`oracle`), algebraic
relations (`identities`), and published reference values (`validation`)
cross-check every number more than one way.
"""

from .counter import CountReport, CounterStats, count_models, count_variant, count_width
from .encoder import CnfInstance, emit_dimacs, encode
from .errors import ExternalToolError, ParseError, ResourceLimitError
from .families import Variant, VectorFamily, is_meet_closed, meet_closure, variant_member
from .identities import asymptotic_report, binomial, binomial_sum, doubling, inverse_binomial_sum
from .oracle import (OrbitSummary, brute_count, enumerate_families,
                     nonisomorphic_count, orbit_summary)
from .theory import (BinomialEquation, HornClause, Monomial, equations_to_horn,
                     format_clauses, format_equations, horn_to_equations, models,
                     parse_clauses, parse_equations)
from .validation import CheckResult, VerifyRun, reference_count, verify_matrix

__version__ = "0.1.0"

__all__ = [
    "BinomialEquation", "CheckResult", "CnfInstance", "CountReport",
    "CounterStats", "ExternalToolError", "HornClause", "Monomial",
    "OrbitSummary", "ParseError", "ResourceLimitError", "Variant",
    "VectorFamily", "VerifyRun", "asymptotic_report", "binomial",
    "binomial_sum", "brute_count", "count_models", "count_variant",
    "count_width", "doubling", "emit_dimacs", "encode", "enumerate_families",
    "equations_to_horn", "format_clauses", "format_equations",
    "horn_to_equations", "inverse_binomial_sum", "is_meet_closed",
    "meet_closure", "models", "nonisomorphic_count", "orbit_summary",
    "parse_clauses", "parse_equations", "reference_count", "variant_member",
    "verify_matrix",
]
