"""Exact core membership and separation for cooperative 2-matching games.

The library decides whether an allocation lies in the core of a 2-matching
game, produces violating coalitions as exact certificates, replicates a known
flawed layered-graph separation procedure together with the instance that
breaks it, and builds a compact extended formulation of the core checked by
an exact rational simplex.
"""

from __future__ import annotations

from .model import (
    Allocation,
    Edge,
    FormatError,
    Instance,
    InvariantError,
    Rational,
    Violation,
    ViolationKind,
    coalition,
    emit_allocation,
    emit_instance,
    parse_allocation,
    parse_instance,
    random_instance,
)
from .matching import MatchingResult, max_weight_b_matching, max_weight_matching, min_weight_perfect_matching, nu
from .negcycle import CostedGraph, CostEdge, Cycle, find_negative_cycle
from .separation import SeparationVerdict, separate, verify_violation
from .flawed import counterexample_allocation, counterexample_instance, demo_counterexample, flawed_separate_paths
from .extform import build_extended_formulation, check_membership, size_report
from .linsys import ConstraintSystem, emit_lp, parse_lp, simplex_feasible, simplex_solve

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "ConstraintSystem",
    "CostEdge",
    "CostedGraph",
    "Cycle",
    "Edge",
    "FormatError",
    "Instance",
    "InvariantError",
    "MatchingResult",
    "Rational",
    "SeparationVerdict",
    "Violation",
    "ViolationKind",
    "build_extended_formulation",
    "check_membership",
    "coalition",
    "counterexample_allocation",
    "counterexample_instance",
    "demo_counterexample",
    "emit_allocation",
    "emit_instance",
    "emit_lp",
    "find_negative_cycle",
    "flawed_separate_paths",
    "max_weight_b_matching",
    "max_weight_matching",
    "min_weight_perfect_matching",
    "nu",
    "parse_allocation",
    "parse_instance",
    "parse_lp",
    "random_instance",
    "separate",
    "simplex_feasible",
    "simplex_solve",
    "size_report",
    "verify_violation",
]
