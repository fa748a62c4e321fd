"""Exact core membership and separation for cooperative 2-matching games.

The library decides whether an allocation lies in the core of a 2-matching
game, produces violating coalitions as exact certificates, replicates a known
flawed layered-graph separation procedure together with the instance that
breaks it, and builds a compact extended formulation of the core checked by
an exact rational simplex.

`import corematch` loads only the separation core (`model`, `matching`,
`negcycle`, `separation`). The extended formulation, its LP stack and the
flawed replication load on first use: `corematch.extform`, `.linsys` and
`.flawed`, and the names below taken from them, resolve through the module
`__getattr__` (PEP 562) to the defining module's own objects.
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

# name -> the submodule that defines it; a submodule maps to itself
_LAZY = {
    **dict.fromkeys(("flawed", "counterexample_allocation", "counterexample_instance",
                     "demo_counterexample", "flawed_separate_paths"), "flawed"),
    **dict.fromkeys(("extform", "build_extended_formulation", "check_membership",
                     "size_report"), "extform"),
    **dict.fromkeys(("linsys", "ConstraintSystem", "emit_lp", "parse_lp", "simplex_feasible",
                     "simplex_solve"), "linsys"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _LAZY[name]
    __import__(f"{__name__}.{module}")  # binds the submodule in this namespace
    value = globals()[module]
    return value if name == module else getattr(value, name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
