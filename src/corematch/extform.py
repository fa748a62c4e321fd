"""Compact extended formulation of the core and exact LP membership checks.

The graph family is separation's: the capacity-2 subgraph plus every
st-variant, built by `separation.build_g2`, `separation.variant_structures`
and `separation.realize_variant` from the exact (unscaled) costs of
`separation.transfer_costs`. Every member edge u-v costs
(p_u + p_v)/2 plus its cost at p = 0, so the family costed at p = 0 gives the
constant parts of the formulation. For each graph in the family, the
no-negative-cycle condition is expressed through the dual of a compact
flow LP over the cycle cone: cut/cycle inequalities for a fixed edge are
max-flow feasibility, flows become per-edge conservation blocks, and the dual
of the whole thing is a feasibility system whose right-hand sides are affine
in the allocation. Gluing those blocks onto the total-value, vertex, and edge
constraints yields a polynomial-size system whose projection onto the
allocation variables is exactly the core.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import matching, separation
from .linsys import ConstraintSystem, simplex_feasible, simplex_solve
from .model import Allocation, Instance
from .negcycle import CostEdge, CostedGraph

# one shared object per +-1 coefficient instead of a new Fraction per term
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


@dataclass(frozen=True)
class GraphFamily:
    """The capacity-2 subgraph followed by the kept st-variants, with labels
    describing each member's origin."""

    members: tuple[CostedGraph, ...]
    labels: tuple[str, ...]


def enumerate_family(inst: Instance, p: Optional[Allocation] = None) -> GraphFamily:
    """The graph family behind the formulation: separation's capacity-2
    subgraph and st-variants, costed for p (p = 0 when p is None).

    Every member edge costs (p_u + p_v)/2 plus its cost at p = 0 (-w for an
    instance edge, 0 for the st marker), so the p = 0 family carries the
    formulation's right-hand sides. Variants in which an endpoint keeps no
    edge besides st are dropped: their st edge lies on no cycle, their cycles
    are already the capacity-2 subgraph's, and keeping them would break the
    family-size bound.
    """
    if p is None:
        p = Allocation((Fraction(0),) * inst.n)
    costs = separation.transfer_costs(inst, p)
    members = [separation.build_g2(inst, costs)]
    labels = ["g2"]
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            for struct in separation.variant_structures(inst, s, t):
                kept = [inst.edges[i] for i in struct.edge_ids]
                touched = {x for e in kept for x in (e.u, e.v)}
                if s not in touched or t not in touched:
                    continue
                members.append(separation.realize_variant(inst, costs, struct))
                labels.append(
                    f"variant s={s} t={t} kept_s={struct.kept_s} kept_t={struct.kept_t}"
                )
    return GraphFamily(members=tuple(members), labels=tuple(labels))


def family_size_bound(inst: Instance) -> int:
    """1 + sum over ordered endpoint pairs of (d_s - 1)(d_t - 1), degrees taken
    in the st-augmented auxiliary graph.

    d_s - 1 counts the edges from s to capacity-2 vertices other than t, so
    every pair's degrees follow from one count of capacity-2 neighbours.
    """
    deg2 = [0] * inst.n  # capacity-2 neighbours of each vertex
    for e in inst.edges:
        deg2[e.u] += inst.b[e.v] == 2
        deg2[e.v] += inst.b[e.u] == 2

    def excess(x: int, y: int) -> int:  # d_x - 1 for the pair (x, y)
        return deg2[x] - (inst.b[y] == 2 and inst.find_edge(x, y) is not None)

    return 1 + sum(
        excess(s, t) * excess(t, s)
        for s in range(inst.n)
        for t in range(inst.n)
        if s != t
    )


# ---------------------------------------------------------------------------
# Compact flow primal and its mechanical dual, per costed graph.
# ---------------------------------------------------------------------------


def _arcs(g: CostedGraph, skip: int):
    """Both orientations of every edge except `skip`, with owning edge index."""
    for j, e in enumerate(g.edges):
        if j == skip:
            continue
        yield j, e.u, e.v
        yield j, e.v, e.u


def build_flow_primal(g: CostedGraph) -> ConstraintSystem:
    """min sum c_e x_e over the cycle cone, written with one flow block per
    edge: x_ē units must flow from u to v through the rest of the graph,
    every arc capacity bounded by its own x."""
    sys = ConstraintSystem(name="flow-primal")
    for i in range(len(g.edges)):
        sys.add_variable(f"x_e{i}")
    for i in range(len(g.edges)):
        for _, a, b in _arcs(g, i):
            sys.add_variable(f"y_e{i}_{a}_{b}")
    sys.objective = {
        f"x_e{i}": Fraction(e.cost) for i, e in enumerate(g.edges) if e.cost != 0
    }

    for i, ebar in enumerate(g.edges):
        for v in g.vertices:
            coeffs: dict[str, Fraction] = {}
            for j, a, b in _arcs(g, i):
                if a == v:
                    coeffs[f"y_e{i}_{a}_{b}"] = _ONE
                elif b == v:
                    coeffs[f"y_e{i}_{a}_{b}"] = _MINUS_ONE
            if v == ebar.u:
                coeffs[f"x_e{i}"] = coeffs.get(f"x_e{i}", Fraction(0)) - 1
            elif v == ebar.v:
                coeffs[f"x_e{i}"] = coeffs.get(f"x_e{i}", Fraction(0)) + 1
            sys.add_constraint(f"flow_e{i}_v{v}", coeffs, "=", 0)
        for j, a, b in _arcs(g, i):
            sys.add_constraint(
                f"cap_e{i}_{a}_{b}",
                {f"y_e{i}_{a}_{b}": _ONE, f"x_e{j}": _MINUS_ONE},
                "<=",
                0,
            )
    for i in range(len(g.edges)):
        sys.add_constraint(f"nn_x_e{i}", {f"x_e{i}": _ONE}, ">=", 0)
    for i in range(len(g.edges)):
        for _, a, b in _arcs(g, i):
            sys.add_constraint(
                f"nn_y_e{i}_{a}_{b}", {f"y_e{i}_{a}_{b}": _ONE}, ">=", 0
            )
    return sys


def _dual_block(sys: ConstraintSystem, g: CostedGraph, prefix: str,
                cost_of) -> None:
    """Append one graph's dual feasibility block to `sys`.

    `cost_of(edge) -> (const rhs, extra lhs coeffs)` lets the right-hand side
    be a plain rational or an affine function of allocation variables moved to
    the left-hand side.
    """
    m = len(g.edges)
    for i in range(m):
        for v in g.vertices:
            sys.add_variable(f"{prefix}gamma_e{i}_v{v}")
    for i in range(m):
        for _, a, b in _arcs(g, i):
            sys.add_variable(f"{prefix}lam_e{i}_{a}_{b}")

    for i in range(m):
        for j, a, b in _arcs(g, i):
            sys.add_constraint(
                f"{prefix}arc_e{i}_{a}_{b}",
                {
                    f"{prefix}gamma_e{i}_v{a}": _ONE,
                    f"{prefix}gamma_e{i}_v{b}": _MINUS_ONE,
                    f"{prefix}lam_e{i}_{a}_{b}": _MINUS_ONE,
                },
                "<=",
                0,
            )
    for i, ebar in enumerate(g.edges):
        coeffs: dict[str, Fraction] = {
            f"{prefix}gamma_e{i}_v{ebar.u}": _MINUS_ONE,
            f"{prefix}gamma_e{i}_v{ebar.v}": _ONE,
        }
        # capacity multipliers of edge ē inside every other block
        for k in range(m):
            if k == i:
                continue
            coeffs[f"{prefix}lam_e{k}_{ebar.u}_{ebar.v}"] = _ONE
            coeffs[f"{prefix}lam_e{k}_{ebar.v}_{ebar.u}"] = _ONE
        rhs, extra = cost_of(ebar)
        for var, c in extra.items():
            coeffs[var] = coeffs.get(var, Fraction(0)) + c
        sys.add_constraint(f"{prefix}cost_e{i}", coeffs, "<=", rhs)
    for i in range(m):
        for _, a, b in _arcs(g, i):
            sys.add_constraint(
                f"{prefix}nn_lam_e{i}_{a}_{b}",
                {f"{prefix}lam_e{i}_{a}_{b}": _ONE},
                ">=",
                0,
            )


def build_dual_system(g: CostedGraph, prefix: str = "") -> ConstraintSystem:
    """Mechanical dual of the compact flow primal; feasible iff the primal is
    bounded iff g has no negative-cost cycle."""
    sys = ConstraintSystem(name="flow-dual")

    def cost_of(e: CostEdge):
        return Fraction(e.cost), {}

    _dual_block(sys, g, prefix, cost_of)
    return sys


def build_extended_formulation(inst: Instance) -> ConstraintSystem:
    """The full core system: total value, vertex and edge constraints, plus
    one symbolic dual block per family member. Its projection onto the p
    variables is the core."""
    sys = ConstraintSystem(name=f"core-extform({inst.name or 'instance'})")
    for v in range(inst.n):
        sys.add_variable(f"p_{v}")
    nu_n = matching.b_matching_value(inst)
    sys.add_constraint(
        "total", {f"p_{v}": _ONE for v in range(inst.n)}, "=", nu_n
    )
    for v in range(inst.n):
        sys.add_constraint(f"nn_p_{v}", {f"p_{v}": _ONE}, ">=", 0)
    for i, e in enumerate(inst.edges):
        sys.add_constraint(
            f"edge_e{i}", {f"p_{e.u}": _ONE, f"p_{e.v}": _ONE}, ">=", e.w
        )

    half = Fraction(1, 2)

    def cost_of(e: CostEdge):
        # the family is costed at p = 0; move the (p_u + p_v)/2 part of the
        # cost to the left-hand side
        return e.cost, {f"p_{e.u}": -half, f"p_{e.v}": -half}

    for k, g in enumerate(enumerate_family(inst).members):
        _dual_block(sys, g, f"g{k}_", cost_of)
    return sys


def check_membership(inst: Instance, p: Allocation) -> bool:
    """Exact core membership through the extended formulation: direct checks
    for the total/vertex/edge constraints, then one phase-I feasibility run
    per family member's dual block."""
    if len(p) != inst.n:
        raise ValueError("allocation length differs from the vertex count")
    if p.total() != matching.b_matching_value(inst):
        return False
    if any(p[v] < 0 for v in range(inst.n)):
        return False
    if any(p[e.u] + p[e.v] < e.w for e in inst.edges):
        return False
    family = enumerate_family(inst, p)
    for g in family.members:
        if not simplex_feasible(build_dual_system(g)).is_feasible:
            return False
    return True


def flow_primal_unbounded(g: CostedGraph) -> bool:
    """Whether min c.x over the cycle-cone flow LP is unbounded below."""
    return simplex_solve(build_flow_primal(g)).status == "unbounded"


@dataclass(frozen=True)
class SizeReport:
    """Exact variable/constraint tallies for the extended formulation, plus
    the closed-form family bound and polynomial size envelopes."""

    n: int
    m: int
    family_size: int
    family_bound: int
    p_vars: int
    gamma_vars: int
    lambda_vars: int
    total_vars: int
    base_constraints: int  # total value + vertex + edge rows
    arc_constraints: int
    cost_constraints: int
    nonneg_constraints: int
    total_constraints: int
    var_envelope: int
    constraint_envelope: int


def size_report(inst: Instance) -> SizeReport:
    family = enumerate_family(inst)
    gamma = 0
    lam = 0
    arc = 0
    cost = 0
    for g in family.members:
        em = len(g.edges)
        nv = len(g.vertices)
        gamma += em * nv
        lam += 2 * em * (em - 1)
        arc += 2 * em * (em - 1)
        cost += em
    n, m = inst.n, inst.m
    envelope_family = 1 + n**4
    block_vars = n * (m + 1) + 2 * (m + 1) * m
    block_cons = 2 * (m + 1) * m + (m + 1) + 2 * (m + 1) * m
    return SizeReport(
        n=n,
        m=m,
        family_size=len(family.members),
        family_bound=family_size_bound(inst),
        p_vars=n,
        gamma_vars=gamma,
        lambda_vars=lam,
        total_vars=n + gamma + lam,
        base_constraints=1 + n + m,
        arc_constraints=arc,
        cost_constraints=cost,
        nonneg_constraints=lam,
        total_constraints=1 + n + m + arc + cost + lam,
        var_envelope=n + envelope_family * block_vars,
        constraint_envelope=1 + n + m + envelope_family * block_cons,
    )
