"""Compact extended formulation of the core and exact LP membership checks.

The graph family is separation's: G2, the capacity-2 subgraph, as
`separation.transfer_costs` builds it from the exact (unscaled) costs, plus
every st-variant, built from those costs by `separation.variant_structures`
and `separation.realize_variant`. Every member edge u-v costs (p_u + p_v)/2
plus its cost at p = 0, so the family costed at p = 0 gives the constant
parts of the formulation. For each graph in the family, the
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

from . import separation
from .linsys import ConstraintSystem, simplex_feasible, simplex_solve
from .model import Allocation, Instance, check_allocation_length
from .negcycle import CostedGraph

# the p coefficient of every cost row of the formulation
_MINUS_HALF = Fraction(-1, 2)


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
    family-size bound. An endpoint keeps such an edge in every variant of
    its pair or in none, as it has a capacity-2 neighbour besides the far
    endpoint (`Instance.nbrs2`) or not, so the test is made once per pair,
    before any variant is built.
    """
    if p is None:
        p = Allocation((Fraction(0),) * inst.n)
    check_allocation_length(inst, p)
    costs = separation.transfer_costs(inst, p)
    members = [costs.g2]
    labels = ["g2"]
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            if not (_excess(inst, s, t) and _excess(inst, t, s)):
                continue
            for struct in separation.variant_structures(inst, s, t):
                members.append(separation.realize_variant(costs, struct))
                labels.append(
                    f"variant s={s} t={t} kept_s={struct.kept_s} kept_t={struct.kept_t}"
                )
    return GraphFamily(members=tuple(members), labels=tuple(labels))


def _excess(inst: Instance, x: int, far: int) -> int:
    """The capacity-2 neighbours of endpoint x other than the far endpoint:
    the edges besides st that x may keep in its pair's variants."""
    return sum(y != far for y, _ in inst.nbrs2[x])


def family_size_bound(inst: Instance) -> int:
    """1 + sum over ordered endpoint pairs of (d_s - 1)(d_t - 1), degrees taken
    in the st-augmented auxiliary graph.

    d_s - 1 counts the edges from s to capacity-2 vertices other than t,
    which is `_excess(inst, s, t)`.
    """
    return 1 + sum(
        _excess(inst, s, t) * _excess(inst, t, s)
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
    m = len(g.edges)
    # every name is formatted once: x[i], and y[i] as (j, a, b, name) in arc order
    x = [sys.add_variable(f"x_e{i}") for i in range(m)]
    y = [
        [(j, a, b, sys.add_variable(f"y_e{i}_{a}_{b}")) for j, a, b in _arcs(g, i)]
        for i in range(m)
    ]
    sys.objective = {x[i]: Fraction(e.cost) for i, e in enumerate(g.edges) if e.cost != 0}

    for i, ebar in enumerate(g.edges):
        # conservation at every vertex: out-arcs +1, in-arcs -1; x_ē leaves u
        # and arrives at v
        flow: dict[int, dict[str, int]] = {v: {} for v in g.vertices}
        for _, a, b, name in y[i]:
            flow[a][name] = 1
            flow[b][name] = -1
        flow[ebar.u][x[i]] = -1
        flow[ebar.v][x[i]] = 1
        for v, coeffs in flow.items():
            sys.add_constraint(f"flow_e{i}_v{v}", coeffs, "=", 0)
        for j, a, b, name in y[i]:
            sys.add_constraint(f"cap_e{i}_{a}_{b}", {name: 1, x[j]: -1}, "<=", 0)
    for i in range(m):
        sys.add_constraint(f"nn_x_e{i}", {x[i]: 1}, ">=", 0)
    for i in range(m):
        for _, a, b, name in y[i]:
            sys.add_constraint(f"nn_y_e{i}_{a}_{b}", {name: 1}, ">=", 0)
    return sys


def _dual_block(sys: ConstraintSystem, g: CostedGraph, prefix: str,
                symbolic: bool) -> None:
    """Append one graph's dual feasibility block to `sys`.

    Each cost row's right-hand side is its edge's cost. When `symbolic`, g
    is costed at p = 0 and each cost row also carries -1/2 p_u and -1/2 p_v:
    the (p_u + p_v)/2 part of the cost, moved to the left-hand side.
    """
    m = len(g.edges)
    # every name is formatted once: gamma[i][v], and lam[i][(a, b)] in arc order
    gamma = [
        {v: sys.add_variable(f"{prefix}gamma_e{i}_v{v}") for v in g.vertices}
        for i in range(m)
    ]
    lam = [
        {(a, b): sys.add_variable(f"{prefix}lam_e{i}_{a}_{b}") for _, a, b in _arcs(g, i)}
        for i in range(m)
    ]

    for i in range(m):
        for (a, b), name in lam[i].items():
            sys.add_constraint(
                f"{prefix}arc_e{i}_{a}_{b}",
                {gamma[i][a]: 1, gamma[i][b]: -1, name: -1},
                "<=",
                0,
            )
    for i, ebar in enumerate(g.edges):
        u, v = ebar.u, ebar.v
        coeffs: dict[str, int | Fraction] = {gamma[i][u]: -1, gamma[i][v]: 1}
        # capacity multipliers of edge ē inside every other block
        for k in range(m):
            if k != i:
                coeffs[lam[k][u, v]] = 1
                coeffs[lam[k][v, u]] = 1
        if symbolic:
            coeffs[f"p_{u}"] = _MINUS_HALF
            coeffs[f"p_{v}"] = _MINUS_HALF
        sys.add_constraint(f"{prefix}cost_e{i}", coeffs, "<=", ebar.cost)
    for i in range(m):
        for (a, b), name in lam[i].items():
            sys.add_constraint(f"{prefix}nn_lam_e{i}_{a}_{b}", {name: 1}, ">=", 0)


def build_dual_system(g: CostedGraph) -> ConstraintSystem:
    """Mechanical dual of the compact flow primal; feasible iff the primal is
    bounded iff g has no negative-cost cycle."""
    sys = ConstraintSystem(name="flow-dual")
    _dual_block(sys, g, "", False)
    return sys


def build_extended_formulation(inst: Instance) -> ConstraintSystem:
    """The full core system: total value, vertex and edge constraints, plus
    one symbolic dual block per family member. Its projection onto the p
    variables is the core."""
    sys = ConstraintSystem(name=f"core-extform({inst.name or 'instance'})")
    for v in range(inst.n):
        sys.add_variable(f"p_{v}")
    sys.add_constraint(
        "total", {f"p_{v}": 1 for v in range(inst.n)}, "=", inst.grand_value
    )
    for v in range(inst.n):
        sys.add_constraint(f"nn_p_{v}", {f"p_{v}": 1}, ">=", 0)
    for i, e in enumerate(inst.edges):
        sys.add_constraint(
            f"edge_e{i}", {f"p_{e.u}": 1, f"p_{e.v}": 1}, ">=", e.w
        )
    for k, g in enumerate(enumerate_family(inst).members):
        _dual_block(sys, g, f"g{k}_", True)
    return sys


def check_membership(inst: Instance, p: Allocation) -> bool:
    """Exact core membership through the extended formulation: direct checks
    for the total/vertex/edge constraints, then one phase-I feasibility run
    per family member's dual block."""
    check_allocation_length(inst, p)
    if p.total() != inst.grand_value:
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
    lam = 0  # one arc row and one sign row per lambda variable
    cost = 0
    for g in family.members:
        em = len(g.edges)
        gamma += em * len(g.vertices)
        lam += 2 * em * (em - 1)
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
        arc_constraints=lam,
        cost_constraints=cost,
        nonneg_constraints=lam,
        total_constraints=1 + n + m + 2 * lam + cost,
        var_envelope=n + envelope_family * block_vars,
        constraint_envelope=1 + n + m + envelope_family * block_cons,
    )
