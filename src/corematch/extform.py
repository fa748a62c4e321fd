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
# perfbench/tracing.py lists extform.simplex_feasible in WRAPPED and
# `install` reads it with getattr, so this binding must stay even where no
# code here calls it; check_membership solves every block through it
from .linsys import _LP, ConstraintSystem, _value, simplex_feasible, simplex_solve
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
    sys.objective = {x[i]: e.cost for i, e in enumerate(g.edges) if e.cost != 0}

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


def _dual_block(g: CostedGraph, keys, first: int, symbolic: bool) -> list:
    """One graph's dual feasibility block as rows over the columns first,
    first + 1, ...: gamma_e{i}_v{v} for each edge i and each vertex v of g,
    in order, then lam_e{i}_{a}_{b} (>= 0) for each edge i and each arc
    (a, b) of `_arcs(g, i)`, in order. The rows are the arc rows in lam
    order, then one cost row per edge, each as (coeffs, rel, rhs), where
    coeffs maps keys[column] to the value: `keys` lists the columns
    themselves for an indexed block, or a ConstraintSystem's variables.

    Each cost row's right-hand side is its edge's cost. When `symbolic`, g
    is costed at p = 0 and each cost row also carries -1/2 at columns u and
    v, the p_u and p_v columns: the (p_u + p_v)/2 part of the cost, moved to
    the left-hand side.
    """
    m, nv = len(g.edges), len(g.vertices)
    at = {v: first + k for k, v in enumerate(g.vertices)}  # gamma_e0_v{v}
    lam0, width = first + m * nv, 2 * (m - 1)  # lam_e0's first column, arcs a block
    rows = []
    col = lam0
    for i in range(m):
        gi = i * nv
        for _, a, b in _arcs(g, i):
            rows.append(({keys[at[a] + gi]: 1, keys[at[b] + gi]: -1, keys[col]: -1}, "<=", 0))
            col += 1
    for i, ebar in enumerate(g.edges):
        u, v = ebar.u, ebar.v
        coeffs = {keys[at[u] + i * nv]: -1, keys[at[v] + i * nv]: 1}
        # capacity multipliers of edge ē inside every other block k: its arcs
        # u-v and v-u are block k's arcs 2i and 2i + 1, less the 2 of edge k
        # when k < i
        for k in range(m):
            if k != i:
                c = lam0 + k * width + 2 * (i - (k < i))
                coeffs[keys[c]] = coeffs[keys[c + 1]] = 1
        if symbolic:
            coeffs[keys[u]] = coeffs[keys[v]] = _MINUS_HALF
        rows.append((coeffs, "<=", _value(ebar.cost)))
    return rows


def _add_dual_block(sys: ConstraintSystem, g: CostedGraph, prefix: str,
                    symbolic: bool) -> None:
    """Append g's dual block (`_dual_block`) to `sys`, naming its columns
    and rows in the builder's order; each lam column's sign becomes an
    nn_lam row."""
    first = len(sys.variables)
    m = len(g.edges)
    for i in range(m):
        for v in g.vertices:
            sys.add_variable(f"{prefix}gamma_e{i}_v{v}")
    arcs = [(i, a, b) for i in range(m) for _, a, b in _arcs(g, i)]
    lams = [sys.add_variable(f"{prefix}lam_e{i}_{a}_{b}") for i, a, b in arcs]
    row_names = [f"{prefix}arc_e{i}_{a}_{b}" for i, a, b in arcs]
    row_names += [f"{prefix}cost_e{i}" for i in range(m)]
    for name, row in zip(row_names, _dual_block(g, sys.variables, first, symbolic)):
        sys.add_constraint(name, *row)
    for (i, a, b), lam in zip(arcs, lams):
        sys.add_constraint(f"{prefix}nn_lam_e{i}_{a}_{b}", {lam: 1}, ">=", 0)


def _membership_lp(g: CostedGraph) -> _LP:
    """g's dual block as the indexed system `_lower(build_dual_system(g))`:
    the lam columns are sign columns, so the block has no nn_lam rows."""
    m = len(g.edges)
    lam0 = m * len(g.vertices)
    ncols = lam0 + 2 * m * (m - 1)
    return _LP(ncols, set(range(lam0, ncols)), _dual_block(g, list(range(ncols)), 0, False))


def build_dual_system(g: CostedGraph) -> ConstraintSystem:
    """Mechanical dual of the compact flow primal; feasible iff the primal is
    bounded iff g has no negative-cost cycle."""
    sys = ConstraintSystem(name="flow-dual")
    _add_dual_block(sys, g, "", False)
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
        _add_dual_block(sys, g, f"g{k}_", True)
    return sys


def check_membership(inst: Instance, p: Allocation) -> bool:
    """Exact core membership through the extended formulation: direct checks
    for the total/vertex/edge constraints, then one phase-I feasibility run
    per family member's dual block, built as an indexed `_LP`."""
    check_allocation_length(inst, p)
    if p.total() != inst.grand_value:
        return False
    if any(p[v] < 0 for v in range(inst.n)):
        return False
    if any(p[e.u] + p[e.v] < e.w for e in inst.edges):
        return False
    family = enumerate_family(inst, p)
    for g in family.members:
        if not simplex_feasible(_membership_lp(g)).is_feasible:
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
