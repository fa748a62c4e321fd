"""Compact extended formulation of the core and exact LP membership checks.

The graph family is separation's: G2, the capacity-2 subgraph, plus every
st-variant, built by `separation.variant_structures` and
`separation.realize_variant` from `separation.integer_costs` divided back by
their scale, the exact costs, less the variant of a pair joined by a G2 edge,
whose block G2's implies (`separation.g2_joined`, the rule by which the path
stage skips that pair). Every member edge u-v costs (p_u + p_v)/2
plus its cost at p = 0, so the family costed at p = 0 gives the constant
parts of the formulation. For each graph in the family, the
no-negative-cycle condition is expressed through the dual of a compact
flow LP over the cycle cone: cut/cycle inequalities for a fixed edge are
max-flow feasibility, flows become per-edge conservation blocks, and the dual
of the whole thing is a feasibility system whose right-hand sides are affine
in the allocation. Gluing those blocks onto the total-value, vertex, and edge
constraints yields a polynomial-size system whose projection onto the
allocation variables is exactly the core.

Every LP here is written by column: the flow primal and each dual block
build their rows as flat lists of columns, values and row ends, each row in
ascending column order, and hand them to linsys's row store a block at a
time (`_Store.extend`), never a row at a time; a membership check solves
each member's block as an `_LP`, with no names. A block's column and row
names are not formatted when it is built: it hands linsys two block runs
(`linsys._Run`) over its prefix, vertex tuple and edge endpoint pairs, and
the functions under "Names" below format them when they are read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import separation
# perfbench/tracing.py lists extform.simplex_feasible in WRAPPED and
# `install` reads it with getattr, so this binding must stay even where no
# code here calls it; check_membership solves every block through it
from .linsys import (_LP, Constraint, ConstraintSystem, _Run, _Store, _value, simplex_feasible,
                     simplex_solve)
from .model import Allocation, Instance, check_allocation_length
from .negcycle import CostEdge, CostedGraph

# the p coefficient of every cost row of the formulation
_MINUS_HALF = Fraction(-1, 2)


class GraphFamily(NamedTuple):
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
    before any variant is built. A pair joined by a G2 edge is dropped too:
    its one variant holds no negative cycle where G2 holds none
    (`separation.g2_joined`), so G2's block implies its block.
    """
    if p is None:
        p = Allocation((Fraction(0),) * inst.n)
    costs = _exact(separation.integer_costs(inst, p))
    members = [costs.g2]
    labels = ["g2"]
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            if (not (_excess(inst, s, t) and _excess(inst, t, s))
                    or separation.g2_joined(inst, s, t)):
                continue
            for struct in separation.variant_structures(inst, s, t):
                members.append(separation.realize_variant(costs, struct))
                labels.append(
                    f"variant s={s} t={t} kept_s={struct.kept_s} kept_t={struct.kept_t}"
                )
    return GraphFamily(members=tuple(members), labels=tuple(labels))


def _exact(costs: separation.TransferCosts) -> separation.TransferCosts:
    """The integer `costs` divided by their scale: the exact ones, at scale 1."""
    half = [Fraction(x, costs.scale) for x in costs.half]
    cost = [Fraction(x, costs.scale) for x in costs.cost]
    g2 = CostedGraph._trusted(costs.g2.vertices, tuple([CostEdge(e.u, e.v, cost[e.orig], e.orig)
                                                        for e in costs.g2.edges]))
    return costs._replace(scale=1, half=half, cost=cost, g2=g2)


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


# Names: each function below returns a block's column or row names, from
# its prefix, vertex tuple and edge endpoint pairs, in the order the block's
# builder lays the columns and rows out.


def _endpoints(g: CostedGraph) -> tuple[tuple[int, int], ...]:
    return tuple((e.u, e.v) for e in g.edges)


def _edge_names(head: str, m: int, tails: list[str]) -> list[str]:
    """{head}{i}{tail} for each edge i < m and each of `tails`, in order."""
    return [e + tail for e in [f"{head}{i}" for i in range(m)] for tail in tails]


def _other_arcs(pairs: tuple) -> list[list[str]]:
    """Per edge i, _{a}_{b} for each arc (a, b) of `_arcs(g, i)`, pairs
    being g's `_endpoints`."""
    arcs = [f"_{a}_{b}" for u, v in pairs for a, b in ((u, v), (v, u))]
    return [arcs[:2 * i] + arcs[2 * i + 2:] for i in range(len(pairs))]


def _arc_names(head: str, others: list[list[str]]) -> list[str]:
    """{head}{i}_{a}_{b} for each edge i and each of its `_other_arcs`."""
    return [e + arc for e, arcs in zip([f"{head}{i}" for i in range(len(others))], others)
            for arc in arcs]


def _flow_columns(pairs: tuple) -> list[str]:
    return [f"x_e{i}" for i in range(len(pairs))] + _arc_names("y_e", _other_arcs(pairs))


def _flow_rows(vertices: tuple, pairs: tuple) -> list[str]:
    names = []
    for i, arcs in enumerate(_other_arcs(pairs)):
        names += [f"flow_e{i}_v{v}" for v in vertices]
        names += [f"cap_e{i}{arc}" for arc in arcs]
    return names + [f"nn_{v}" for v in _flow_columns(pairs)]


def _dual_columns(prefix: str, vertices: tuple, pairs: tuple) -> list[str]:
    return (_edge_names(f"{prefix}gamma_e", len(pairs), [f"_v{v}" for v in vertices])
            + _arc_names(f"{prefix}lam_e", _other_arcs(pairs)))


def _dual_rows(prefix: str, pairs: tuple) -> list[str]:
    others = _other_arcs(pairs)
    return (_arc_names(f"{prefix}arc_e", others) + [f"{prefix}cost_e{i}" for i in range(len(pairs))]
            + _arc_names(f"{prefix}nn_lam_e", others))


def build_flow_primal(g: CostedGraph) -> ConstraintSystem:
    """min sum c_e x_e over the cycle cone, written with one flow block per
    edge: x_ē units must flow from u to v through the rest of the graph,
    every arc capacity bounded by its own x."""
    m, nv = len(g.edges), len(g.vertices)
    # column i is x_e{i}; then the y of every edge's arcs, in arc order
    sys = ConstraintSystem("flow-primal", objective={
        f"x_e{i}": e.cost for i, e in enumerate(g.edges) if e.cost != 0})
    # (edge, sign) at each vertex, in edge order: edge j's arc u-v leaves u
    # (+1) and enters v (-1), its arc v-u the other way round
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in g.vertices}
    for j, e in enumerate(g.edges):
        incident[e.u].append((j, 1))
        incident[e.v].append((j, -1))
    cols, vals, ends, rels = [], [], [], []
    y = m  # the column of edge i's first y
    for i, ebar in enumerate(g.edges):
        # conservation at every vertex: x_ē leaves u and arrives at v, then
        # out-arcs +1 and in-arcs -1, whose columns ascend in edge order and
        # follow every x
        for w in g.vertices:
            if w == ebar.u or w == ebar.v:
                cols.append(i)
                vals.append(-1 if w == ebar.u else 1)
            for j, s in incident[w]:
                if j != i:
                    c = y + 2 * (j - (j > i))
                    cols += (c, c + 1)
                    vals += (s, -s)
            ends.append(len(cols))
        rels += ["="] * nv
        # x_e{j} <= y: the x column comes first
        na, base = 2 * (m - 1), len(cols)
        cols += [k for col, (j, _, _) in enumerate(_arcs(g, i), y) for k in (j, col)]
        vals += [-1, 1] * na
        ends += range(base + 2, base + 2 * na + 1, 2)
        rels += ["<="] * na
        y += na
    base = len(cols)
    cols += range(y)
    vals += [1] * y
    ends += range(base + 1, base + y + 1)
    rels += [">="] * y
    pairs = _endpoints(g)
    sys._extend(_Run(y, _flow_columns, pairs), _Run(len(ends), _flow_rows, g.vertices, pairs),
                cols, vals, ends, rels, [0] * len(ends))
    return sys


def _dual_block(g: CostedGraph, first: int, symbolic: bool) -> tuple[list, ...]:
    """One graph's dual feasibility block, as `linsys._Store.extend` takes
    it, all of its rows "<=", over the columns first, first + 1, ...:
    gamma_e{i}_v{v} for each edge i and vertex v of g, then
    lam_e{i}_{a}_{b} (>= 0) for each edge i and arc (a, b) of `_arcs(g, i)`.
    The rows are the arc rows in lam order, then one cost row per edge,
    whose rhs is the edge's cost. When `symbolic`, g is costed at p = 0 and
    each cost row also carries -1/2 at columns u and v, the p_u and p_v
    columns: the (p_u + p_v)/2 part of the cost, moved to the left-hand
    side. Each row's columns are written in ascending order."""
    m, nv = len(g.edges), len(g.vertices)
    lam0, width = first + m * nv, 2 * (m - 1)  # lam_e0's column, arcs a block
    at = {v: k for k, v in enumerate(g.vertices)}  # gamma_e0_v{v}, less first
    # per edge, its gamma columns in order, less the block's first, and the
    # values of its arc rows u-v and v-u: gamma_a - gamma_b - lam <= 0
    arc_rows = [(at[e.u], at[e.v], (1, -1, -1, -1, 1, -1)) if at[e.u] < at[e.v]
                else (at[e.v], at[e.u], (-1, 1, -1, 1, -1, -1)) for e in g.edges]
    cols, vals = [], []
    lam = lam0
    for i in range(m):
        gi = first + i * nv
        for j, (a, b, signs) in enumerate(arc_rows):  # `_arcs(g, i)`'s order
            if j != i:
                a += gi
                b += gi
                cols += (a, b, lam, a, b, lam + 1)
                vals += signs
                lam += 2
    ends = [*range(3, len(cols) + 1, 3)]
    for i, ebar in enumerate(g.edges):
        u, v = ebar.u, ebar.v
        if symbolic:  # the p columns, below every gamma
            cols += (u, v) if u < v else (v, u)
            vals += (_MINUS_HALF, _MINUS_HALF)
        a, b, signs = arc_rows[i]  # -gamma_u + gamma_v
        gi = first + i * nv
        cols += (a + gi, b + gi)
        vals += signs[3:5]
        # capacity multipliers of edge ē inside every other block k, in k
        # order: its arcs u-v and v-u are block k's arcs 2i and 2i + 1, less
        # the 2 of edge k when k < i
        for k in range(m):
            if k != i:
                c = lam0 + k * width + 2 * (i - (k < i))
                cols += (c, c + 1)
        vals += (1,) * width
        ends.append(len(cols))
    rhs = [0] * (m * width) + [_value(e.cost) for e in g.edges]
    return cols, vals, ends, ["<="] * len(ends), rhs


def _add_dual_block(sys: ConstraintSystem, g: CostedGraph, prefix: str,
                    symbolic: bool) -> None:
    """Append g's dual block (`_dual_block`) to `sys`, its columns and rows
    named (`_dual_columns`, `_dual_rows`) when read; each lam column's sign
    becomes an nn_lam row."""
    m = len(g.edges)
    first = len(sys.variables)
    lam0, n = first + m * len(g.vertices), 2 * m * (m - 1)
    cols, vals, ends, rels, rhs = _dual_block(g, first, symbolic)
    ends += range(len(cols) + 1, len(cols) + n + 1)
    cols += range(lam0, lam0 + n)
    vals += [1] * n
    rels += [">="] * n
    rhs += [0] * n
    pairs = _endpoints(g)
    sys._extend(_Run(lam0 + n - first, _dual_columns, prefix, g.vertices, pairs),
                _Run(len(ends), _dual_rows, prefix, pairs), cols, vals, ends, rels, rhs)


def _membership_lp(g: CostedGraph) -> _LP:
    """g's dual block as the indexed system `_lower(build_dual_system(g))`:
    the lam columns are sign columns, so the block has no nn_lam rows."""
    m = len(g.edges)
    lam0 = m * len(g.vertices)
    ncols = lam0 + 2 * m * (m - 1)
    rows = _Store()
    rows.extend(*_dual_block(g, 0, False))
    return _LP(ncols, set(range(lam0, ncols)), rows)


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
    p = [f"p_{v}" for v in range(inst.n)]
    sys = ConstraintSystem(f"core-extform({inst.name or 'instance'})", p)
    sys._append([Constraint("total", dict.fromkeys(p, 1), "=", inst.grand_value),
                 *(Constraint(f"nn_{v}", {v: 1}, ">=", 0) for v in p),
                 *(Constraint(f"edge_e{i}", {p[e.u]: 1, p[e.v]: 1}, ">=", e.w)
                   for i, e in enumerate(inst.edges))])
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


class SizeReport(NamedTuple):
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
