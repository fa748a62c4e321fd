"""Core separation for 2-matching games.

The oracle runs four stages in a fixed order: total value, vertex and edge
constraints, cycle constraints (negative-cycle detection on the capacity-2
subgraph after transferring the allocation to edge costs), and path
constraints (negative-cycle detection on endpoint-variant graphs through an
artificial st edge). The first violated constraint is returned as an exact,
re-verifiable certificate.

The cycle and path stages cost edges in integers. With D = 2·lcm of all
denominators of p and w, P_v = p_v·D/2 and W_e = w_e·D, an instance edge
uv costs cost·D = P_u + P_v − W_e and the st edge costs P_s + P_t, where
cost = (p_u + p_v)/2 − w_uv is the exact transfer cost. Each stage computes
both vectors once for its allocation, not once per variant, and since D > 0
every comparison, and so every join, cycle and certificate, is that of the
exact costs. ν(N) is computed once per `Instance` and dropped with it.
"""

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple, Optional

from . import matching, negcycle
from .model import Allocation, Instance, InvariantError, Violation, ViolationKind, coalition
from .negcycle import Cost, CostEdge, CostedGraph, Cycle


@dataclass(frozen=True)
class SeparationVerdict:
    violation: Optional[Violation]

    @property
    def in_core(self) -> bool:
        return self.violation is None


# ν(N) per instance; an entry lives only as long as its instance
_GRAND_VALUE: "weakref.WeakKeyDictionary[Instance, Fraction]" = weakref.WeakKeyDictionary()


def _grand_value(inst: Instance) -> Fraction:
    value = _GRAND_VALUE.get(inst)
    if value is None:
        value = _GRAND_VALUE[inst] = matching.b_matching_value(inst)
    return value


def check_total_value(inst: Instance, p: Allocation) -> Optional[Violation]:
    """None iff p(N) equals the grand-coalition value."""
    total = _grand_value(inst)
    if p.total() == total:
        return None
    return Violation(
        ViolationKind.TOTAL_VALUE, tuple(range(inst.n)), p.total(), total
    )


def _vertex_edge_violations(inst: Instance, p: Allocation) -> Iterator[Violation]:
    """Violated vertex (p_i < 0), then edge (p_i + p_j < w_ij) constraints, in
    scan order."""
    for v in range(inst.n):
        if p[v] < 0:
            yield Violation(ViolationKind.VERTEX, (v,), p[v], Fraction(0))
    for i, e in enumerate(inst.edges):
        if p[e.u] + p[e.v] < e.w:
            yield Violation(
                ViolationKind.EDGE, coalition((e.u, e.v)), p[e.u] + p[e.v], e.w, (i,)
            )


def separate_vertices_edges(inst: Instance, p: Allocation) -> Optional[Violation]:
    """First violated vertex (p_i < 0) or edge (p_i + p_j < w_ij) in scan order."""
    return next(_vertex_edge_violations(inst, p), None)


class TransferCosts(NamedTuple):
    """The transfer costs of one allocation, times a positive scale D.

    `half[v]` is P_v = p_v·D/2 and `edge[i]` is P_u + P_v − W_i for instance
    edge i = uv, with W_i = w_i·D; an artificial st edge (weight 0) costs
    half[s] + half[t].
    """

    edge: tuple[Cost, ...]
    half: tuple[Cost, ...]


def _costs(inst: Instance, half: tuple[Cost, ...], weights) -> TransferCosts:
    edge = tuple(half[e.u] + half[e.v] - w for e, w in zip(inst.edges, weights))
    return TransferCosts(edge, half)


def transfer_costs(inst: Instance, p: Allocation) -> TransferCosts:
    """The exact transfer costs (p_u + p_v)/2 − w_uv, as Fractions (D = 1)."""
    return _costs(inst, tuple(x / 2 for x in p.values), (e.w for e in inst.edges))


def integer_costs(inst: Instance, p: Allocation) -> TransferCosts:
    """The transfer costs times D = 2·lcm of all denominators of p and w,
    as ints."""
    lcm = math.lcm(
        *(x.denominator for x in p.values), *(e.w.denominator for e in inst.edges)
    )
    # P_v = p_v·D/2 = p_v·lcm and W_e = w_e·D = 2·w_e·lcm
    half = tuple(x.numerator * (lcm // x.denominator) for x in p.values)
    weights = (2 * e.w.numerator * (lcm // e.w.denominator) for e in inst.edges)
    return _costs(inst, half, weights)


def build_g2(inst: Instance, costs: TransferCosts) -> CostedGraph:
    """Induced subgraph on capacity-2 vertices, costed by `costs`."""
    members = set(inst.n2)
    edges = tuple(
        CostEdge(e.u, e.v, costs.edge[i], i)
        for i, e in enumerate(inst.edges)
        if e.u in members and e.v in members
    )
    return CostedGraph(vertices=inst.n2, edges=edges)


def _cycle_violation(inst: Instance, p: Allocation, g: CostedGraph,
                     cyc: Cycle) -> Violation:
    """Build a violation from a negative cycle of g: a Path violation when the
    cycle runs through g's marker edge (which is dropped), else a Cycle."""
    if g.marker not in cyc.edges:
        kind = ViolationKind.CYCLE
        eids = list(cyc.edges)
    else:
        kind = ViolationKind.PATH
        # rotate so the marker edge is last, leaving path order; orient the
        # walk from its smaller endpoint
        q = cyc.edges.index(g.marker)
        k = len(cyc.edges)
        eids = [cyc.edges[(q + 1 + r) % k] for r in range(k - 1)]
        first = cyc.vertices[(q + 1) % k]
        last = cyc.vertices[q]
        if first > last:
            eids.reverse()
    orig = tuple(g.edges[i].orig for i in eids)
    if any(o is None for o in orig):
        raise InvariantError("certificate holds a synthetic edge")
    verts = coalition(cyc.vertices)
    allocated = p.of(verts)
    bound = sum((inst.edges[i].w for i in orig), Fraction(0))
    if allocated >= bound:
        raise InvariantError("negative cycle gives no violated certificate")
    return Violation(kind, verts, allocated, bound, orig)


def separate_cycles(inst: Instance, p: Allocation) -> Optional[Violation]:
    """None iff p(C) >= w(C) for every cycle through capacity-2 vertices."""
    g2 = build_g2(inst, integer_costs(inst, p))
    cyc = negcycle.find_negative_cycle(g2)
    if cyc is None:
        return None
    return _cycle_violation(inst, p, g2, cyc)


@dataclass(frozen=True)
class VariantStructure:
    """Cost-free skeleton of one st-variant: which instance edges it keeps.

    The marker st edge is implicit and always appended after `edge_ids`.
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    s: int
    t: int
    kept_s: Optional[int]
    kept_t: Optional[int]


def variant_structures(inst: Instance, s: int, t: int) -> list[VariantStructure]:
    """Variant skeletons for the unordered endpoint pair {s, t}.

    One variant when both endpoints have capacity 2; one per kept edge at a
    capacity-1 endpoint; the (kept_s, kept_t) product when both have
    capacity 1. Empty when a capacity-1 endpoint has no non-st edge.
    """
    if s == t:
        raise ValueError("endpoints must differ")
    s, t = min(s, t), max(s, t)
    members = set(inst.n2) | {s, t}

    base_ids = [
        i
        for i, e in enumerate(inst.edges)
        if e.u in members and e.v in members and {e.u, e.v} != {s, t}
    ]
    at_s = [i for i in base_ids if s in (inst.edges[i].u, inst.edges[i].v)]
    at_t = [i for i in base_ids if t in (inst.edges[i].u, inst.edges[i].v)]
    keep_s_choices = [None] if inst.b[s] == 2 else at_s
    keep_t_choices = [None] if inst.b[t] == 2 else at_t

    out: list[VariantStructure] = []
    for ks in keep_s_choices:
        for kt in keep_t_choices:
            ids = []
            for i in base_ids:
                e = inst.edges[i]
                if ks is not None and s in (e.u, e.v) and i != ks:
                    continue
                if kt is not None and t in (e.u, e.v) and i != kt:
                    continue
                ids.append(i)
            out.append(
                VariantStructure(
                    vertices=tuple(sorted(members)),
                    edge_ids=tuple(ids),
                    s=s,
                    t=t,
                    kept_s=ks,
                    kept_t=kt,
                )
            )
    return out


def realize_variant(inst: Instance, costs: TransferCosts,
                    struct: VariantStructure) -> CostedGraph:
    """Attach precomputed costs to a variant skeleton.

    The st edge comes last and is the graph's marker; it has weight 0, so its
    cost is half[s] + half[t].
    """
    edges = [
        CostEdge(inst.edges[i].u, inst.edges[i].v, costs.edge[i], i)
        for i in struct.edge_ids
    ]
    edges.append(
        CostEdge(struct.s, struct.t, costs.half[struct.s] + costs.half[struct.t], None)
    )
    return CostedGraph(
        vertices=struct.vertices, edges=tuple(edges), marker=len(edges) - 1
    )


def variants(inst: Instance, costs: TransferCosts, s: int, t: int) -> list[CostedGraph]:
    """The costed variant family for the unordered endpoint pair {s, t}."""
    return [realize_variant(inst, costs, st) for st in variant_structures(inst, s, t)]


def _path_violations(inst: Instance, p: Allocation) -> Iterator[Violation]:
    """One violation per endpoint pair and variant with a negative cycle.

    A negative cycle through the marker st edge yields a violated path by
    deleting st; one avoiding the marker is a violated cycle, which cannot
    occur once the cycle constraints hold.
    """
    costs = integer_costs(inst, p)
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            for g in variants(inst, costs, s, t):
                cyc = negcycle.find_negative_cycle(g)
                if cyc is not None:
                    yield _cycle_violation(inst, p, g, cyc)


def separate_paths(inst: Instance, p: Allocation) -> Optional[Violation]:
    """Search all endpoint pairs and variants for a violated path of length
    >= 2; assumes vertex/edge and cycle constraints already hold, and reports
    a marker-free negative cycle as a Cycle violation defensively."""
    return next(_path_violations(inst, p), None)


def separate(inst: Instance, p: Allocation) -> SeparationVerdict:
    """Full core separation: total value, vertices/edges, cycles, paths."""
    if len(p) != inst.n:
        raise ValueError("allocation length differs from the vertex count")
    for stage in (
        check_total_value,
        separate_vertices_edges,
        separate_cycles,
        separate_paths,
    ):
        violation = stage(inst, p)
        if violation is not None:
            return SeparationVerdict(violation)
    return SeparationVerdict(None)


def separate_all(inst: Instance, p: Allocation) -> list[Violation]:
    """Diagnostic mode: every violated constraint-family member, not just the
    first. Order: total value, vertices, edges, the cycle family, then each
    endpoint pair/variant; a violation found again (a marker-free cycle lies
    in many variants) is kept only where it first appeared."""
    found = chain(
        [check_total_value(inst, p)],
        _vertex_edge_violations(inst, p),
        [separate_cycles(inst, p)],
        _path_violations(inst, p),
    )
    return list(dict.fromkeys(v for v in found if v is not None))


def verify_violation(inst: Instance, p: Allocation, v: Violation) -> bool:
    """Re-check a certificate arithmetically, including p(S) < nu(S)."""
    S = v.coalition
    if v.kind is ViolationKind.TOTAL_VALUE:
        return (
            S == tuple(range(inst.n))
            and v.allocated == p.total()
            and v.bound == _grand_value(inst)
            and v.allocated != v.bound
        )
    if v.allocated != p.of(S) or v.allocated >= v.bound:
        return False
    if v.kind is ViolationKind.VERTEX:
        return len(S) == 1 and v.bound == 0
    if v.kind is ViolationKind.COALITION:
        return v.bound == matching.nu(inst, S)
    # Edge / Cycle / Path: witness must be the claimed structure on exactly S
    eids = v.witness_edges
    if v.bound != sum((inst.edges[i].w for i in eids), Fraction(0)):
        return False
    touched = set()
    deg: dict[int, int] = {}
    for i in eids:
        e = inst.edges[i]
        touched |= {e.u, e.v}
        deg[e.u] = deg.get(e.u, 0) + 1
        deg[e.v] = deg.get(e.v, 0) + 1
    if tuple(sorted(touched)) != S:
        return False
    if v.kind is ViolationKind.EDGE:
        return len(eids) == 1
    if v.kind is ViolationKind.CYCLE:
        if any(deg[x] != 2 for x in S) or len(eids) != len(S):
            return False
        return all(inst.b[x] == 2 for x in S) and _connected(inst, eids)
    if v.kind is ViolationKind.PATH:
        ends = [x for x in S if deg[x] == 1]
        inner = [x for x in S if deg[x] == 2]
        if len(ends) != 2 or len(ends) + len(inner) != len(S):
            return False
        if len(eids) != len(S) - 1:
            return False
        return all(inst.b[x] == 2 for x in inner) and _connected(inst, eids)
    return False


def _connected(inst: Instance, eids) -> bool:
    if not eids:
        return True
    adj: dict[int, list[int]] = {}
    for i in eids:
        e = inst.edges[i]
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    seen = set()
    stack = [inst.edges[eids[0]].u]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(adj.get(x, ()))
    return seen == set(adj)
