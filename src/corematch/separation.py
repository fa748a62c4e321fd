"""Core separation for 2-matching games.

The oracle runs four stages in a fixed order: total value, vertex and edge
constraints, cycle constraints (negative-cycle detection on the capacity-2
subgraph G2 after transferring the allocation to edge costs), and path
constraints (negative-cycle detection on endpoint-variant graphs through an
artificial st edge). The first violated constraint is returned as an exact,
re-verifiable certificate.

Once the cycle and edge stages have passed, G2 has no negative cycle, so a
minimum {a, b}-join in G2 costs the shortest a-b distance d(a, b), and one
set of G2 distances per allocation decides for every variant whether it
holds a negative cycle: the variant keeping s-x and t-y does iff
c(s,x) + d(x,y) + c(y,t) + P_s + P_t < 0. A pair is first tested against
the least such sum, read from row minima per endpoint, and only the
variants of a pair that passes are tested one by one. The path stage then
builds and searches the flagged variants only, in the scan order of the
full search, so the certificates are those the full search finds, and a
flagged variant without a negative cycle raises `InvariantError`. Called
where G2 has a negative cycle or a violated edge, it searches every variant
of every pair.

Past the total value the stages work on integer costs. With D = 2·lcm of
all denominators of p and w, P_v = p_v·D/2 and W_e = w_e·D, an instance
edge uv costs cost·D = P_u + P_v − W_e and the st edge costs P_s + P_t,
where cost = (p_u + p_v)/2 − w_uv is the exact transfer cost. So p_v < 0
iff P_v < 0, and p_u + p_v < w_uv iff cost·D + P_u + P_v < 0; the scan
builds `Fraction`s only for the violation it reports. `separate` and
`separate_all` cost the edges and build G2 once per allocation (a
`Costing`) and hand that pair to each later stage; a stage called on its
own builds it itself. G2 and every variant select from those edges; since
D > 0 every comparison, and so every join, cycle and certificate, is that
of the exact costs. ν(N) is `Instance.grand_value`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterator, NamedTuple, Optional

from . import matching, negcycle
from .model import (
    Allocation,
    Instance,
    InvariantError,
    Violation,
    ViolationKind,
    check_allocation_length,
    coalition,
)
from .negcycle import Cost, CostEdge, CostedGraph, Cycle


@dataclass(frozen=True)
class SeparationVerdict:
    violation: Optional[Violation]

    @property
    def in_core(self) -> bool:
        return self.violation is None


def check_total_value(inst: Instance, p: Allocation) -> Optional[Violation]:
    """None iff p(N) equals the grand-coalition value."""
    check_allocation_length(inst, p)
    total = inst.grand_value
    if p.total() == total:
        return None
    return Violation(
        ViolationKind.TOTAL_VALUE, tuple(range(inst.n)), p.total(), total
    )


class TransferCosts(NamedTuple):
    """The transfer costs of one allocation, times a positive scale D.

    `half[v]` is P_v = p_v·D/2 and `edges[i]` is instance edge i = uv with
    cost P_u + P_v − W_i, W_i = w_i·D, and `orig` i; an artificial st edge
    (weight 0) costs half[s] + half[t].
    """

    edges: tuple[CostEdge, ...]
    half: tuple[Cost, ...]


def _costs(inst: Instance, half: tuple[Cost, ...], weights) -> TransferCosts:
    edges = tuple(
        CostEdge(e.u, e.v, half[e.u] + half[e.v] - w, i)
        for i, (e, w) in enumerate(zip(inst.edges, weights))
    )
    return TransferCosts(edges, half)


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
    return CostedGraph(vertices=inst.n2, edges=tuple(costs.edges[i] for i in inst.e2))


class Costing(NamedTuple):
    """One allocation's integer transfer costs and the G2 they cost."""

    costs: TransferCosts
    g2: CostedGraph


def cost_allocation(inst: Instance, p: Allocation) -> Costing:
    """Cost every edge of inst for p in integers, once, and build G2."""
    costs = integer_costs(inst, p)
    return Costing(costs, build_g2(inst, costs))


def _vertex_edge_violations(inst: Instance, p: Allocation,
                            costs: TransferCosts) -> Iterator[Violation]:
    """Violated vertex (p_i < 0), then edge (p_i + p_j < w_ij) constraints, in
    scan order, read off the integer costs: P_i < 0, and
    cost·D + P_i + P_j < 0."""
    half = costs.half
    for v, h in enumerate(half):
        if h < 0:
            yield Violation(ViolationKind.VERTEX, (v,), p[v], Fraction(0))
    for i, e in enumerate(costs.edges):
        if e.cost + half[e.u] + half[e.v] < 0:
            yield Violation(
                ViolationKind.EDGE, coalition((e.u, e.v)), p[e.u] + p[e.v],
                inst.edges[i].w, (i,)
            )


def separate_vertices_edges(inst: Instance, p: Allocation, *,
                            costing: Optional[Costing] = None) -> Optional[Violation]:
    """First violated vertex (p_i < 0) or edge (p_i + p_j < w_ij) in scan
    order. `costing` is `cost_allocation(inst, p)`, built here when None."""
    check_allocation_length(inst, p)
    if costing is None:
        costing = cost_allocation(inst, p)
    return next(_vertex_edge_violations(inst, p, costing.costs), None)


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


def separate_cycles(inst: Instance, p: Allocation, *,
                    costing: Optional[Costing] = None) -> Optional[Violation]:
    """None iff p(C) >= w(C) for every cycle through capacity-2 vertices.
    `costing` is `cost_allocation(inst, p)`, built here when None."""
    check_allocation_length(inst, p)
    if costing is None:
        costing = cost_allocation(inst, p)
    g2 = costing.g2
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

    Every variant keeps the capacity-2 subgraph's edges except st. A
    capacity-1 endpoint adds one kept edge to a capacity-2 vertex (not st),
    one variant per choice in edge-index order; both capacity-1 gives the
    (kept_s, kept_t) product, and no choice at such an endpoint gives none.
    """
    if s == t:
        raise ValueError("endpoints must differ")
    s, t = min(s, t), max(s, t)
    if s < 0 or t >= inst.n:
        raise ValueError(f"endpoints must lie in 0..{inst.n - 1}")
    st = inst.find_edge(s, t)
    base = [i for i in inst.e2 if i != st]
    vertices = tuple(sorted({*inst.n2, s, t}))

    def choices(x: int) -> list[Optional[int]]:
        if inst.b[x] == 2:
            return [None]
        return [
            i for i in inst.incident(x)
            if i != st and inst.b[inst.edges[i].other(x)] == 2
        ]

    return [
        VariantStructure(
            vertices=vertices,
            edge_ids=tuple(sorted(base + [k for k in (ks, kt) if k is not None])),
            s=s,
            t=t,
            kept_s=ks,
            kept_t=kt,
        )
        for ks in choices(s)
        for kt in choices(t)
    ]


def realize_variant(inst: Instance, costs: TransferCosts,
                    struct: VariantStructure) -> CostedGraph:
    """Attach precomputed costs to a variant skeleton.

    The st edge comes last and is the graph's marker; it has weight 0, so its
    cost is half[s] + half[t].
    """
    edges = [costs.edges[i] for i in struct.edge_ids]
    edges.append(CostEdge(struct.s, struct.t, costs.half[struct.s] + costs.half[struct.t]))
    return CostedGraph(
        vertices=struct.vertices, edges=tuple(edges), marker=len(edges) - 1
    )


def variants(inst: Instance, costs: TransferCosts, s: int, t: int) -> list[CostedGraph]:
    """The costed variant family for the unordered endpoint pair {s, t}."""
    return [realize_variant(inst, costs, st) for st in variant_structures(inst, s, t)]


def _path_filter(
    inst: Instance, costing: Costing
) -> Optional[Callable[[int, int], list[VariantStructure]]]:
    """The exact path test: a function of s < t that lists, in scan order,
    the variants of pair {s, t} that hold a violated path, or None where the
    test does not apply.

    It applies when G2 has no negative cycle and every G2 edge uv has
    cost + half[u] + half[v] >= 0 (p_u + p_v >= w_uv), as the cycle and
    edge stages establish. Then every negative cycle of a variant runs
    through its marker, so variant (kept_s → x, kept_t → y) holds a
    violated path iff c(s,x) + d(x,y) + c(y,t) + half[s] + half[t] < 0,
    d being the G2 distances of `negcycle.join_distances`; x = s at
    c(s,s) = 0 when b_s = 2, and likewise y for t. So A(v) is {v} when
    b_v = 2, else v's capacity-2 neighbours other than the far endpoint,
    which is `variant_structures`' rule. The st edge of two capacity-2
    endpoints is in G2 but not in their variants; its sum is >= 0, so it
    never decides.

    A pair is tested first against its least variant sum, from row minima:
    for each s and G2 vertex y, the two least (c(s,x) + d(x,y), x) over x in
    A(s), so that one with x ≠ t remains. Only a pair whose least sum is
    negative has its variants built and tested one by one.
    """
    costs, g2 = costing
    half = costs.half
    if any(e.cost + half[e.u] + half[e.v] < 0 for e in g2.edges):
        return None
    d = negcycle.join_distances(g2)
    if d is None:
        return None
    attach = []  # (x, c(v,x)) per x in A(v), the far endpoint included
    for v in range(inst.n):
        edges = [costs.edges[i] for i in inst.incident(v)]
        attach.append([(v, 0)] if inst.b[v] == 2 else
                      [(e.other(v), e.cost) for e in edges if inst.b[e.other(v)] == 2])
    # per s and G2 vertex y: the least (c(s,x) + d(x,y), x) over x in A(s),
    # and the least such sum over the other x
    first: list[dict[int, tuple[Cost, int]]] = []
    second: list[dict[int, Cost]] = []
    for s in range(inst.n):
        if len(attach[s]) == 1:  # b_s = 2, or a single capacity-2 neighbour
            (x, cx), = attach[s]
            first.append({y: (cx + dxy, x) for y, dxy in d[x].items()})
            second.append({})
            continue
        best, runner_up = {}, {}
        for x, cx in attach[s]:
            for y, dxy in d[x].items():
                value = cx + dxy
                if y not in best:
                    best[y] = value, x
                elif value < best[y][0]:
                    runner_up[y] = best[y][0]
                    best[y] = value, x
                elif y not in runner_up or value < runner_up[y]:
                    runner_up[y] = value
        first.append(best)
        second.append(runner_up)

    def least(s: int, t: int) -> Optional[Cost]:
        """min over x in A(s), y in A(t) of c(s,x) + d(x,y) + c(y,t), or
        None when no such x and y are joined in G2."""
        low = None
        best, runner_up = first[s], second[s]
        for y, cy in attach[t]:
            if y == s or y not in best:
                continue
            value, x = best[y]
            if x == t:
                if y not in runner_up:
                    continue
                value = runner_up[y]
            if low is None or value + cy < low:
                low = value + cy
        return low

    def end(v: int, kept: Optional[int]) -> tuple[int, Cost]:
        if kept is None:
            return v, 0
        e = costs.edges[kept]
        return e.other(v), e.cost

    def negative(s: int, t: int) -> list[VariantStructure]:
        st = half[s] + half[t]
        low = least(s, t)
        if low is None or low + st >= 0:
            return []
        out = []
        for struct in variant_structures(inst, s, t):
            (x, cx), (y, cy) = end(s, struct.kept_s), end(t, struct.kept_t)
            if y in d[x] and cx + d[x][y] + cy + st < 0:
                out.append(struct)
        return out

    return negative


def _path_violations(inst: Instance, p: Allocation,
                     costing: Costing) -> Iterator[Violation]:
    """One violation per endpoint pair and variant with a negative cycle.

    A negative cycle through the marker st edge yields a violated path by
    deleting st; one avoiding the marker is a violated cycle, which cannot
    occur once the cycle constraints hold. Where `_path_filter` applies,
    only the variants it flags are built and searched, and each must yield
    a violation; elsewhere every variant of every pair is.
    """
    costs = costing.costs
    negative = _path_filter(inst, costing)
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            structs = variant_structures(inst, s, t) if negative is None else negative(s, t)
            for struct in structs:
                g = realize_variant(inst, costs, struct)
                cyc = negcycle.find_negative_cycle(g)
                if cyc is not None:
                    yield _cycle_violation(inst, p, g, cyc)
                elif negative is not None:
                    raise InvariantError("flagged variant holds no negative cycle")


def separate_paths(inst: Instance, p: Allocation, *,
                   costing: Optional[Costing] = None) -> Optional[Violation]:
    """Search all endpoint pairs and variants for a violated path of length
    >= 2; assumes vertex/edge and cycle constraints already hold, and reports
    a marker-free negative cycle as a Cycle violation defensively.
    `costing` is `cost_allocation(inst, p)`, built here when None."""
    check_allocation_length(inst, p)
    if costing is None:
        costing = cost_allocation(inst, p)
    return next(_path_violations(inst, p, costing), None)


def separate(inst: Instance, p: Allocation) -> SeparationVerdict:
    """Full core separation: total value, vertices/edges, cycles, paths.
    Past the total value, p is costed and G2 built once for all stages."""
    check_allocation_length(inst, p)
    violation = check_total_value(inst, p)
    if violation is None:
        costing = cost_allocation(inst, p)
        for stage in (separate_vertices_edges, separate_cycles, separate_paths):
            violation = stage(inst, p, costing=costing)
            if violation is not None:
                break
    return SeparationVerdict(violation)


def separate_all(inst: Instance, p: Allocation) -> list[Violation]:
    """Diagnostic mode: every violated constraint-family member, not just the
    first. Order: total value, vertices, edges, the cycle family, then each
    endpoint pair/variant (the variants the G2 distances flag, where that
    test applies); a violation found again (a marker-free cycle lies in many
    variants) is kept only where it first appeared."""
    check_allocation_length(inst, p)
    costing = cost_allocation(inst, p)
    found = chain(
        [check_total_value(inst, p)],
        _vertex_edge_violations(inst, p, costing.costs),
        [separate_cycles(inst, p, costing=costing)],
        _path_violations(inst, p, costing),
    )
    return list(dict.fromkeys(v for v in found if v is not None))


def verify_violation(inst: Instance, p: Allocation, v: Violation) -> bool:
    """Re-check a certificate arithmetically, including p(S) < nu(S); False
    unless the coalition is a strictly increasing tuple in 0..n-1."""
    check_allocation_length(inst, p)
    S = v.coalition
    if not all(0 <= x < inst.n for x in S) or any(a >= b for a, b in zip(S, S[1:])):
        return False
    if v.kind is ViolationKind.TOTAL_VALUE:
        return (
            S == tuple(range(inst.n))
            and v.allocated == p.total()
            and v.bound == inst.grand_value
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
    if len(set(eids)) != len(eids) or not all(0 <= i < inst.m for i in eids):
        return False
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
