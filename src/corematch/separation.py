"""Core separation for 2-matching games.

The oracle runs four stages in a fixed order: total value, vertex and edge
constraints, cycle constraints (negative-cycle detection on the capacity-2
subgraph G2 after transferring the allocation to edge costs), and path
constraints (negative-cycle detection on endpoint-variant graphs through an
artificial st edge). The first violated constraint is returned as an exact,
re-verifiable certificate. Past the cycle stage, G2's distances flag the
variants that hold a violated path (`_path_filter`), and only those are
built and searched, in the scan order of the full search. A pair joined by
a G2 edge holds no violated path there (`g2_joined`) and is never flagged.

The stages work on integer costs. With D = 2·lcm of all denominators of p
and w, P_v = p_v·D/2 and W_e = w_e·D, an instance edge uv costs
cost·D = P_u + P_v − W_e and the st edge costs P_s + P_t, where
cost = (p_u + p_v)/2 − w_uv is the exact transfer cost; as D > 0, every
comparison, join, cycle and certificate is that of the exact costs, and
`Fraction`s are built only for the violation reported. The rest is cached
on the game (`Instance.skeleton`), so one game at many allocations, the
cutting-plane use, costs an allocation one int vector P and one int
edge-cost list (`integer_costs`), held with G2 in one `TransferCosts`: the
one input of the vertex/edge, cycle and path stages.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional

from . import matching, negcycle
from .model import (Allocation, Instance, InvariantError, Violation, ViolationKind, _is_index,
                    check_allocation_length, coalition)
from .negcycle import CostEdge, CostedGraph, Cycle


class SeparationVerdict(NamedTuple):
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
    return Violation(ViolationKind.TOTAL_VALUE, tuple(range(inst.n)), p.total(), total)


def skeleton(inst: Instance) -> tuple[tuple[int, int, Optional[int]], ...]:
    """Each A(v) in turn, the `_ends` of v with no far endpoint left out, as
    (v, position of x in G2, kept edge): cached as `Instance.skeleton`."""
    return tuple((v, inst.n2.index(x), i) for v in range(inst.n) for x, i in _ends(inst, v, None))


class TransferCosts(NamedTuple):
    """The transfer costs of allocation `p` in game `inst` times D = `scale`:
    `half[v]` is P_v = p_v·D/2, `cost[i]` is P_u + P_v − w_i·D for edge i = uv,
    an artificial st edge costs half[s] + half[t], and `g2` is G2 so costed.
    The vertex/edge, cycle and path stages read the game and p from here."""

    inst: Instance
    p: Allocation
    scale: int
    half: list[int]
    cost: list[int]
    g2: CostedGraph


def integer_costs(inst: Instance, p: Allocation) -> TransferCosts:
    """The transfer costs times D = 2·lcm of all denominators of p and w."""
    check_allocation_length(inst, p)
    ints, scale = inst.scaled_weights  # w_e·scale, scale the lcm of w's denominators
    lcm = math.lcm(scale, *(x.denominator for x in p.values))
    half = [x.numerator * (lcm // x.denominator) for x in p.values]  # P_v = p_v·D/2 = p_v·lcm
    k = 2 * lcm // scale  # W_e = w_e·D = (2·lcm/scale)·ints[e]
    cost = [half[e.u] + half[e.v] - k * w for e, w in zip(inst.edges, ints)]
    # G2, a subgraph of the validated game, costed without checks
    g2 = tuple([CostEdge(inst.edges[i].u, inst.edges[i].v, cost[i], i) for i in inst.e2])
    return TransferCosts(inst, p, 2 * lcm, half, cost, CostedGraph._trusted(inst.n2, g2))


def _vertex_edge_violations(costs: TransferCosts) -> Iterator[Violation]:
    """Violated vertex (p_i < 0), then edge (p_i + p_j < w_ij) constraints, in
    scan order, read off the integer costs: P_i < 0, and
    cost·D + P_i + P_j < 0."""
    inst, p, half = costs.inst, costs.p, costs.half
    for v, h in enumerate(half):
        if h < 0:
            yield Violation(ViolationKind.VERTEX, (v,), p[v], Fraction(0))
    for i, (e, c) in enumerate(zip(inst.edges, costs.cost)):
        if c + half[e.u] + half[e.v] < 0:
            yield Violation(
                ViolationKind.EDGE, coalition((e.u, e.v)), p[e.u] + p[e.v], e.w, (i,)
            )


def separate_vertices_edges(costs: TransferCosts) -> Optional[Violation]:
    """First violated vertex (p_i < 0) or edge (p_i + p_j < w_ij) in scan
    order, for `costs = integer_costs(inst, p)`."""
    return next(_vertex_edge_violations(costs), None)


def _cycle_violation(costs: TransferCosts, g: CostedGraph, cyc: Cycle) -> Violation:
    """Build a violation from a negative cycle of g: a Path violation when the
    cycle runs through a synthetic edge (orig None: a variant's st marker,
    which is dropped), else a Cycle."""
    q = next((j for j, i in enumerate(cyc.edges) if g.edges[i].orig is None), None)
    if q is None:
        kind = ViolationKind.CYCLE
        eids = list(cyc.edges)
    else:
        kind = ViolationKind.PATH
        # rotate so the marker edge is last, leaving path order; orient the
        # walk from its smaller endpoint
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
    allocated = costs.p.of(verts)
    bound = sum((costs.inst.edges[i].w for i in orig), Fraction(0))
    if allocated >= bound:
        raise InvariantError("negative cycle gives no violated certificate")
    return Violation(kind, verts, allocated, bound, orig)


def separate_cycles(costs: TransferCosts) -> Optional[Violation]:
    """None iff p(C) >= w(C) for every cycle through capacity-2 vertices,
    for `costs = integer_costs(inst, p)`."""
    cyc = negcycle.find_negative_cycle(costs.g2)
    return None if cyc is None else _cycle_violation(costs, costs.g2, cyc)


class VariantStructure(NamedTuple):
    """One st-variant, s < t: the edges that its capacity-1 endpoints keep
    (None at a capacity-2 endpoint). `realize_variant` makes it a graph."""

    s: int
    t: int
    kept_s: Optional[int]
    kept_t: Optional[int]


def _ends(inst: Instance, v: int, far: Optional[int]) -> list[tuple[int, Optional[int]]]:
    """The (G2 vertex, kept edge) choices at endpoint v: (v, None) when
    b_v = 2, else (x, i) per edge i = vx to a capacity-2 vertex x other than
    the far endpoint, in edge-index order. With `far` None these are A(v)."""
    if inst.b[v] == 2:
        return [(v, None)]
    return [(x, i) for x, i in inst.nbrs2[v] if x != far]


def variant_structures(inst: Instance, s: int, t: int) -> list[VariantStructure]:
    """The variants of the unordered endpoint pair {s, t}, in scan order."""
    if s == t:
        raise ValueError("endpoints must differ")
    if not (_is_index(s, range(inst.n)) and _is_index(t, range(inst.n))):
        raise ValueError(f"endpoints must lie in 0..{inst.n - 1}")
    s, t = min(s, t), max(s, t)
    return [VariantStructure(s, t, ks, kt)
            for _, ks in _ends(inst, s, t) for _, kt in _ends(inst, t, s)]


def realize_variant(costs: TransferCosts, struct: VariantStructure) -> CostedGraph:
    """A variant as a graph: G2's vertices plus s and t; G2's edges less st
    with the kept edges merged in by instance index (a kept edge has a
    capacity-1 end, so it is no G2 edge); last, as the marker, the st edge,
    the one edge with no instance index (orig None), of weight 0 and so of
    cost half[s] + half[t]. ValueError unless s < t are vertex ids and each
    kept edge is one of its endpoint's `_ends`."""
    inst, s, t, g2 = costs.inst, struct.s, struct.t, costs.g2
    if not (_is_index(s, range(inst.n)) and _is_index(t, range(s + 1, inst.n))):
        raise ValueError(f"endpoints must satisfy s < t in 0..{inst.n - 1}")
    for v, far, i in ((s, t, struct.kept_s), (t, s, struct.kept_t)):
        if not (i is None if inst.b[v] == 2 else _is_index(i, [j for _, j in _ends(inst, v, far)])):
            raise ValueError(f"kept edge {i!r} is no choice at endpoint {v}")
    edges = [e for e in g2.edges if e.u not in (s, t) or e.v not in (s, t)]
    for i in (struct.kept_s, struct.kept_t):
        if i is not None:
            e = inst.edges[i]
            insort(edges, CostEdge(e.u, e.v, costs.cost[i], i), key=attrgetter("orig"))
    edges.append(CostEdge(s, t, costs.half[s] + costs.half[t]))
    vertices = tuple(sorted({*g2.vertices, s, t}))
    return CostedGraph(vertices, tuple(edges))


def g2_joined(inst: Instance, s: int, t: int) -> bool:
    """Whether s < t are joined by a G2 edge. Such a pair holds no violated
    path wherever G2 has no negative cycle, so the path stage skips it and
    the extended formulation leaves its variant out, whose block G2's
    implies. Its one variant is G2 less st plus the marker, of cost
    half[s] + half[t]; a path P from s to t in it closes the G2 cycle
    P + st, so c(P) + half[s] + half[t] >= c(P) + c(st) >= 0, as
    c(st) = half[s] + half[t] − W_st and W_st >= 0, violated st or not."""
    return inst.b[s] == 2 == inst.b[t] and (s, t) in inst.edge_index


def _path_filter(costs: TransferCosts) -> Optional[list[VariantStructure]]:
    """The variants, over every pair s < t in scan order, that hold a
    violated path, or None where G2 has a negative cycle.

    Without one, every negative cycle of a variant runs through its marker
    and a minimum {a, b}-join in G2 costs the shortest a-b distance d(a, b),
    so a variant reaching G2 at x and y holds a violated path iff
    c(s,x) + d(x,y) + c(y,t) + half[s] + half[t] < 0, with c(v,v) = 0.
    Where st is a G2 edge, d may use st, which the variant drops; but such
    a pair holds no violated path (`g2_joined`), and is skipped. A choice x
    is tested variant by variant only where its least sum over every y,
    found for all x at once, is negative.
    """
    inst, half, cost, index = costs.inst, costs.half, costs.cost, costs.inst.edge_index
    d = negcycle.join_distances(costs.g2)  # by position in G2's vertices
    if d is None:
        return None
    # each h below (a half plus a cost) and each distance (a path's cost) is
    # at most M = Σ|cost| + Σ|half| in size, so a sum with inf = 6M + 1 for a
    # missing distance exceeds every sum without one, and 0
    inf = 6 * (sum(map(abs, cost)) + sum(map(abs, half))) + 1
    dist = [[inf if x is None else x for x in row] for row in d]
    # variant (s, t, kept_s, kept_t) is flagged when h[j] + d(x, y) + h[l] < 0 for
    # skeleton choices j = (s, x, kept_s) and l = (t, y, kept_t), h[j] = half[s] + c(s,x)
    attach = inst.skeleton
    h = [half[t] + (0 if i is None else cost[i]) for t, _, i in attach]
    least = [inf] * len(dist)  # per y, the least h of a choice at y
    for (_, y, _), hj in zip(attach, h):
        least[y] = min(least[y], hj)
    # per x, the least h[l] + d(x, y) over all l: most j pass it unscanned
    low = [min([a + b for a, b in zip(least, row)]) for row in dist]
    flagged = []
    for (s, x, ks), hj in zip(attach, h):
        if low[x] + hj < 0:
            row = dist[x]
            # an edge i = st is no kept edge (`_ends` leaves out the far endpoint)
            flagged += [VariantStructure(s, t, ks, kt) for (t, y, kt), hl in zip(attach, h)
                        if t > s and hj + row[y] + hl < 0 and (
                            (i := index.get((s, t))) is None
                            or i not in (ks, kt) and not g2_joined(inst, s, t))]
    flagged.sort(key=attrgetter("s", "t"))  # stable: a pair's variants keep scan order
    return flagged


def _path_violations(costs: TransferCosts) -> Iterator[Violation]:
    """One violation per endpoint pair and variant with a negative cycle:
    deleting the marker st edge from a cycle through it leaves a violated
    path, and a cycle avoiding it (which the cycle stage rules out) is a
    violated cycle. Only the variants `_path_filter` flags are searched,
    and each must yield one, unless G2 has a negative cycle."""
    inst, flagged = costs.inst, _path_filter(costs)
    structs = flagged if flagged is not None else (
        struct for s in range(inst.n) for t in range(s + 1, inst.n)
        for struct in variant_structures(inst, s, t))
    for struct in structs:
        g = realize_variant(costs, struct)
        cyc = negcycle.find_negative_cycle(g)
        if cyc is not None:
            yield _cycle_violation(costs, g, cyc)
        elif flagged is not None:
            raise InvariantError("flagged variant holds no negative cycle")


def separate_paths(costs: TransferCosts) -> Optional[Violation]:
    """Search all endpoint pairs and variants for a violated path of length
    >= 2, for `costs = integer_costs(inst, p)`; assumes vertex/edge and cycle
    constraints already hold, and reports a marker-free negative cycle as a
    Cycle violation defensively."""
    return next(_path_violations(costs), None)


def separate(inst: Instance, p: Allocation) -> SeparationVerdict:
    """Full core separation: total value, vertices/edges, cycles, paths.
    Past the total value, p is costed and G2 built once for all stages."""
    violation = check_total_value(inst, p)
    if violation is None:
        costs = integer_costs(inst, p)
        for stage in (separate_vertices_edges, separate_cycles, separate_paths):
            violation = stage(costs)
            if violation is not None:
                break
    return SeparationVerdict(violation)


def separate_all(inst: Instance, p: Allocation) -> list[Violation]:
    """Diagnostic mode: every violated constraint-family member, not just the
    first. Order: total value, vertices, edges, the cycle family, then each
    endpoint pair/variant (the variants the G2 distances flag, where that
    test applies); a violation found again (a marker-free cycle lies in many
    variants) is kept only where it first appeared."""
    costs = integer_costs(inst, p)
    found = chain([check_total_value(inst, p)], _vertex_edge_violations(costs),
                  [separate_cycles(costs)], _path_violations(costs))
    return list(dict.fromkeys(v for v in found if v is not None))


def verify_violation(inst: Instance, p: Allocation, v: Violation) -> bool:
    """Re-check a certificate arithmetically, including p(S) < nu(S); False
    unless the coalition is a strictly increasing tuple of ints in 0..n-1,
    every witness edge is an int in 0..m-1 and, for TotalValue, Vertex and
    Coalition, the witness is empty."""
    check_allocation_length(inst, p)
    S, eids = v.coalition, v.witness_edges
    if not all(_is_index(x, range(inst.n)) for x in S) or any(a >= b for a, b in zip(S, S[1:])):
        return False
    if not all(_is_index(i, range(inst.m)) for i in eids):
        return False
    if v.kind is ViolationKind.TOTAL_VALUE:
        return (
            eids == ()
            and S == tuple(range(inst.n))
            and v.allocated == p.total()
            and v.bound == inst.grand_value
            and v.allocated != v.bound
        )
    if v.allocated != p.of(S) or v.allocated >= v.bound:
        return False
    if v.kind is ViolationKind.VERTEX:
        return eids == () and len(S) == 1 and v.bound == 0
    if v.kind is ViolationKind.COALITION:
        return eids == () and v.bound == matching.nu(inst, S)
    # Edge / Cycle / Path: witness must be the claimed structure on exactly S
    if len(set(eids)) != len(eids):
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
