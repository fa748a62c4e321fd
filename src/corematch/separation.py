"""Core separation for 2-matching games.

The oracle runs four stages in a fixed order: total value, vertex and edge
constraints, cycle constraints (negative-cycle detection on the capacity-2
subgraph G2 after transferring the allocation to edge costs), and path
constraints (negative-cycle detection on endpoint-variant graphs through an
artificial st edge). The first violated constraint is returned as an exact,
re-verifiable certificate.

Once the cycle stage has passed, G2 has no negative cycle, so a
minimum {a, b}-join in G2 costs the shortest a-b distance d(a, b), and one
set of G2 distances per allocation decides for every variant whether it
holds a negative cycle: the variant keeping s-x and t-y does iff
c(s,x) + d(x,y) + c(y,t) + P_s + P_t < 0. A variant is the record
(s, t, kept_s, kept_t): `_ends` lists the (x, kept edge) choices at an
endpoint, `_pairs` their product in scan order, and only `realize_variant`
makes a record a graph, from G2. A pair is first tested against a lower
bound on those sums, read from row minima per endpoint, and only the
variants of a pair whose bound is negative are tested one by one; that
test decides. The path stage then builds and searches the flagged variants
only, in the scan order of the full search, so the certificates are those
the full search finds, and a flagged variant without a negative cycle
raises `InvariantError`. A violated G2 edge st (reached by `separate_all`)
keeps the test exact: pair {s, t} alone reads d(s, t) from G2 less st.
Only where G2 has a negative cycle does the stage search every variant of
every pair.

Past the total value the stages work on integer costs. With D = 2·lcm of
all denominators of p and w, P_v = p_v·D/2 and W_e = w_e·D, an instance
edge uv costs cost·D = P_u + P_v − W_e and the st edge costs P_s + P_t,
where cost = (p_u + p_v)/2 − w_uv is the exact transfer cost. So p_v < 0
iff P_v < 0, and p_u + p_v < w_uv iff cost·D + P_u + P_v < 0; the scan
builds `Fraction`s only for the violation it reports. `separate` and
`separate_all` cost the edges and build G2 once per allocation (one
`TransferCosts`) and hand it to each later stage; a stage called on its own
builds it itself. G2 and every variant hold those edges; since
D > 0 every comparison, and so every join, cycle and certificate, is that
of the exact costs. ν(N) is `Instance.grand_value`.
"""

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional

from . import matching, negcycle
from .model import (
    Allocation,
    Instance,
    InvariantError,
    Violation,
    ViolationKind,
    _is_index,
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
    (weight 0) costs half[s] + half[t]. `g2` is G2, built from `edges`.
    """

    edges: tuple[CostEdge, ...]
    half: tuple[Cost, ...]
    g2: CostedGraph


def _costs(inst: Instance, half: tuple[Cost, ...], weights) -> TransferCosts:
    edges = tuple(
        CostEdge(e.u, e.v, half[e.u] + half[e.v] - w, i)
        for i, (e, w) in enumerate(zip(inst.edges, weights))
    )
    g2 = CostedGraph(vertices=inst.n2, edges=tuple(edges[i] for i in inst.e2))
    return TransferCosts(edges, half, g2)


def transfer_costs(inst: Instance, p: Allocation) -> TransferCosts:
    """The exact transfer costs (p_u + p_v)/2 − w_uv, as Fractions (D = 1)."""
    check_allocation_length(inst, p)
    return _costs(inst, tuple(x / 2 for x in p.values), (e.w for e in inst.edges))


def integer_costs(inst: Instance, p: Allocation) -> TransferCosts:
    """The transfer costs times D = 2·lcm of all denominators of p and w,
    as ints."""
    check_allocation_length(inst, p)
    ints, scale = inst.scaled_weights  # w_e·scale, scale the lcm of w's denominators
    lcm = math.lcm(scale, *(x.denominator for x in p.values))
    # P_v = p_v·D/2 = p_v·lcm and W_e = w_e·D = (2·lcm/scale)·ints[e]
    half = tuple(x.numerator * (lcm // x.denominator) for x in p.values)
    k = 2 * lcm // scale
    return _costs(inst, half, (k * w for w in ints))


def _costed(inst: Instance, p: Allocation,
            costs: Optional[TransferCosts]) -> TransferCosts:
    """`costs`, or `integer_costs(inst, p)` when None; ValueError unless p
    has one entry per vertex."""
    check_allocation_length(inst, p)
    return integer_costs(inst, p) if costs is None else costs


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
                            costs: Optional[TransferCosts] = None) -> Optional[Violation]:
    """First violated vertex (p_i < 0) or edge (p_i + p_j < w_ij) in scan
    order. `costs` is `integer_costs(inst, p)`, built here when None."""
    return next(_vertex_edge_violations(inst, p, _costed(inst, p, costs)), None)


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
                    costs: Optional[TransferCosts] = None) -> Optional[Violation]:
    """None iff p(C) >= w(C) for every cycle through capacity-2 vertices.
    `costs` is `integer_costs(inst, p)`, built here when None."""
    g2 = _costed(inst, p, costs).g2
    cyc = negcycle.find_negative_cycle(g2)
    if cyc is None:
        return None
    return _cycle_violation(inst, p, g2, cyc)


@dataclass(frozen=True)
class VariantStructure:
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


def _pairs(inst: Instance, s: int, t: int):
    """The variants of pair s < t as ((x, kept_s), (y, kept_t)), in scan order."""
    return ((a, b) for a in _ends(inst, s, t) for b in _ends(inst, t, s))


def variant_structures(inst: Instance, s: int, t: int) -> list[VariantStructure]:
    """The variants of the unordered endpoint pair {s, t}, in scan order."""
    if s == t:
        raise ValueError("endpoints must differ")
    if not (_is_index(s, range(inst.n)) and _is_index(t, range(inst.n))):
        raise ValueError(f"endpoints must lie in 0..{inst.n - 1}")
    s, t = min(s, t), max(s, t)
    return [VariantStructure(s, t, ks, kt) for (_, ks), (_, kt) in _pairs(inst, s, t)]


def _less_st(g2: CostedGraph, s: int, t: int) -> list[CostEdge]:
    """G2's edges, in order, less st."""
    st = {s, t}
    return [e for e in g2.edges if e.u not in st or e.v not in st]


def realize_variant(costs: TransferCosts, struct: VariantStructure) -> CostedGraph:
    """A variant as a graph: G2's vertices plus s and t; G2's edges less st
    with the kept edges merged in by instance index (a kept edge has a
    capacity-1 end, so it is no G2 edge); last, as the marker, the st edge,
    of weight 0 and so of cost half[s] + half[t]."""
    s, t, g2 = struct.s, struct.t, costs.g2
    edges = _less_st(g2, s, t)
    for i in (struct.kept_s, struct.kept_t):
        if i is not None:
            insort(edges, costs.edges[i], key=attrgetter("orig"))
    edges.append(CostEdge(s, t, costs.half[s] + costs.half[t]))
    vertices = tuple(sorted({*g2.vertices, s, t}))
    return CostedGraph(vertices, tuple(edges), marker=len(edges) - 1)


def _path_filter(
    inst: Instance, costs: TransferCosts
) -> Optional[Callable[[int, int], list[VariantStructure]]]:
    """The exact path test: a function of s < t that lists, in scan order,
    the variants of pair {s, t} that hold a violated path, or None where the
    test does not apply.

    It applies when G2 has no negative cycle, as the cycle stage
    establishes. Then every negative cycle of a variant runs through its
    marker, so variant ((x, kept_s), (y, kept_t)) of `_pairs` holds a
    violated path iff c(s,x) + d(x,y) + c(y,t) + half[s] + half[t] < 0, d
    being the G2 distances of `negcycle.join_distances` and c(v,v) = 0. A
    G2 edge st is not in its pair's one variant; where it is violated,
    d(s, t) may run through it and decide, so that pair reads d from G2
    less st.

    A pair is tested first against a lower bound, read from row minima: for
    each s and G2 vertex y, the least c(s,x) + d(x,y) over x in A(s), the
    `_ends` of s with no far endpoint left out. The bound so also counts
    the one combination through st (x = t or y = s), which sums to
    D·(p_s + p_t − w_st) >= 0 where the edge stage holds. Only a pair whose
    bound is negative has its variants tested one by one; that test decides.
    """
    half, g2 = costs.half, costs.g2
    d = negcycle.join_distances(g2)
    if d is None:
        return None
    # the distances of G2 less each violated G2 edge, keyed by its index
    less = {
        e.orig: negcycle.join_distances(
            CostedGraph(g2.vertices, tuple(_less_st(g2, e.u, e.v))))
        for e in g2.edges if e.cost + half[e.u] + half[e.v] < 0
    }

    def c(kept: Optional[int]) -> Cost:
        return 0 if kept is None else costs.edges[kept].cost

    attach = [[(x, c(i)) for x, i in _ends(inst, v, None)] for v in range(inst.n)]
    # per s and G2 vertex y: the least c(s,x) + d(x,y) over x in A(s)
    rows: list[dict[int, Cost]] = []
    for s in range(inst.n):
        row: dict[int, Cost] = {}
        for x, cx in attach[s]:
            for y, dxy in d[x].items():
                if y not in row or cx + dxy < row[y]:
                    row[y] = cx + dxy
        rows.append(row)

    def negative(s: int, t: int) -> list[VariantStructure]:
        st = half[s] + half[t]
        row = rows[s]
        if all(y not in row or row[y] + cy + st >= 0 for y, cy in attach[t]):
            return []
        dist = less.get(inst.find_edge(s, t), d)
        return [
            VariantStructure(s, t, ks, kt)
            for (x, ks), (y, kt) in _pairs(inst, s, t)
            if y in dist[x] and c(ks) + dist[x][y] + c(kt) + st < 0
        ]

    return negative


def _path_violations(inst: Instance, p: Allocation,
                     costs: TransferCosts) -> Iterator[Violation]:
    """One violation per endpoint pair and variant with a negative cycle.

    A negative cycle through the marker st edge yields a violated path by
    deleting st; one avoiding the marker is a violated cycle, which cannot
    occur once the cycle constraints hold. Where `_path_filter` applies
    (G2 has no negative cycle), only the variants it flags are built and
    searched, and each must yield a violation; elsewhere every variant of
    every pair is.
    """
    negative = _path_filter(inst, costs)
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            structs = variant_structures(inst, s, t) if negative is None else negative(s, t)
            for struct in structs:
                g = realize_variant(costs, struct)
                cyc = negcycle.find_negative_cycle(g)
                if cyc is not None:
                    yield _cycle_violation(inst, p, g, cyc)
                elif negative is not None:
                    raise InvariantError("flagged variant holds no negative cycle")


def separate_paths(inst: Instance, p: Allocation, *,
                   costs: Optional[TransferCosts] = None) -> Optional[Violation]:
    """Search all endpoint pairs and variants for a violated path of length
    >= 2; assumes vertex/edge and cycle constraints already hold, and reports
    a marker-free negative cycle as a Cycle violation defensively.
    `costs` is `integer_costs(inst, p)`, built here when None."""
    return next(_path_violations(inst, p, _costed(inst, p, costs)), None)


def separate(inst: Instance, p: Allocation) -> SeparationVerdict:
    """Full core separation: total value, vertices/edges, cycles, paths.
    Past the total value, p is costed and G2 built once for all stages."""
    violation = check_total_value(inst, p)
    if violation is None:
        costs = integer_costs(inst, p)
        for stage in (separate_vertices_edges, separate_cycles, separate_paths):
            violation = stage(inst, p, costs=costs)
            if violation is not None:
                break
    return SeparationVerdict(violation)


def separate_all(inst: Instance, p: Allocation) -> list[Violation]:
    """Diagnostic mode: every violated constraint-family member, not just the
    first. Order: total value, vertices, edges, the cycle family, then each
    endpoint pair/variant (the variants the G2 distances flag, where that
    test applies); a violation found again (a marker-free cycle lies in many
    variants) is kept only where it first appeared."""
    costs = _costed(inst, p, None)
    found = chain(
        [check_total_value(inst, p)],
        _vertex_edge_violations(inst, p, costs),
        [separate_cycles(inst, p, costs=costs)],
        _path_violations(inst, p, costs),
    )
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
