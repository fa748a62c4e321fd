"""Negative-cycle detection in undirected graphs with signed exact costs.

The route is combinatorial: a minimum-cost even-degree edge set (an empty-set
join) is negative exactly when a negative cycle exists, and is computed by
flipping the negative edges and correcting their parity with a minimum T-join,
which in turn reduces to shortest paths plus minimum-weight perfect matching.

Costs may be of any exact number type: everything here only adds, negates
and compares them, and no `Fraction` is seeded in, so integer costs stay
integers. Separation passes transfer costs scaled to integers, cost·D =
P_u + P_v − W_e with P_v = p_v·D/2, W_e = w_e·D and D = 2·lcm of all
denominators of p and w; a positive scale keeps every comparison, so the
joins and cycles are those of the unscaled costs.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

from . import matching
from .model import FormatError, InvariantError, parse_rational

Cost = Union[int, Fraction]


class TJoinError(ValueError):
    pass


class CostEdge(NamedTuple):
    u: int
    v: int
    cost: Cost
    orig: Optional[int] = None  # instance edge index; None for synthetic edges

    def key(self):
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


@dataclass(frozen=True)
class CostedGraph:
    """Simple undirected graph with signed exact edge costs.

    `marker` optionally names one distinguished edge (separation tags the
    artificial st edge this way).
    """

    vertices: tuple[int, ...]
    edges: tuple[CostEdge, ...]
    marker: Optional[int] = None

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        seen = set()
        for e in self.edges:
            if e.u == e.v:
                raise ValueError(f"loop at {e.u}")
            if e.u not in vs or e.v not in vs:
                raise ValueError(f"unknown endpoint in edge {e.u}-{e.v}")
            if e.key() in seen:
                raise ValueError(f"duplicate edge {e.u}-{e.v}")
            seen.add(e.key())
        if self.marker is not None and not 0 <= self.marker < len(self.edges):
            raise ValueError("marker out of range")

    @cached_property
    def incident(self) -> dict[int, tuple[int, ...]]:
        inc: dict[int, list[int]] = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            inc[e.u].append(i)
            inc[e.v].append(i)
        return {v: tuple(x) for v, x in inc.items()}


@dataclass(frozen=True)
class Cycle:
    """Simple cycle: edge indices and the closed vertex walk, canonicalized
    to start at the smallest vertex and run toward its smaller neighbor."""

    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    cost: Cost


def _canonical_cycle(g: CostedGraph, edge_seq: Sequence[int],
                     vertex_seq: Sequence[int]) -> Cycle:
    verts = list(vertex_seq)
    k = len(verts)
    start = verts.index(min(verts))
    verts = verts[start:] + verts[:start]
    if verts[1] > verts[-1]:
        verts = [verts[0]] + verts[1:][::-1]
    index = {}
    for i in edge_seq:
        index[g.edges[i].key()] = i
    edges = []
    for a, b in zip(verts, verts[1:] + verts[:1]):
        edges.append(index[(a, b) if a < b else (b, a)])
    cost = sum(g.edges[i].cost for i in edges)
    return Cycle(edges=tuple(edges), vertices=tuple(verts), cost=cost)


def _dijkstra(g: CostedGraph, costs: Sequence[Cost], source: int):
    """Nonnegative-cost shortest paths; returns (dist, pred edge index)."""
    dist: dict[int, Cost] = {source: 0}
    pred: dict[int, int] = {}
    done: set[int] = set()
    heap: list[tuple[Cost, int]] = [(0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for i in g.incident[v]:
            w = g.edges[i].other(v)
            nd = d + costs[i]
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                pred[w] = i
                heapq.heappush(heap, (nd, w))
    return dist, pred


def _path_edges(g: CostedGraph, pred: dict[int, int], source: int, target: int):
    out = set()
    v = target
    while v != source:
        i = pred[v]
        out.add(i)
        v = g.edges[i].other(v)
    return out


def min_t_join(g: CostedGraph, costs: Sequence[Cost], T) -> frozenset[int]:
    """Minimum-cost edge set with odd degree exactly at T (costs >= 0).

    Shortest paths between T-vertices feed a minimum-weight perfect matching;
    the join is the symmetric difference of the matched pairs' paths. A pair
    a < b reads the paths from a, so the largest T-vertex needs no Dijkstra
    run, and a two-vertex T is its own only perfect matching.
    """
    T = sorted(set(T))
    if len(T) % 2 != 0:
        raise TJoinError("odd T")
    for c in costs:
        if c < 0:
            raise ValueError("min_t_join requires nonnegative costs")
    if not T:
        return frozenset()

    dists = {}
    preds = {}
    for s in T[:-1]:
        dists[s], preds[s] = _dijkstra(g, costs, s)

    medges = []
    mweights = []
    for a_pos, a in enumerate(T[:-1]):
        for b in T[a_pos + 1 :]:
            if b in dists[a]:
                medges.append((a, b))
                mweights.append(dists[a][b])
    if len(T) == 2:
        pairs = medges
    else:
        # raw solve: any minimum perfect matching will do, and networkx is
        # deterministic for a fixed construction order
        matched = matching._min_perfect_pairs(T, medges, mweights)
        pairs = [] if matched is None else [e for e in medges if frozenset(e) in matched]
    if 2 * len(pairs) != len(T):
        raise TJoinError("no T-join exists: some component holds an odd number of T-vertices")

    join: set[int] = set()
    for a, b in pairs:
        join ^= _path_edges(g, preds[a], a, b)
    parity = {v: 0 for v in g.vertices}
    for i in join:
        parity[g.edges[i].u] ^= 1
        parity[g.edges[i].v] ^= 1
    if {v for v, p in parity.items() if p} != set(T):
        raise InvariantError("T-join parity broken")
    return frozenset(join)


def min_zero_join(g: CostedGraph) -> tuple[frozenset[int], Cost]:
    """Minimum-cost even-degree edge set and its cost (always <= 0).

    Flip the negative edges E-, then repair parity with a minimum T-join on
    |cost|: the result is E- symmetric-difference that join.
    """
    negative = {i for i, e in enumerate(g.edges) if e.cost < 0}
    parity: dict[int, int] = {v: 0 for v in g.vertices}
    for i in negative:
        parity[g.edges[i].u] ^= 1
        parity[g.edges[i].v] ^= 1
    T = [v for v, p in parity.items() if p]
    join = min_t_join(g, [abs(e.cost) for e in g.edges], T)
    J = frozenset(negative ^ join)
    cost = sum(g.edges[i].cost for i in J)
    check = sum(g.edges[i].cost for i in negative) + sum(
        abs(g.edges[i].cost) for i in join
    )
    if cost != check:
        raise InvariantError("zero-join cost differs from E- plus the T-join")
    if cost > 0:
        raise InvariantError("zero-join cost is positive")
    return J, cost


def decompose_even_subgraph(g: CostedGraph, J) -> list[Cycle]:
    """Split an even-degree edge set into edge-disjoint simple cycles."""
    J = set(J)
    degree: dict[int, int] = {v: 0 for v in g.vertices}
    unused: dict[int, list[int]] = {v: [] for v in g.vertices}
    for i in sorted(J):
        degree[g.edges[i].u] += 1
        degree[g.edges[i].v] += 1
        unused[g.edges[i].u].append(i)
        unused[g.edges[i].v].append(i)
    if any(d % 2 for d in degree.values()):
        raise ValueError("edge set has a vertex of odd degree")

    removed: set[int] = set()
    cycles: list[Cycle] = []
    for start in sorted(g.vertices):
        while any(i not in removed for i in unused[start]):
            # walk greedily until a vertex repeats, peeling one simple cycle
            stack_v = [start]
            stack_e: list[int] = []
            pos = {start: 0}
            while True:
                v = stack_v[-1]
                i = next(j for j in unused[v] if j not in removed and j not in stack_e)
                w = g.edges[i].other(v)
                if w in pos:
                    cut = pos[w]
                    cyc_vs = stack_v[cut:]
                    cyc_es = stack_e[cut:] + [i]
                    for j in cyc_es:
                        removed.add(j)
                    cycles.append(_canonical_cycle(g, cyc_es, cyc_vs))
                    break
                stack_v.append(w)
                stack_e.append(i)
                pos[w] = len(stack_v) - 1
    return cycles


def find_negative_cycle(g: CostedGraph) -> Optional[Cycle]:
    """A simple cycle of negative total cost, or None if none exists.

    When the minimum even-degree set is negative, its most negative cycle is
    returned (ties broken by the sorted edge-index tuple).
    """
    J, cost = min_zero_join(g)
    if cost >= 0:
        return None
    cycles = decompose_even_subgraph(g, J)
    best = min(cycles, key=lambda c: (c.cost, tuple(sorted(c.edges))))
    if best.cost >= 0:
        raise InvariantError("negative even set holds no negative cycle")
    return best


def parse_cost_graph(text: str) -> CostedGraph:
    """Read the costed-graph debug format: "costs <n> <m>" then m lines
    "edge <u> <v> <c>" with signed rationals."""
    lines = [
        (no, ln.split("#", 1)[0].strip())
        for no, ln in enumerate(text.splitlines(), start=1)
    ]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise FormatError("empty cost-graph file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "costs":
        raise FormatError("expected header 'costs <n> <m>'", no)
    n, m = int(parts[1]), int(parts[2])
    if len(lines) != 1 + m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "edge":
            raise FormatError("expected 'edge <u> <v> <c>'", no)
        u, v = int(parts[1]), int(parts[2])
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"unknown vertex in edge {u}-{v}", no)
        edges.append(CostEdge(u, v, parse_rational(parts[3], no), len(edges)))
    return CostedGraph(vertices=tuple(range(n)), edges=tuple(edges))
