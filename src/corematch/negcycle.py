"""Negative-cycle detection in undirected graphs with signed exact costs.

The route is combinatorial: a minimum-cost even-degree edge set (an empty-set
join) is negative exactly when a negative cycle exists, and is computed by
flipping the negative edges and correcting their parity with a minimum T-join:
shortest paths plus a perfect matching. All-pairs distances use Floyd–Warshall.

Costs are ints or Fractions (`CostedGraph` rejects floats, whose rounding
would make the answer depend on edge order; `CostedGraph._trusted`, for
separation's G2, checks nothing): everything here only adds, negates and
compares them, so integer costs stay integers. Separation passes transfer
costs scaled to integers, cost·D = P_u + P_v − W_e with P_v = p_v·D/2,
W_e = w_e·D and D = 2·lcm of all denominators of p and w; a positive scale
keeps every comparison, so the joins and cycles are those of the unscaled costs.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from typing import NamedTuple, Optional, Sequence, Union

from . import matching
from .model import (FormatError, InvariantError, _content_lines, _Frozen, _is_exact, _is_index,
                    check_simple_graph, lines_blamed, parse_edge_lines, parse_header)

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


class CostedGraph(_Frozen):
    """Simple undirected graph with signed exact edge costs (ints or
    Fractions).

    `marker` optionally names one distinguished edge (separation tags the
    artificial st edge this way).
    """

    __slots__ = _fields = ("vertices", "edges", "marker")

    def __init__(self, vertices: tuple[int, ...], edges: tuple[CostEdge, ...],
                 marker: Optional[int] = None):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "marker", marker)
        check_simple_graph(self.vertices, self.edges)
        for e in self.edges:
            if not _is_exact(e.cost):
                raise ValueError(
                    f"cost on edge {e.u}-{e.v} is not an int or a Fraction: {e.cost!r}"
                )
        if self.marker is not None and not _is_index(self.marker, range(len(self.edges))):
            raise ValueError("marker out of range")

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], edges: tuple[CostEdge, ...]) -> CostedGraph:
        """A graph whose shape and costs the caller vouches for, unchecked:
        separation's G2, a subgraph of a validated game, with int costs."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        object.__setattr__(g, "marker", None)
        return g


class Cycle(NamedTuple):
    """Simple cycle: edge indices and the closed vertex walk, canonicalized
    to start at the smallest vertex and run toward its smaller neighbor."""

    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    cost: Cost


def _canonical_cycle(g: CostedGraph, edge_seq: Sequence[int],
                     vertex_seq: Sequence[int]) -> Cycle:
    """The closed walk whose edge edge_seq[j] joins vertex_seq[j] and
    vertex_seq[j + 1] (cyclically), as a canonical Cycle."""
    start = vertex_seq.index(min(vertex_seq))
    verts = [*vertex_seq[start:], *vertex_seq[:start]]
    edges = [*edge_seq[start:], *edge_seq[:start]]
    if verts[1] > verts[-1]:
        verts = [verts[0]] + verts[1:][::-1]
        edges.reverse()
    cost = sum(g.edges[i].cost for i in edges)
    return Cycle(edges=tuple(edges), vertices=tuple(verts), cost=cost)


def _odd_vertices(g: CostedGraph, J) -> set[int]:
    """The vertices of odd degree in the edge set J (edge indices of g)."""
    odd: set[int] = set()
    for i in J:
        odd ^= {g.edges[i].u, g.edges[i].v}
    return odd


Adjacency = dict[int, list[tuple[int, Cost, int]]]


def _adjacency(g: CostedGraph) -> Adjacency:
    """(neighbour, |c|, edge index) per vertex of g, in edge-index order."""
    adj: Adjacency = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        c = abs(e.cost)
        adj[e.u].append((e.v, c, i))
        adj[e.v].append((e.u, c, i))
    return adj


def _dijkstra(adj: Adjacency, source: int):
    """Shortest paths under the |c| of `_adjacency`; returns
    (dist, pred edge index). A vertex is settled when its entry pops at its
    final distance: the costs are nonnegative and a push needs a strict
    improvement, so later entries for it are stale."""
    dist: dict[int, Cost] = {source: 0}
    pred: dict[int, int] = {}
    heap: list[tuple[Cost, int]] = [(0, source)]
    while heap:
        d, v = heappop(heap)
        if d > dist[v]:
            continue
        for w, c, i in adj[v]:
            nd = d + c
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                pred[w] = i
                heappush(heap, (nd, w))
    return dist, pred


def _path_edges(g: CostedGraph, pred: dict[int, int], source: int, target: int):
    out = set()
    v = target
    while v != source:
        i = pred[v]
        out.add(i)
        v = g.edges[i].other(v)
    return out


def _pairing(T: list[int], dists) -> Optional[list[tuple[int, int]]]:
    """Pairs (a, b), a < b, of a minimum perfect matching of the sorted,
    nonempty T under the distances `dists[a][b]` (read from the smaller
    vertex), or None when no perfect matching exists. A two-vertex T is its
    own only perfect matching."""
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
        # raw solve: any minimum perfect matching will do, and the engine is
        # deterministic for a fixed construction order
        matched = matching._min_perfect_edges(T, medges, mweights)
        pairs = [] if matched is None else [medges[k] for k in matched]
    return pairs if 2 * len(pairs) == len(T) else None


def min_t_join(g: CostedGraph, T) -> frozenset[int]:
    """Minimum-cost edge set with odd degree exactly at T, each edge of g
    costing the absolute value |c| of its cost.

    Shortest paths between T-vertices feed a minimum-weight perfect matching;
    the join is the symmetric difference of the matched pairs' paths. A pair
    a < b reads the paths from a, so the largest T-vertex needs no Dijkstra
    run, and a two-vertex T is its own only perfect matching.
    """
    T = tuple(T)
    if not T:
        return frozenset()
    adj = _adjacency(g)
    for v in T:  # before any set, which would merge True into a 1
        if not _is_index(v, adj):
            raise TJoinError(f"T-vertex {v!r} is not a vertex of the graph")
    T = sorted(set(T))
    if len(T) % 2 != 0:
        raise TJoinError("odd T")

    dists = {}
    preds = {}
    for s in T[:-1]:
        dists[s], preds[s] = _dijkstra(adj, s)

    pairs = _pairing(T, dists)
    if pairs is None:
        raise TJoinError("no T-join exists: some component holds an odd number of T-vertices")

    join: set[int] = set()
    for a, b in pairs:
        join ^= _path_edges(g, preds[a], a, b)
    if _odd_vertices(g, join) != set(T):
        raise InvariantError("T-join parity broken")
    return frozenset(join)


def min_zero_join(g: CostedGraph) -> tuple[frozenset[int], Cost]:
    """Minimum-cost even-degree edge set and its cost (always <= 0).

    Flip the negative edges E-, then repair parity with a minimum T-join on
    |cost|: the result is E- symmetric-difference that join.
    """
    negative = {i for i, e in enumerate(g.edges) if e.cost < 0}
    join = min_t_join(g, _odd_vertices(g, negative))
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


def join_distances(g: CostedGraph) -> Optional[list[list[Optional[Cost]]]]:
    """Shortest-path distances between the vertices of g by position in
    g.vertices, row a holding d(a, b) at b's position and None where b lies
    in another component, or None when g has a negative cycle.

    Every edge set with odd degree exactly at {a, b} is E- Δ J for a T'-join
    J, T' = T0 Δ {a, b} with T0 = odd(E-), and costs c(E-) + |c|(J); so
    d(a, b) = c(E-) + τ(T0 Δ {a, b}), τ(X) being a minimum perfect matching
    on X under the |c|-distances D. Without a negative cycle that minimum
    {a, b}-join costs the shortest a-b path length (Schrijver, Combinatorial
    Optimization, ch. 29; Sebő 1990), and d(a, a) = 0. A perfect matching
    of T0 Δ {a, b} pairs a and b off inside T0, so τ is needed only on T0
    and on its two-vertex deletions τ(T0 − {x, y}):

    - a, b in T0: τ(T0 − {a, b});
    - a in T0, b not: the least D(b, x) + τ(T0 − {a, x}) over x in T0 − {a};
    - a, b not in T0: the least of D(a, b) + τ(T0) and of
      D(a, x) + D(b, y) + τ(T0 − {x, y}) over x ≠ y in T0.

    D comes from one Floyd–Warshall pass; τ(T0) is the least D(x0, x) +
    τ(T0 − {x0, x}) for the smallest x0, and a deletion needs a perfect
    matching only when it holds more than two vertices, so never when |T0| <= 4.
    """
    at = {v: k for k, v in enumerate(g.vertices)}
    negative = [i for i, e in enumerate(g.edges) if e.cost < 0]
    T0 = sorted(at[v] for v in _odd_vertices(g, negative))
    base = sum(g.edges[i].cost for i in negative)
    # D by position, from Floyd–Warshall on the symmetric matrix: row k also
    # holds every distance to k, and a pair is relaxed once
    dists: list[list[Optional[Cost]]] = [[None] * len(at) for _ in at]
    for k, row in enumerate(dists):
        row[k] = 0
    for e in g.edges:
        dists[at[e.u]][at[e.v]] = dists[at[e.v]][at[e.u]] = abs(e.cost)
    for k, via in enumerate(dists):
        for i, to_k in enumerate(via):
            if to_k is not None and i != k:
                row = dists[i]
                for j in range(i + 1, len(via)):
                    rest = via[j]
                    if rest is not None and (row[j] is None or to_k + rest < row[j]):
                        row[j] = dists[j][i] = to_k + rest
    if not negative:
        return dists
    if not T0:
        return None  # E- is an even edge set of negative cost

    # tau[x][y] = τ(T0 − {x, y}); absent when T0 − {x, y} has no join
    near = {x: {y: dists[x][y] for y in T0 if dists[x][y] is not None} for x in T0}
    tau: dict[int, dict[int, Cost]] = {x: {} for x in T0}
    for x_pos, x in enumerate(T0):
        for y in T0[x_pos + 1 :]:
            rest = [z for z in T0 if z != x and z != y]
            pairs = _pairing(rest, near) if rest else []
            if pairs is not None:
                tau[x][y] = tau[y][x] = sum(dists[a][b] for a, b in pairs)
    x0 = dists[T0[0]]
    whole = min((x0[x] + t for x, t in tau[T0[0]].items() if x0[x] is not None), default=None)
    if whole is None:
        raise InvariantError("odd(E-) has no join")
    if base + whole < 0:
        return None

    def distance(a: int, b: int) -> Cost:
        if a in tau and b in tau:
            return tau[a][b]
        if b in tau:
            a, b = b, a
        db = dists[b]
        if a in tau:
            return min(db[x] + t for x, t in tau[a].items() if db[x] is not None)
        da = dists[a]
        return min([da[b] + whole, *(da[x] + db[y] + t for x in T0 if da[x] is not None
                                     for y, t in tau[x].items() if db[y] is not None)])

    d: list[list[Optional[Cost]]] = [[None] * len(at) for _ in at]
    for a, row in enumerate(dists):
        d[a][a] = 0
        for b in range(a + 1, len(row)):
            if row[b] is not None:
                d[a][b] = d[b][a] = base + distance(a, b)
    return d


def decompose_even_subgraph(g: CostedGraph, J) -> list[Cycle]:
    """Split an even-degree edge set into edge-disjoint simple cycles."""
    J = tuple(J)
    for i in J:  # before any set, which would merge True into a 1
        if not _is_index(i, range(len(g.edges))):
            raise ValueError(f"edge index {i!r} is not in 0..{len(g.edges) - 1}")
    J = set(J)
    if _odd_vertices(g, J):
        raise ValueError("edge set has a vertex of odd degree")
    unused: dict[int, list[int]] = {v: [] for v in g.vertices}
    for i in sorted(J):
        unused[g.edges[i].u].append(i)
        unused[g.edges[i].v].append(i)

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


# the costed-graph format has no vertex lines, so its header alone sets how
# many vertices are built; the brute-force oracles that read it refuse more
# than 10 anyway
_MAX_FILE_VERTICES = 2**16


def parse_cost_graph(text: str) -> CostedGraph:
    """Read the costed-graph debug format: "costs <n> <m>" then m lines
    "edge <u> <v> <c>" with signed rationals; n is at most
    _MAX_FILE_VERTICES."""
    lines = list(_content_lines(text))
    n, m = parse_header(lines, "costs", "cost-graph")
    if n > _MAX_FILE_VERTICES:
        raise FormatError(f"{n} vertices, more than {_MAX_FILE_VERTICES}", lines[0][0])
    if len(lines) != 1 + m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = parse_edge_lines(lines[1:], "c")
    edges = tuple(CostEdge(u, v, c, k) for k, (_, u, v, c) in enumerate(edges))
    with lines_blamed(lines, lines[1:]):
        return CostedGraph(vertices=tuple(range(n)), edges=edges)
