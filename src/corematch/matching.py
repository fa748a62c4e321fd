"""Exact maximum-weight matching and b-matching (b <= 2).

The blossom engine is networkx's primal-dual implementation, run on weights
scaled to integers so every comparison is exact. On top of it this module
implements deterministic tie-breaking (the optimum whose sorted edge-index
tuple is lexicographically smallest), minimum-weight perfect matching, and
maximum-weight b-matching through a vertex/edge gadget expansion.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import networkx as nx

from .model import Instance, InvariantError


class NoPerfectMatchingError(ValueError):
    pass


@dataclass(frozen=True)
class MatchingResult:
    """Chosen edge indices (sorted) and their exact total weight."""

    edges: tuple[int, ...]
    weight: Fraction


def _check_graph(vertices: Sequence, edges: Sequence[tuple], weights: Sequence):
    vs = set(vertices)
    if len(vs) != len(vertices):
        raise ValueError("duplicate vertices")
    if len(edges) != len(weights):
        raise ValueError("edges and weights differ in length")
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at {u}")
        if u not in vs or v not in vs:
            raise ValueError(f"unknown endpoint in edge {u}-{v}")
        key = frozenset((u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {u}-{v}")
        seen.add(key)


def _scale_to_int(weights: Iterable[Fraction]) -> list[int]:
    """Weights times the lcm of their denominators; int weights pass as is."""
    ws = list(weights)
    if all(type(w) is int for w in ws):
        return ws
    ws = [Fraction(w) for w in ws]
    denom = math.lcm(*(w.denominator for w in ws))
    return [int(w * denom) for w in ws]


def _solve_pairs(vertices, edges, int_weights, maxcardinality):
    """Run the blossom engine; returns the matched pairs as a set of frozensets."""
    g = nx.Graph()
    for i, (u, v) in enumerate(edges):
        g.add_edge(u, v, weight=int_weights[i])
    mate = nx.max_weight_matching(g, maxcardinality=maxcardinality)
    return {frozenset(p) for p in mate}


def _max_value(vertices, edges, weights) -> Fraction:
    """Maximum matching weight only (no tie-break canonicalization)."""
    if not edges:
        return Fraction(0)
    ints = _scale_to_int(weights)
    pairs = _solve_pairs(vertices, edges, ints, maxcardinality=False)
    total = Fraction(0)
    for i, (u, v) in enumerate(edges):
        if frozenset((u, v)) in pairs:
            total += Fraction(weights[i])
    return total


def max_weight_matching(vertices, edges, weights) -> MatchingResult:
    """Maximum-weight matching with deterministic tie-breaking.

    Among all maximum-weight matchings, returns the one whose sorted tuple of
    edge indices is lexicographically smallest. Negative-weight edges are
    never selected.
    """
    _check_graph(vertices, edges, weights)
    weights = [Fraction(w) for w in weights]
    opt = _max_value(vertices, edges, weights)

    chosen: list[int] = []
    matched: set = set()
    banned: set[int] = set()
    forced = Fraction(0)
    for i, (u, v) in enumerate(edges):
        if forced == opt:
            break  # any extension is lexicographically larger
        if u in matched or v in matched:
            continue
        rest = [
            (j, e)
            for j, e in enumerate(edges)
            if j > i
            and j not in banned
            and e[0] not in matched | {u, v}
            and e[1] not in matched | {u, v}
        ]
        value = _max_value(vertices, [e for _, e in rest], [weights[j] for j, _ in rest])
        if forced + weights[i] + value == opt:
            chosen.append(i)
            matched |= {u, v}
            forced += weights[i]
        else:
            banned.add(i)
    if forced != opt:
        raise InvariantError("tie-broken matching misses the optimum")
    return MatchingResult(edges=tuple(chosen), weight=opt)


def _min_perfect_pairs(vertices, edges, weights):
    """Min-weight perfect matching pairs, or None if no perfect matching exists."""
    n = len(vertices)
    if n % 2 != 0:
        return None
    if n == 0:
        return set()
    ints = _scale_to_int(weights)
    pairs = _solve_pairs(vertices, edges, [-w for w in ints], maxcardinality=True)
    if 2 * len(pairs) != n:
        return None
    return pairs


def _min_perfect_value(vertices, edges, weights) -> Optional[Fraction]:
    pairs = _min_perfect_pairs(vertices, edges, weights)
    if pairs is None:
        return None
    total = Fraction(0)
    for i, (u, v) in enumerate(edges):
        if frozenset((u, v)) in pairs:
            total += Fraction(weights[i])
    return total


def min_weight_perfect_matching(vertices, edges, weights) -> MatchingResult:
    """Minimum-weight perfect matching, same lexicographic tie-break."""
    _check_graph(vertices, edges, weights)
    weights = [Fraction(w) for w in weights]
    vertices = list(vertices)
    opt = _min_perfect_value(vertices, edges, weights)
    if opt is None:
        raise NoPerfectMatchingError("no perfect matching exists")

    chosen: list[int] = []
    matched: set = set()
    banned: set[int] = set()
    forced = Fraction(0)
    for i, (u, v) in enumerate(edges):
        if len(matched) == len(vertices):
            break
        if u in matched or v in matched:
            continue
        rest_vertices = [x for x in vertices if x not in matched | {u, v}]
        rest = [
            (j, e)
            for j, e in enumerate(edges)
            if j > i
            and j not in banned
            and e[0] in set(rest_vertices)
            and e[1] in set(rest_vertices)
        ]
        value = _min_perfect_value(
            rest_vertices, [e for _, e in rest], [weights[j] for j, _ in rest]
        )
        if value is not None and forced + weights[i] + value == opt:
            chosen.append(i)
            matched |= {u, v}
            forced += weights[i]
        else:
            banned.add(i)
    if forced != opt or len(matched) != len(vertices):
        raise InvariantError("tie-broken perfect matching misses the optimum")
    return MatchingResult(edges=tuple(chosen), weight=opt)


# ---------------------------------------------------------------------------
# b-matching via the gadget expansion.
#
# Each vertex v becomes cap_v copies; each edge e=uv becomes a 3-edge path
# u_i .. e_u - e_v .. v_j with all gadget edges weighing w_e. A maximum
# matching covers each gadget with value >= w_e, so half-used gadgets are
# value-neutral and the identity maxWeight(G*) = w(E) + w(M) holds, where M
# is the set of gadgets matched to vertex copies on both sides.
# ---------------------------------------------------------------------------


def build_gadget(inst: Instance, allowed: Optional[set[int]] = None,
                 caps: Optional[Sequence[int]] = None):
    """Gadget graph for max-weight b-matching restricted to `allowed` edges
    and per-vertex capacities `caps` (defaults: all edges, caps = b).

    Returns (vertices, edges, weights); vertex-copy nodes are ('v', v, i) and
    edge-gadget nodes are ('e', idx, side).
    """
    caps = list(inst.b) if caps is None else list(caps)
    if allowed is None:
        allowed = set(range(inst.m))
    vertices = []
    for v in range(inst.n):
        vertices.extend(("v", v, i) for i in range(caps[v]))
    edges = []
    weights = []
    for idx in sorted(allowed):
        e = inst.edges[idx]
        eu, ev = ("e", idx, 0), ("e", idx, 1)
        vertices.extend((eu, ev))
        for i in range(caps[e.u]):
            edges.append((("v", e.u, i), eu))
            weights.append(e.w)
        edges.append((eu, ev))
        weights.append(e.w)
        for j in range(caps[e.v]):
            edges.append((ev, ("v", e.v, j)))
            weights.append(e.w)
    return vertices, edges, weights


def _b_value(inst: Instance, allowed: set[int], caps: Sequence[int]) -> Fraction:
    """Max b-matching weight over `allowed` edges with capacities `caps`.

    Checks the gadget identity maxWeight(G*) = w(allowed) + w(M) before
    returning w(M).
    """
    if not allowed:
        return Fraction(0)
    vertices, edges, weights = build_gadget(inst, allowed, caps)
    ints = _scale_to_int(weights)
    pairs = _solve_pairs(vertices, edges, ints, maxcardinality=False)
    total = Fraction(0)
    for i, (a, b) in enumerate(edges):
        if frozenset((a, b)) in pairs:
            total += weights[i]
    mate: dict = {}
    for p in pairs:
        a, b = tuple(p)
        mate[a] = b
        mate[b] = a
    value = Fraction(0)
    for idx in allowed:
        eu, ev = ("e", idx, 0), ("e", idx, 1)
        if mate.get(eu, ev) != ev and mate.get(ev, eu) != eu:
            value += inst.edges[idx].w
    wall = sum((inst.edges[i].w for i in allowed), Fraction(0))
    if total != wall + value:
        raise InvariantError("gadget identity violated")
    return value


def b_matching_value(inst: Instance, S: Optional[Iterable[int]] = None) -> Fraction:
    """nu-style value query: max b-matching weight in G[S] (S = all vertices
    by default), without materializing a canonical edge set."""
    if S is None:
        return _b_value(inst, set(range(inst.m)), inst.b)
    members = set(S)
    allowed = {
        i for i, e in enumerate(inst.edges) if e.u in members and e.v in members
    }
    return _b_value(inst, allowed, inst.b)


def max_weight_b_matching(inst: Instance) -> MatchingResult:
    """Maximum-weight b-matching with the lexicographic edge-index tie-break."""
    all_edges = set(range(inst.m))
    opt = _b_value(inst, all_edges, inst.b)

    caps = list(inst.b)
    chosen: list[int] = []
    banned: set[int] = set()
    forced = Fraction(0)
    for i, e in enumerate(inst.edges):
        if forced == opt:
            break
        if caps[e.u] == 0 or caps[e.v] == 0:
            continue
        rest = {
            j for j in all_edges if j > i and j not in banned
        } - {i}
        caps[e.u] -= 1
        caps[e.v] -= 1
        if forced + e.w + _b_value(inst, rest, caps) == opt:
            chosen.append(i)
            forced += e.w
        else:
            caps[e.u] += 1
            caps[e.v] += 1
            banned.add(i)
    if forced != opt:
        raise InvariantError("tie-broken b-matching misses the optimum")
    return MatchingResult(edges=tuple(chosen), weight=opt)


def nu(inst: Instance, S: Iterable[int]) -> Fraction:
    """Value of a maximum-weight b-matching in the subgraph induced by S."""
    members = set(S)
    if not members <= set(range(inst.n)):
        raise ValueError("coalition contains unknown vertices")
    return b_matching_value(inst, members)
