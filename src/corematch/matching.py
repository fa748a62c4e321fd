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

from .model import Instance, InvariantError, check_simple_graph


class NoPerfectMatchingError(ValueError):
    pass


@dataclass(frozen=True)
class MatchingResult:
    """Chosen edge indices (sorted) and their exact total weight."""

    edges: tuple[int, ...]
    weight: Fraction


def _scale_to_int(weights: Iterable[Fraction]) -> list[int]:
    """Weights times the lcm of their denominators; int weights pass as is."""
    ws = list(weights)
    if all(type(w) is int for w in ws):
        return ws
    ws = [Fraction(w) for w in ws]
    denom = math.lcm(*(w.denominator for w in ws))
    return [int(w * denom) for w in ws]


def _solve_pairs(edges, int_weights, maxcardinality):
    """Run the blossom engine; returns the matched pairs as a set of frozensets."""
    g = nx.Graph()
    for i, (u, v) in enumerate(edges):
        g.add_edge(u, v, weight=int_weights[i])
    mate = nx.max_weight_matching(g, maxcardinality=maxcardinality)
    return {frozenset(p) for p in mate}


def _pairs_weight(edges, weights, pairs) -> Fraction:
    """Total weight of the edges whose endpoint pairs are matched in `pairs`."""
    return sum((w for e, w in zip(edges, weights) if frozenset(e) in pairs), Fraction(0))


def _lex_min(weights, opt, completion, complete) -> MatchingResult:
    """The optimum whose sorted edge-index tuple is lexicographically smallest.

    Scans the edges in index order and keeps edge i when the kept weight plus
    w_i plus completion(kept, i) reaches `opt`; completion(kept, i) is the best
    value the edges after i can add to kept + [i], or None when that set
    cannot be completed. complete(kept, forced) is the stop rule: a longer
    kept set is lexicographically larger, so a maximum stops once the kept
    weight reaches `opt` (a zero-weight edge would extend it), while a
    perfect matching stops only once it covers every vertex.
    """
    kept: list[int] = []
    forced = Fraction(0)
    for i, w in enumerate(weights):
        if complete(kept, forced):
            break
        value = completion(kept, i)
        if value is not None and forced + w + value == opt:
            kept.append(i)
            forced += w
    if forced != opt or not complete(kept, forced):
        raise InvariantError("lexicographic tie-break misses the optimum")
    return MatchingResult(edges=tuple(kept), weight=opt)


def _checked_weights(vertices, edges, weights) -> list[Fraction]:
    """`weights` as Fractions, one per edge of a simple graph on `vertices`."""
    check_simple_graph(vertices, edges)
    if len(edges) != len(weights):
        raise ValueError("edges and weights differ in length")
    return [Fraction(w) for w in weights]


def _after(edges, weights, kept, i):
    """The vertices kept + [i] cover, and the edges after i that avoid them
    with their weights; None when edge i meets a kept edge."""
    used = {x for j in (*kept, i) for x in edges[j]}
    if len(used) != 2 * len(kept) + 2:
        return None
    rest = [j for j in range(i + 1, len(edges)) if used.isdisjoint(edges[j])]
    return used, [edges[j] for j in rest], [weights[j] for j in rest]


def _max_value(edges, weights) -> Fraction:
    """Maximum matching weight only (no tie-break canonicalization)."""
    if not edges:
        return Fraction(0)
    pairs = _solve_pairs(edges, _scale_to_int(weights), maxcardinality=False)
    return _pairs_weight(edges, weights, pairs)


def max_weight_matching(vertices, edges, weights) -> MatchingResult:
    """Maximum-weight matching with deterministic tie-breaking.

    Among all maximum-weight matchings, returns the one whose sorted tuple of
    edge indices is lexicographically smallest. Negative-weight edges are
    never selected.
    """
    weights = _checked_weights(vertices, edges, weights)
    opt = _max_value(edges, weights)

    def completion(kept, i):
        rest = _after(edges, weights, kept, i)
        return None if rest is None else _max_value(*rest[1:])

    return _lex_min(weights, opt, completion, lambda kept, forced: forced == opt)


def _min_perfect_pairs(vertices, edges, weights):
    """Min-weight perfect matching pairs, or None if no perfect matching exists."""
    n = len(vertices)
    if n % 2 != 0:
        return None
    if n == 0:
        return set()
    ints = _scale_to_int(weights)
    pairs = _solve_pairs(edges, [-w for w in ints], maxcardinality=True)
    return pairs if 2 * len(pairs) == n else None


def _min_perfect_value(vertices, edges, weights) -> Optional[Fraction]:
    pairs = _min_perfect_pairs(vertices, edges, weights)
    return None if pairs is None else _pairs_weight(edges, weights, pairs)


def min_weight_perfect_matching(vertices, edges, weights) -> MatchingResult:
    """Minimum-weight perfect matching, same lexicographic tie-break."""
    weights = _checked_weights(vertices, edges, weights)
    opt = _min_perfect_value(vertices, edges, weights)
    if opt is None:
        raise NoPerfectMatchingError("no perfect matching exists")

    def completion(kept, i):
        rest = _after(edges, weights, kept, i)
        if rest is None:
            return None
        return _min_perfect_value([x for x in vertices if x not in rest[0]], *rest[1:])

    return _lex_min(
        weights, opt, completion, lambda kept, forced: 2 * len(kept) == len(vertices)
    )


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
    _, edges, weights = build_gadget(inst, allowed, caps)
    pairs = _solve_pairs(edges, _scale_to_int(weights), maxcardinality=False)
    total = _pairs_weight(edges, weights, pairs)
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
    opt = _b_value(inst, set(range(inst.m)), inst.b)

    def completion(kept, i):
        caps = list(inst.b)
        for j in (*kept, i):
            caps[inst.edges[j].u] -= 1
            caps[inst.edges[j].v] -= 1
        if min(caps) < 0:
            return None
        return _b_value(inst, set(range(i + 1, inst.m)), caps)

    return _lex_min(
        [e.w for e in inst.edges], opt, completion, lambda kept, forced: forced == opt
    )


def nu(inst: Instance, S: Iterable[int]) -> Fraction:
    """Value of a maximum-weight b-matching in the subgraph induced by S."""
    members = set(S)
    if not members <= set(range(inst.n)):
        raise ValueError("coalition contains unknown vertices")
    return b_matching_value(inst, members)
