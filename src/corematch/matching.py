"""Exact maximum-weight matching and b-matching (b <= 2).

The blossom engine is `_edmonds`, an int-array port of networkx's
primal-dual implementation that returns the indices of the matched edges,
run on weights scaled to integers so every comparison is exact; it checks
the dual certificate of optimality on every solve. Calls that only read a
value (`_max_value`, `_b_value`: nu and the tie-break completions) use its
warm start, `warm_matched_edges`, which needs far fewer stages but may return
another optimum of the same weight; no result depends on which. A b-matching
value solve reads the instance's weights scaled to ints once per `Instance`
(`Instance.scaled_weights`) and leaves out the edges of weight 0, which add
nothing to a value. The perfect matchings (`_min_perfect_edges`) pick
T-joins and so certificates, and use the cold start, `matched_edges`, which
picks networkx's matching. On top of the engine this module implements
deterministic tie-breaking (the optimum whose sorted edge-index tuple is
lexicographically smallest), minimum-weight perfect matching, and
maximum-weight b-matching through a vertex/edge gadget expansion on dense
int nodes, in which only edges joining two capacity-2 vertices get a gadget.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ._edmonds import matched_edges, warm_matched_edges
from .model import (Instance, InvariantError, _is_exact, _is_index, check_coalition,
                    check_simple_graph)


class NoPerfectMatchingError(ValueError):
    pass


@dataclass(frozen=True)
class MatchingResult:
    """Chosen edge indices (sorted) and their exact total weight."""

    edges: tuple[int, ...]
    weight: Fraction


def _scale(weights: Iterable[Fraction]) -> tuple[list[int], int]:
    """Weights times the lcm of their denominators, and that lcm; int weights
    pass as is."""
    ws = list(weights)
    if all(type(w) is int for w in ws):
        return ws, 1
    ws = [w if type(w) is Fraction else Fraction(w) for w in ws]
    denom = math.lcm(*(w.denominator for w in ws))
    return [w.numerator * (denom // w.denominator) for w in ws], denom


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
    """`weights` as Fractions, one per edge of a simple graph on `vertices`;
    each must be an int or a Fraction (floats, bools and strings are not)."""
    check_simple_graph(vertices, edges)
    if len(edges) != len(weights):
        raise ValueError("edges and weights differ in length")
    for k, w in enumerate(weights):
        if not _is_exact(w):
            raise ValueError(f"weight on edge {k} is not an int or a Fraction: {w!r}")
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
    ints, _ = _scale(weights)
    return sum((weights[k] for k in warm_matched_edges(edges, ints)), Fraction(0))


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


def _min_perfect_edges(vertices, edges, weights) -> Optional[list[int]]:
    """Indices of the edges of a min-weight perfect matching, ascending, or
    None if no perfect matching exists."""
    if len(vertices) % 2:
        return None
    ints, _ = _scale(weights)
    matched = matched_edges(edges, [-w for w in ints], True)
    return matched if 2 * len(matched) == len(vertices) else None


def _min_perfect_value(vertices, edges, weights) -> Optional[Fraction]:
    matched = _min_perfect_edges(vertices, edges, weights)
    return None if matched is None else sum((weights[k] for k in matched), Fraction(0))


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
# Vertex v becomes caps_v copies. An edge e = uv whose endpoints both have
# capacity 2 becomes Tutte's 3-edge path u_i .. e_u - e_v .. v_j with every
# gadget edge weighing w_e (Schrijver, Combinatorial Optimization, ch. 31-32).
# Any other edge has an endpoint with one copy (or none), so it can be used
# at most once anyway: it joins the copies of u and v directly. A maximum
# matching covers each gadget with value >= w_e, so half-used gadgets are
# value-neutral and the identity maxWeight(G*) = w(E22) + w(M) holds, where
# E22 is the set of gadgeted edges and M holds the gadgets matched to vertex
# copies on both sides and the matched direct edges.
# ---------------------------------------------------------------------------


def build_gadget(inst: Instance, allowed: Optional[Iterable[int]] = None,
                 caps: Optional[Sequence[int]] = None):
    """Gadget graph for max-weight b-matching restricted to `allowed` edges,
    indices in 0..m-1, and per-vertex capacities `caps` in {0, 1, 2}, n of
    them (defaults: all edges, caps = b; ValueError otherwise).

    Returns (vertices, edges, weights) on dense int nodes: vertex v's copies
    are offset_v .. offset_v + caps_v - 1 with offset_v = caps_0 + ... +
    caps_(v-1), and the k-th gadgeted edge in index order has the nodes
    e_u = sum(caps) + 2k and e_v = e_u + 1.
    """
    caps = inst.b if caps is None else caps
    if len(caps) != inst.n:
        raise ValueError(f"caps has {len(caps)} entries for {inst.n} vertices")
    for v, c in enumerate(caps):
        if not _is_index(c, (0, 1, 2)):
            raise ValueError(f"capacity {c!r} at vertex {v} is not 0, 1 or 2")
    ids = range(inst.m) if allowed is None else tuple(allowed)
    for idx in ids:
        if not _is_index(idx, range(inst.m)):
            raise ValueError(f"edge index {idx!r} is not in 0..{inst.m - 1}")
    return _gadget(inst, sorted(ids), caps, [e.w for e in inst.edges])


def _gadget(inst: Instance, ids: Iterable[int], caps: Sequence[int], weights: Sequence):
    """The gadget graph over the checked edge indices `ids` at `caps`; each
    of its edges weighs `weights[idx]`, idx the index of the edge it expands."""
    offset = list(itertools.accumulate(caps, initial=0))
    node = offset[-1]
    edges = []
    gweights = []
    for idx in ids:
        u, v, _ = inst.edges[idx]
        us, vs = range(offset[u], offset[u + 1]), range(offset[v], offset[v + 1])
        if len(us) == len(vs) == 2:
            eu, ev = node, node + 1
            node += 2
            pairs = [(us[0], eu), (us[1], eu), (eu, ev), (ev, vs[0]), (ev, vs[1])]
        else:
            pairs = [(x, y) for x in us for y in vs]
        edges += pairs
        gweights += [weights[idx]] * len(pairs)
    return list(range(node)), edges, gweights


def _b_value(inst: Instance, allowed: set[int], caps: Sequence[int]) -> Fraction:
    """Max b-matching weight over `allowed` edges with capacities `caps`,
    both already checked (by `Instance`, `check_coalition` or the tie-break).

    Solves on the instance's scaled int weights and leaves out the edges of
    weight 0, which add nothing to a value. Checks the gadget identity
    maxWeight(G*) = w(E22) + w(M) before returning w(M).
    """
    if not allowed:
        return Fraction(0)
    ints, scale = inst.scaled_weights
    _, edges, weights = _gadget(inst, sorted(i for i in allowed if ints[i]), caps, ints)
    matched = set(warm_matched_edges(edges, weights))
    covered = {x for k in matched for x in edges[k]}
    base = sum(caps)  # the first gadget node
    total = wall = value = 0  # in units of 1/scale
    for k, ((a, c), w) in enumerate(zip(edges, weights)):
        if k in matched:
            total += w
        if a >= base and c >= base:  # the middle edge e_u - e_v of a gadget
            wall += w
            if k not in matched and a in covered and c in covered:  # the gadget is fully used
                value += w
        elif k in matched and a < base and c < base:  # a direct edge
            value += w
    if total != wall + value:
        raise InvariantError("gadget identity violated")
    return Fraction(value, scale)


def b_matching_value(inst: Instance, S: Optional[Iterable[int]] = None) -> Fraction:
    """nu-style value query: max b-matching weight in G[S] (S = all vertices
    by default), without materializing a canonical edge set. Raises
    ValueError when S holds a vertex outside 0..n-1."""
    if S is None:
        return _b_value(inst, set(range(inst.m)), inst.b)
    members = check_coalition(inst, S)
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
    return b_matching_value(inst, S)
