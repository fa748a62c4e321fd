"""Brute-force ground-truth oracles at desk scale.

Everything here is definitionally exhaustive — a search of all
degree-feasible edge subsets, coalition scans, cycle/path enumeration — and
calls nothing in separation, extform, matching or negcycle, so the rest of
the library can be tested against it without circularity. The one LP oracle,
`core_lp_bruteforce`, solves its all-coalitions LP with linsys's simplex.
Hard size guards keep property harnesses from silently running exponential
scans.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import linsys
from .model import (
    Allocation,
    GraphError,
    Instance,
    SizeGuardError,
    Violation,
    ViolationKind,
    check_allocation_length,
    check_coalition,
    coalition,
)
from .negcycle import CostedGraph, Cycle


def nu_bruteforce(inst: Instance, S) -> Fraction:
    """Max weight over all degree-feasible edge subsets of G[S], each visited
    once: every edge in index order is skipped or, while both its ends have
    capacity left, taken. ValueError when S holds a vertex outside 0..n-1."""
    members = check_coalition(inst, S)
    edges = [e for e in inst.edges if e.u in members and e.v in members]
    m = len(edges)
    if m > 25:
        raise SizeGuardError(f"nu_bruteforce guard: {m} edges > 25")
    room = list(inst.b)
    empty = Fraction(0)  # made once: the search ends in up to 2^m leaves

    def best(k: int) -> Fraction:
        if k == m:
            return empty
        value = best(k + 1)
        u, v, w = edges[k]
        if room[u] and room[v]:
            room[u] -= 1
            room[v] -= 1
            value = max(value, w + best(k + 1))
            room[u] += 1
            room[v] += 1
        return value

    return best(0)


def core_check_bruteforce(inst: Instance, p: Allocation) -> Optional[Violation]:
    """Check p against every coalition constraint; None means in the core.

    If violated, returns the maximally violated coalition (largest nu(S) - p(S),
    ties broken by the lexicographically smallest coalition). A total-value
    mismatch is reported first as a TotalValue violation.
    """
    if inst.n > 12:
        raise SizeGuardError(f"core_check_bruteforce guard: n={inst.n} > 12")
    check_allocation_length(inst, p)
    everyone = tuple(range(inst.n))
    nu_n = nu_bruteforce(inst, everyone)
    if p.total() != nu_n:
        return Violation(ViolationKind.TOTAL_VALUE, everyone, p.total(), nu_n)

    worst: Optional[tuple[Fraction, tuple[int, ...], Fraction, Fraction]] = None
    for mask in range(1, (1 << inst.n) - 1):
        S = tuple(v for v in range(inst.n) if mask >> v & 1)
        value = nu_bruteforce(inst, S)
        ps = p.of(S)
        gap = value - ps
        if gap > 0:
            key = (-gap, S)
            if worst is None or key < (-worst[0], worst[1]):
                worst = (gap, S, ps, value)
    if worst is None:
        return None
    _, S, ps, value = worst
    return Violation(ViolationKind.COALITION, S, ps, value)


def core_lp_bruteforce(inst: Instance, c: Sequence) -> tuple[str, Optional[Fraction]]:
    """min c·p over the core, by its dual on n rows over every coalition:
    max Σ ν(S)·y_S + ν(N)·z subject to Σ_{S∋v} y_S + z = c_v and y >= 0,
    S running over the proper coalitions with ν(S) > 0 and the singletons.
    The dual is always feasible (y on the singletons, z = min c), so this
    returns ("optimal", the optimum) or, where the core is empty,
    ("unbounded", None)."""
    if inst.n > 12:
        raise SizeGuardError(f"core_lp_bruteforce guard: n={inst.n} > 12")
    if len(c) != inst.n:
        raise ValueError("c must give one coefficient per vertex")
    coalitions = {}
    for mask in range(1, (1 << inst.n) - 1):
        S = tuple(v for v in range(inst.n) if mask >> v & 1)
        value = nu_bruteforce(inst, S)
        if value > 0 or len(S) == 1:
            coalitions["y_" + "_".join(map(str, S))] = (S, value)
    # minimize the negated objective; z is free, every y_S a sign row
    system = linsys.ConstraintSystem("core-lp", ["z", *coalitions], objective={
        "z": -nu_bruteforce(inst, range(inst.n)),
        **{y: -value for y, (_, value) in coalitions.items()}})
    for v in range(inst.n):
        system.add_constraint(f"c_{v}", {"z": 1, **{y: 1 for y, (S, _) in coalitions.items()
                                                    if v in S}}, "=", c[v])
    for y in coalitions:
        system.add_constraint(f"nn_{y}", {y: 1}, ">=", 0)
    result = linsys.simplex_solve(system)
    if result.status == "unbounded":
        return "unbounded", None
    # where every ν is 0 the objective is zero, which is solved as a feasibility check
    return "optimal", -Fraction(result.objective or 0)


class ConstraintFamily(NamedTuple):
    """All cycles with every vertex of capacity 2, and all paths whose inner
    vertices have capacity 2 (lengths 0..n-1), each listed once up to
    direction. Entries are (vertex tuple, edge-index tuple)."""

    cycles: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    paths: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def enumerate_constraints(inst: Instance) -> ConstraintFamily:
    if inst.n > 12:
        raise SizeGuardError(f"enumerate_constraints guard: n={inst.n} > 12")

    cycles: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    paths: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    # length-0 paths: the vertices themselves
    for v in range(inst.n):
        paths.append(((v,), ()))

    # simple paths: DFS from each endpoint u; record when the far endpoint
    # exceeds u so each path appears once. Extending past x requires b_x = 2.
    def extend_path(verts: list[int], eids: list[int]):
        u, v = verts[0], verts[-1]
        if v > u:
            paths.append((tuple(verts), tuple(eids)))
        if inst.b[v] == 2:
            for i in inst.incident(v):
                w = inst.edges[i].other(v)
                if w not in verts:
                    extend_path(verts + [w], eids + [i])

    for u in range(inst.n):
        for i in inst.incident(u):
            w = inst.edges[i].other(u)
            extend_path([u, w], [i])

    # simple cycles: rooted at their minimum vertex, second vertex smaller
    # than the last to fix direction; every vertex must have b = 2.
    def extend_cycle(verts: list[int], eids: list[int]):
        root, v = verts[0], verts[-1]
        close = inst.find_edge(v, root)
        if close is not None and len(verts) >= 3 and verts[1] < v:
            cycles.append((tuple(verts), tuple(eids) + (close,)))
        for i in inst.incident(v):
            w = inst.edges[i].other(v)
            if w > root and w not in verts and inst.b[w] == 2:
                extend_cycle(verts + [w], eids + [i])

    for root in range(inst.n):
        if inst.b[root] == 2:
            extend_cycle([root], [])

    return ConstraintFamily(cycles=tuple(cycles), paths=tuple(paths))


def constraint_check_bruteforce(inst: Instance, p: Allocation) -> Optional[Violation]:
    """Verdict from the total-value / cycle / path constraint system."""
    if inst.n > 12:
        raise SizeGuardError(f"constraint_check_bruteforce guard: n={inst.n} > 12")
    check_allocation_length(inst, p)
    nu_n = nu_bruteforce(inst, range(inst.n))
    if p.total() != nu_n:
        return Violation(
            ViolationKind.TOTAL_VALUE, tuple(range(inst.n)), p.total(), nu_n
        )
    family = enumerate_constraints(inst)

    worst = None
    for kind, entries in (
        (ViolationKind.CYCLE, family.cycles),
        (ViolationKind.PATH, family.paths),
    ):
        for verts, eids in entries:
            bound = sum((inst.edges[i].w for i in eids), Fraction(0))
            ps = p.of(verts)
            gap = bound - ps
            if gap > 0:
                key = (-gap, tuple(sorted(verts)))
                if worst is None or key < worst[0]:
                    if len(verts) == 1:
                        kind_out = ViolationKind.VERTEX
                    elif len(eids) == 1 and kind is ViolationKind.PATH:
                        kind_out = ViolationKind.EDGE
                    else:
                        kind_out = kind
                    worst = (
                        key,
                        Violation(kind_out, coalition(verts), ps, bound, tuple(eids)),
                    )
    return worst[1] if worst else None


def _simple_cycles(g: CostedGraph):
    index = {}
    for i, e in enumerate(g.edges):
        index[e.key()] = i
    incident: dict[int, list[int]] = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        incident[e.u].append(i)
        incident[e.v].append(i)

    out: list[Cycle] = []

    def extend(verts: list[int], eids: list[int]):
        root, v = verts[0], verts[-1]
        close = index.get((min(v, root), max(v, root)))
        if close is not None and len(verts) >= 3 and verts[1] < v:
            cost = sum((g.edges[i].cost for i in eids), Fraction(0))
            cost += g.edges[close].cost
            out.append(Cycle(tuple(eids) + (close,), tuple(verts), cost))
        for i in incident[v]:
            w = g.edges[i].other(v)
            if w > root and w not in verts:
                extend(verts + [w], eids + [i])

    for root in sorted(g.vertices):
        extend([root], [])
    return out


def negative_cycle_bruteforce(g: CostedGraph) -> Optional[Cycle]:
    """Minimum-cost simple cycle if negative, else None (full enumeration)."""
    if len(g.vertices) > 9:
        raise SizeGuardError(f"negative_cycle_bruteforce guard: n={len(g.vertices)} > 9")
    cycles = _simple_cycles(g)
    if not cycles:
        return None
    best = min(cycles, key=lambda c: (c.cost, tuple(sorted(c.edges))))
    return best if best.cost < 0 else None


class CutViolation(NamedTuple):
    side: tuple[int, ...]  # the vertex class X defining the cut
    cut: tuple[int, ...]  # edge indices of delta(X)
    edge: int  # the offending edge e with x_e > x(B \ e)


def check_cut_system(g: CostedGraph, x: Sequence[Fraction]) -> Optional[CutViolation]:
    """Check x >= 0 and x_e <= x(B \\ e) for every cut B and every e in B.

    Returns None when the whole system holds. An x of another length than
    the edge list is a ValueError; then a negative entry is a GraphError at
    its edge's position; both are raised ahead of the size guard.
    """
    if len(x) != len(g.edges):
        raise ValueError("x must assign a value to every edge")
    for i, xi in enumerate(x):
        if xi < 0:
            raise GraphError(f"negative x entry {xi}", i)
    n = len(g.vertices)
    if n > 10:
        raise SizeGuardError(f"check_cut_system guard: n={n} > 10")
    if not n:
        return None  # no vertex, no cut
    anchor, *rest = sorted(g.vertices)
    for mask in range(1 << len(rest)):
        side = {anchor} | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if len(side) == n:
            continue
        cut = [
            i for i, e in enumerate(g.edges) if (e.u in side) != (e.v in side)
        ]
        total = sum((x[i] for i in cut), Fraction(0))
        for e in cut:
            if x[e] > total - x[e]:
                return CutViolation(tuple(sorted(side)), tuple(cut), e)
    return None
