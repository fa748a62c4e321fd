"""Metamorphic checks of separation beyond the brute-force sizes.

The games are planted: disjoint components of weight-W edges cover every
vertex at full capacity and all other edges weigh less than W, so
p_v = W·b_v/2 gives p(S) >= ν(S) for every coalition, p(N) = ν(N), and the
separation runs through the path stage. Moving a little value away from one
planted component then violates an edge, a cycle or a path.
"""

import random
from fractions import Fraction

import pytest

from corematch.model import Allocation, Edge, Instance, ViolationKind
from corematch.separation import separate

W = 10


def planted(rng: random.Random, n: int):
    """A planted game on n vertices and its allocations: the planted one, one
    transfer of delta < 1 out of each component and, for a one-edge
    component, one transfer along its edge (which stays in the core or
    violates a path)."""
    order = list(range(n))
    rng.shuffle(order)
    b = [2] * n
    edges: dict[tuple[int, int], Fraction] = {}
    comps = []
    while order:
        size = rng.choice([s for s in (2, 3, 4) if s <= len(order) and len(order) - s != 1])
        comp, order = order[:size], order[size:]
        closed = size > 2 and rng.random() < 0.5
        if not closed:
            b[comp[0]] = b[comp[-1]] = 1
        for u, v in zip(comp, comp[1:] + comp[:1] if closed else comp[1:]):
            edges[min(u, v), max(u, v)] = Fraction(W)
        comps.append(comp)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < 0.3:
                edges[u, v] = Fraction(rng.randint(0, 2 * W - 1), 2)
    inst = Instance(n, tuple(b), tuple(Edge(u, v, w) for (u, v), w in sorted(edges.items())))
    p0 = [Fraction(W * bv, 2) for bv in b]
    allocations = [p0]
    for comp in comps:
        # an inner vertex of a path, else any vertex of the component
        giver = comp[len(comp) // 2]
        takers = [rng.choice([v for v in range(n) if v not in comp])]
        if len(comp) == 2:
            takers.append(comp[0])
        for taker in takers:
            delta = Fraction(rng.randint(1, 6), 7)
            p = list(p0)
            p[giver] -= delta
            p[taker] += delta
            allocations.append(p)
    return inst, [Allocation(tuple(p)) for p in allocations]


def cases():
    rng = random.Random(2026)
    for n, count in ((8, 3), (16, 2), (24, 1)):
        for _ in range(count):
            inst, allocations = planted(rng, n)
            for p in allocations:
                yield inst, p


CASES = list(cases())


@pytest.fixture(scope="module")
def verdicts():
    return [separate(inst, p).violation for inst, p in CASES]


def test_cases_reach_the_path_stage(verdicts):
    for n in (8, 16, 24):
        at_n = [v for (inst, _), v in zip(CASES, verdicts) if inst.n == n]
        reached = [v is None or v.kind is ViolationKind.PATH for v in at_n]
        assert 3 * sum(reached) >= len(at_n)
    kinds = {v.kind for v in verdicts if v is not None}
    assert kinds == {ViolationKind.EDGE, ViolationKind.CYCLE, ViolationKind.PATH}


@pytest.mark.parametrize("r", [Fraction(7, 3), Fraction(1, 6), Fraction(5)])
def test_scaling_scales_the_certificate(verdicts, r):
    for (inst, p), v in zip(CASES, verdicts):
        scaled = Instance(inst.n, inst.b, tuple(e._replace(w=e.w * r) for e in inst.edges))
        vr = separate(scaled, Allocation(tuple(x * r for x in p.values))).violation
        if v is None:
            assert vr is None
            continue
        assert (vr.kind, vr.coalition, vr.witness_edges) == (v.kind, v.coalition, v.witness_edges)
        assert (vr.allocated, vr.bound) == (v.allocated * r, v.bound * r)


def test_isolated_vertex_changes_nothing(verdicts):
    for (inst, p), v in zip(CASES, verdicts):
        bigger = Instance(inst.n + 1, inst.b + (2,), inst.edges)
        padded = Allocation(p.values + (Fraction(0),))
        assert separate(bigger, padded).violation == v
