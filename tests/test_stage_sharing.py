"""`separate` against its four public stages, and what one call builds.

`separate` costs the allocation and builds G2 once, past the total value,
and hands that pair to the later stages; called on their own, the stages
build it themselves. Both routes must give the same first violation, and a
`separate` call must build each derived fact at most once.
"""

import collections
import random
from fractions import Fraction

import pytest

from corematch import negcycle, separation
from corematch.model import Allocation, ViolationKind, random_instance
from corematch.separation import (
    check_total_value,
    separate,
    separate_all,
    separate_cycles,
    separate_paths,
    separate_vertices_edges,
)

from conftest import normalized, random_allocation
from test_metamorphic import planted

STAGES = (check_total_value, separate_vertices_edges, separate_cycles, separate_paths)


def first_of_stages(inst, p):
    """The first non-None violation of the four stages called one by one."""
    for stage in STAGES:
        violation = stage(inst, p)
        if violation is not None:
            return violation
    return None


def repaired(rng, inst):
    """An allocation raised until every edge and then (for up to n rounds)
    every cycle holds, with one vertex taking ν(N) − p(N)."""
    p = [Fraction(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(inst.n)]
    for e in rng.sample(inst.edges, inst.m):
        gap = e.w - p[e.u] - p[e.v]
        if gap > 0:
            p[rng.choice((e.u, e.v))] += gap
    for _ in range(inst.n):
        v = separate_cycles(inst, Allocation(tuple(p)))
        if v is None:
            break
        p[rng.choice(v.coalition)] += v.bound - v.allocated
    p[rng.randrange(inst.n)] += inst.grand_value - sum(p)
    return Allocation(tuple(p))


def cases():
    """(inst, p, planted) on planted and random games at n = 16, 32 and 64."""
    rng = random.Random(1812)
    for n, density in ((16, Fraction(1, 4)), (32, Fraction(1, 4)), (64, Fraction(1, 8))):
        inst, allocations = planted(rng, n)
        # one planted vertex goes below zero, its value moved to another
        p0 = list(allocations[0].values)
        giver, taker = rng.sample(range(n), 2)
        p0[taker] += p0[giver] + 1
        p0[giver] = Fraction(-1)
        for p in allocations + [Allocation(tuple(p0))]:
            yield inst, p, True
        for _ in range(2):
            inst = random_instance(rng.randint(0, 10**6), n, density, 10)
            yield inst, random_allocation(rng, inst), False
            yield inst, normalized(random_allocation(rng, inst), inst.grand_value), False
            yield inst, normalized(random_allocation(rng, inst, lo=0), inst.grand_value), False
            for _ in range(3):
                yield inst, repaired(rng, inst), False


CASES = list(cases())


def test_separate_is_the_first_violation_of_the_stages():
    seen = collections.Counter()
    for inst, p, is_planted in CASES:
        v = separate(inst, p).violation
        assert v == first_of_stages(inst, p)
        # past n = 16 only on planted games where the path stage decides:
        # elsewhere separate_all searches every variant of every pair, or
        # the many that the G2 distances flag, which takes up to minutes
        if inst.n == 16 or is_planted and (v is None or v.kind is ViolationKind.PATH):
            assert separate_all(inst, p)[:1] == ([] if v is None else [v])
            seen["separate_all", inst.n] += 1
        seen[None if v is None else v.kind] += 1
    assert set(seen) >= {None, *ViolationKind} - {ViolationKind.COALITION}
    assert min(seen["separate_all", n] for n in (16, 32, 64)) >= 5, seen


@pytest.fixture
def builds(monkeypatch):
    """Per-name call counts of the costing, the G2 build and the distances."""
    counts = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(separation, "integer_costs")
    counted(separation, "build_g2")
    counted(negcycle, "join_distances")
    return counts


def test_separate_costs_builds_g2_and_measures_distances_once(builds):
    decided = collections.Counter()
    for inst, p, _ in CASES:
        builds.clear()
        v = separate(inst, p).violation
        kind = None if v is None else v.kind
        decided[kind] += 1
        assert max(builds.values(), default=0) <= 1, (kind, builds)
        if kind is ViolationKind.TOTAL_VALUE:
            assert not builds
        else:
            assert builds["integer_costs"] == builds["build_g2"] == 1
        if kind in (ViolationKind.CYCLE, ViolationKind.VERTEX, ViolationKind.EDGE):
            # the cycle search runs before any distance is measured
            assert builds["join_distances"] == 0
        if kind in (None, ViolationKind.PATH):
            assert builds["join_distances"] == 1
    assert decided[ViolationKind.CYCLE] >= 3 and decided[ViolationKind.PATH] >= 3, decided
