"""`separate` against its four public stages, and what one call builds.

`separate` costs the allocation once, past the total value, and hands the
costs, which carry G2, to the later stages; a stage called on its own takes
costs built by `integer_costs` for it. Both routes must give the same first
violation, and a `separate` or `separate_all` call must build each derived
fact at most once.
"""

import collections
import gc
import hashlib
import pathlib
import random
import weakref
from fractions import Fraction

import pytest

from corematch import negcycle, separation
from corematch.model import (Allocation, ViolationKind, emit_instance, parse_instance,
                             random_instance)
from corematch.separation import (
    check_total_value,
    integer_costs,
    separate,
    separate_all,
    separate_cycles,
    separate_paths,
    separate_vertices_edges,
)

from conftest import normalized, random_allocation
from test_metamorphic import planted

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
STAGES = (separate_vertices_edges, separate_cycles, separate_paths)


def separate_all_is_quick(inst, v, is_planted):
    """Whether `separate_all` is quick on a case whose first violation is v:
    past n = 16 only on planted games where the path stage decides;
    elsewhere it searches every variant of every pair, or the many that the
    G2 distances flag, which takes up to minutes."""
    return inst.n == 16 or is_planted and (v is None or v.kind is ViolationKind.PATH)


def first_of_stages(inst, p):
    """The first non-None violation of the four stages called one by one,
    each stage past the total value on costs of its own."""
    violation = check_total_value(inst, p)
    for stage in STAGES:
        if violation is None:
            violation = stage(integer_costs(inst, p))
    return violation


def repaired(rng, inst):
    """An allocation raised until every edge and then (for up to n rounds)
    every cycle holds, with one vertex taking ν(N) − p(N)."""
    p = [Fraction(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(inst.n)]
    for e in rng.sample(inst.edges, inst.m):
        gap = e.w - p[e.u] - p[e.v]
        if gap > 0:
            p[rng.choice((e.u, e.v))] += gap
    for _ in range(inst.n):
        v = separate_cycles(integer_costs(inst, Allocation(tuple(p))))
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
        if separate_all_is_quick(inst, v, is_planted):
            assert separate_all(inst, p)[:1] == ([] if v is None else [v])
            seen["separate_all", inst.n] += 1
        seen[None if v is None else v.kind] += 1
    assert set(seen) >= {None, *ViolationKind} - {ViolationKind.COALITION}
    assert min(seen["separate_all", n] for n in (16, 32, 64)) >= 5, seen


@pytest.fixture
def builds(monkeypatch):
    """Per-name call counts of the instance skeleton, the costing, which
    builds G2, and the distances."""
    counts = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(separation, "skeleton")
    counted(separation, "integer_costs")
    counted(negcycle, "join_distances")
    return counts


def test_skeleton_is_built_once_per_instance(builds):
    game, allocations = planted(random.Random(31), 16)
    text = emit_instance(game)
    a, b = parse_instance(text), parse_instance(text)
    assert a == b and a is not b
    # a TotalValue verdict costs nothing
    v = separate(a, Allocation((Fraction(0),) * a.n)).violation
    assert v.kind is ViolationKind.TOTAL_VALUE and not builds
    kinds = set()
    for p in (allocations * 8)[:8]:
        v = separate(a, p).violation
        kinds.add(None if v is None else v.kind)
    # the skeleton serves the path stage, which some of them reach
    assert len(kinds) >= 2 and None in kinds and ViolationKind.TOTAL_VALUE not in kinds
    assert builds["skeleton"] == 1 and builds["integer_costs"] == 8
    # an equal game is another object, with a skeleton of its own
    separate(b, allocations[0])
    assert builds["skeleton"] == 2 and a.skeleton == b.skeleton and a.skeleton is not b.skeleton
    # the cached skeleton does not keep its instance alive
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_separate_costs_builds_g2_and_measures_distances_once(builds):
    decided = collections.Counter()
    for inst, p, is_planted in CASES:
        builds.clear()
        v = separate(inst, p).violation
        kind = None if v is None else v.kind
        decided[kind] += 1
        assert max(builds.values(), default=0) <= 1, (kind, builds)
        if kind is ViolationKind.TOTAL_VALUE:
            assert not builds
        else:
            assert builds["integer_costs"] == 1
        if kind in (ViolationKind.CYCLE, ViolationKind.VERTEX, ViolationKind.EDGE):
            # the cycle search runs before any distance is measured
            assert builds["join_distances"] == 0
        if kind in (None, ViolationKind.PATH):
            assert builds["join_distances"] == 1
        if separate_all_is_quick(inst, v, is_planted):
            builds.clear()
            separate_all(inst, p)
            # costed once, also where the total value fails
            assert builds["integer_costs"] == 1 and builds["join_distances"] <= 1, builds
            decided["separate_all", kind] += 1
    assert decided[ViolationKind.CYCLE] >= 3 and decided[ViolationKind.PATH] >= 3, decided
    assert decided["separate_all", ViolationKind.TOTAL_VALUE] >= 1, decided
    assert decided["separate_all", None] >= 3 and decided["separate_all", ViolationKind.PATH] >= 3, decided


def test_separate_all_measures_distances_once_past_a_violated_g2_edge(builds):
    # edge {2,3} joins two capacity-2 vertices and is violated; the path
    # stage still reads G2's distances alone
    inst = parse_instance((DATA / "counterexample.game").read_text())
    p = Allocation(tuple(map(Fraction, (1, 1, 2, 5, 3))))
    found = separate_all(inst, p)
    assert builds["integer_costs"] == 1 and builds["join_distances"] == 1, builds
    assert [v.describe() for v in found] == [
        "kind=Edge S={2,3} p(S)=7 bound=10",
        "kind=Path S={0,2,3} p(S)=8 bound=11",
        "kind=Path S={0,2,3,4} p(S)=11 bound=12",
        "kind=Path S={1,2,3} p(S)=8 bound=11",
        "kind=Path S={1,2,3,4} p(S)=11 bound=12",
        "kind=Path S={2,3,4} p(S)=10 bound=11",
    ]
    assert [v.witness_edges for v in found] == [(2,), (0, 2), (0, 2, 3), (1, 2), (1, 2, 3), (2, 3)]


def certificate_corpus():
    """(inst, p, with_all): planted streams at n = 16, then random games at
    n = 6…24 under a random, a normalized and a repaired allocation;
    `with_all` where `separate_all` is quick (n <= 16)."""
    rng = random.Random(4096)
    for _ in range(8):
        inst, allocations = planted(rng, 16)
        for p in allocations:
            yield inst, p, True
    for n in (6, 8, 10, 12, 16, 20, 24):
        for _ in range(5):
            inst = random_instance(rng.randint(0, 10**6), n, Fraction(1, 3), 10)
            yield inst, random_allocation(rng, inst), n <= 16
            yield inst, normalized(random_allocation(rng, inst), inst.grand_value), n <= 16
            yield inst, repaired(rng, inst), n <= 16


def record(v):
    return "in core" if v is None else f"{v.describe()} witness={v.witness_edges}"


# SHA-256 of every verdict and certificate of `separate` and `separate_all`
# over `certificate_corpus`: any change to a scan order, a tie-break or a
# certificate moves it
CERTIFICATES = "8485023992440650147e3f05077e6cd750ea70084bac1215927ead49fbc8fa08"


def test_certificates_are_pinned():
    h = hashlib.sha256()
    kinds = collections.Counter()
    for inst, p, with_all in certificate_corpus():
        v = separate(inst, p).violation
        kinds[None if v is None else v.kind] += 1
        h.update(f"{record(v)}\n".encode())
        if with_all:
            h.update(f"all: {'; '.join(map(record, separate_all(inst, p)))}\n".encode())
    assert set(kinds) == {None, *ViolationKind} - {ViolationKind.COALITION}, kinds
    assert h.hexdigest() == CERTIFICATES
