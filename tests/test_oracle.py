import itertools
import random
from fractions import Fraction

import pytest

from corematch import oracle
from corematch.model import Allocation, ViolationKind, parse_instance, random_instance
from corematch.negcycle import CostEdge, CostedGraph, parse_cost_graph
from corematch.oracle import (
    SizeGuardError,
    check_cut_system,
    constraint_check_bruteforce,
    core_check_bruteforce,
    enumerate_constraints,
    negative_cycle_bruteforce,
    nu_bruteforce,
)

from conftest import random_allocation


def alloc(*xs):
    return Allocation(tuple(Fraction(x) for x in xs))


def test_nu_bruteforce_counterexample(counterexample):
    assert nu_bruteforce(counterexample, range(5)) == 12
    assert nu_bruteforce(counterexample, [2, 3, 4]) == 11
    assert nu_bruteforce(counterexample, [0]) == 0


def test_nu_bruteforce_respects_capacities():
    inst = parse_instance(
        "game 3 3\nvertex 0 1\nvertex 1 2\nvertex 2 2\n"
        "edge 0 1 4\nedge 1 2 4\nedge 0 2 4\n"
    )
    # vertex 0 may carry one edge only: best is two of the three edges
    assert nu_bruteforce(inst, range(3)) == 8


def test_nu_bruteforce_guard():
    inst = random_instance(1, 8, Fraction(1), 3)  # K8: 28 edges
    with pytest.raises(SizeGuardError):
        nu_bruteforce(inst, range(8))


def test_core_check_counterexample(counterexample, counterexample_core_p):
    assert core_check_bruteforce(counterexample, counterexample_core_p) is None
    v = core_check_bruteforce(counterexample, alloc(0, 0, 1, 11, 0))
    assert v is not None
    assert v.coalition == (0, 1, 2)
    assert (v.allocated, v.bound) == (1, 2)


def test_core_check_edgeless_zero():
    inst = parse_instance("game 3 0\nvertex 0 1\nvertex 1 2\nvertex 2 1\n")
    assert core_check_bruteforce(inst, alloc(0, 0, 0)) is None


def test_core_check_total_value_first(counterexample):
    v = core_check_bruteforce(counterexample, alloc(0, 0, 0, 0, 0))
    assert v.kind is ViolationKind.TOTAL_VALUE


def test_core_check_guard():
    # the constraint-system checks keep the same n <= 12 guard
    inst = parse_instance(
        "game 13 0\n" + "".join(f"vertex {v} 1\n" for v in range(13))
    )
    p = Allocation(tuple(Fraction(0) for _ in range(13)))
    for check, args in [
        (core_check_bruteforce, (inst, p)),
        (constraint_check_bruteforce, (inst, p)),
        (enumerate_constraints, (inst,)),
    ]:
        with pytest.raises(SizeGuardError, match=f"{check.__name__} guard: n=13 > 12"):
            check(*args)


def test_enumerate_constraints_counterexample(counterexample):
    fam = enumerate_constraints(counterexample)
    assert fam.cycles == ()
    path_sets = {verts for verts, _ in fam.paths}
    assert (0, 2, 3, 4) in path_sets  # s-u-v-w
    assert (1, 2, 3, 4) in path_sets  # t-u-v-w
    assert (0, 2, 1) in path_sets  # s-u-t
    assert all(len(verts) == 1 for verts, e in fam.paths if not e)
    assert len([v for v, e in fam.paths if not e]) == 5


def test_enumerate_constraints_triangle():
    inst = parse_instance(
        "game 3 3\nvertex 0 2\nvertex 1 2\nvertex 2 2\n"
        "edge 0 1 1\nedge 1 2 1\nedge 0 2 1\n"
    )
    fam = enumerate_constraints(inst)
    assert len(fam.cycles) == 1
    assert fam.cycles[0][0] == (0, 1, 2)


def test_enumerate_constraints_single_edge():
    inst = parse_instance("game 2 1\nvertex 0 1\nvertex 1 2\nedge 0 1 3\n")
    fam = enumerate_constraints(inst)
    assert fam.cycles == ()
    assert {v for v, _ in fam.paths} == {(0,), (1,), (0, 1)}


def test_enumeration_lists_each_once():
    rng = random.Random(12)
    for _ in range(15):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 6), Fraction(3, 5), 5)
        fam = enumerate_constraints(inst)
        canon_paths = set()
        for verts, eids in fam.paths:
            key = min(verts, verts[::-1])
            assert key not in canon_paths
            canon_paths.add(key)
        canon_cycles = set()
        for verts, eids in fam.cycles:
            k = len(verts)
            rotations = [
                tuple(verts[(i + j) % k] for j in range(k)) for i in range(k)
            ]
            rotations += [r[::-1] for r in rotations]
            key = min(rotations)
            assert key not in canon_cycles
            canon_cycles.add(key)
            assert all(inst.b[v] == 2 for v in verts)


def test_constraint_check_agrees_with_core_check():
    rng = random.Random(2)
    both = violated = 0
    for _ in range(40):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 6), Fraction(1, 2), 8)
        for _ in range(4):
            p = random_allocation(rng, inst)
            a = core_check_bruteforce(inst, p)
            b = constraint_check_bruteforce(inst, p)
            assert (a is None) == (b is None)
            both += 1
            violated += a is not None
    assert both == 160 and violated > 40


def test_constraint_check_square_cycle():
    # square plus a pendant vertex, so the cycle is a proper coalition
    inst = parse_instance(
        "game 5 5\nvertex 0 2\nvertex 1 2\nvertex 2 2\nvertex 3 2\nvertex 4 1\n"
        "edge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 0 1\nedge 0 4 0\n"
    )
    v = constraint_check_bruteforce(inst, alloc("1/2", "1/2", "3/2", "1/2", 1))
    assert v is not None and v.kind is ViolationKind.CYCLE
    assert v.coalition == (0, 1, 2, 3)
    assert (v.allocated, v.bound) == (3, 4)


def test_negative_cycle_bruteforce_examples():
    tri = lambda a, b, c: CostedGraph(
        (0, 1, 2),
        tuple(
            CostEdge(u, v, Fraction(w), i)
            for i, ((u, v), w) in enumerate(zip([(0, 1), (1, 2), (0, 2)], (a, b, c)))
        ),
    )
    got = negative_cycle_bruteforce(tri(-3, 1, 1))
    assert got is not None and got.cost == -1
    assert negative_cycle_bruteforce(tri(-1, 5, 5)) is None
    forest = CostedGraph((0, 1, 2), (CostEdge(0, 1, Fraction(-9), 0),))
    assert negative_cycle_bruteforce(forest) is None


def test_negative_cycle_guard():
    g = CostedGraph(tuple(range(10)), ())
    with pytest.raises(SizeGuardError):
        negative_cycle_bruteforce(g)


def test_cut_system_examples():
    tri = CostedGraph(
        (0, 1, 2),
        tuple(
            CostEdge(u, v, Fraction(1), i)
            for i, (u, v) in enumerate([(0, 1), (1, 2), (0, 2)])
        ),
    )
    assert check_cut_system(tri, [Fraction(1)] * 3) is None
    assert check_cut_system(tri, [Fraction(0)] * 3) is None
    bridge = CostedGraph((0, 1), (CostEdge(0, 1, Fraction(1), 0),))
    v = check_cut_system(bridge, [Fraction(1)])
    assert v is not None and v.edge == 0 and v.cut == (0,)
    with pytest.raises(ValueError):
        check_cut_system(bridge, [Fraction(-1)])


@pytest.mark.parametrize("x", [(5, 1, 1, -1), (5, 1)])
def test_cut_system_checks_the_length_before_the_entries(x):
    # (5, 1, 1, -1) was a GraphError at edge 3, which the graph lacks
    g = parse_cost_graph("costs 3 3\nedge 0 1 -3\nedge 1 2 1\nedge 0 2 1\n")
    with pytest.raises(ValueError, match="x must assign a value to every edge"):
        check_cut_system(g, [Fraction(v) for v in x])


def test_cut_system_guard():
    g = CostedGraph(tuple(range(11)), ())
    with pytest.raises(SizeGuardError):
        check_cut_system(g, [])


@pytest.mark.parametrize("S", [[0, 2, 3, 9], [-1, 2, 3]])
def test_nu_bruteforce_rejects_unknown_vertices(counterexample, S):
    # [0, 2, 3, 9] returned 11, the 9 ignored, where matching.nu raises
    with pytest.raises(ValueError, match="coalition contains unknown vertices"):
        nu_bruteforce(counterexample, S)


@pytest.mark.parametrize("check", [core_check_bruteforce, constraint_check_bruteforce])
@pytest.mark.parametrize("n", [3, 7])
def test_bruteforce_checks_reject_an_allocation_of_the_wrong_length(counterexample, check, n):
    # both reported a violation where every separation stage raises
    with pytest.raises(ValueError, match="allocation length differs"):
        check(counterexample, alloc(*[1] * n))
