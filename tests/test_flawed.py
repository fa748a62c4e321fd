import random
from fractions import Fraction

import pytest

from corematch import matching, model, oracle, separation
from corematch.flawed import (
    build_layered,
    counterexample_allocation,
    counterexample_instance,
    demo_counterexample,
    flawed_separate_paths,
    shortest_layered_path,
)
from corematch.model import Allocation, parse_instance, random_instance

from conftest import normalized, random_allocation


def alloc(*xs):
    return Allocation(tuple(Fraction(x) for x in xs))


def test_layered_contains_the_folded_walk(counterexample, counterexample_core_p):
    lg = build_layered(counterexample, counterexample_core_p, 0, 1, 4)
    assert lg.layers[0] == (0,) and lg.layers[4] == (1,)
    assert lg.layers[1] == (2, 3)
    best = shortest_layered_path(lg)
    assert best is not None
    assert best.vertices == (0, 2, 3, 2, 1)
    assert best.weight == -8  # 14 - 22


def test_layered_k1_collapses_to_edge_rule():
    inst = parse_instance("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 5\n")
    lg = build_layered(inst, alloc(2, 2), 0, 1, 1)
    assert lg.arcs == (((0, 1, Fraction(-1)),),)
    best = shortest_layered_path(lg)
    assert best.weight == 2 + 2 - 5


def test_layered_no_middle_vertices():
    inst = parse_instance(
        "game 3 1\nvertex 0 1\nvertex 1 1\nvertex 2 1\nedge 0 1 5\n"
    )
    lg = build_layered(inst, alloc(2, 2, 0), 0, 1, 2)
    assert lg.layers[1] == ()
    assert shortest_layered_path(lg) is None


def test_layered_validates_arguments(counterexample, counterexample_core_p):
    with pytest.raises(ValueError):
        build_layered(counterexample, counterexample_core_p, 0, 0, 2)
    with pytest.raises(ValueError):
        build_layered(counterexample, counterexample_core_p, 0, 1, 0)
    with pytest.raises(ValueError):
        build_layered(counterexample, counterexample_core_p, 0, 1, 5)


def test_flawed_scan_rejects_core_allocation(counterexample, counterexample_core_p):
    got = flawed_separate_paths(counterexample, counterexample_core_p)
    assert got is not None
    assert (got.i0, got.j0, got.k) == (0, 1, 4)
    assert got.vertices == (0, 2, 3, 2, 1)
    assert got.weight == -8


def test_flawed_scan_huge_allocation(counterexample):
    assert flawed_separate_paths(counterexample, alloc(50, 50, 50, 50, 50)) is None


def _all_shortest_layered_simple(inst, p):
    for i0 in range(inst.n):
        for j0 in range(inst.n):
            if i0 == j0:
                continue
            for k in range(1, inst.n):
                best = shortest_layered_path(build_layered(inst, p, i0, j0, k))
                if best is not None and len(set(best.vertices)) != len(best.vertices):
                    return False
    return True


def test_flawed_agrees_when_layered_paths_are_simple():
    rng = random.Random(31)
    compared = 0
    for _ in range(300):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(2, 5), Fraction(1, 2), 8)
        p = normalized(random_allocation(rng, inst, lo=0), matching.b_matching_value(inst))
        if separation.separate_vertices_edges(inst, p) is not None:
            continue
        if separation.separate_cycles(inst, p) is not None:
            continue
        if not _all_shortest_layered_simple(inst, p):
            continue
        flaw = flawed_separate_paths(inst, p)
        corrected = separation.separate_paths(inst, p)
        assert (flaw is None) == (corrected is None)
        compared += 1
    assert compared >= 20


def test_flawed_none_implies_corrected_none():
    # one-directional soundness: every violated simple path embeds as a
    # layered path of the same weight, so a clean scan means clean paths
    rng = random.Random(77)
    checked = 0
    for _ in range(150):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(2, 6), Fraction(1, 2), 8)
        p = random_allocation(rng, inst, lo=0)
        if separation.separate_cycles(inst, p) is not None:
            continue
        if flawed_separate_paths(inst, p) is None:
            # p >= 0 by construction, so a clean scan also certifies the edges
            assert separation.separate_vertices_edges(inst, p) is None
            assert separation.separate_paths(inst, p) is None
            checked += 1
    assert checked >= 20


def test_demo_report_contents():
    report = demo_counterexample()
    assert "InCore" in report
    assert report.count("InCore") == 2
    assert "(s,u,v,u,t) weight -8" in report
    assert "nu(N) = 12" in report
    assert "p(N)  = 12" in report
    assert "14 - 22" in report


def test_counterexample_data_is_consistent():
    inst = counterexample_instance()
    p = counterexample_allocation()
    assert inst.b == (1, 1, 2, 2, 1)
    assert p.total() == 12
    assert oracle.core_check_bruteforce(inst, p) is None


@pytest.mark.parametrize("n", [3, 7])
def test_flawed_scan_rejects_an_allocation_of_the_wrong_length(counterexample, n):
    # the scan reported a negative path where every separation stage raises
    p = alloc(*[-1] * n)
    with pytest.raises(ValueError, match="allocation length differs"):
        flawed_separate_paths(counterexample, p)
    with pytest.raises(ValueError, match="allocation length differs"):
        build_layered(counterexample, p, 0, 1, 2)
