import random
from fractions import Fraction

import pytest

from corematch import matching, model, oracle, separation
from corematch.model import Allocation, ViolationKind, parse_instance, random_instance
from corematch.separation import (
    build_g2,
    check_total_value,
    separate,
    separate_all,
    separate_cycles,
    separate_paths,
    separate_vertices_edges,
    variant_structures,
    variants,
    verify_violation,
)

from conftest import normalized, random_allocation


def alloc(*xs):
    return Allocation(tuple(Fraction(x) for x in xs))


SQUARE = parse_instance(
    "game 4 4\nvertex 0 2\nvertex 1 2\nvertex 2 2\nvertex 3 2\n"
    "edge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 0 1\n"
)


def test_total_value_counterexample(counterexample, counterexample_core_p):
    assert check_total_value(counterexample, counterexample_core_p) is None
    v = check_total_value(counterexample, alloc(0, 0, 0, 0, 0))
    assert v is not None and v.kind is ViolationKind.TOTAL_VALUE
    assert (v.allocated, v.bound) == (0, 12)


def test_total_value_edgeless():
    inst = parse_instance("game 2 0\nvertex 0 1\nvertex 1 2\n")
    assert check_total_value(inst, alloc(0, 0)) is None


def test_vertex_and_edge_checks(counterexample, counterexample_core_p):
    assert separate_vertices_edges(counterexample, counterexample_core_p) is None
    v = separate_vertices_edges(counterexample, alloc(0, -1, 3, 10, 0))
    assert v.kind is ViolationKind.VERTEX and v.coalition == (1,)
    inst = parse_instance("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 5\n")
    v = separate_vertices_edges(inst, alloc(2, 2))
    assert v.kind is ViolationKind.EDGE
    assert (v.allocated, v.bound) == (4, 5) and v.witness_edges == (0,)


def test_build_g2_counterexample(counterexample, counterexample_core_p):
    g2 = build_g2(counterexample, counterexample_core_p)
    assert g2.vertices == (2, 3)
    assert len(g2.edges) == 1
    # transfer cost (2+10)/2 - 10 = -4 on the only capacity-2 edge
    assert g2.edges[0].cost == -4
    assert g2.edges[0].orig == 2


def test_build_g2_all_capacity_one():
    inst = parse_instance("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 5\n")
    g2 = build_g2(inst, alloc(0, 0))
    assert g2.vertices == () and g2.edges == ()


def test_build_g2_triangle_zero_allocation():
    inst = parse_instance(
        "game 3 3\nvertex 0 2\nvertex 1 2\nvertex 2 2\n"
        "edge 0 1 1\nedge 1 2 1\nedge 0 2 1\n"
    )
    g2 = build_g2(inst, alloc(0, 0, 0))
    assert all(e.cost == -1 for e in g2.edges)


def test_separate_cycles_square():
    v = separate_cycles(SQUARE, alloc("1/2", "1/2", "1/2", "1/2"))
    assert v is not None and v.kind is ViolationKind.CYCLE
    assert v.coalition == (0, 1, 2, 3)
    assert (v.allocated, v.bound) == (2, 4)
    assert separate_cycles(SQUARE, alloc(1, 1, 1, 1)) is None


def test_separate_cycles_counterexample_has_no_cycle(counterexample, counterexample_core_p):
    assert separate_cycles(counterexample, counterexample_core_p) is None


def test_variants_counterexample(counterexample, counterexample_core_p):
    inst, p = counterexample, counterexample_core_p
    # {s,t}: both capacity 1, one non-st edge each -> exactly one variant
    (struct,) = variant_structures(inst, 0, 1)
    assert struct.kept_s == 0 and struct.kept_t == 1
    (g,) = variants(inst, p, 0, 1)
    marker = g.edges[g.marker]
    assert {marker.u, marker.v} == {0, 1} and marker.orig is None
    assert marker.cost == 0  # (p_s + p_t)/2 with p_s = p_t = 0
    # {u,v}: both capacity 2 -> the single direct graph, no removals
    (struct_uv,) = variant_structures(inst, 2, 3)
    assert struct_uv.kept_s is None and struct_uv.kept_t is None
    assert len(variants(inst, p, 2, 3)) == 1


def test_variants_isolated_endpoint():
    inst = parse_instance(
        "game 3 1\nvertex 0 1\nvertex 1 1\nvertex 2 2\nedge 1 2 1\n"
    )
    assert variants(inst, alloc(0, 0, 0), 0, 1) == []


def test_variants_counts_both_capacity_one():
    # K4 star around two capacity-1 endpoints: (d_s-1)(d_t-1) variants
    inst = parse_instance(
        "game 4 5\nvertex 0 1\nvertex 1 1\nvertex 2 2\nvertex 3 2\n"
        "edge 0 2 1\nedge 0 3 1\nedge 1 2 1\nedge 1 3 1\nedge 2 3 1\n"
    )
    structs = variant_structures(inst, 0, 1)
    assert len(structs) == 4  # d_s = d_t = 3 in the st-augmented graph
    assert {(v.kept_s, v.kept_t) for v in structs} == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert len(variants(inst, alloc(0, 0, 0, 0), 0, 1)) == 4


def test_separate_paths_counterexample(counterexample, counterexample_core_p):
    assert separate_paths(counterexample, counterexample_core_p) is None
    v = separate_paths(counterexample, alloc(0, 0, 1, 11, 0))
    assert v is not None and v.kind is ViolationKind.PATH
    assert v.coalition == (0, 1, 2)
    assert (v.allocated, v.bound) == (1, 2)
    assert v.witness_edges == (0, 1)  # s-u then u-t


def test_separate_paths_huge_allocation(counterexample):
    assert separate_paths(counterexample, alloc(100, 100, 100, 100, 100)) is None


def test_separate_counterexample_in_core(counterexample, counterexample_core_p):
    verdict = separate(counterexample, counterexample_core_p)
    assert verdict.in_core and verdict.violation is None


def test_separate_path_violation(counterexample):
    verdict = separate(counterexample, alloc(0, 0, 1, 11, 0))
    assert not verdict.in_core
    assert verdict.violation.kind is ViolationKind.PATH
    assert verdict.violation.coalition == (0, 1, 2)


def test_separate_edge_violation_first_in_scan(counterexample):
    verdict = separate(counterexample, alloc(12, 0, 0, 0, 0))
    v = verdict.violation
    assert v is not None and v.kind is ViolationKind.EDGE
    # scan order hits edge t-u (index 1) first: p_t + p_u = 0 < 1
    assert v.coalition == (1, 2) and (v.allocated, v.bound) == (0, 1)


def test_separate_all_collects_families(counterexample):
    out = separate_all(counterexample, alloc(0, 0, 1, 11, 0))
    kinds = [v.kind for v in out]
    assert ViolationKind.PATH in kinds
    assert all(verify_violation(counterexample, alloc(0, 0, 1, 11, 0), v) for v in out)


def test_separate_is_first_of_separate_all():
    # separate and separate_all scan the same stages in the same order
    rng = random.Random(77)
    violated = 0
    for _ in range(40):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 8), Fraction(1, 2), 8)
        nu_n = matching.b_matching_value(inst)
        egalitarian = Allocation((nu_n / inst.n,) * inst.n)
        for p in (egalitarian, normalized(random_allocation(rng, inst), nu_n)):
            first = (separate_all(inst, p) or [None])[0]
            assert separate(inst, p).violation == first
            violated += first is not None
    assert violated > 20


def test_cycle_transfer_identity():
    # sum of (p_i+p_j)/2 over a cycle equals p over its vertex set
    rng = random.Random(3)
    for _ in range(25):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(3, 7), Fraction(3, 5), 6)
        p = random_allocation(rng, inst)
        g2 = build_g2(inst, p)
        fam = oracle.enumerate_constraints(inst)
        for verts, eids in fam.cycles:
            transferred = sum(
                ((p[inst.edges[i].u] + p[inst.edges[i].v]) / 2 for i in eids),
                Fraction(0),
            )
            assert transferred == p.of(verts)


def test_path_recovery_identity(counterexample):
    # closing a violated path with the zero-weight marker preserves both the
    # weight sum and the transferred allocation sum
    inst = counterexample
    p = alloc(0, 0, 1, 11, 0)
    v = separate_paths(inst, p)
    path_w = sum((inst.edges[i].w for i in v.witness_edges), Fraction(0))
    assert path_w == v.bound
    prime = sum(
        ((p[inst.edges[i].u] + p[inst.edges[i].v]) / 2 for i in v.witness_edges),
        Fraction(0),
    )
    ends = [x for x in v.coalition if sum(
        1 for i in v.witness_edges if x in (inst.edges[i].u, inst.edges[i].v)
    ) == 1]
    prime += (p[ends[0]] + p[ends[1]]) / 2  # the marker's transferred cost
    assert prime == p.of(v.coalition)


def test_separation_agrees_with_bruteforce_small():
    rng = random.Random(2024)
    agreements = violated = 0
    for _ in range(60):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 6), Fraction(1, 2), 8)
        nu_n = matching.b_matching_value(inst)
        cache: dict = {}
        for kind in range(3):
            if kind == 0:
                p = random_allocation(rng, inst)
            elif kind == 1:
                p = normalized(random_allocation(rng, inst), nu_n)
            else:
                p = normalized(random_allocation(rng, inst, lo=0), nu_n)
            verdict = separate(inst, p)
            brute = oracle.core_check_bruteforce(inst, p, nu_cache=cache)
            assert verdict.in_core == (brute is None)
            agreements += 1
            if not verdict.in_core:
                violated += 1
                v = verdict.violation
                assert verify_violation(inst, p, v)
                if v.kind is ViolationKind.TOTAL_VALUE:
                    assert p.of(v.coalition) != matching.nu(inst, v.coalition)
                else:
                    assert p.of(v.coalition) < matching.nu(inst, v.coalition)
    assert agreements == 180 and violated > 30


def test_variants_rejects_equal_endpoints(counterexample, counterexample_core_p):
    with pytest.raises(ValueError):
        variants(counterexample, counterexample_core_p, 1, 1)


def test_separate_rejects_wrong_length(counterexample):
    with pytest.raises(ValueError, match="length"):
        separate(counterexample, alloc(0, 0))


def test_separate_paths_defensive_cycle_branch():
    # calling path separation with cycle constraints still violated (a caller
    # error) must surface a marker-free negative cycle as a Cycle violation:
    # here the first endpoint pair (0,1) is disjoint from the bad triangle
    inst = parse_instance(
        "game 5 3\nvertex 0 2\nvertex 1 2\nvertex 2 2\nvertex 3 2\nvertex 4 2\n"
        "edge 2 3 1\nedge 3 4 1\nedge 2 4 1\n"
    )
    p = alloc(0, 0, 0, 0, 0)
    assert separate_cycles(inst, p) is not None  # precondition really broken
    v = separate_paths(inst, p)
    assert v is not None and v.kind is ViolationKind.CYCLE
    assert v.coalition == (2, 3, 4)
    assert verify_violation(inst, p, v)
