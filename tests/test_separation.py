import collections
import gc
import math
import random
import re
import weakref
from fractions import Fraction
from itertools import chain

import pytest

from corematch import extform, matching, model, negcycle, oracle, separation
from corematch.model import Allocation, ViolationKind, parse_instance, random_instance
from corematch.separation import (
    check_total_value,
    separate,
    separate_all,
    separate_cycles,
    separate_paths,
    integer_costs,
    separate_vertices_edges,
    variant_structures,
    verify_violation,
)

from conftest import normalized, random_allocation
from test_stage_sharing import repaired


def alloc(*xs):
    return Allocation(tuple(Fraction(x) for x in xs))


def variants(inst, costs, s, t):
    """The costed variant family for the unordered endpoint pair {s, t}."""
    return [separation.realize_variant(costs, st) for st in variant_structures(inst, s, t)]


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
    assert separate_vertices_edges(integer_costs(counterexample, counterexample_core_p)) is None
    v = separate_vertices_edges(integer_costs(counterexample, alloc(0, -1, 3, 10, 0)))
    assert v.kind is ViolationKind.VERTEX and v.coalition == (1,)
    inst = parse_instance("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 5\n")
    v = separate_vertices_edges(integer_costs(inst, alloc(2, 2)))
    assert v.kind is ViolationKind.EDGE
    assert (v.allocated, v.bound) == (4, 5) and v.witness_edges == (0,)


def test_build_g2_counterexample(counterexample, counterexample_core_p):
    costs = integer_costs(counterexample, counterexample_core_p)
    g2 = costs.g2
    assert g2.vertices == (2, 3)
    assert len(g2.edges) == 1
    # transfer cost (2+10)/2 - 10 = -4 on the only capacity-2 edge, times D
    assert g2.edges[0].cost == -4 * costs.scale
    assert g2.edges[0].orig == 2


def test_build_g2_all_capacity_one():
    inst = parse_instance("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 5\n")
    g2 = integer_costs(inst, alloc(0, 0)).g2
    assert g2.vertices == () and g2.edges == ()


def test_build_g2_triangle_zero_allocation():
    inst = parse_instance(
        "game 3 3\nvertex 0 2\nvertex 1 2\nvertex 2 2\n"
        "edge 0 1 1\nedge 1 2 1\nedge 0 2 1\n"
    )
    costs = integer_costs(inst, alloc(0, 0, 0))
    assert all(e.cost == -costs.scale for e in costs.g2.edges)


def test_separate_cycles_square():
    v = separate_cycles(integer_costs(SQUARE, alloc("1/2", "1/2", "1/2", "1/2")))
    assert v is not None and v.kind is ViolationKind.CYCLE
    assert v.coalition == (0, 1, 2, 3)
    assert (v.allocated, v.bound) == (2, 4)
    assert separate_cycles(integer_costs(SQUARE, alloc(1, 1, 1, 1))) is None


def test_separate_cycles_counterexample_has_no_cycle(counterexample, counterexample_core_p):
    assert separate_cycles(integer_costs(counterexample, counterexample_core_p)) is None


def test_variants_counterexample(counterexample, counterexample_core_p):
    inst, p = counterexample, counterexample_core_p
    # {s,t}: both capacity 1, one non-st edge each -> exactly one variant
    (struct,) = variant_structures(inst, 0, 1)
    assert struct.kept_s == 0 and struct.kept_t == 1
    (g,) = variants(inst, integer_costs(inst, p), 0, 1)
    (marker,) = [e for e in g.edges if e.orig is None]
    assert {marker.u, marker.v} == {0, 1}
    assert marker.cost == 0  # (p_s + p_t)/2 with p_s = p_t = 0
    # {u,v}: both capacity 2 -> the single direct graph, no removals
    (struct_uv,) = variant_structures(inst, 2, 3)
    assert struct_uv.kept_s is None and struct_uv.kept_t is None
    assert len(variants(inst, integer_costs(inst, p), 2, 3)) == 1


def test_variants_isolated_endpoint():
    inst = parse_instance(
        "game 3 1\nvertex 0 1\nvertex 1 1\nvertex 2 2\nedge 1 2 1\n"
    )
    assert variants(inst, integer_costs(inst, alloc(0, 0, 0)), 0, 1) == []


def test_variants_counts_both_capacity_one():
    # K4 star around two capacity-1 endpoints: (d_s-1)(d_t-1) variants
    inst = parse_instance(
        "game 4 5\nvertex 0 1\nvertex 1 1\nvertex 2 2\nvertex 3 2\n"
        "edge 0 2 1\nedge 0 3 1\nedge 1 2 1\nedge 1 3 1\nedge 2 3 1\n"
    )
    structs = variant_structures(inst, 0, 1)
    assert len(structs) == 4  # d_s = d_t = 3 in the st-augmented graph
    assert {(v.kept_s, v.kept_t) for v in structs} == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert len(variants(inst, integer_costs(inst, alloc(0, 0, 0, 0)), 0, 1)) == 4


def test_separate_paths_counterexample(counterexample, counterexample_core_p):
    assert separate_paths(integer_costs(counterexample, counterexample_core_p)) is None
    v = separate_paths(integer_costs(counterexample, alloc(0, 0, 1, 11, 0)))
    assert v is not None and v.kind is ViolationKind.PATH
    assert v.coalition == (0, 1, 2)
    assert (v.allocated, v.bound) == (1, 2)
    assert v.witness_edges == (0, 1)  # s-u then u-t


def test_separate_paths_huge_allocation(counterexample):
    assert separate_paths(integer_costs(counterexample, alloc(100, 100, 100, 100, 100))) is None


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


def test_separate_all_lists_each_violation_once():
    # the square's cycle lies in every endpoint variant too
    out = separate_all(SQUARE, alloc("1/2", "1/2", "1/2", "1/2"))
    assert len(out) == len(set(out))
    assert [v.kind for v in out].count(ViolationKind.CYCLE) == 1


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
    v = separate_paths(integer_costs(inst, p))
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
        for kind in range(3):
            if kind == 0:
                p = random_allocation(rng, inst)
            elif kind == 1:
                p = normalized(random_allocation(rng, inst), nu_n)
            else:
                p = normalized(random_allocation(rng, inst, lo=0), nu_n)
            verdict = separate(inst, p)
            brute = oracle.core_check_bruteforce(inst, p)
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
        variants(counterexample, integer_costs(counterexample, counterexample_core_p), 1, 1)


@pytest.mark.parametrize("s, t", [(-1, 2), (2, -1), (5, 2), (2, 5), (-1, 5)])
def test_variants_reject_endpoints_out_of_range(counterexample, counterexample_core_p, s, t):
    # n = 5: -1 used to wrap to vertex 4's capacity and 5 raised IndexError
    costs = integer_costs(counterexample, counterexample_core_p)
    with pytest.raises(ValueError, match="endpoints must lie in 0..4"):
        variant_structures(counterexample, s, t)
    with pytest.raises(ValueError, match="endpoints must lie in 0..4"):
        variants(counterexample, costs, s, t)
    assert len(variants(counterexample, costs, 4, 2)) == 1  # in range: built as before


# p passes the total value (ν = 25), the edges and the cycles; the G2
# distances flag one of the two variants of pair {0, 1} and the only variant
# of pairs {1, 2} and {1, 4}
PATH_GAME = parse_instance(
    "game 6 7\nvertex 0 2\nvertex 1 1\nvertex 2 2\nvertex 3 2\nvertex 4 2\nvertex 5 1\n"
    "edge 0 1 1\nedge 0 2 3\nedge 0 4 8\nedge 1 2 1\nedge 1 3 8\nedge 2 3 5\nedge 2 4 4\n"
)
PATH_P = alloc(8, 1, 3, 7, 4, 2)


def test_path_stage_builds_only_the_flagged_variants(monkeypatch):
    inst, p = PATH_GAME, PATH_P
    flagged = separation._path_filter(integer_costs(inst, p))
    pairs = [(s, t) for s in range(inst.n) for t in range(s + 1, inst.n)]
    assert [(st.s, st.t, st.kept_s, st.kept_t) for st in flagged] == [
        (0, 1, None, 4), (1, 2, 4, None), (1, 4, 4, None)]
    assert len(variant_structures(inst, 0, 1)) == 2
    assert sum(len(variant_structures(inst, s, t)) for s, t in pairs) > 10

    built = []
    real = separation.realize_variant

    def counted(costs, struct):
        built.append(struct)
        return real(costs, struct)

    monkeypatch.setattr(separation, "realize_variant", counted)
    v = separate(inst, p).violation
    assert v.kind is ViolationKind.PATH and verify_violation(inst, p, v)
    assert built == flagged[:1]
    built.clear()
    found = separate_all(inst, p)
    assert built == flagged
    assert [v.kind for v in found] == [ViolationKind.PATH] * 3


def test_separate_rejects_wrong_length(counterexample):
    with pytest.raises(ValueError, match="length"):
        separate(counterexample, alloc(0, 0))


@pytest.mark.parametrize("length", [3, 7])
def test_separate_all_rejects_wrong_length(counterexample, length):
    # a short allocation used to raise IndexError, a long one to be read as
    # if its extra entries belonged to the game (p(N) = 7 with 7 ones)
    with pytest.raises(ValueError, match="length"):
        separate_all(counterexample, alloc(*[1] * length))


@pytest.mark.parametrize("length", [3, 7])
def test_verify_violation_rejects_wrong_length(counterexample, length):
    # the edge 2-3 (weight 10) certificate at p = 0: a short allocation used
    # to raise IndexError, and a long one to verify
    v = model.Violation(ViolationKind.EDGE, (2, 3), Fraction(0), Fraction(10), (2,))
    assert verify_violation(counterexample, alloc(0, 0, 0, 0, 0), v)
    with pytest.raises(ValueError, match="length"):
        verify_violation(counterexample, alloc(*[0] * length), v)


@pytest.mark.parametrize("length", [3, 7])
@pytest.mark.parametrize("stage", [check_total_value, integer_costs], ids=lambda f: f.__name__)
def test_stages_reject_wrong_length(counterexample, stage, length):
    # a short all-ones allocation used to give p(N) = 3 or IndexError, and a
    # long one p(N) = 7; the cost builders raised IndexError on a short one
    # and costed seven halves on a long one, from which the later stages
    # read an Edge or a Path certificate
    with pytest.raises(ValueError, match="length"):
        stage(counterexample, alloc(*[1] * length))


def test_separate_paths_defensive_cycle_branch():
    # calling path separation with cycle constraints still violated (a caller
    # error) must surface a marker-free negative cycle as a Cycle violation:
    # here the first endpoint pair (0,1) is disjoint from the bad triangle
    inst = parse_instance(
        "game 5 3\nvertex 0 2\nvertex 1 2\nvertex 2 2\nvertex 3 2\nvertex 4 2\n"
        "edge 2 3 1\nedge 3 4 1\nedge 2 4 1\n"
    )
    p = alloc(0, 0, 0, 0, 0)
    assert separate_cycles(integer_costs(inst, p)) is not None  # precondition really broken
    v = separate_paths(integer_costs(inst, p))
    assert v is not None and v.kind is ViolationKind.CYCLE
    assert v.coalition == (2, 3, 4)
    assert verify_violation(inst, p, v)


def test_cycle_violation_refuses_a_cycle_through_two_synthetic_edges():
    # a variant holds one synthetic edge, its st marker, which the path
    # certificate drops; a negative cycle through a second one would leave
    # an edge with no instance index in the certificate
    inst = parse_instance("game 3 1\nvertex 0 2\nvertex 1 2\nvertex 2 2\nedge 0 1 1\n")
    g = negcycle.CostedGraph((0, 1, 2), (negcycle.CostEdge(0, 1, -1, 0),
                                         negcycle.CostEdge(1, 2, -1),
                                         negcycle.CostEdge(0, 2, -1)))
    cyc = negcycle.find_negative_cycle(g)
    assert cyc is not None and sorted(cyc.edges) == [0, 1, 2]
    with pytest.raises(model.InvariantError, match="certificate holds a synthetic edge"):
        separation._cycle_violation(integer_costs(inst, alloc(0, 0, 0)), g, cyc)


def test_grand_value_computed_once_per_instance(monkeypatch):
    calls = []
    real = matching.b_matching_value

    def counted(inst, S=None):
        calls.append(S)
        return real(inst, S)

    monkeypatch.setattr(matching, "b_matching_value", counted)
    inst = random_instance(8, 8, Fraction(1, 2), 8)
    rng = random.Random(8)
    for _ in range(8):
        p = random_allocation(rng, inst)
        v = separate(inst, p).violation
        assert v is not None and verify_violation(inst, p, v)
    assert calls == [None]

    # the cached value does not keep its instance alive
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None


class CountedWeight(Fraction):
    """A Fraction weight that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedWeight.hashes += 1
        return super().__hash__()


def test_grand_value_lookup_hashes_no_edge():
    base = random_instance(16, 16, Fraction(1, 2), 10)
    inst = model.Instance(
        base.n, base.b, tuple(model.Edge(e.u, e.v, CountedWeight(e.w)) for e in base.edges)
    )
    CountedWeight.hashes = 0
    assert inst.grand_value == base.grand_value
    assert separate(inst, alloc(*[0] * inst.n)).violation.bound == inst.grand_value
    assert inst == base
    assert CountedWeight.hashes == 0


def test_equal_instances_each_compute_grand_value(monkeypatch):
    # ν(N) belongs to the Instance object: an equal but distinct game
    # computes its own and never reads another's
    calls = []
    real = matching.b_matching_value

    def counted(inst, S=None):
        calls.append(inst)
        return real(inst, S)

    monkeypatch.setattr(matching, "b_matching_value", counted)
    text = model.emit_instance(random_instance(9, 9, Fraction(1, 2), 8))
    a, b = parse_instance(text), parse_instance(text)
    assert a == b and a is not b
    rng = random.Random(9)
    for inst in (a, b, a, b):
        separate(inst, random_allocation(rng, inst))
    assert len(calls) == 2 and calls[0] is a and calls[1] is b


def test_cycle_and_path_stages_run_on_ints(monkeypatch):
    # rational p and w reach the T-joins and the G2 distances as integer
    # costs only, and the distances come back as ints
    seen = []
    real_join, real_distances = negcycle.min_t_join, negcycle.join_distances

    def checked_join(g, T):
        seen.append(all(type(e.cost) is int for e in g.edges))
        return real_join(g, T)

    def checked_distances(g):
        d = real_distances(g)
        seen.append(all(type(e.cost) is int for e in g.edges)
                    and (d is None or all(type(x) is int for r in d for x in r if x is not None)))
        return d

    monkeypatch.setattr(negcycle, "min_t_join", checked_join)
    monkeypatch.setattr(negcycle, "join_distances", checked_distances)
    rng = random.Random(12)
    for _ in range(40):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(3, 7), Fraction(1, 2), 8)
        p = normalized(random_allocation(rng, inst, lo=0), matching.b_matching_value(inst))
        costs = integer_costs(inst, p)
        separate_cycles(costs)
        separate_paths(costs)
    assert len(seen) > 100 and all(seen)


# ---------------------------------------------------------------------------
# Oracle: the m-edge scan that built the variant family before every edge was
# costed once per allocation; kept here to pin that family.
# ---------------------------------------------------------------------------


def _oracle_costs(inst, p, scaled):
    """(edge cost tuple, half tuple): the exact transfer costs, or, when
    `scaled`, the integer costs the way integer_costs built them."""
    if scaled:
        lcm = math.lcm(
            *(x.denominator for x in p.values), *(e.w.denominator for e in inst.edges)
        )
        half = tuple(x.numerator * (lcm // x.denominator) for x in p.values)
        weights = [2 * e.w.numerator * (lcm // e.w.denominator) for e in inst.edges]
    else:
        half = tuple(x / 2 for x in p.values)
        weights = [e.w for e in inst.edges]
    edge = tuple(half[e.u] + half[e.v] - w for e, w in zip(inst.edges, weights))
    return edge, half


def _oracle_g2(inst, edge_cost):
    members = set(inst.n2)
    edges = tuple(
        negcycle.CostEdge(e.u, e.v, edge_cost[i], i)
        for i, e in enumerate(inst.edges)
        if e.u in members and e.v in members
    )
    return negcycle.CostedGraph(vertices=inst.n2, edges=edges)


def _oracle_structures(inst, s, t):
    """(variant, vertices, edge ids) per variant of pair {s, t}, found by
    scanning every instance edge."""
    s, t = min(s, t), max(s, t)
    members = set(inst.n2) | {s, t}
    base_ids = [
        i
        for i, e in enumerate(inst.edges)
        if e.u in members and e.v in members and {e.u, e.v} != {s, t}
    ]
    at_s = [i for i in base_ids if s in (inst.edges[i].u, inst.edges[i].v)]
    at_t = [i for i in base_ids if t in (inst.edges[i].u, inst.edges[i].v)]
    keep_s_choices = [None] if inst.b[s] == 2 else at_s
    keep_t_choices = [None] if inst.b[t] == 2 else at_t
    out = []
    for ks in keep_s_choices:
        for kt in keep_t_choices:
            ids = []
            for i in base_ids:
                e = inst.edges[i]
                if ks is not None and s in (e.u, e.v) and i != ks:
                    continue
                if kt is not None and t in (e.u, e.v) and i != kt:
                    continue
                ids.append(i)
            out.append((separation.VariantStructure(s, t, ks, kt),
                        tuple(sorted(members)), tuple(ids)))
    return out


def _oracle_realize(inst, edge_cost, half, struct, vertices, edge_ids):
    edges = [
        negcycle.CostEdge(inst.edges[i].u, inst.edges[i].v, edge_cost[i], i)
        for i in edge_ids
    ]
    edges.append(
        negcycle.CostEdge(struct.s, struct.t, half[struct.s] + half[struct.t], None)
    )
    return negcycle.CostedGraph(vertices=vertices, edges=tuple(edges))


def _shuffled_instance(rng):
    """Random game, n = 2…12, with edges in random order and orientation,
    mixed capacity mixes and integer or half/third weights."""
    n = rng.randint(2, 12)
    p2 = rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
    b = tuple(2 if rng.random() < p2 else 1 for _ in range(n))
    density = rng.choice((0.2, 0.5, 0.8, 1.0))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                a, c = (u, v) if rng.random() < 0.5 else (v, u)
                edges.append(model.Edge(a, c, Fraction(rng.randint(0, 9), rng.choice((1, 2, 3)))))
    rng.shuffle(edges)
    return model.Instance(n=n, b=b, edges=tuple(edges))


def test_variant_family_matches_edge_scan_oracle():
    rng = random.Random(7)
    pairs = 0
    kept = collections.Counter()  # variants by how many endpoints keep an edge
    for case in range(1000):
        inst = _shuffled_instance(rng)
        p = random_allocation(rng, inst)
        scaled = case % 2 == 0
        # the exact costs are the integer ones divided by their scale, as
        # the extended formulation reads them
        costs = integer_costs(inst, p)
        if not scaled:
            costs = extform._exact(costs)
        edge_cost, half = _oracle_costs(inst, p, scaled)
        assert costs.g2 == _oracle_g2(inst, edge_cost)
        for s in range(inst.n):
            for t in range(s + 1, inst.n):
                structs = variant_structures(inst, s, t)
                expected = _oracle_structures(inst, s, t)
                assert structs == [st for st, _, _ in expected]
                assert variant_structures(inst, t, s) == structs
                graphs = variants(inst, costs, s, t)
                assert graphs == [_oracle_realize(inst, edge_cost, half, *x) for x in expected]
                pairs += 1
                kept.update((st.kept_s is not None) + (st.kept_t is not None) for st in structs)
    assert pairs > 25_000 and min(kept[0], kept[1], kept[2]) > 5_000


# ---------------------------------------------------------------------------
# Oracle: the all-pairs path scan that ran a negative-cycle search on every
# variant of every endpoint pair, before the G2-distance filter; kept here to
# pin what the filtered scan reports.
# ---------------------------------------------------------------------------


def _oracle_vertex_edge_violations(inst, p):
    """Violated vertex, then edge constraints, in scan order, summed in
    Fractions the way the scan did before it read the integer costs."""
    for v in range(inst.n):
        if p[v] < 0:
            yield model.Violation(ViolationKind.VERTEX, (v,), p[v], Fraction(0))
    for i, e in enumerate(inst.edges):
        if p[e.u] + p[e.v] < e.w:
            yield model.Violation(ViolationKind.EDGE, model.coalition((e.u, e.v)),
                                  p[e.u] + p[e.v], e.w, (i,))


def _oracle_path_violations(inst, p):
    """((s, t, kept_s, kept_t), violation) per endpoint pair and variant with
    a negative cycle."""
    costs = integer_costs(inst, p)
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            structs = variant_structures(inst, s, t)
            for struct, g in zip(structs, variants(inst, costs, s, t), strict=True):
                cyc = negcycle.find_negative_cycle(g)
                if cyc is not None:
                    yield ((s, t, struct.kept_s, struct.kept_t),
                           separation._cycle_violation(costs, g, cyc))


def _repaired_case(rng):
    """A game on n = 3…12 players plus an isolated one, and an allocation
    that mostly reaches the path stage.

    A random allocation is raised until it meets every edge constraint and
    then (for up to n rounds) every cycle constraint; then, at times, one
    player gives some value up, which can break an edge of G2 or close a
    negative G2 cycle. The isolated player takes ν(N) − p(N), so the total
    value holds whenever that is >= 0.
    """
    n = rng.choices(range(3, 13), weights=(12, 12, 10, 8, 6, 4, 2, 1, 1, 1))[0]
    share = rng.choice((0.25, 0.5, 0.75, 1.0))
    b = tuple(2 if rng.random() < share else 1 for _ in range(n))
    density = rng.choice((0.25, 0.4, 0.6))
    edges = tuple(
        model.Edge(u, v, Fraction(rng.randint(0, 9), rng.choice((1, 2))))
        for u in range(n) for v in range(u + 1, n) if rng.random() < density
    )
    game = model.Instance(n, b, edges)
    p = [Fraction(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(n)]
    for e in rng.sample(edges, len(edges)):
        gap = e.w - p[e.u] - p[e.v]
        if gap > 0:
            p[rng.choice((e.u, e.v))] += gap
    for _ in range(n):
        v = separate_cycles(integer_costs(game, Allocation(tuple(p))))
        if v is None:
            break
        p[rng.choice(v.coalition)] += v.bound - v.allocated
    if rng.random() < 0.3:
        p[rng.randrange(n)] -= Fraction(rng.randint(1, 8), rng.choice((1, 2)))
    p.append(matching.b_matching_value(game) - sum(p))
    inst = model.Instance(n + 1, b + (rng.choice((1, 2)),), edges)
    return inst, Allocation(tuple(p))


def by_pair(flagged):
    """The flagged variants per pair {s, t}; the list must run in scan
    order, pair by pair."""
    assert [(st.s, st.t) for st in flagged] == sorted((st.s, st.t) for st in flagged)
    out = collections.defaultdict(list)
    for st in flagged:
        out[st.s, st.t].append(st)
    return out


def test_path_filter_matches_all_pairs_scan():
    rng = random.Random(2611)
    seen = collections.Counter()
    for _ in range(2000):
        inst, p = _repaired_case(rng)
        scan = list(_oracle_path_violations(inst, p))
        oracle_paths = [v for _, v in scan]
        costs = integer_costs(inst, p)
        assert separate_paths(costs) == (oracle_paths or [None])[0]

        cycle = separate_cycles(costs)
        stages = [check_total_value(inst, p), separate_vertices_edges(costs), cycle]
        first = next((v for v in stages + oracle_paths if v is not None), None)
        assert separate(inst, p).violation == first
        found = chain([stages[0]], _oracle_vertex_edge_violations(inst, p), [cycle],
                      oracle_paths)
        assert separate_all(inst, p) == list(dict.fromkeys(v for v in found if v is not None))

        # the filter flags exactly the variants that hold a violation, pair
        # by pair in scan order
        flagged = separation._path_filter(costs)
        if flagged is not None:
            negative = collections.defaultdict(list)
            for (s, t, ks, kt), _ in scan:
                negative[s, t].append((ks, kt))
            structs = by_pair(flagged)
            for s in range(inst.n):
                for t in range(s + 1, inst.n):
                    assert [(st.kept_s, st.kept_t) for st in structs[s, t]] == negative[s, t]
                    assert all(st in variant_structures(inst, s, t) for st in structs[s, t])
        g2_edges = [inst.edges[i] for i in inst.e2]
        seen["negative G2 cycle"] += cycle is not None
        seen["violated G2 edge, no negative G2 cycle"] += cycle is None and any(
            p[e.u] + p[e.v] < e.w for e in g2_edges)
        seen["filter applies"] += flagged is not None
        seen["filter flags a pair"] += flagged is not None and bool(scan)
        # the row minima then also count the combination through st, which
        # is negative here, so only the per-variant test can decide
        seen["filter applies, an edge with a capacity-2 end violated"] += (
            flagged is not None and any(p[e.u] + p[e.v] < e.w for e in inst.edges
                                        if 2 in (inst.b[e.u], inst.b[e.v])))
        if first is not None and first.kind is ViolationKind.PATH:
            ends = [x for x in first.coalition
                    if sum(x in inst.edges[i][:2] for i in first.witness_edges) == 1]
            seen["capacity-1 end decides"] += min(inst.b[x] for x in ends) == 1
            seen["capacity-2 ends decide"] += min(inst.b[x] for x in ends) == 2
        seen["in core"] += first is None
    assert len(seen) == 8 and min(seen.values()) >= 20, seen


def _broken_g2_edge_case(rng, n):
    """A random game on n players and an allocation that violates an edge of
    G2 but closes no negative G2 cycle: edges and then cycles are repaired,
    and one end of a G2 edge then takes 1/3 less than the edge needs."""
    while True:
        inst = random_instance(rng.randrange(10**6), n, Fraction(1, 4), 10)
        p = [Fraction(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(n)]
        for e in rng.sample(inst.edges, inst.m):
            gap = e.w - p[e.u] - p[e.v]
            if gap > 0:
                p[rng.choice((e.u, e.v))] += gap
        for _ in range(n):
            v = separate_cycles(integer_costs(inst, Allocation(tuple(p))))
            if v is None:
                break
            p[rng.choice(v.coalition)] += v.bound - v.allocated
        if v is not None:
            continue
        for i in rng.sample(inst.e2, len(inst.e2)):
            e = inst.edges[i]
            q = list(p)
            u = rng.choice((e.u, e.v))
            q[u] = e.w - q[e.other(u)] - Fraction(1, 3)
            if separate_cycles(integer_costs(inst, Allocation(tuple(q)))) is None:
                return inst, Allocation(tuple(q))


@pytest.mark.parametrize("n", [20, 24, 28])
def test_path_filter_is_exact_past_a_violated_g2_edge(n):
    # every pair reads G2's distances, the pair of a violated G2 edge st is
    # skipped as it holds no violated path, and the filter still flags exactly
    inst, p = _broken_g2_edge_case(random.Random(2100 + n), n)
    assert any(p[e.u] + p[e.v] < e.w for e in (inst.edges[i] for i in inst.e2))
    scan = list(_oracle_path_violations(inst, p))
    flagged = separation._path_filter(integer_costs(inst, p))
    assert flagged is not None and scan
    negative = collections.defaultdict(list)
    for (s, t, ks, kt), _ in scan:
        negative[s, t].append((ks, kt))
    structs = by_pair(flagged)
    for s in range(inst.n):
        for t in range(s + 1, inst.n):
            assert [(st.kept_s, st.kept_t) for st in structs[s, t]] == negative[s, t]
    oracle_paths = [v for _, v in scan]
    assert separate_paths(integer_costs(inst, p)) == oracle_paths[0]
    found = chain([check_total_value(inst, p)], _oracle_vertex_edge_violations(inst, p),
                  oracle_paths)
    assert separate_all(inst, p) == list(dict.fromkeys(v for v in found if v is not None))


def test_a_pair_joined_by_a_g2_edge_holds_no_violated_path():
    # the lemma of `g2_joined`: where G2 has no negative cycle, a path P from
    # s to t closes the G2 cycle P + st, so P plus the marker costs at least
    # c(P) + c(st) >= 0, also where st itself is violated
    rng = random.Random(4201)
    checked = violated = 0
    for _ in range(1200):
        inst = random_instance(rng.randrange(10**6), rng.randint(3, 12),
                               Fraction(rng.choice((1, 2, 3)), 4), 10)
        costs = integer_costs(inst, random_allocation(rng, inst, lo=0, hi=6))
        if negcycle.find_negative_cycle(costs.g2) is not None:
            continue
        for e in costs.g2.edges:
            assert separation.g2_joined(inst, e.u, e.v)
            g = separation.realize_variant(costs, separation.VariantStructure(e.u, e.v, None, None))
            assert negcycle.find_negative_cycle(g) is None, (inst, costs.p, e)
            checked += 1
            violated += e.cost + costs.half[e.u] + costs.half[e.v] < 0
    assert checked >= 500 and violated >= 200, (checked, violated)


def _family_variants(inst):
    """The variants of `extform.enumerate_family(inst)`, read off its labels."""
    return {separation.VariantStructure(*(None if v == "None" else int(v)
                                          for v in re.findall(r"=(\w+)", label)))
            for label in extform.enumerate_family(inst).labels[1:]}


def test_path_stage_and_formulation_share_one_variant_family():
    # `g2_joined` is the one rule for the pairs that may hold a violated
    # path: every variant the path stage flags is a member of the extended
    # formulation's family, and the family holds no pair joined by a G2 edge
    rng = random.Random(4702)
    allocations = flagged = 0
    for _ in range(150):
        inst = random_instance(rng.randrange(10**6), rng.randint(3, 10),
                               Fraction(rng.choice((1, 2, 3)), 4), 10)
        family = _family_variants(inst)
        assert not any(separation.g2_joined(inst, v.s, v.t) for v in family)
        for _ in range(6):
            structs = separation._path_filter(integer_costs(inst, repaired(rng, inst)))
            if structs is not None:
                assert set(structs) <= family, inst
                allocations += 1
                flagged += len(structs)
    assert allocations >= 800 and flagged >= 4000, (allocations, flagged)


def test_verify_violation_rejects_a_repeated_witness_edge():
    # edge 0 listed twice passed for a 2-cycle of weight 20, yet p = (5, 5)
    # is in the core: nu({0, 1}) = 10
    inst = model.Instance(2, (2, 2), (model.Edge(0, 1, Fraction(10)),))
    p = alloc(5, 5)
    assert separate(inst, p).in_core and matching.nu(inst, (0, 1)) == 10
    forged = model.Violation(ViolationKind.CYCLE, (0, 1), Fraction(10), Fraction(20), (0, 0))
    assert not verify_violation(inst, p, forged)


@pytest.mark.parametrize("index", [-1, 2, 5])
def test_verify_violation_rejects_a_witness_index_out_of_range(index):
    # edge 1 = {1, 2} is really violated, but only as index 1: -1 used to
    # read as the last edge and 2 or more raised IndexError
    inst = parse_instance(
        "game 3 2\nvertex 0 1\nvertex 1 1\nvertex 2 1\nedge 0 1 1\nedge 1 2 10\n"
    )
    p = alloc(0, 0, 0)
    real = model.Violation(ViolationKind.EDGE, (1, 2), Fraction(0), Fraction(10), (1,))
    assert verify_violation(inst, p, real)
    assert not verify_violation(inst, p, model.Violation(
        ViolationKind.EDGE, (1, 2), Fraction(0), Fraction(10), (index,)))


@pytest.mark.parametrize("p, kind, coalition, allocated, bound, witness", [
    ((0, 0, 2, 10, -1), ViolationKind.TOTAL_VALUE, (0, 1, 2, 3, 4), 11, 12, (0, 3)),
    ((0, 0, 2, 10, -1), ViolationKind.VERTEX, (4,), -1, 0, (3,)),
    ((0, 0, 1, 11, 0), ViolationKind.COALITION, (0, 1, 2), 1, 2, (2,)),
], ids=["total-value", "vertex", "coalition"])
def test_verify_violation_rejects_witness_edges_on_kinds_without_them(
        counterexample, p, kind, coalition, allocated, bound, witness):
    # these kinds carry no witness; each certificate is genuine without one,
    # and passed with one
    p = alloc(*p)
    real = model.Violation(kind, coalition, Fraction(allocated), Fraction(bound))
    assert verify_violation(counterexample, p, real)
    assert not verify_violation(counterexample, p, model.Violation(
        kind, coalition, Fraction(allocated), Fraction(bound), witness))


def test_verify_violation_checks_a_coalition_bound_against_nu(counterexample):
    p = alloc(0, 0, 1, 11, 0)
    real = oracle.core_check_bruteforce(counterexample, p)
    assert real.kind is ViolationKind.COALITION and verify_violation(counterexample, p, real)
    assert not verify_violation(counterexample, p, model.Violation(
        real.kind, real.coalition, real.allocated, real.bound + 1))


@pytest.mark.parametrize("kind, coalition, allocated, bound, witness", [
    (ViolationKind.VERTEX, (-1,), -1, 0, ()),
    (ViolationKind.VERTEX, (3,), -1, 0, ()),
    (ViolationKind.EDGE, (-1, 1), -1, 10, (1,)),
    (ViolationKind.EDGE, (1, 3), -1, 10, (1,)),
    (ViolationKind.COALITION, (-1,), -1, 0, ()),
    (ViolationKind.COALITION, (3,), -1, 0, ()),
    (ViolationKind.COALITION, (2, 1), -1, 10, ()),
])
def test_verify_violation_rejects_a_coalition_out_of_range(kind, coalition, allocated,
                                                           bound, witness):
    # vertex 2 really violates p_2 >= 0, but only as 2: a coalition member -1
    # used to read as vertex n - 1 = 2, so the forged Vertex certificate
    # passed, and a member n = 3 raised IndexError; the unsorted (2, 1)
    # passed as a Coalition with nu({1, 2}) = 10
    inst = parse_instance(
        "game 3 2\nvertex 0 1\nvertex 1 1\nvertex 2 1\nedge 0 1 1\nedge 1 2 10\n"
    )
    p = alloc(0, 0, -1)
    assert verify_violation(inst, p, model.Violation(
        ViolationKind.VERTEX, (2,), Fraction(-1), Fraction(0)))
    assert not verify_violation(inst, p, model.Violation(
        kind, coalition, Fraction(allocated), Fraction(bound), witness))


# a triangle 0-1-2 with two pendant edges at 2, b = 2 and w = 1 everywhere:
# at p = 0 edge 0-1, the path 1-2-3 and the triangle are genuine certificates
KITE = parse_instance(
    "game 5 5\nvertex 0 2\nvertex 1 2\nvertex 2 2\nvertex 3 2\nvertex 4 2\n"
    "edge 0 1 1\nedge 1 2 1\nedge 0 2 1\nedge 2 3 1\nedge 2 4 1\n"
)


@pytest.mark.parametrize("kind, coalition, allocated, bound, witness", [
    (ViolationKind.EDGE, (0, 1), -1, 1, (0,)),
    (ViolationKind.EDGE, (0, 1), 0, 0, (0,)),
    (ViolationKind.EDGE, (0, 1), 0, 2, (0,)),
    (ViolationKind.EDGE, (0, 2), 0, 1, (0,)),
    (ViolationKind.CYCLE, (0, 1, 2, 3), 0, 3, (0, 1, 3)),
    (ViolationKind.PATH, (1, 2, 3, 4), 0, 3, (1, 3, 4)),
    (ViolationKind.PATH, (0, 1, 2, 3, 4), 0, 5, (0, 1, 2, 3, 4)),
    ("edge", (0, 1), 0, 1, (0,)),
], ids=["allocated-not-p(S)", "not-violated", "bound-not-w", "witness-not-S",
        "cycle-degree-1", "path-third-end", "path-branching", "kind-not-a-kind"])
def test_verify_violation_rejects_tampered_certificates(kind, coalition, allocated, bound,
                                                        witness):
    # a genuine certificate below with one field changed, or a witness that
    # is no cycle or path; no test reached these rejections
    p = alloc(0, 0, 0, 0, 0)
    for real in [(ViolationKind.EDGE, (0, 1), 1, (0,)), (ViolationKind.PATH, (1, 2, 3), 2, (1, 3)),
                 (ViolationKind.CYCLE, (0, 1, 2), 3, (0, 1, 2))]:
        k, S, w, eids = real
        assert verify_violation(KITE, p, model.Violation(k, S, Fraction(0), Fraction(w), eids))
    assert not verify_violation(KITE, p, model.Violation(
        kind, coalition, Fraction(allocated), Fraction(bound), witness))


@pytest.mark.parametrize("struct, message", [
    ((0, 1, 99, None), "kept edge 99 is no choice at endpoint 0"),
    ((0, 9, 0, None), "endpoints must satisfy s < t in 0..4"),
    ((0, 1, -1, 1), "kept edge -1 is no choice at endpoint 0"),
    ((0, 1, True, 1), "kept edge True is no choice at endpoint 0"),
    ((1, 0, 1, 0), "endpoints must satisfy s < t in 0..4"),
    ((-1, 1, 0, 1), "endpoints must satisfy s < t in 0..4"),
    ((0, 1, 1, 0), "kept edge 1 is no choice at endpoint 0"),
    ((0, 1, 0, None), "kept edge None is no choice at endpoint 1"),
    ((0, 3, 0, 2), "kept edge 2 is no choice at endpoint 3"),
    ((3, 4, None, 3), "kept edge 3 is no choice at endpoint 4"),
    ((0.0, 1, 0, 1), "endpoints must satisfy s < t in 0..4"),
], ids=["kept-out-of-range", "t-out-of-range", "kept-negative", "kept-bool", "s-after-t",
        "s-negative", "kept-swapped", "none-at-capacity-1", "kept-at-capacity-2",
        "kept-to-far-endpoint", "float-endpoint"])
def test_realize_variant_follows_the_index_rule(counterexample, struct, message):
    # 99 and t = 9 raised a bare IndexError; -1 and True read edges 3 and 1
    # and failed as GraphErrors that name no index; s > t built a graph
    costs = integer_costs(counterexample, alloc(0, 0, 2, 10, 0))
    for s in range(5):
        for t in range(s + 1, 5):
            for ok in variant_structures(counterexample, s, t):
                separation.realize_variant(costs, ok)
    with pytest.raises(ValueError, match=re.escape(message)):
        separation.realize_variant(costs, separation.VariantStructure(*struct))


@pytest.mark.parametrize("p, kind, coalition, allocated, bound, witness", [
    ((0, 0, 2, 10, -1), ViolationKind.VERTEX, (4.0,), -1, 0, ()),
    ((0, 0, 2, 10, -1), ViolationKind.EDGE, (2, 3), 12, 20, (2.0,)),
    ((0, -1, 2, 10, 0), ViolationKind.VERTEX, (True,), -1, 0, ()),
], ids=["float-member", "float-witness", "bool-member"])
def test_verify_violation_rejects_members_and_witnesses_that_are_not_ints(
        counterexample, p, kind, coalition, allocated, bound, witness):
    # a float member or witness index used to raise TypeError on indexing,
    # and True passed as vertex 1
    assert not verify_violation(counterexample, alloc(*p), model.Violation(
        kind, coalition, Fraction(allocated), Fraction(bound), witness))
