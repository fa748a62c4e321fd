import itertools
import random
from fractions import Fraction

import pytest

from corematch import extform, matching, oracle, separation
from corematch.extform import (
    build_dual_system,
    build_extended_formulation,
    build_flow_primal,
    check_membership,
    enumerate_family,
    family_size_bound,
    flow_primal_unbounded,
    size_report,
)
from corematch.linsys import simplex_feasible, simplex_solve
from corematch.model import Allocation, parse_instance, random_instance
from corematch.negcycle import CostEdge, CostedGraph, find_negative_cycle

from conftest import normalized, random_allocation, random_cost_graph


def alloc(*xs):
    return Allocation(tuple(Fraction(x) for x in xs))


def triangle(a, b, c):
    edges = tuple(
        CostEdge(u, v, Fraction(w), i)
        for i, ((u, v), w) in enumerate(zip([(0, 1), (1, 2), (0, 2)], (a, b, c)))
    )
    return CostedGraph(vertices=(0, 1, 2), edges=edges)


def test_primal_shape_triangle():
    sys_ = build_flow_primal(triangle(1, 1, 1))
    xs = [v for v in sys_.variables if v.startswith("x_")]
    ys = [v for v in sys_.variables if v.startswith("y_")]
    assert len(xs) == 3 and len(ys) == 12


def test_primal_triangle_positive_costs_bounded():
    r = simplex_solve(build_flow_primal(triangle(1, 1, 1)))
    assert r.status == "optimal" and r.objective == 0


def test_primal_triangle_negative_cycle_unbounded():
    assert flow_primal_unbounded(triangle(-3, 1, 1))
    assert not flow_primal_unbounded(triangle(-1, 5, 5))


def test_dual_triangle():
    assert simplex_feasible(build_dual_system(triangle(1, 1, 1))).is_feasible
    assert not simplex_feasible(build_dual_system(triangle(-3, 1, 1))).is_feasible


def test_dual_single_edge_any_cost():
    for c in (-100, 0, 7):
        g = CostedGraph(vertices=(0, 1), edges=(CostEdge(0, 1, Fraction(c), 0),))
        assert simplex_feasible(build_dual_system(g)).is_feasible


def test_duality_triangle_random():
    rng = random.Random(55)
    negatives = 0
    for _ in range(40):
        g = random_cost_graph(rng, rng.randint(3, 6), density=0.5, cmax=8)
        has_cycle = find_negative_cycle(g) is not None
        unbounded = flow_primal_unbounded(g)
        dual_ok = simplex_feasible(build_dual_system(g)).is_feasible
        assert has_cycle == unbounded == (not dual_ok)
        negatives += has_cycle
    assert negatives > 5


def test_family_counterexample(counterexample, counterexample_core_p):
    fam = enumerate_family(counterexample, counterexample_core_p)
    assert fam.labels[0] == "g2"
    assert len(fam.members[0].edges) == 1  # the single capacity-2 edge
    assert len(fam.members) <= family_size_bound(counterexample)
    assert fam == shifted_family(counterexample, counterexample_core_p)


def shifted_family(inst, p):
    """The p = 0 family with (p_u + p_v)/2 added to every edge cost."""
    fam = enumerate_family(inst)
    members = tuple(
        CostedGraph(
            vertices=g.vertices,
            edges=tuple(
                e._replace(cost=e.cost + (p[e.u] + p[e.v]) / 2) for e in g.edges
            ),
            marker=g.marker,
        )
        for g in fam.members
    )
    return extform.GraphFamily(members=members, labels=fam.labels)


def test_family_cost_identity_random():
    # every member edge costs (p_u + p_v)/2 plus its cost at p = 0
    rng = random.Random(17)
    for _ in range(30):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 7), Fraction(1, 2), 6)
        nu_n = matching.b_matching_value(inst)
        for p in (
            random_allocation(rng, inst),
            normalized(random_allocation(rng, inst, lo=0), nu_n),
        ):
            assert enumerate_family(inst, p) == shifted_family(inst, p)


def test_family_edgeless_instance():
    inst = parse_instance("game 2 0\nvertex 0 1\nvertex 1 1\n")
    fam = enumerate_family(inst)
    assert len(fam.members) == 1 and fam.labels == ("g2",)
    assert fam.members[0].edges == ()


def test_family_bound_random():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 7), Fraction(1, 2), 6)
        fam = enumerate_family(inst)
        assert len(fam.members) <= family_size_bound(inst)


def quadratic_family_size_bound(inst):
    """The O(n^2 m) formula family_size_bound used to evaluate: every degree
    recounted for every ordered endpoint pair."""
    n2 = set(inst.n2)

    def degree(x, s, t):
        members = n2 | {s, t}
        return 1 + sum(
            1
            for e in inst.edges
            if x in (e.u, e.v)
            and e.u in members
            and e.v in members
            and {e.u, e.v} != {s, t}
        )

    return 1 + sum(
        (degree(s, s, t) - 1) * (degree(t, s, t) - 1)
        for s in range(inst.n)
        for t in range(inst.n)
        if s != t
    )


def test_family_size_bound_matches_the_quadratic_formula(counterexample):
    assert family_size_bound(counterexample) == quadratic_family_size_bound(counterexample)
    rng = random.Random(97)
    values = set()
    for i in range(48):
        n = 1 + i % 9
        density = Fraction(rng.randint(1, 4), 4)
        inst = random_instance(rng.randint(0, 10**6), n, density, 5)
        values.add(family_size_bound(inst))
        assert family_size_bound(inst) == quadratic_family_size_bound(inst)
    assert len(values) > 10


def test_extended_formulation_counterexample(counterexample, counterexample_core_p):
    assert check_membership(counterexample, counterexample_core_p)
    assert not check_membership(counterexample, alloc(0, 0, 1, 11, 0))
    assert not check_membership(counterexample, alloc(0, 0, 0, 0, 0))


def test_extended_formulation_edgeless():
    inst = parse_instance("game 2 0\nvertex 0 2\nvertex 1 1\n")
    sys_ = build_extended_formulation(inst)
    assert sys_.variables == ["p_0", "p_1"]
    rels = [(c.name, c.rel, c.rhs) for c in sys_.constraints]
    assert rels == [
        ("total", "=", Fraction(0)),
        ("nn_p_0", ">=", Fraction(0)),
        ("nn_p_1", ">=", Fraction(0)),
    ]
    assert check_membership(inst, alloc(0, 0))
    assert not check_membership(inst, alloc(1, -1))


def test_extform_system_feasibility_matches_membership(counterexample, counterexample_core_p):
    # substituting a concrete allocation into the symbolic system's p-variables
    # must leave it feasible exactly for core members
    import copy

    sys_ = build_extended_formulation(counterexample)
    for p, expect in [
        (counterexample_core_p, True),
        (alloc(0, 0, 1, 11, 0), False),
    ]:
        s2 = copy.deepcopy(sys_)
        for v in range(counterexample.n):
            s2.add_constraint(f"pin_{v}", {f"p_{v}": Fraction(1)}, "=", p[v])
        assert simplex_feasible(s2).is_feasible == expect


def test_size_report_matches_materialized(counterexample):
    rep = size_report(counterexample)
    sys_ = build_extended_formulation(counterexample)
    assert rep.total_vars == len(sys_.variables)
    assert rep.total_constraints == len(sys_.constraints)
    assert rep.family_size <= rep.family_bound
    assert rep.total_vars <= rep.var_envelope
    assert rep.total_constraints <= rep.constraint_envelope


def test_size_report_random():
    rng = random.Random(44)
    for _ in range(10):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 5), Fraction(1, 2), 6)
        rep = size_report(inst)
        sys_ = build_extended_formulation(inst)
        assert rep.total_vars == len(sys_.variables)
        assert rep.total_constraints == len(sys_.constraints)


def test_membership_agrees_with_separation():
    rng = random.Random(321)
    checked = in_core = 0
    for _ in range(25):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 5), Fraction(1, 2), 6)
        nu_n = matching.b_matching_value(inst)
        for p in (
            random_allocation(rng, inst),
            normalized(random_allocation(rng, inst, lo=0), nu_n),
        ):
            got = check_membership(inst, p)
            want = separation.separate(inst, p).in_core
            assert got == want
            checked += 1
            in_core += got
    assert checked == 50 and 0 < in_core < 50


def test_witness_validity_on_feasible_blocks():
    rng = random.Random(8)
    for _ in range(15):
        g = random_cost_graph(rng, rng.randint(2, 5), density=0.6, cmax=5)
        result = simplex_feasible(build_dual_system(g))
        if result.is_feasible:
            assert build_dual_system(g).check_point(result.witness)


def test_cycle_cone_cuts_small_graphs():
    # every simple cycle's incidence vector satisfies the whole cut system
    for n in range(3, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            pairs = list(itertools.combinations(range(n), 2))
            edges = tuple(
                CostEdge(u, v, Fraction(1), i)
                for i, (u, v) in enumerate(pairs)
                if mask >> pairs.index((u, v)) & 1
            )
            if len(edges) < 3:
                continue
            g = CostedGraph(vertices=tuple(range(n)), edges=edges)
            for cyc in oracle._simple_cycles(g):
                x = [Fraction(0)] * len(edges)
                for i in cyc.edges:
                    x[i] = Fraction(1)
                assert oracle.check_cut_system(g, x) is None
