import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from corematch import extform, linsys, matching, oracle, separation
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
from corematch.model import Allocation, parse_allocation, parse_instance, random_instance
from corematch.negcycle import CostEdge, CostedGraph, find_negative_cycle

from conftest import normalized, random_allocation, random_cost_graph
from test_metamorphic import planted

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


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


@pytest.mark.parametrize("length", [3, 7])
def test_family_rejects_wrong_length(counterexample, length):
    # a long allocation used to cost a 7-member family, a short one to raise
    # IndexError
    with pytest.raises(ValueError, match="length"):
        enumerate_family(counterexample, alloc(*[1] * length))


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


def test_formulation_values_are_ints_or_non_integral_fractions(counterexample):
    # the linear systems hold every value under one number rule: an int when
    # it is integral, a Fraction only when it is not
    sys_ = build_extended_formulation(counterexample)
    values = [c.rhs for c in sys_.constraints]
    values += [x for c in sys_.constraints for x in c.coeffs.values()]
    assert len(values) > 800 and Fraction(-1, 2) in values
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x


def test_extended_formulation_edgeless():
    inst = parse_instance("game 2 0\nvertex 0 2\nvertex 1 1\n")
    sys_ = build_extended_formulation(inst)
    assert sys_.variables == ("p_0", "p_1")
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


def _typed(lp):
    """An _LP with the type of every value spelled out, rows and terms in
    their order, so that 1 and Fraction(1) or a reordered row differ."""
    rows = [([(k, type(c), c) for k, c in zip(cols, vals)], rel, type(rhs), rhs)
            for cols, vals, rel, rhs in lp.rows]
    return lp.ncols, sorted(lp.sign), rows, lp.objective


def _membership_cases():
    """(game, allocations): each data/ game with its allocations, and seeded
    games: random ones at n = 4..7, and planted ones at n = 5..7 (a planted
    game needs two components), whose allocations are in the core or leave
    it by one transfer."""
    for game in sorted(DATA.glob("*.game")):
        inst = parse_instance(game.read_text())
        allocs = sorted(DATA.glob(game.stem + "*.alloc"))
        yield inst, [parse_allocation(a.read_text(), inst) for a in allocs]
    for n in range(4, 8):
        rng = random.Random(7200 + n)
        inst = random_instance(seed=7300 + n, n=n, density=Fraction(1, 2), wmax=6)
        nu_n = matching.b_matching_value(inst)
        yield inst, [random_allocation(rng, inst),
                     normalized(random_allocation(rng, inst, lo=0), nu_n)]
        if n > 4:
            yield planted(random.Random(7100 + n), n)


def test_membership_blocks_match_the_lowered_dual_systems(monkeypatch):
    # check_membership builds each member's indexed block itself; it must be
    # the named dual system as `_lower` reads it, and so pivot alike
    pivots = 0
    pivot = linsys._Tableau._pivot

    def counted(self, *args):
        nonlocal pivots
        pivots += 1
        return pivot(self, *args)

    solved = []

    def recorded(system):
        solved.append(system)
        return simplex_feasible(system)

    monkeypatch.setattr(linsys._Tableau, "_pivot", counted)
    monkeypatch.setattr(extform, "simplex_feasible", recorded)
    blocks, outcomes = 0, set()
    for inst, allocations in _membership_cases():
        for p in allocations:
            members = enumerate_family(inst, p).members
            feasible = []
            for g in members:
                lp = extform._membership_lp(g)
                named = build_dual_system(g)
                assert _typed(lp) == _typed(linsys._lower(named))
                pivots = 0
                status = simplex_feasible(lp).status
                indexed_pivots = pivots
                pivots = 0
                result = simplex_feasible(named)
                assert (status, indexed_pivots) == (result.status, pivots)
                feasible.append(result.is_feasible)
                blocks += 1
            solved.clear()
            basic = (p.total() == inst.grand_value
                     and all(x >= 0 for x in p.values)
                     and all(p[e.u] + p[e.v] >= e.w for e in inst.edges))
            verdict = check_membership(inst, p)
            assert verdict == (basic and all(feasible))
            # the blocks it solved are the members', in order, up to the
            # first infeasible one
            want = (feasible.index(False) + 1 if False in feasible else len(members)) if basic else 0
            assert [_typed(lp) for lp in solved] == [
                _typed(extform._membership_lp(g)) for g in members[:want]]
            outcomes.add((basic, verdict))
    # in the core, out of it by a block, and out of it by a direct check
    assert blocks > 200 and outcomes == {(True, True), (True, False), (False, False)}


# The n = 6 and n = 7 formulations of `random_instance(seed, n, 1/2, 6)` run
# from 39 to over 5 000 rows, and their feasibility check costs with the rows
# (seed 9722 at n = 6: 5 143 rows, about 4 s on 2 vCPU, all of it in pivots).
# The differential test takes, among seeds 9720-9739 at n = 6 and 9740-9749
# at n = 7, those whose `size_report` total is at most the cap for their n,
# read before anything is solved.
N6_SEEDS = range(9720, 9740)
N6_MAX_ROWS = 1000
N7_SEEDS = range(9740, 9750)
N7_MAX_ROWS = 2300


def _witness_cases():
    """(instance, rng) pairs: 18 at n = 3..5, then the small n = 6 and n = 7
    ones."""
    for i in range(18):
        n = 3 + i % 3
        density = Fraction(1, 2) if n == 5 else Fraction(1)
        yield random_instance(seed=9700 + i, n=n, density=density, wmax=6), random.Random(9800 + i)
    for n, seeds, cap in ((6, N6_SEEDS, N6_MAX_ROWS), (7, N7_SEEDS, N7_MAX_ROWS)):
        for seed in seeds:
            inst = random_instance(seed=seed, n=n, density=Fraction(1, 2), wmax=6)
            if size_report(inst).total_constraints <= cap:
                yield inst, random.Random(seed + 100)


def test_separation_agrees_with_formulation_witnesses():
    # in-core allocations come from the extended formulation's own witness,
    # out-of-core candidates move a little value between two vertices; where
    # the formulation is infeasible the core is empty and nothing may pass
    seen = {(n, kind): 0 for n in (3, 4, 5, 6, 7) for kind in ("empty", "in", "out")}
    for inst, rng in _witness_cases():
        n = inst.n
        result = simplex_feasible(build_extended_formulation(inst))
        if not result.is_feasible:
            seen[n, "empty"] += 1
            nu_n = matching.b_matching_value(inst)
            for p in (
                Allocation(tuple(Fraction(nu_n, n) for _ in range(n))),
                normalized(random_allocation(rng, inst, lo=0), nu_n),
                random_allocation(rng, inst),
            ):
                assert not separation.separate(inst, p).in_core
                assert not check_membership(inst, p)
            continue
        core = [result.witness[f"p_{v}"] for v in range(n)]
        assert separation.separate(inst, Allocation(tuple(core))).in_core
        assert check_membership(inst, Allocation(tuple(core)))
        for _ in range(3):
            u, v = rng.sample(range(n), 2)
            moved = list(core)
            delta = Fraction(1, rng.choice((1, 2, 4)))
            moved[u] -= delta
            moved[v] += delta
            p = Allocation(tuple(moved))
            got = separation.separate(inst, p).in_core
            assert got == check_membership(inst, p)
            seen[n, "in" if got else "out"] += 1
    # every outcome comes up, and at n = 6 and n = 7 too (seeds 9721 and 9742
    # have an empty core)
    assert all(seen[n, kind] for n in (6, 7) for kind in ("empty", "in", "out")), seen


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
