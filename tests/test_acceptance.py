"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every comparison is exact; the corpora are seeded and fixed.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from corematch import extform, flawed, matching, oracle, separation
from corematch.linsys import simplex_feasible
from corematch.model import Allocation, ViolationKind, random_instance
from corematch.negcycle import CostEdge, CostedGraph, find_negative_cycle

from conftest import normalized, random_allocation, random_cost_graph


def _line(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: counterexample reproduction -------------------------------


def test_criterion_1_counterexample_reproduction():
    t0 = time.time()
    inst = flawed.counterexample_instance()
    p = flawed.counterexample_allocation()

    nu_n = matching.b_matching_value(inst)
    sep = separation.separate(inst, p)
    ext = extform.check_membership(inst, p)
    flaw = flawed.flawed_separate_paths(inst, p)
    elapsed = time.time() - t0

    ok = (
        nu_n == 12
        and sep.in_core
        and ext
        and flaw is not None
        and flaw.vertices == (0, 2, 3, 2, 1)  # (s, u, v, u, t)
        and flaw.weight == -8
        and elapsed < 1.0
    )
    _line(
        1,
        ok,
        f"nu(N)={nu_n}, separate={'IN_CORE' if sep.in_core else 'VIOLATED'}, "
        f"extform={'IN_CORE' if ext else 'NOT_IN_CORE'}, "
        f"flawed path weight={flaw.weight if flaw else None} in {elapsed:.2f}s",
    )


# -- shared corpus for criteria 2 and 3 --------------------------------------


@lru_cache(maxsize=1)
def _separation_corpus():
    """200 instances (n <= 7, density 1/2, weights <= 10), four allocations
    each: raw random, normalized random, normalized nonnegative random, and
    the egalitarian split (which lands in the core often enough to exercise
    the completeness direction)."""
    corpus = []
    for i in range(200):
        inst = random_instance(seed=1000 + i, n=3 + i % 5, density=Fraction(1, 2), wmax=10)
        rng = random.Random(7000 + i)
        nu_n = matching.b_matching_value(inst)
        allocations = [
            random_allocation(rng, inst),
            normalized(random_allocation(rng, inst), nu_n),
            normalized(random_allocation(rng, inst, lo=0), nu_n),
            Allocation(tuple(Fraction(nu_n, inst.n) for _ in range(inst.n))),
        ]
        corpus.append((inst, allocations))
    return corpus


def test_criterion_2_separation_matches_bruteforce():
    t0 = time.time()
    cases = disagreements = violated = bad_certificates = 0
    for inst, allocations in _separation_corpus():
        for p in allocations:
            verdict = separation.separate(inst, p)
            brute = oracle.core_check_bruteforce(inst, p)
            cases += 1
            if verdict.in_core != (brute is None):
                disagreements += 1
            if not verdict.in_core:
                violated += 1
                v = verdict.violation
                if not separation.verify_violation(inst, p, v):
                    bad_certificates += 1
                elif v.kind is not ViolationKind.TOTAL_VALUE and not (
                    p.of(v.coalition) < matching.nu(inst, v.coalition)
                ):
                    bad_certificates += 1
    elapsed = time.time() - t0
    ok = (
        cases == 800
        and disagreements == 0
        and bad_certificates == 0
        and violated > 100
        and cases - violated > 20
        and elapsed < 300.0
    )
    _line(
        2,
        ok,
        f"{cases} cases, {disagreements} disagreements, {violated} violated, "
        f"{bad_certificates} bad certificates, {elapsed:.1f}s",
    )


def test_criterion_3_characterization_equivalence():
    cases = disagreements = 0
    for inst, allocations in _separation_corpus():
        for p in allocations:
            a = oracle.core_check_bruteforce(inst, p)
            b = oracle.constraint_check_bruteforce(inst, p)
            cases += 1
            disagreements += (a is None) != (b is None)
    ok = cases == 800 and disagreements == 0
    _line(3, ok, f"{cases} cases, {disagreements} disagreements")


# -- criterion 4: matching correctness ---------------------------------------


def test_criterion_4_matching_correctness():
    mismatches = gadget_failures = instances = 0
    for i in range(100):
        inst = random_instance(seed=2000 + i, n=2 + i % 5, density=Fraction(1, 2), wmax=10)
        instances += 1
        for size in range(1, inst.n + 1):
            for S in itertools.combinations(range(inst.n), size):
                if matching.nu(inst, S) != oracle.nu_bruteforce(inst, S):
                    mismatches += 1
        vertices, edges, weights = matching.build_gadget(inst)
        gstar = matching.max_weight_matching(vertices, edges, weights)
        gadgeted = sum((inst.edges[j].w for j in inst.e2), Fraction(0))  # w(E22)
        if gstar.weight != gadgeted + matching.b_matching_value(inst):
            gadget_failures += 1
    ok = instances == 100 and mismatches == 0 and gadget_failures == 0
    _line(
        4,
        ok,
        f"{instances} instances, {mismatches} nu mismatches, "
        f"{gadget_failures} gadget identity failures",
    )


# -- criterion 5: negative-cycle correctness ---------------------------------


def test_criterion_5_negative_cycle_correctness():
    disagreements = nonneg_returned = found = 0
    for i in range(500):
        rng = random.Random(3000 + i)
        g = random_cost_graph(rng, 3 + i % 6, density=0.5, cmax=10)
        got = find_negative_cycle(g)
        want = oracle.negative_cycle_bruteforce(g)
        if (got is None) != (want is None):
            disagreements += 1
        if got is not None:
            found += 1
            if got.cost >= 0:
                nonneg_returned += 1
    ok = disagreements == 0 and nonneg_returned == 0 and found > 100
    _line(
        5,
        ok,
        f"500 graphs, {disagreements} disagreements, {found} negative cycles, "
        f"{nonneg_returned} nonnegative cycles returned",
    )


# -- criterion 6: duality triangle -------------------------------------------


def test_criterion_6_duality_triangle():
    t0 = time.time()
    breaks = negatives = 0
    for i in range(200):
        rng = random.Random(4000 + i)
        g = random_cost_graph(rng, 3 + i % 5, density=0.5, cmax=10)
        has_cycle = find_negative_cycle(g) is not None
        unbounded = extform.flow_primal_unbounded(g)
        dual_feasible = simplex_feasible(extform.build_dual_system(g)).is_feasible
        if not (has_cycle == unbounded == (not dual_feasible)):
            breaks += 1
        negatives += has_cycle
    elapsed = time.time() - t0
    ok = breaks == 0 and negatives > 40
    _line(
        6,
        ok,
        f"200 graphs, {breaks} equivalence breaks, {negatives} with negative "
        f"cycles, {elapsed:.1f}s",
    )


# -- criterion 7: extended-formulation membership ----------------------------


def test_criterion_7_extform_membership():
    cases = disagreements = in_core = 0
    for i in range(100):
        inst = random_instance(seed=5000 + i, n=2 + i % 5, density=Fraction(1, 2), wmax=8)
        rng = random.Random(6000 + i)
        nu_n = matching.b_matching_value(inst)
        for p in (
            random_allocation(rng, inst),
            normalized(random_allocation(rng, inst, lo=0), nu_n),
            Allocation(tuple(Fraction(nu_n, inst.n) for _ in range(inst.n))),
        ):
            got = extform.check_membership(inst, p)
            want = separation.separate(inst, p).in_core
            cases += 1
            disagreements += got != want
            in_core += got
    ok = cases == 300 and disagreements == 0 and 0 < in_core < cases
    _line(7, ok, f"{cases} pairs, {disagreements} disagreements, {in_core} in core")


# -- criterion 8: size accounting --------------------------------------------


def test_criterion_8_size_accounting():
    insts = [flawed.counterexample_instance()] + [
        random_instance(seed=8000 + i, n=1 + i % 7, density=Fraction(1, 2), wmax=6)
        for i in range(50)
    ]
    bound_breaks = count_breaks = envelope_breaks = 0
    for inst in insts:
        rep = extform.size_report(inst)
        system = extform.build_extended_formulation(inst)
        if rep.family_size > rep.family_bound:
            bound_breaks += 1
        if rep.total_vars != len(system.variables) or rep.total_constraints != len(
            system.constraints
        ):
            count_breaks += 1
        if rep.total_vars > rep.var_envelope or rep.total_constraints > rep.constraint_envelope:
            envelope_breaks += 1
    ok = bound_breaks == count_breaks == envelope_breaks == 0
    _line(
        8,
        ok,
        f"{len(insts)} instances, {bound_breaks} bound breaks, "
        f"{count_breaks} count mismatches, {envelope_breaks} envelope breaks",
    )


# -- criterion 9: cycle-cone cut system --------------------------------------


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = tuple(
            CostEdge(u, v, Fraction(1), i)
            for i, (u, v) in enumerate(pairs)
            if mask >> i & 1
        )
        yield CostedGraph(vertices=tuple(range(n)), edges=edges)


def test_criterion_9_cycle_cone_cuts():
    violations = cycles_checked = 0

    def check(g):
        nonlocal violations, cycles_checked
        for cyc in oracle._simple_cycles(g):
            x = [Fraction(0)] * len(g.edges)
            for i in cyc.edges:
                x[i] = Fraction(1)
            cycles_checked += 1
            if oracle.check_cut_system(g, x) is not None:
                violations += 1

    for n in range(3, 6):  # exhaustive over all graphs on <= 5 vertices
        for g in _all_graphs(n):
            check(g)
    rng = random.Random(99)  # sampled at n = 6
    pairs6 = list(itertools.combinations(range(6), 2))
    for _ in range(200):
        edges = tuple(
            CostEdge(u, v, Fraction(1), i)
            for i, (u, v) in enumerate(pairs6)
            if rng.random() < 0.5
        )
        check(CostedGraph(vertices=tuple(range(6)), edges=edges))
    ok = violations == 0 and cycles_checked > 3000
    _line(9, ok, f"{cycles_checked} cycle vectors checked, {violations} violations")
