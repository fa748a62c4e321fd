import hashlib
import itertools
import json
import pathlib
import random
import re
from fractions import Fraction

import pytest

from corematch import matching, model, oracle
from corematch._edmonds import matched_edges, warm_matched_edges
from corematch.matching import (
    MatchingResult,
    NoPerfectMatchingError,
    b_matching_value,
    build_gadget,
    max_weight_b_matching,
    max_weight_matching,
    min_weight_perfect_matching,
    nu,
)
from corematch.model import random_instance

ROOT = pathlib.Path(__file__).resolve().parent.parent


def enumerate_matchings(n, edges):
    """Every matching as a set of edge indices (independent check)."""
    out = [set()]
    for size in range(1, n // 2 + 1):
        for combo in itertools.combinations(range(len(edges)), size):
            used = set()
            ok = True
            for i in combo:
                u, v = edges[i]
                if u in used or v in used:
                    ok = False
                    break
                used |= {u, v}
            if ok:
                out.append(set(combo))
    return out


def best_matching_weight(n, edges, weights):
    return max(
        sum((Fraction(weights[i]) for i in m), Fraction(0))
        for m in enumerate_matchings(n, edges)
    )


def test_single_edge():
    r = max_weight_matching([0, 1], [(0, 1)], [Fraction(5)])
    assert r == MatchingResult(edges=(0,), weight=Fraction(5))


def test_path_prefers_outer_edges():
    # a-b-c-d weights 3,5,3: the two outer edges beat the middle one (6 > 5)
    r = max_weight_matching(range(4), [(0, 1), (1, 2), (2, 3)], [3, 5, 3])
    assert r.edges == (0, 2) and r.weight == 6


def test_triangle():
    r = max_weight_matching(range(3), [(0, 1), (1, 2), (0, 2)], [5, 4, 3])
    assert r.weight == 5 and r.edges == (0,)


def test_negative_edges_never_selected():
    r = max_weight_matching(range(4), [(0, 1), (2, 3)], [Fraction(3), Fraction(-2)])
    assert r.edges == (0,)


def test_lexicographic_tie_break():
    # two disjoint equal-weight choices: lexicographically smaller index wins
    r = max_weight_matching(range(4), [(0, 1), (2, 3), (0, 2)], [2, 1, 3])
    assert r.weight == 3
    assert r.edges == (0, 1)  # 2+1 ties with 3; {0,1} < {2}


def test_zero_weight_edge_prefers_shorter_set():
    # {0} and {0,1} both weigh 5; the prefix {0} is lexicographically smaller
    r = max_weight_matching(range(4), [(0, 1), (2, 3)], [Fraction(5), Fraction(0)])
    assert r.edges == (0,)


def test_matching_matches_enumeration_random():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.6]
        weights = [Fraction(rng.randint(-3, 9)) for _ in edges]
        got = max_weight_matching(range(n), edges, weights)
        assert got.weight == best_matching_weight(n, edges, weights)
        used = set()
        for i in got.edges:
            u, v = edges[i]
            assert u not in used and v not in used
            used |= {u, v}
        assert got.weight == sum((weights[i] for i in got.edges), Fraction(0))


def test_min_perfect_single_edge():
    r = min_weight_perfect_matching([0, 1], [(0, 1)], [Fraction(4)])
    assert r.edges == (0,) and r.weight == 4


def test_min_perfect_k4_uniform():
    edges = list(itertools.combinations(range(4), 2))
    r = min_weight_perfect_matching(range(4), edges, [1] * 6)
    assert r.weight == 2 and len(r.edges) == 2


def test_min_perfect_k4_structured():
    edges = [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]
    weights = [1, 1, 10, 10, 10, 10]
    r = min_weight_perfect_matching(range(4), edges, weights)
    assert r.edges == (0, 1) and r.weight == 2


@pytest.mark.parametrize("solve", [max_weight_matching, min_weight_perfect_matching])
@pytest.mark.parametrize("weights", [[0.1, 0.2], ["1/2", "1/3"], [True, 1], [1, None]])
def test_matchings_reject_inexact_weights(solve, weights):
    # Fraction(w) used to take each of these: 0.1 became 3602879701896397/2**55
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        solve([0, 1, 2, 3], [(0, 1), (2, 3)], weights)


def test_min_perfect_requires_perfect():
    with pytest.raises(NoPerfectMatchingError):
        min_weight_perfect_matching(range(3), [(0, 1)], [1])
    with pytest.raises(NoPerfectMatchingError):
        min_weight_perfect_matching(range(4), [(0, 1)], [1])


def test_min_perfect_matches_enumeration_random():
    rng = random.Random(7)
    checked = 0
    while checked < 25:
        n = rng.choice([2, 4, 6])
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.7]
        weights = [Fraction(rng.randint(-5, 9)) for _ in edges]
        perfect = [
            m
            for m in enumerate_matchings(n, edges)
            if len(m) == n // 2
        ]
        if not perfect:
            with pytest.raises(NoPerfectMatchingError):
                min_weight_perfect_matching(range(n), edges, weights)
            continue
        want = min(
            sum((weights[i] for i in m), Fraction(0)) for m in perfect
        )
        got = min_weight_perfect_matching(range(n), edges, weights)
        assert got.weight == want
        assert len(got.edges) == n // 2
        checked += 1


def test_b_matching_counterexample_instance():
    inst = model.parse_instance(
        "game 5 4\nvertex 0 1\nvertex 1 1\nvertex 2 2\nvertex 3 2\nvertex 4 1\n"
        "edge 0 2 1\nedge 1 2 1\nedge 2 3 10\nedge 3 4 1\n"
    )
    r = max_weight_b_matching(inst)
    assert r.weight == 12
    # tie with {1,2,3} broken toward the lexicographically smaller index set
    assert r.edges == (0, 2, 3)


def test_b_matching_four_cycle_all_edges():
    inst = model.parse_instance(
        "game 4 4\nvertex 0 2\nvertex 1 2\nvertex 2 2\nvertex 3 2\n"
        "edge 0 1 1\nedge 1 2 1\nedge 2 3 1\nedge 3 0 1\n"
    )
    r = max_weight_b_matching(inst)
    assert r.edges == (0, 1, 2, 3) and r.weight == 4


def test_b_matching_single_vertex():
    inst = model.parse_instance("game 1 0\nvertex 0 2\n")
    assert max_weight_b_matching(inst) == MatchingResult(edges=(), weight=Fraction(0))


def test_nu_examples():
    inst = model.parse_instance(
        "game 5 4\nvertex 0 1\nvertex 1 1\nvertex 2 2\nvertex 3 2\nvertex 4 1\n"
        "edge 0 2 1\nedge 1 2 1\nedge 2 3 10\nedge 3 4 1\n"
    )
    assert nu(inst, range(5)) == 12
    assert nu(inst, [2, 3, 4]) == 11
    for v in range(5):
        assert nu(inst, [v]) == 0


def test_nu_rejects_unknown_vertices():
    inst = model.parse_instance("game 1 0\nvertex 0 1\n")
    with pytest.raises(ValueError):
        nu(inst, [0, 5])


@pytest.mark.parametrize("S", [[0, 2, 3, 9], [-1, 2, 3]])
def test_b_matching_value_rejects_unknown_vertices(S):
    # [0, 2, 3, 9] on the counterexample returned 11, the 9 ignored, while
    # nu raised; the value of the whole graph is not checked against a set
    inst = model.parse_instance((ROOT / "data" / "counterexample.game").read_text())
    with pytest.raises(ValueError, match="coalition contains unknown vertices"):
        b_matching_value(inst, S)
    with pytest.raises(ValueError, match="coalition contains unknown vertices"):
        nu(inst, S)
    assert b_matching_value(inst) == nu(inst, range(5)) == 12


@pytest.mark.parametrize("caps, error", [
    ((1, 1, 2), "caps has 3 entries for 5 vertices"),
    ((3,) * 5, "capacity 3 at vertex 0 is not 0, 1 or 2"),
    ((1, 1, 2, -1, 1), "capacity -1 at vertex 3 is not 0, 1 or 2"),
])
def test_gadget_rejects_capacities_outside_0_1_2(caps, error):
    # (1, 1, 2) raised a bare IndexError, (3,) * 5 gave _b_value 30, the
    # value of a 3-matching, and a -1 gave node ids from -1; _b_value reads
    # only caps that are checked already, so the public builder checks them
    inst = model.parse_instance((ROOT / "data" / "counterexample.game").read_text())
    with pytest.raises(ValueError, match=re.escape(error)):
        build_gadget(inst, None, caps)


@pytest.mark.parametrize("allowed, error", [
    ([-1], "edge index -1 is not in 0..3"),
    ([0, 9], "edge index 9 is not in 0..3"),
])
def test_gadget_rejects_edge_indices_out_of_range(allowed, error):
    # [-1] built the gadget of the last edge, so _b_value read 1, and [9]
    # raised a bare IndexError; _b_value reads only edge ids that are checked
    # already, so the public builder checks them
    inst = model.parse_instance((ROOT / "data" / "counterexample.game").read_text())
    with pytest.raises(ValueError, match=re.escape(error)):
        build_gadget(inst, allowed)


def gadgeted_weight(inst):
    """w(E22): the weight of the edges joining two capacity-2 vertices, the
    only edges the gadget expands."""
    return sum((inst.edges[i].w for i in inst.e2), Fraction(0))


def test_gadget_identity_property():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 6), Fraction(1, 2), 10)
        vertices, edges, weights = build_gadget(inst)
        gstar = max_weight_matching(vertices, edges, weights)
        assert gstar.weight == gadgeted_weight(inst) + b_matching_value(inst)


def test_gadget_expands_only_capacity_two_edges():
    # counterexample: 2-3 is the only edge between capacity-2 vertices
    inst = model.parse_instance(
        "game 5 4\nvertex 0 1\nvertex 1 1\nvertex 2 2\nvertex 3 2\nvertex 4 1\n"
        "edge 0 2 1\nedge 1 2 1\nedge 2 3 10\nedge 3 4 1\n"
    )
    vertices, edges, weights = build_gadget(inst)
    # copies 0 | 1 | 2 3 | 4 5 | 6, then the gadget nodes 7 and 8 of edge 2
    assert vertices == list(range(9))
    assert edges == [(0, 2), (0, 3), (1, 2), (1, 3),
                     (2, 7), (3, 7), (7, 8), (8, 4), (8, 5), (4, 6), (5, 6)]
    assert weights == [1] * 4 + [10] * 5 + [1] * 2
    # capacity 0 drops a vertex's edges; capacity 1 leaves one copy
    _, edges, _ = build_gadget(inst, {0, 1, 2}, [1, 0, 1, 2, 1])
    assert edges == [(0, 1), (1, 2), (1, 3)]


# ---------------------------------------------------------------------------
# Oracle: the full gadget, which expands every edge, with its identity
# maxWeight(G*) = w(E) + w(M).
# ---------------------------------------------------------------------------


def full_gadget(inst, allowed, caps):
    vertices = []
    for v in range(inst.n):
        vertices.extend(("v", v, i) for i in range(caps[v]))
    edges = []
    weights = []
    for idx in sorted(allowed):
        e = inst.edges[idx]
        eu, ev = ("e", idx, 0), ("e", idx, 1)
        vertices.extend((eu, ev))
        for i in range(caps[e.u]):
            edges.append((("v", e.u, i), eu))
            weights.append(e.w)
        edges.append((eu, ev))
        weights.append(e.w)
        for j in range(caps[e.v]):
            edges.append((ev, ("v", e.v, j)))
            weights.append(e.w)
    return vertices, edges, weights


def full_b_value(inst, allowed, caps):
    """nu over `allowed` at `caps` through the full gadget, checking its
    identity maxWeight(G*) = w(allowed) + nu on the way."""
    if not allowed:
        return Fraction(0)
    _, edges, weights = full_gadget(inst, allowed, caps)
    matched = matched_edges(edges, matching._scale(weights)[0], False)
    total = sum((weights[k] for k in matched), Fraction(0))
    mate = {}
    for k in matched:
        a, b = edges[k]
        mate[a] = b
        mate[b] = a
    value = Fraction(0)
    for idx in allowed:
        eu, ev = ("e", idx, 0), ("e", idx, 1)
        if mate.get(eu, ev) != ev and mate.get(ev, eu) != eu:
            value += inst.edges[idx].w
    wall = sum((inst.edges[i].w for i in allowed), Fraction(0))
    assert total == wall + value, "full gadget identity violated"
    return value


def full_b_matching(inst):
    opt = full_b_value(inst, set(range(inst.m)), inst.b)

    def completion(kept, i):
        caps = list(inst.b)
        for j in (*kept, i):
            caps[inst.edges[j].u] -= 1
            caps[inst.edges[j].v] -= 1
        if min(caps) < 0:
            return None
        return full_b_value(inst, set(range(i + 1, inst.m)), caps)

    return matching._lex_min(
        [e.w for e in inst.edges], opt, completion, lambda kept, forced: forced == opt
    )


def oracle_instance(rng, n, share2):
    """Density-1/2 instance where each vertex has capacity 2 with probability
    `share2`; weights k/d with k in 0..6 and d in 1..3, so zeros and ties occur."""
    b = tuple(2 if rng.random() < share2 else 1 for _ in range(n))
    edges = tuple(
        model.Edge(u, v, Fraction(rng.randint(0, 6), rng.randint(1, 3)))
        for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    )
    return model.Instance(n, b, edges)


def test_reduced_gadget_matches_full_gadget():
    rng = random.Random(2024)
    lex_checked = 0
    for k in range(210):
        inst = oracle_instance(rng, 1 + k % 13, (0, Fraction(1, 2), 1)[k % 3])
        everything = set(range(inst.n))
        assert nu(inst, everything) == full_b_value(inst, set(range(inst.m)), inst.b)
        S = {v for v in everything if rng.random() < 0.6}
        inside = {i for i, e in enumerate(inst.edges) if {e.u, e.v} <= S}
        assert nu(inst, S) == full_b_value(inst, inside, inst.b)
        caps = [rng.randint(0, 2) for _ in range(inst.n)]
        allowed = {i for i in range(inst.m) if rng.random() < 0.7}
        assert matching._b_value(inst, allowed, caps) == full_b_value(inst, allowed, caps)
        if inst.m <= 14:
            assert max_weight_b_matching(inst) == full_b_matching(inst)
            lex_checked += 1
    assert lex_checked >= 100


def test_nu_at_benchmark_sizes_matches_recorded():
    # sep-fresh pool entry i is model.random_instance(1_000_000 + i, n, 1/2, 10)
    # with n = 24, 32, 40 in turn; its nu(N) is recorded in expected.json
    with open(ROOT / "perfbench" / "expected.json", encoding="utf-8") as fh:
        recorded = json.load(fh)["sep-fresh"]["nu"]
    sizes = (24, 32, 40)
    for i in range(4 * len(sizes)):
        inst = random_instance(1_000_000 + i, sizes[i % len(sizes)], Fraction(1, 2), 10)
        assert b_matching_value(inst) == Fraction(recorded[i])


def test_nu_equals_bruteforce_all_coalitions():
    rng = random.Random(5)
    sizes = [rng.randint(1, 6) for _ in range(12)] + [7, 7, 7]
    for n in sizes:
        inst = random_instance(rng.randint(0, 10**6), n, Fraction(1, 2), 10)
        for size in range(1, inst.n + 1):
            for S in itertools.combinations(range(inst.n), size):
                assert nu(inst, S) == oracle.nu_bruteforce(inst, S)


def zero_heavy_instance(rng, n):
    """A game on n vertices with at most 14 edges, so the brute force stays
    small; most weights are 0 and the rest are k/d with d in 1..3."""
    pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    rng.shuffle(pairs)
    edges = tuple(
        model.Edge(u, v, Fraction(0) if rng.random() < 0.6 else Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        for u, v in pairs[:14]
    )
    return model.Instance(n, tuple(rng.randint(1, 2) for _ in range(n)), edges)


def test_nu_with_weight_zero_edges_matches_bruteforce():
    # value solves leave the weight-0 edges out of the blossom
    rng = random.Random(28)
    cases = [zero_heavy_instance(rng, rng.randint(1, 9)) for _ in range(60)]
    cases += [
        model.Instance(6, (2, 1, 2, 2, 1, 2), tuple(
            model.Edge(u, v, Fraction(0)) for u, v in itertools.combinations(range(6), 2))),
        model.Instance(5, (1, 2, 2, 1, 2), ()),
        model.Instance(4, (2, 2, 2, 2), (model.Edge(0, 1, 0), model.Edge(1, 2, Fraction(1, 3)),
                                         model.Edge(2, 3, 0), model.Edge(3, 0, Fraction(5, 2)))),
    ]
    for inst in cases:
        value = b_matching_value(inst)
        assert type(value) is Fraction
        assert value == oracle.nu_bruteforce(inst, range(inst.n))
        S = [v for v in range(inst.n) if rng.random() < 0.7]
        assert nu(inst, S) == oracle.nu_bruteforce(inst, S)
    assert b_matching_value(cases[-3]) == b_matching_value(cases[-2]) == 0
    assert b_matching_value(cases[-1]) == Fraction(17, 6)


def test_warm_b_value_matches_cold_start_at_benchmark_sizes():
    # games shaped like the sep-fresh ones: the value solve (warm start,
    # weight-0 edges left out) against the cold start on the whole gadget,
    # through its identity maxWeight(G*) = w(E22) + nu
    for k, n in enumerate((24, 32, 40, 24, 32, 40)):
        inst = random_instance(2800 + k, n, Fraction(1, 2), 10)
        _, edges, weights = build_gadget(inst)
        ints, scale = matching._scale(weights)
        cold = Fraction(sum(ints[i] for i in matched_edges(edges, ints, False)), scale)
        assert b_matching_value(inst) == cold - gadgeted_weight(inst)


def test_nu_monotone():
    rng = random.Random(13)
    for _ in range(15):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(2, 7), Fraction(1, 2), 10)
        S = [v for v in range(inst.n) if rng.random() < 0.5]
        T = sorted(set(S) | {rng.randrange(inst.n)})
        if not S:
            continue
        assert nu(inst, S) <= nu(inst, T)


def lex_min_optimal(candidates, weights, sense):
    """Ground truth for the tie-break: among optimal-weight candidate sets,
    the lexicographically smallest sorted index tuple."""
    scored = [
        (sum((Fraction(weights[i]) for i in c), Fraction(0)), tuple(sorted(c)))
        for c in candidates
    ]
    best = max(s for s, _ in scored) if sense == "max" else min(s for s, _ in scored)
    return min(t for s, t in scored if s == best)


def test_max_matching_tie_break_is_lex_min():
    rng = random.Random(271)
    for _ in range(60):
        n = rng.randint(2, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.7]
        if not edges:
            continue
        # tiny weight range forces many ties
        weights = [Fraction(rng.randint(0, 2)) for _ in edges]
        got = max_weight_matching(range(n), edges, weights)
        want = lex_min_optimal(enumerate_matchings(n, edges), weights, "max")
        assert got.edges == want


def test_min_perfect_tie_break_is_lex_min():
    rng = random.Random(272)
    checked = 0
    while checked < 30:
        n = rng.choice([2, 4, 6])
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if rng.random() < 0.8]
        weights = [Fraction(rng.randint(0, 2)) for _ in edges]
        perfect = [m for m in enumerate_matchings(n, edges) if len(m) == n // 2]
        if not perfect:
            continue
        got = min_weight_perfect_matching(range(n), edges, weights)
        want = lex_min_optimal(perfect, weights, "min")
        assert got.edges == want
        checked += 1


def test_b_matching_tie_break_is_lex_min():
    rng = random.Random(273)
    for _ in range(40):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 5), Fraction(3, 5), 2)
        if inst.m > 12:
            continue
        feasible = []
        for mask in range(1 << inst.m):
            deg = [0] * inst.n
            ok = True
            for i in range(inst.m):
                if mask >> i & 1:
                    deg[inst.edges[i].u] += 1
                    deg[inst.edges[i].v] += 1
            ok = all(deg[v] <= inst.b[v] for v in range(inst.n))
            if ok:
                feasible.append({i for i in range(inst.m) if mask >> i & 1})
        got = max_weight_b_matching(inst)
        want = lex_min_optimal(feasible, [e.w for e in inst.edges], "max")
        assert got.edges == want


def test_b_matching_decomposes_into_paths_and_cycles():
    rng = random.Random(17)
    for _ in range(15):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(1, 7), Fraction(1, 2), 10)
        r = max_weight_b_matching(inst)
        deg = [0] * inst.n
        for i in r.edges:
            deg[inst.edges[i].u] += 1
            deg[inst.edges[i].v] += 1
        for v in range(inst.n):
            assert deg[v] <= inst.b[v] <= 2


# ---------------------------------------------------------------------------
# The blossom engine: pinned matchings, networkx itself, and enumeration.
# ---------------------------------------------------------------------------

WEIGHT_RANGES = ((0, 1), (0, 3), (-5, 5), (-1000, 1000), (0, 1000))


def blossom_corpus(seed, count):
    """Seeded (edges, int weights, maxcardinality) cases for `matched_edges`: n = 2
    to 30 (every 40th case 31 to 60) at three densities, with dense int,
    sparse int or string labels, random edge order and orientation, weights
    mostly tied (0/1, 0..3) or spread (±5, ±1000, 0..1000), and every 100th
    case a `build_gadget` graph of a random game."""
    rng = random.Random(seed)
    for k in range(count):
        maxcard = rng.random() < 0.5
        if k % 100 == 99:
            inst = random_instance(rng.randrange(10**6), rng.randint(8, 40), Fraction(1, 2), 10)
            _, edges, weights = build_gadget(inst)
            yield edges, matching._scale(weights)[0], maxcard
            continue
        n = rng.randint(31, 60) if k % 40 == 39 else rng.randint(2, 30)
        style = k % 3
        if style == 0:
            labels = list(range(n))
        elif style == 1:
            labels = rng.sample(range(10 * n), n)
        else:
            labels = [f"v{x}" for x in rng.sample(range(3 * n), n)]
        density = rng.choice((0.15, 0.4, 0.8))
        edges = [(labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u])
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
        rng.shuffle(edges)
        lo, hi = WEIGHT_RANGES[k % len(WEIGHT_RANGES)]
        yield edges, [rng.randint(lo, hi) for _ in edges], maxcard


def test_blossom_pairs_pinned():
    # recorded with networkx 3.6.1's max_weight_matching in place of the engine
    h = hashlib.sha256()
    for edges, weights, maxcard in blossom_corpus(20261018, 3000):
        pairs = sorted(tuple(sorted(edges[k])) for k in matched_edges(edges, weights, maxcard))
        h.update(repr(pairs).encode() + b"\n")
    assert h.hexdigest() == "954bab677857972ec47dcde0604df0044ba3ef153e815cafb48e88e532acfe57"


def test_blossom_matches_networkx():
    nx = pytest.importorskip("networkx")
    for edges, weights, maxcard in blossom_corpus(77, 600):
        g = nx.Graph()
        for (u, v), w in zip(edges, weights):
            g.add_edge(u, v, weight=w)
        # the same matching, compared as sets of edges
        got = {frozenset(edges[k]) for k in matched_edges(edges, weights, maxcard)}
        assert got == {frozenset(p) for p in nx.max_weight_matching(g, maxcardinality=maxcard)}


def matching_scores(n, edges, weights):
    """(cardinality, weight) of every matching of the graph on range(n)."""
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[min(u, v)].append((max(u, v), weights[i]))

    def grow(v, used, size, weight):
        while v < n and v in used:
            v += 1
        if v == n:
            yield size, weight
            return
        yield from grow(v + 1, used, size, weight)
        for u, w in incident[v]:
            if u not in used:
                yield from grow(v + 1, used | {v, u}, size + 1, weight + w)

    return list(grow(0, frozenset(), 0, 0))


def test_blossom_value_matches_enumeration():
    rng = random.Random(31)
    for k in range(300):
        n = rng.randint(2, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        rng.shuffle(edges)
        lo, hi = WEIGHT_RANGES[k % len(WEIGHT_RANGES)]
        weights = [rng.randint(lo, hi) for _ in edges]
        scores = matching_scores(n, edges, weights)
        best = max(w for _, w in scores)
        maxcard = matched_edges(edges, weights, True)
        assert len(maxcard) == max(scores)[0]
        for matched, want in ((matched_edges(edges, weights, False), best),
                              (warm_matched_edges(edges, weights), best),
                              (maxcard, max(scores)[1])):
            assert matched == sorted(set(matched))
            covered = [x for k in matched for x in edges[k]]
            assert len(covered) == len(set(covered))
            assert sum(weights[k] for k in matched) == want


def test_warm_start_value_matches_cold_start():
    # every case of the pinned corpus the warm start could serve: each
    # maxcardinality=False case and each build_gadget case (every 100th)
    for k, (edges, weights, maxcard) in enumerate(blossom_corpus(20261018, 3000)):
        if maxcard and k % 100 != 99:
            continue
        cold = matched_edges(edges, weights, False)
        warm = warm_matched_edges(edges, weights)
        assert sum(weights[i] for i in warm) == sum(weights[i] for i in cold)


@pytest.mark.parametrize("edges, weights, want", [
    # the root c (dual 2) reaches dual 0 just as b - c turns tight; the tie
    # goes to the dual, and the stage ends with c single
    ([("a", "b"), ("b", "c")], [2, 1], [0]),
    # t - s is matched greedily; from the root r, t turns T and s S, and s
    # (numbered before r) reaches dual 0 together with r: s - t - r flips
    ([("t", "s"), ("r", "t")], [5, 5], [1]),
    # c - x is matched greedily; the root a (dual 2) reaches dual 0 and
    # stays single, and in the next stage the root b reaches it over a - b
    ([("c", "x"), ("b", "c"), ("a", "b")], [10, 10, 1], [0, 2]),
])
def test_warm_start_events(edges, weights, want):
    assert warm_matched_edges(edges, weights) == want
    cold = matched_edges(edges, weights, False)
    assert sum(weights[k] for k in want) == sum(weights[k] for k in cold)


@pytest.mark.parametrize("edges, weights, error", [
    ([(0, 0)], [1], ValueError),  # a loop
    ([(0, 1), (1, 0)], [1, 2], ValueError),  # a repeated edge
    ([(0, 1)], [1, 2], ValueError),  # lengths differ
    ([(0, 1)], [Fraction(1, 2)], TypeError),
    ([(0, 1)], [1.0], TypeError),
])
def test_blossom_rejects_what_it_cannot_solve(edges, weights, error):
    with pytest.raises(error):
        matched_edges(edges, weights, False)
