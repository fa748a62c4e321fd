import collections
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from corematch import matching, negcycle, oracle
from corematch.negcycle import (
    CostEdge,
    CostedGraph,
    TJoinError,
    decompose_even_subgraph,
    find_negative_cycle,
    min_t_join,
    min_zero_join,
    parse_cost_graph,
)

from conftest import random_cost_graph


def graph(n, costed_edges):
    edges = tuple(
        CostEdge(u, v, Fraction(c), i) for i, (u, v, c) in enumerate(costed_edges)
    )
    return CostedGraph(vertices=tuple(range(n)), edges=edges)


def triangle(a, b, c):
    return graph(3, [(0, 1, a), (1, 2, b), (0, 2, c)])


def even_subsets(g):
    """All even-degree edge subsets, by enumeration."""
    m = len(g.edges)
    for mask in range(1 << m):
        deg = {v: 0 for v in g.vertices}
        for i in range(m):
            if mask >> i & 1:
                deg[g.edges[i].u] += 1
                deg[g.edges[i].v] += 1
        if all(d % 2 == 0 for d in deg.values()):
            yield {i for i in range(m) if mask >> i & 1}


def four_cycle(costs):
    return CostedGraph(
        vertices=(0, 1, 2, 3),
        edges=tuple(CostEdge(k, (k + 1) % 4, c, k) for k, c in enumerate(costs)),
    )


def test_exact_zero_cycle_is_not_negative():
    # 2**53 + 1 + 1 - (2**53 + 2) = 0
    costs = [Fraction(2**53), Fraction(1), Fraction(1), -Fraction(2**53 + 2)]
    assert find_negative_cycle(four_cycle(costs)) is None


@pytest.mark.parametrize("costs", [
    # summed in this order the floats round 2**53 + 1 down and find a cycle of
    # cost -2; with the 1s first they find none
    [2.0**53, 1.0, 1.0, -(2.0**53 + 2)],
    [1.0, 1.0, 2.0**53, -(2.0**53 + 2)],
    [1, 1, 1, 0.5],
    [1, True, 1, -2],
])
def test_costed_graph_rejects_inexact_costs(costs):
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        four_cycle(costs)


def test_t_join_empty_t():
    g = triangle(1, 2, 3)
    assert min_t_join(g, []) == frozenset()


def test_t_join_path():
    g = graph(3, [(0, 1, 1), (1, 2, 1)])
    assert min_t_join(g, [0, 2]) == {0, 1}


def test_t_join_odd_t():
    g = triangle(1, 1, 1)
    with pytest.raises(TJoinError, match="odd"):
        min_t_join(g, [0, 1, 2])


def test_t_join_disconnected_pair():
    g = graph(4, [(0, 1, 1)])
    with pytest.raises(TJoinError, match="T-join"):
        min_t_join(g, [2, 3])


@pytest.mark.parametrize("T, named", [([99, 100], "99"), ([0, 99], "99"), ([-1, 0], "-1")])
def test_t_join_rejects_a_vertex_outside_the_graph(T, named):
    # [99, 100] raised a bare KeyError: 99, and [0, 99] claimed that some
    # component holds an odd number of T-vertices
    g = triangle(1, 1, 1)
    with pytest.raises(TJoinError, match=f"T-vertex {named} is not a vertex"):
        min_t_join(g, T)


def test_t_join_split_components_ok():
    # two components, each with an even share of T: the join exists
    g = graph(4, [(0, 1, 2), (2, 3, 5)])
    J = min_t_join(g, [0, 1, 2, 3])
    assert J == {0, 1}


def test_t_join_costs_are_absolute():
    assert min_t_join(triangle(-1, 1, 1), [0, 1]) == min_t_join(triangle(1, 1, 1), [0, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_t_join_parity_property(seed):
    rng = random.Random(seed)
    g = random_cost_graph(rng, rng.randint(2, 7), density=0.6)
    comp = {v: v for v in g.vertices}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for e in g.edges:
        comp[find(e.u)] = find(e.v)
    by_comp: dict[int, list[int]] = {}
    for v in g.vertices:
        by_comp.setdefault(find(v), []).append(v)
    # choose an even number of T-vertices inside one component
    pool = max(by_comp.values(), key=len)
    take = rng.randrange(0, len(pool) + 1) & ~1
    T = sorted(rng.sample(pool, take))
    J = min_t_join(g, T)
    parity = {v: 0 for v in g.vertices}
    for i in J:
        parity[g.edges[i].u] ^= 1
        parity[g.edges[i].v] ^= 1
    assert {v for v, x in parity.items() if x} == set(T)


def tie_corpus():
    """800 seeded graphs on n = 3…14 vertices with int costs within ±k,
    k = 1…10, each with a T: the odd vertices of a random edge subset, so
    a T-join exists. Small k makes many equal-cost paths and joins."""
    rng = random.Random(4242)
    for _ in range(800):
        n, k, density = rng.randint(3, 14), rng.randint(1, 10), rng.choice((0.3, 0.5, 0.8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = CostedGraph(tuple(range(n)), tuple(
            CostEdge(u, v, rng.randint(-k, k), i) for i, (u, v) in enumerate(edges)))
        yield g, sorted(negcycle._odd_vertices(g, [i for i in range(len(edges)) if rng.random() < 0.5]))


# SHA-256 of `find_negative_cycle` and of two `min_t_join`s per graph of
# `tie_corpus`: a change to which of equal-cost paths or joins is taken moves it
TIE_RULE = "8c6a1537693e5a85dfba732c95660bcb4e0e18f0a5d4cce99e6d214db7767abf"


def test_t_join_tie_rule_is_pinned():
    h = hashlib.sha256()
    found = 0
    for g, T in tie_corpus():
        cyc = find_negative_cycle(g)
        found += cyc is not None
        T0 = negcycle._odd_vertices(g, [i for i, e in enumerate(g.edges) if e.cost < 0])
        h.update(f"{cyc} {sorted(min_t_join(g, T0))} {sorted(min_t_join(g, T))}\n".encode())
    assert 200 < found < 600, found
    assert h.hexdigest() == TIE_RULE


def test_zero_join_all_nonnegative():
    g = triangle(1, 2, 3)
    assert min_zero_join(g) == (frozenset(), 0)


def test_zero_join_negative_triangle():
    g = triangle(-3, 1, 1)
    J, cost = min_zero_join(g)
    assert J == {0, 1, 2} and cost == -1


def test_zero_join_negative_tree_edge():
    g = graph(3, [(0, 1, -1), (1, 2, 2)])
    assert min_zero_join(g) == (frozenset(), 0)


def test_zero_join_matches_enumeration():
    rng = random.Random(23)
    for _ in range(40):
        g = random_cost_graph(rng, rng.randint(2, 6), density=0.6)
        _, cost = min_zero_join(g)
        want = min(
            sum((g.edges[i].cost for i in s), Fraction(0)) for s in even_subsets(g)
        )
        assert cost == want
        assert cost <= 0


def test_decompose_empty():
    g = triangle(1, 1, 1)
    assert decompose_even_subgraph(g, set()) == []


def test_decompose_single_cycle():
    g = triangle(1, 1, 1)
    cycles = decompose_even_subgraph(g, {0, 1, 2})
    assert len(cycles) == 1
    assert cycles[0].vertices == (0, 1, 2)
    assert cycles[0].cost == 3


def test_decompose_two_triangles_sharing_vertex():
    g = graph(
        5,
        [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (0, 4, 1)],
    )
    cycles = decompose_even_subgraph(g, set(range(6)))
    assert len(cycles) == 2
    assert {c.vertices for c in cycles} == {(0, 1, 2), (0, 3, 4)}


def test_decompose_rejects_odd_degree():
    g = triangle(1, 1, 1)
    with pytest.raises(ValueError, match="odd"):
        decompose_even_subgraph(g, {0})


@pytest.mark.parametrize("J, named", [([-1, 0, 1], "-1"), ([0, 1, 5], "5")])
def test_decompose_rejects_an_edge_index_out_of_range(J, named):
    # -1 read the last edge and returned Cycle(edges=(0, 1, -1), ...); 5
    # raised a bare IndexError
    g = triangle(1, 1, 1)
    with pytest.raises(ValueError, match=f"edge index {named} is not in 0..2"):
        decompose_even_subgraph(g, J)


def test_find_negative_cycle_triangle():
    cyc = find_negative_cycle(triangle(-3, 1, 1))
    assert cyc is not None
    assert cyc.cost == -1 and set(cyc.vertices) == {0, 1, 2}


def test_find_negative_cycle_none_when_cycle_positive():
    assert find_negative_cycle(triangle(-1, 5, 5)) is None


def test_find_negative_cycle_all_nonnegative():
    assert find_negative_cycle(triangle(0, 1, 2)) is None


def test_find_negative_cycle_agrees_with_bruteforce():
    rng = random.Random(99)
    found = 0
    for _ in range(150):
        g = random_cost_graph(rng, rng.randint(3, 8), density=0.5)
        got = find_negative_cycle(g)
        want = oracle.negative_cycle_bruteforce(g)
        assert (got is None) == (want is None)
        if got is not None:
            found += 1
            assert got.cost < 0
            # the returned walk is a simple cycle with consistent cost
            assert len(set(got.vertices)) == len(got.vertices) == len(got.edges)
            assert got.cost == sum(
                (g.edges[i].cost for i in got.edges), Fraction(0)
            )
    assert found > 20  # the corpus actually exercises the positive branch


def test_parse_cost_graph_roundtrip_values():
    g = parse_cost_graph("costs 3 2\nedge 0 1 -7/2\nedge 1 2 4\n")
    assert g.edges[0].cost == Fraction(-7, 2)
    assert g.edges[1].cost == 4
    with pytest.raises(Exception):
        parse_cost_graph("costs 2 1\nedge 0 5 1\n")


def scaled_to_int(g):
    """g with every cost times the lcm of the cost denominators, as ints."""
    scale = math.lcm(*(e.cost.denominator for e in g.edges))
    edges = tuple(e._replace(cost=int(e.cost * scale)) for e in g.edges)
    return CostedGraph(vertices=g.vertices, edges=edges), scale


def random_rational_graph(rng, n):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                c = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6)))
                edges.append(CostEdge(u, v, c, len(edges)))
    return CostedGraph(vertices=tuple(range(n)), edges=tuple(edges))


def test_integer_costs_give_the_same_join_and_cycle():
    # ints D·c and rationals c share every comparison: same join, same cycle
    rng = random.Random(31)
    found = 0
    for _ in range(80):
        g = random_rational_graph(rng, rng.randint(3, 8))
        gi, scale = scaled_to_int(g)
        T = sorted(rng.sample(list(g.vertices), 2 * rng.randint(0, len(g.vertices) // 2)))
        try:
            want = min_t_join(g, T)
        except TJoinError:
            with pytest.raises(TJoinError):
                min_t_join(gi, T)
        else:
            assert min_t_join(gi, T) == want
        cyc, cyc_int = find_negative_cycle(g), find_negative_cycle(gi)
        assert (cyc is None) == (cyc_int is None)
        if cyc is not None:
            found += 1
            assert (cyc_int.edges, cyc_int.vertices) == (cyc.edges, cyc.vertices)
            assert type(cyc_int.cost) is int and cyc_int.cost == cyc.cost * scale
    assert found > 20


def test_two_vertex_t_skips_the_blossom(monkeypatch):
    # with |T| = 2 the pair itself is the only perfect matching: the join is
    # the shortest path that the blossom would have picked
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        g = random_cost_graph(rng, rng.randint(2, 7), density=0.6)
        a, b = sorted(rng.sample(list(g.vertices), 2))
        dist, pred = negcycle._dijkstra(negcycle._adjacency(g), a)
        if b not in dist:
            continue
        assert matching._min_perfect_edges([a, b], [(a, b)], [dist[b]]) == [0]
        with monkeypatch.context() as m:
            m.setattr(matching, "_min_perfect_edges", None)  # any call fails
            assert min_t_join(g, [b, a]) == negcycle._path_edges(g, pred, a, b)
        checked += 1
    assert checked > 20


def test_two_vertex_t_across_components(monkeypatch):
    g = graph(4, [(0, 1, 2), (2, 3, 5)])
    monkeypatch.setattr(matching, "_min_perfect_edges", None)
    with pytest.raises(TJoinError, match="T-join"):
        min_t_join(g, [1, 2])


def simple_path_distances(g):
    """Shortest simple-path length between every two vertices, by DFS."""
    d = {v: {v: 0} for v in g.vertices}
    adj = negcycle._adjacency(g)

    def walk(start, v, seen, cost):
        for w, _, i in adj[v]:
            if w not in seen:
                c = cost + g.edges[i].cost
                if w not in d[start] or c < d[start][w]:
                    d[start][w] = c
                walk(start, w, seen | {w}, c)

    for v in g.vertices:
        walk(v, v, {v}, 0)
    return d


def keyed(g):
    """`join_distances` keyed by vertex id, each row starting at its own
    vertex: the shape of `oracle_join_distances`."""
    rows, vs = negcycle.join_distances(g), g.vertices
    return None if rows is None else {
        a: {a: 0, **{b: x for b, x in zip(vs, row) if x is not None}} for a, row in zip(vs, rows)}


def test_join_distances_are_simple_path_distances():
    # without a negative cycle the minimum {a,b}-join is a shortest a-b path;
    # with one, there is no distance to report
    rng = random.Random(41)
    conservative = matched = 0
    for _ in range(300):
        g, _ = scaled_to_int(random_rational_graph(rng, rng.randint(1, 7)))
        d = keyed(g)
        assert (d is None) == (find_negative_cycle(g) is not None)
        if d is None:
            continue
        conservative += 1
        assert d == simple_path_distances(g)
        assert all(type(x) is int for row in d.values() for x in row.values())
        odd = set()
        for e in g.edges:
            if e.cost < 0:
                odd ^= {e.u, e.v}
        matched += len(odd) >= 4  # some pair has |T'| >= 4 and needs a matching
    assert conservative > 100 and matched > 10


def test_join_distances_across_components():
    g = graph(5, [(0, 1, -2), (2, 3, 5), (3, 4, -1)])
    assert keyed(g) == {
        0: {0: 0, 1: -2}, 1: {0: -2, 1: 0},
        2: {2: 0, 3: 5, 4: 4}, 3: {2: 5, 3: 0, 4: -1}, 4: {2: 4, 3: -1, 4: 0},
    }
    assert keyed(graph(0, [])) == {}
    assert keyed(triangle(1, 1, -3)) is None


def oracle_join_distances(g):
    """The per-pair formula that `join_distances` replaced: d(a, b) = c(E-) +
    a minimum (odd(E-) Δ {a, b})-join on |c|, one perfect matching per pair."""
    adj = negcycle._adjacency(g)
    negative = [i for i, e in enumerate(g.edges) if e.cost < 0]
    odd = negcycle._odd_vertices(g, negative)
    base = sum(g.edges[i].cost for i in negative)
    dists = {v: negcycle._dijkstra(adj, v)[0] for v in g.vertices}

    def distance(T):
        pairs = negcycle._pairing(sorted(T), dists) if T else []
        return None if pairs is None else base + sum(dists[a][b] for a, b in pairs)

    if distance(odd) < 0:
        return None
    d = {v: {v: 0} for v in g.vertices}
    for a_pos, a in enumerate(g.vertices):
        for b in g.vertices[a_pos + 1 :]:
            if b in dists[a]:
                d[a][b] = d[b][a] = distance(odd ^ {a, b})
    return d


def conservative_graph(rng, k, fractional):
    """A graph on n <= 11 vertices whose negative edges are k/2 disjoint edges
    and, at times, one more that extends one of them into a path, or None
    when that makes a negative cycle. Some graphs are split into two parts
    with no edge between them."""
    n = rng.randint(max(k, 2), 11)
    order = rng.sample(range(n), n)
    matched = {tuple(sorted(order[j : j + 2])) for j in range(0, k, 2)}
    cut = rng.randint(1, n - 1) if rng.random() < 0.3 else n
    density = rng.choice((0.2, 0.4, 0.7))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in matched:
                c = -rng.randint(1, 5)
            elif (u < cut) == (v < cut) and rng.random() < density:
                c = rng.randint(0, 9) if rng.random() < 0.9 else -rng.randint(1, 3)
            else:
                continue
            edges.append(CostEdge(u, v, Fraction(c, rng.choice((1, 2, 3))) if fractional else c,
                                  len(edges)))
    g = CostedGraph(vertices=tuple(range(n)), edges=tuple(edges))
    return None if find_negative_cycle(g) is not None else g


def test_join_distances_match_the_per_pair_formula():
    # τ on odd(E-) and its two-vertex deletions gives every pair's distance
    rng = random.Random(2024)
    seen = collections.Counter()
    for case in range(800):
        g = conservative_graph(rng, 2 * (case % 5), fractional=case % 2 == 1)
        if g is None:
            continue
        want = oracle_join_distances(g)
        d = keyed(g)
        assert d == want
        assert [type(x) for r in d.values() for x in r.values()] == \
            [type(x) for r in want.values() for x in r.values()]
        k = len(negcycle._odd_vertices(g, [i for i, e in enumerate(g.edges) if e.cost < 0]))
        connected = all(len(row) == len(g.vertices) for row in d.values())
        seen[k, case % 2, connected] += 1
    assert {k for k, _, _ in seen} >= {0, 2, 4, 6, 8}
    assert min(seen[k, f, c] for k in (0, 2, 4, 6, 8) for f in (0, 1) for c in (True, False)) >= 5, seen


def test_join_distances_solve_a_matching_only_past_four_odd_vertices(monkeypatch):
    # no perfect matching when |odd(E-)| <= 4, and at most one per two-vertex
    # deletion of odd(E-), plus one, above that
    calls = []
    real = matching._min_perfect_edges

    def counted(vertices, edges, weights):
        calls.append(len(vertices))
        return real(vertices, edges, weights)

    monkeypatch.setattr(matching, "_min_perfect_edges", counted)
    rng = random.Random(77)
    largest = 0
    for case in range(400):
        g = conservative_graph(rng, 2 * (case % 5), fractional=False)
        if g is None:
            continue
        k = len(negcycle._odd_vertices(g, [i for i, e in enumerate(g.edges) if e.cost < 0]))
        calls.clear()
        negcycle.join_distances(g)
        assert len(calls) <= (0 if k <= 4 else math.comb(k, 2) + 1), (k, calls)
        largest = max(largest, len(calls))
    assert largest >= 15  # some k >= 6 graph did need the blossom
