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


def test_t_join_empty_t():
    g = triangle(1, 2, 3)
    assert min_t_join(g, [e.cost for e in g.edges], []) == frozenset()


def test_t_join_path():
    g = graph(3, [(0, 1, 1), (1, 2, 1)])
    assert min_t_join(g, [e.cost for e in g.edges], [0, 2]) == {0, 1}


def test_t_join_odd_t():
    g = triangle(1, 1, 1)
    with pytest.raises(TJoinError, match="odd"):
        min_t_join(g, [e.cost for e in g.edges], [0, 1, 2])


def test_t_join_disconnected_pair():
    g = graph(4, [(0, 1, 1)])
    with pytest.raises(TJoinError, match="T-join"):
        min_t_join(g, [Fraction(1)], [2, 3])


def test_t_join_split_components_ok():
    # two components, each with an even share of T: the join exists
    g = graph(4, [(0, 1, 2), (2, 3, 5)])
    J = min_t_join(g, [e.cost for e in g.edges], [0, 1, 2, 3])
    assert J == {0, 1}


def test_t_join_negative_cost_rejected():
    g = triangle(-1, 1, 1)
    with pytest.raises(ValueError):
        min_t_join(g, [e.cost for e in g.edges], [0, 1])


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
    costs = [abs(e.cost) for e in g.edges]
    J = min_t_join(g, costs, T)
    parity = {v: 0 for v in g.vertices}
    for i in J:
        parity[g.edges[i].u] ^= 1
        parity[g.edges[i].v] ^= 1
    assert {v for v, x in parity.items() if x} == set(T)


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
            want = min_t_join(g, [abs(e.cost) for e in g.edges], T)
        except TJoinError:
            with pytest.raises(TJoinError):
                min_t_join(gi, [abs(e.cost) for e in gi.edges], T)
        else:
            assert min_t_join(gi, [abs(e.cost) for e in gi.edges], T) == want
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
        costs = [abs(e.cost) for e in g.edges]
        a, b = sorted(rng.sample(list(g.vertices), 2))
        dist, pred = negcycle._dijkstra(g, costs, a)
        if b not in dist:
            continue
        pairs = matching._min_perfect_pairs([a, b], [(a, b)], [dist[b]])
        assert pairs == {frozenset((a, b))}
        with monkeypatch.context() as m:
            m.setattr(matching, "_min_perfect_pairs", None)  # any call fails
            assert min_t_join(g, costs, [b, a]) == negcycle._path_edges(g, pred, a, b)
        checked += 1
    assert checked > 20


def test_two_vertex_t_across_components(monkeypatch):
    g = graph(4, [(0, 1, 2), (2, 3, 5)])
    monkeypatch.setattr(matching, "_min_perfect_pairs", None)
    with pytest.raises(TJoinError, match="T-join"):
        min_t_join(g, [e.cost for e in g.edges], [1, 2])
