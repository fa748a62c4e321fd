import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corematch import flawed, model, separation
from corematch.matching import (
    NoPerfectMatchingError,
    max_weight_matching,
    min_weight_perfect_matching,
    nu,
)
from corematch.model import (
    Allocation,
    Edge,
    FormatError,
    Instance,
    emit_allocation,
    emit_instance,
    parse_allocation,
    parse_instance,
    parse_rational,
    random_instance,
)
from corematch.negcycle import (
    CostEdge,
    CostedGraph,
    decompose_even_subgraph,
    min_t_join,
    parse_cost_graph,
)

COUNTEREXAMPLE = """\
game 5 4
vertex 0 1
vertex 1 1
vertex 2 2
vertex 3 2
vertex 4 1
edge 0 2 1
edge 1 2 1
edge 2 3 10
edge 3 4 1
"""


def test_parse_counterexample_file():
    inst = parse_instance(COUNTEREXAMPLE)
    assert inst.n == 5 and inst.m == 4
    assert inst.b == (1, 1, 2, 2, 1)
    assert [e.w for e in inst.edges] == [1, 1, 10, 1]
    assert inst.n2 == (2, 3)
    # edges 0-2, 1-2, 2-3 and 3-4: each vertex's capacity-2 neighbours with
    # the joining edge, in edge-index order
    assert inst.nbrs2 == (((2, 0),), ((2, 1),), ((3, 2),), ((2, 2),), ((3, 3),))


def test_parse_single_vertex():
    inst = parse_instance("game 1 0\nvertex 0 1\n")
    assert inst.n == 1 and inst.m == 0


def test_capacity_out_of_range():
    with pytest.raises(FormatError, match="capacity out of range"):
        parse_instance("game 1 0\nvertex 0 3\n")


def test_capacity_zero_rejected():
    with pytest.raises(FormatError, match="capacity out of range"):
        parse_instance("game 1 0\nvertex 0 0\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 0 1\n", "loop"),
        (
            "game 2 2\nvertex 0 1\nvertex 1 1\nedge 0 1 1\nedge 1 0 2\n",
            "duplicate edge",
        ),
        ("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 -1\n", "negative weight"),
        ("game 2 1\nvertex 0 1\nvertex 0 1\nedge 0 1 1\n", "duplicate vertex"),
        ("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 2 1\n", "unknown vertex"),
        ("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 1/0\n", "malformed|zero"),
        ("game 2 1\nvertex 0 1\nvertex 1 1\nedge 0 1 0.5\n", "malformed"),
        ("nonsense", "header"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(FormatError, match=message):
        parse_instance(text)


def test_error_reports_line_number():
    with pytest.raises(FormatError, match="line 3"):
        parse_instance("game 1 0\n# fine\nvertex 0 9\n")


def test_comments_and_blank_lines():
    noisy = "# header comment\n\ngame 1 0  # trailing\n\nvertex 0 2\n"
    assert parse_instance(noisy).b == (2,)


def test_parse_allocation_counterexample():
    inst = parse_instance(COUNTEREXAMPLE)
    p = parse_allocation("0 0\n1 0\n2 2\n3 10\n4 0\n", inst)
    assert p.total() == 12
    assert p[3] == 10


def test_parse_allocation_any_order_and_fractions():
    inst = parse_instance("game 2 0\nvertex 0 1\nvertex 1 1\n")
    p = parse_allocation("1 -7/2\n0 1\n", inst)
    assert p.values == (Fraction(1), Fraction(-7, 2))


def test_allocation_zero():
    inst = parse_instance(COUNTEREXAMPLE)
    p = parse_allocation("".join(f"{v} 0\n" for v in range(5)), inst)
    assert p.total() == 0


@pytest.mark.parametrize(
    "text,message",
    [
        ("0 0\n1 0\n2 2\n3 10\n", "incomplete"),
        ("0 0\n0 0\n1 0\n2 2\n3 10\n4 0\n", "duplicate"),
        ("0 0\n1 0\n2 2\n3 10\n9 0\n", "unknown vertex"),
        ("0 zero\n1 0\n2 2\n3 10\n4 0\n", "malformed"),
    ],
)
def test_allocation_errors(text, message):
    inst = parse_instance(COUNTEREXAMPLE)
    with pytest.raises(FormatError, match=message):
        parse_allocation(text, inst)


def test_allocation_roundtrip():
    inst = parse_instance(COUNTEREXAMPLE)
    p = Allocation((Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(7, 2), Fraction(9)))
    assert parse_allocation(emit_allocation(p), inst) == p


@given(st.integers(0, 10_000), st.integers(1, 9))
def test_instance_roundtrip(seed, n):
    inst = random_instance(seed, n, Fraction(1, 2), 10)
    assert parse_instance(emit_instance(inst)) == inst


def test_random_instance_reproducible():
    a = random_instance(7, 5, Fraction(1, 2), 10)
    b = random_instance(7, 5, Fraction(1, 2), 10)
    assert a == b
    assert emit_instance(a) == emit_instance(b)


def test_random_instance_density_extremes():
    assert random_instance(3, 6, Fraction(0), 10).m == 0
    assert random_instance(3, 4, Fraction(1), 10).m == 6


def test_random_instance_rejects_empty():
    with pytest.raises(ValueError):
        model.random_instance(1, 0, Fraction(1, 2), 10)


@given(st.integers(-50, 50), st.integers(1, 40))
def test_parse_rational_lowest_terms(num, den):
    x = parse_rational(f"{num}/{den}")
    assert x == Fraction(num, den)
    assert math.gcd(x.numerator, x.denominator) == 1 and x.denominator > 0


def test_returned_rationals_in_lowest_terms():
    # normalization audit across the solver surface: every rational that
    # comes back has gcd(num, den) = 1 and a positive denominator
    import random

    from corematch import extform, matching, separation
    from corematch.negcycle import find_negative_cycle

    def audit(x: Fraction):
        assert math.gcd(x.numerator, x.denominator) == 1
        assert x.denominator > 0

    rng = random.Random(61)
    for _ in range(10):
        inst = random_instance(rng.randint(0, 10**6), rng.randint(2, 6), Fraction(1, 2), 9)
        p = Allocation(
            tuple(Fraction(rng.randint(-6, 12), rng.randint(1, 5)) for _ in range(inst.n))
        )
        audit(matching.b_matching_value(inst))
        audit(matching.nu(inst, range(inst.n)))
        g2 = extform.enumerate_family(inst, p).members[0]  # G2 at its exact costs
        for e in g2.edges:
            audit(e.cost)
        cyc = find_negative_cycle(g2)
        if cyc is not None:
            audit(cyc.cost)
        verdict = separation.separate(inst, p)
        if verdict.violation is not None:
            audit(verdict.violation.allocated)
            audit(verdict.violation.bound)


def test_instance_validation_direct():
    with pytest.raises(ValueError):
        Instance(n=2, b=(1, 3), edges=())
    with pytest.raises(ValueError):
        Instance(n=2, b=(1, 1), edges=(Edge(0, 0, Fraction(1)),))
    with pytest.raises(ValueError):
        Instance(
            n=2, b=(1, 1),
            edges=(Edge(0, 1, Fraction(1)), Edge(1, 0, Fraction(2))),
        )


# -- numbers in the model are exact --------------------------------------------


@pytest.mark.parametrize("w", [0.5, 1.0, True, "1", None])
def test_instance_rejects_inexact_weights(w):
    # a float weight used to build, and separate then reported a float bound
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        Instance(2, (1, 1), (Edge(0, 1, w),))


@pytest.mark.parametrize("edge", [(0, 1, Fraction(1)), [0, 1, 1], None])
def test_instance_rejects_edges_that_are_not_edges(edge):
    # a plain tuple used to fail with AttributeError on its missing .w
    with pytest.raises(ValueError, match=r"edge 1 is not an Edge"):
        Instance(3, (1, 1, 1), (Edge(1, 2, 1), edge))


@pytest.mark.parametrize("b", [(1.0, 2.0), (True, 2), (1, Fraction(2))])
def test_instance_rejects_inexact_capacities(b):
    # a float or bool capacity used to build, and emit_instance then wrote a
    # vertex line that parse_instance rejects
    with pytest.raises(ValueError, match="is not an int"):
        Instance(2, b, (Edge(0, 1, 1),))


@pytest.mark.parametrize("n, b, edges, message", [
    (True, (1,), (), "vertex count is not an int: True"),
    (2.0, (1, 1), (), "vertex count is not an int: 2.0"),
    (2, (1, 1), (Edge(1.0, 0, 3),), "edge 0 has an endpoint that is not an int: 1.0-0"),
    (3, (1, 1, 1), (Edge(0, 1, 1), Edge(2, True, 1)),
     "edge 1 has an endpoint that is not an int: 2-True"),
], ids=["bool-n", "float-n", "float-endpoint", "bool-endpoint"])
def test_instance_rejects_counts_and_endpoints_that_are_not_ints(n, b, edges, message):
    # True and a float endpoint used to build (emit_instance then wrote
    # "game True 0", and separate raised a bare TypeError on a float index);
    # 2.0 raised TypeError
    with pytest.raises(ValueError, match=re.escape(message)):
        Instance(n, b, edges)


@pytest.mark.parametrize("b", [(1,), (1, 2, 1)], ids=["short", "long"])
def test_instance_rejects_a_capacity_vector_of_another_length(b):
    # the game reader checks its vertex lines first, so no parsed game and
    # no other test reached this
    with pytest.raises(model.GraphError, match="capacity vector length != n"):
        Instance(2, b, ())


def test_coalition_rejects_no_members():
    assert model.coalition((3, 1, 3)) == (1, 3)
    with pytest.raises(ValueError, match="empty coalition"):
        model.coalition(())


@pytest.mark.parametrize("S, message", [
    ((2.0, 3), "coalition member is not an int: 2.0"),
    ((True, 2), "coalition member is not an int: True"),
    ((1, True), "coalition member is not an int: True"),
], ids=["float", "bool", "bool-after-its-int"])
def test_coalitions_reject_members_that_are_not_ints(counterexample, S, message):
    # on the counterexample nu(inst, (2.0, 3)) returned 10 and
    # nu(inst, (True, 2)) returned 1, since 2.0 and True pass
    # set(S) <= set(range(n)); (1, True) collapses to {1} in a set
    with pytest.raises(ValueError, match=re.escape(message)):
        model.check_coalition(counterexample, S)
    with pytest.raises(ValueError, match=re.escape(message)):
        nu(counterexample, S)
    assert nu(counterexample, (2, 3)) == 10 and nu(counterexample, (1, 2)) == 1


@pytest.mark.parametrize("values", [(0.5, 0.5, 0.0), (Fraction(1), False, 0), (1, "1", 0)])
def test_allocation_rejects_inexact_entries(values):
    # a float entry used to reach separation.integer_costs as AttributeError
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        Allocation(values)


def test_ints_and_fractions_are_exact():
    from corematch import separation

    from corematch import extform, flawed

    inst = Instance(2, (1, 1), (Edge(0, 1, 1),))
    verdict = separation.separate(inst, Allocation((0, Fraction(1, 2))))
    assert verdict.violation.bound == 1 and type(verdict.violation.bound) is Fraction
    assert separation.separate(inst, Allocation((Fraction(1, 2), Fraction(1, 2)))).in_core

    # int entries are stored as Fractions, so a halved entry stays exact
    # wherever an allocation is read: an int copy and a Fraction copy of the
    # same allocation agree everywhere, and no cost or weight is a float
    inst = flawed.counterexample_instance()
    for ints in ((0, 0, 2, 10, 0), (1, 0, 1, 10, 0), (0, 1, 3, 7, 1), (2**60 + 1, 0, 0, 0, 0)):
        exact = Allocation(tuple(map(Fraction, ints)))
        p = Allocation(ints)
        assert p == exact and all(type(x) is Fraction for x in p.values)
        assert extform.check_membership(inst, p) == extform.check_membership(inst, exact)
        family = extform.enumerate_family(inst, p)
        assert family == extform.enumerate_family(inst, exact)
        assert all(type(e.cost) is Fraction for g in family.members for e in g.edges)
        path = flawed.flawed_separate_paths(inst, p)
        assert path == flawed.flawed_separate_paths(inst, exact)
        assert path is None or type(path.weight) is Fraction
        arcs = flawed.build_layered(inst, p, 0, 4, 3).arcs
        assert arcs == flawed.build_layered(inst, exact, 0, 4, 3).arcs
        assert all(type(w) is Fraction for level in arcs for _, _, w in level)
    assert extform.check_membership(inst, Allocation((0, 0, 2, 10, 0)))
    (weight,) = {w for i, _, w in flawed.build_layered(
        inst, Allocation((2**60 + 1, 0, 0, 0, 0)), 0, 1, 2).arcs[0] if i == 0}
    assert weight == Fraction(2**60 + 1) - 1 and type(weight) is Fraction


# -- one simple-graph validator ---------------------------------------------

MATCHINGS = ("max_weight_matching", "min_weight_perfect_matching")
GRAPHS = MATCHINGS + ("CostedGraph",)
EVERY = GRAPHS + ("Instance",)  # Instance needs vertices 0..n-1

# case -> (vertices, (u, v) edges, weights, the targets it is bad for)
BAD_GRAPHS = {
    "duplicate vertex": ([0, 1, 2, 3, 3], [(0, 1), (2, 3)], [1, 1], GRAPHS),
    "loop": ([0, 1, 2, 3], [(0, 1), (2, 3), (2, 2)], [1, 1, 1], EVERY),
    "unknown endpoint": ([0, 1, 2, 3], [(0, 1), (2, 3), (1, 4)], [1, 1, 1], EVERY),
    "duplicate edge": ([0, 1, 2, 3], [(0, 1), (2, 3), (0, 1)], [1, 1, 1], EVERY),
    "reversed duplicate edge": ([0, 1, 2, 3], [(0, 1), (2, 3), (1, 0)], [1, 1, 1], EVERY),
    "weights too short": ([0, 1, 2, 3], [(0, 1), (2, 3)], [1], MATCHINGS),
    "weights too long": ([0, 1, 2, 3], [(0, 1), (2, 3)], [1, 1, 1], MATCHINGS),
}


def _costed_graph(vertices, edges, weights):
    costs = [CostEdge(u, v, Fraction(w), k) for k, ((u, v), w) in enumerate(zip(edges, weights))]
    return CostedGraph(tuple(vertices), tuple(costs))


def _instance(vertices, edges, weights):
    return Instance(len(vertices), (2,) * len(vertices),
                    tuple(Edge(u, v, Fraction(w)) for (u, v), w in zip(edges, weights)))


VALIDATED = {
    "max_weight_matching": max_weight_matching,
    "min_weight_perfect_matching": min_weight_perfect_matching,
    "CostedGraph": _costed_graph,
    "Instance": _instance,
}


@pytest.mark.parametrize(
    "case, target", [(c, t) for c, g in BAD_GRAPHS.items() for t in g[-1]]
)
def test_validator_rejects_malformed_graphs(case, target):
    # NoPerfectMatchingError is a ValueError too; only the validator counts
    with pytest.raises(ValueError) as exc:
        VALIDATED[target](*BAD_GRAPHS[case][:-1])
    assert not isinstance(exc.value, NoPerfectMatchingError)


def test_graph_error_names_the_edge_position():
    for vertices, edges, _, targets in BAD_GRAPHS.values():
        if "Instance" in targets:
            with pytest.raises(model.GraphError) as exc:
                model.check_simple_graph(vertices, edges)
            assert exc.value.edge == 2
    with pytest.raises(model.GraphError) as exc:
        model.check_simple_graph([0, 0], [])
    assert exc.value.edge is None


@pytest.mark.parametrize(
    "bad, message",
    [
        ("edge 1 3 1", "unknown vertex in edge 1-3"),
        ("edge 2 2 1", "loop at vertex 2"),
        ("edge 2 1 1", "duplicate edge 2-1"),
    ],
    ids=["unknown-vertex", "loop", "duplicate-edge"],
)
def test_graph_defects_report_their_file_line(bad, message):
    # the parsers leave graph rules to check_simple_graph and map the
    # offending edge's position back to its line, past comments and blanks
    body = f"# edges\nedge 0 1 1\n\n# gap\nedge 1 2 1\n{bad}  # here\n"
    game = "game 3 3\nvertex 0 2\nvertex 1 2\nvertex 2 1\n" + body
    with pytest.raises(FormatError) as exc:
        parse_instance(game)
    assert str(exc.value) == f"line 10: {message}"
    with pytest.raises(FormatError) as exc:
        parse_cost_graph("costs 3 3\n" + body)
    assert str(exc.value) == f"line 7: {message}"


@pytest.mark.parametrize("text, message", [
    # vertex 1's line comes before vertex 0's
    ("game 2 0\nvertex 1 3\nvertex 0 2\n", "line 2: capacity out of range at vertex 1: 3"),
    ("game 3 3\nvertex 0 2\nvertex 1 2\nvertex 2 2\n"
     "edge 0 1 1\nedge 1 2 -2\nedge 0 2 -2\n", "line 6: negative weight on edge 1-2"),
    ("game 0 0\n", "line 1: instance needs at least one vertex"),
], ids=["capacity-out-of-order", "shared-negative-weight", "no-vertex"])
def test_instance_rules_report_their_file_line(text, message):
    # a broken rule of the game lands on the line of its vertex, of its
    # first edge, or on the header for the vertex count
    with pytest.raises(FormatError) as exc:
        parse_instance(text)
    assert str(exc.value) == message


def test_validator_accepts_the_repaired_graph():
    vertices, edges, weights = [0, 1, 2, 3], [(0, 1), (2, 3)], [1, 1]
    for target, build in VALIDATED.items():
        build(vertices, edges, weights)


# -- one index rule ------------------------------------------------------------

TRIANGLE = CostedGraph((0, 1, 2), (CostEdge(0, 1, -1, 0), CostEdge(1, 2, 1, 1), CostEdge(0, 2, 1, 2)))

# case -> (the call on the counterexample instance, its allocation and the
# triangle g, the message of its site); a bool or a float is never an index,
# and each site says so as it says an index is out of range
BAD_INDICES = {
    "float endpoint": (lambda inst, p, g: separation.variant_structures(inst, 2.0, 3),
                       "endpoints must lie in 0..4"),
    "bool endpoint": (lambda inst, p, g: separation.variant_structures(inst, 2, True),
                      "endpoints must lie in 0..4"),
    "float length": (lambda inst, p, g: flawed.build_layered(inst, p, 0, 1, 2.0),
                     "length k must lie in 1..4"),
    "float layered end": (lambda inst, p, g: flawed.build_layered(inst, p, 0, 1.0, 3),
                          "endpoints must be two distinct vertices"),
    "bool cycle edge": (lambda inst, p, g: decompose_even_subgraph(g, [True, 0, 2]),
                        "edge index True is not in 0..2"),
    "float cycle edge": (lambda inst, p, g: decompose_even_subgraph(g, [1.0, 0, 2]),
                         "edge index 1.0 is not in 0..2"),
    "float T-vertex": (lambda inst, p, g: min_t_join(g, [0, 2.0]),
                       "T-vertex 2.0 is not a vertex of the graph"),
    "bool T-vertex beside its int": (lambda inst, p, g: min_t_join(g, [1, True]),
                                     "T-vertex True is not a vertex of the graph"),
    "str cycle edge reading as one": (lambda inst, p, g: decompose_even_subgraph(g, ["1", 0, 2]),
                                      "edge index '1' is not in 0..2"),
    "str T-vertex reading as one": (lambda inst, p, g: min_t_join(g, [0, "1"]),
                                    "T-vertex '1' is not a vertex of the graph"),
    "negative incident vertex": (lambda inst, p, g: inst.incident(-1),
                                 "not a vertex of the game: -1"),
    "bool incident vertex": (lambda inst, p, g: inst.incident(True),
                             "not a vertex of the game: True"),
    "incident vertex past n": (lambda inst, p, g: inst.incident(5),
                               "not a vertex of the game: 5"),
    "float incident vertex": (lambda inst, p, g: inst.incident(2.0),
                              "not a vertex of the game: 2.0"),
    "float edge end": (lambda inst, p, g: inst.find_edge(2.0, 3),
                       "not a vertex of the game: 2.0"),
    "bool edge end": (lambda inst, p, g: inst.find_edge(True, 2),
                      "not a vertex of the game: True"),
}


@pytest.mark.parametrize("case", BAD_INDICES)
def test_every_index_is_an_int_in_range(case):
    # each case was accepted (variant_structures(inst, 2, True), decompose
    # returned Cycle(edges=(0, True, 2), ...), incident(-1) listed vertex 4's
    # edges, find_edge(True, 2) found edge 1)
    # or raised a bare TypeError or IndexError
    call, message = BAD_INDICES[case]
    inst = flawed.counterexample_instance()
    with pytest.raises(ValueError, match=re.escape(message)):
        call(inst, flawed.counterexample_allocation(), TRIANGLE)


@pytest.mark.parametrize("bad, message", [
    ({"wmax": 2.0}, "wmax must be an int: 2.0"),
    ({"wmax": True}, "wmax must be an int: True"),
    ({"n": 4.0}, "n must be an int: 4.0"),
    ({"density": "1/2"}, "density must be a real number: '1/2'"),
    ({"density": True}, "density must be a real number: True"),
    ({"density": float("nan")}, "density must lie in [0, 1]"),
], ids=["float wmax", "bool wmax", "float n", "str density", "bool density", "nan density"])
def test_random_instance_checks_its_arguments(bad, message):
    # wmax=2.0 took randrange's deprecated float path, wmax=True named the
    # game "...wmax=True", and n=4.0 and density="1/2" raised a bare TypeError
    args = {"seed": 1, "n": 4, "density": Fraction(1, 2), "wmax": 10, **bad}
    with pytest.raises(ValueError, match=re.escape(message)):
        random_instance(**args)


# -- strict ASCII numeric grammar ---------------------------------------------

ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
SMALL = parse_instance("game 2 0\nvertex 0 1\nvertex 1 1\n")

# (reader, valid text, integer slots, rational slots); a slot is
# (line index, token index)
READERS = {
    "instance": (
        parse_instance,
        "game 2 1\nvertex 0 2\nvertex 1 1\nedge 0 1 3\n",
        [(0, 1), (0, 2), (1, 1), (1, 2), (3, 1), (3, 2)],
        [(3, 3)],
    ),
    "allocation": (
        lambda text: parse_allocation(text, SMALL),
        "0 3\n1 -1/2\n",
        [(0, 0), (1, 0)],
        [(0, 1), (1, 1)],
    ),
    "cost graph": (
        parse_cost_graph,
        "costs 3 1\nedge 0 2 -3/2\n",
        [(0, 1), (0, 2), (1, 1), (1, 2)],
        [(1, 3)],
    ),
}


def _variants(token, signed):
    """Forms of `token` that int() or \\d accept: a "0_" prefix, a "+" sign
    (bad only where no sign is allowed) and Arabic-Indic digits."""
    out = ["0_" + token.lstrip("-"), token.translate(ARABIC_INDIC)]
    return out if signed else out + ["+" + token]


def _replace(text, slot, token):
    lines = [line.split() for line in text.splitlines()]
    lines[slot[0]][slot[1]] = token
    return "".join(" ".join(parts) + "\n" for parts in lines)


def _strict_cases():
    for name, (_, text, ints, rationals) in READERS.items():
        for slots, signed in ((ints, False), (rationals, True)):
            for slot in slots:
                token = text.splitlines()[slot[0]].split()[slot[1]]
                for bad in _variants(token, signed):
                    yield pytest.param(
                        name, _replace(text, slot, bad),
                        id=f"{name}-line{slot[0] + 1}-token{slot[1] + 1}-{bad!a}",
                    )


def test_strict_cases_cover_the_three_forms():
    texts = [case.values[1] for case in _strict_cases()]
    for form in ("0_0", "+0", "٣"):
        assert any(form in text.split() for text in texts)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_accept_the_valid_text(reader):
    parse, text, _, _ = READERS[reader]
    parse(text)


@pytest.mark.parametrize("reader, text", list(_strict_cases()))
def test_readers_reject_non_ascii_or_signed_integers(reader, text):
    with pytest.raises(FormatError, match="line"):
        READERS[reader][0](text)


def test_rationals_keep_their_sign():
    assert parse_rational("+3/2") == Fraction(3, 2)
    assert parse_rational("-0") == 0


@st.composite
def rational_token(draw):
    """A token of the rational grammar: optional sign, leading zeros, and an
    optional denominator that need not be in lowest terms."""
    sign = draw(st.sampled_from(("", "+", "-")))
    num = "0" * draw(st.integers(0, 3)) + str(draw(st.integers(0, 10**30)))
    if not draw(st.booleans()):
        return sign + num
    den = "0" * draw(st.integers(0, 3)) + str(draw(st.integers(1, 10**12)))
    factor = draw(st.integers(1, 50))
    if draw(st.booleans()):  # scale both parts so the token is not reduced
        num, den = str(int(num) * factor), str(int(den) * factor)
    return f"{sign}{num}/{den}"


@given(st.one_of(rational_token(), st.sampled_from(("-0", "+0", "-0/7", "00/0004", "-12/8"))))
def test_parse_rational_agrees_with_fraction(token):
    x = parse_rational(token)
    assert type(x) is Fraction
    assert x == Fraction(token)


@st.composite
def canonical_instance_text(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"game {n} {len(chosen)}"]
    lines += [f"vertex {v} {draw(st.sampled_from((1, 2)))}" for v in range(n)]
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        lines.append(f"edge {u} {v} {draw(st.fractions(min_value=0, max_denominator=12))}")
    return "\n".join(lines) + "\n"


@given(canonical_instance_text())
def test_instance_text_roundtrip(text):
    assert emit_instance(parse_instance(text)) == text


@given(st.lists(st.fractions(max_denominator=12), min_size=1, max_size=10))
def test_allocation_text_roundtrip(values):
    inst = Instance(len(values), (1,) * len(values), ())
    text = "".join(f"{v} {x}\n" for v, x in enumerate(values))
    assert emit_allocation(parse_allocation(text, inst)) == text


@given(canonical_instance_text())
def test_instance_roundtrip_from_text(text):
    inst = parse_instance(text)
    assert parse_instance(emit_instance(inst)) == inst


GAME_HEAD = "game 4 3\nvertex 0 1\nvertex 1 2\nvertex 2 2\nvertex 3 1\n"
COSTS_HEAD = "costs 4 3\n"


@pytest.mark.parametrize("parse, head", [
    (parse_instance, GAME_HEAD), (parse_cost_graph, COSTS_HEAD),
])
@pytest.mark.parametrize("token, message", [
    ("3/0", "zero denominator"), ("1.5", "malformed rational"),
])
def test_repeated_bad_value_token_is_reported_at_its_first_line(parse, head, token, message):
    # each distinct value token is read once, at its first line
    first = head.count("\n") + 2
    text = head + f"edge 0 1 2\nedge 1 2 {token}\nedge 2 3 {token}\n"
    with pytest.raises(FormatError, match=f"^line {first}: {message}"):
        parse(text)


def test_repeated_negative_weight_is_reported_at_its_first_line():
    text = GAME_HEAD + "edge 0 1 2\nedge 1 2 -1/2\nedge 2 3 -1/2\n"
    with pytest.raises(FormatError, match="^line 7: negative weight on edge 1-2$"):
        parse_instance(text)
    # costs may be negative
    g = parse_cost_graph(COSTS_HEAD + "edge 0 1 2\nedge 1 2 -1/2\nedge 2 3 -1/2\n")
    assert [e.cost for e in g.edges] == [2, Fraction(-1, 2), Fraction(-1, 2)]


@pytest.mark.parametrize("parse, head, value", [
    (parse_instance, GAME_HEAD, lambda e: e.w), (parse_cost_graph, COSTS_HEAD, lambda e: e.cost),
])
def test_edges_sharing_a_token_get_equal_values(parse, head, value):
    text = head + "edge 0 1 6/4\nedge 1 2 3\nedge 2 3 6/4\n"
    edges = parse(text).edges
    assert [value(e) for e in edges] == [Fraction(3, 2), 3, Fraction(3, 2)]
    assert all(type(value(e)) is Fraction for e in edges)
    # "3/2" is another token with the same value
    other = parse(head + "edge 0 1 6/4\nedge 1 2 3\nedge 2 3 3/2\n").edges
    assert [value(e) for e in other] == [value(e) for e in edges]
