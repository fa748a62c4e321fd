import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from corematch import model
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

    from corematch import matching, separation
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
        g2 = separation.build_g2(inst, separation.transfer_costs(inst, p))
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
