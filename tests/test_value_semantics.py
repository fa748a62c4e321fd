"""Value semantics of corematch's records and validated types: repr, ==,
hash, pickling and read-only fields, pinned per type."""

import pickle
from fractions import Fraction

import pytest

from corematch.extform import GraphFamily, SizeReport
from corematch.flawed import LayeredGraph, LayeredPath
from corematch.linsys import Constraint, ConstraintSystem, SimplexResult
from corematch.matching import MatchingResult
from corematch.model import Allocation, Edge, Instance, Violation, ViolationKind
from corematch.negcycle import CostedGraph, CostEdge, Cycle
from corematch.oracle import ConstraintFamily
from corematch.separation import SeparationVerdict, VariantStructure


def check_value(a, same, other, text, fields, hashable=True, picklable=True):
    """`a` reprs as `text`, equals `same` (built apart) and not `other`,
    hashes as `same` does (or is unhashable), survives a pickle round trip
    and refuses to have any field, or a new attribute, set or deleted."""
    assert repr(a) == text
    assert a == same and not a != same and a is not same
    assert a != other and not a == other
    assert a != object()
    if hashable:
        assert hash(a) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(a)
    if picklable:
        b = pickle.loads(pickle.dumps(a))
        assert b == a and repr(b) == text
    for f in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert repr(a) == text


def _instance(w=3, name=""):
    return Instance(2, (1, 2), (Edge(0, 1, Fraction(w)),), name=name)


def test_instance_value_semantics():
    a = _instance(name="g")
    check_value(
        a, _instance(), _instance(w=4),
        "Instance(n=2, b=(1, 2), edges=(Edge(u=0, v=1, w=Fraction(3, 1)),), name='g')",
        ("n", "b", "edges", "name", "grand_value"),
    )
    # the name is neither compared nor hashed
    assert a == _instance(name="h") and hash(a) == hash(_instance(name="h"))
    # the cached properties still fill in after the refused assignments
    assert a.grand_value == 3 and a.nbrs2 == (((1, 0),), ())
    assert a.grand_value is a.grand_value


def test_allocation_value_semantics():
    check_value(
        Allocation((1, Fraction(1, 2))), Allocation((Fraction(1), Fraction(1, 2))),
        Allocation((1, 1)),
        "Allocation(values=(Fraction(1, 1), Fraction(1, 2)))", ("values",),
    )


def _violation(bound=3):
    return Violation(ViolationKind.EDGE, (0, 1), Fraction(1), Fraction(bound), (0,))


def test_violation_value_semantics():
    check_value(
        _violation(), _violation(), _violation(4),
        "Violation(kind=<ViolationKind.EDGE: 'Edge'>, coalition=(0, 1), "
        "allocated=Fraction(1, 1), bound=Fraction(3, 1), witness_edges=(0,))",
        ("kind", "coalition", "allocated", "bound", "witness_edges"),
    )


def test_matching_result_value_semantics():
    check_value(
        MatchingResult((0, 2), Fraction(5)), MatchingResult((0, 2), Fraction(5)),
        MatchingResult((0, 1), Fraction(5)),
        "MatchingResult(edges=(0, 2), weight=Fraction(5, 1))", ("edges", "weight"),
    )


def _costed(cost=2):
    return CostedGraph((0, 1, 2), (CostEdge(0, 1, -1, 0), CostEdge(1, 2, cost)))


def test_costed_graph_value_semantics():
    check_value(
        _costed(), _costed(), _costed(3),
        "CostedGraph(vertices=(0, 1, 2), edges=(CostEdge(u=0, v=1, cost=-1, orig=0), "
        "CostEdge(u=1, v=2, cost=2, orig=None)))",
        ("vertices", "edges"),
    )


def test_cycle_value_semantics():
    check_value(
        Cycle((0, 1, 2), (0, 1, 2), -3), Cycle((0, 1, 2), (0, 1, 2), -3),
        Cycle((0, 1, 2), (0, 1, 2), -2),
        "Cycle(edges=(0, 1, 2), vertices=(0, 1, 2), cost=-3)", ("edges", "vertices", "cost"),
    )


def test_separation_verdict_value_semantics():
    check_value(
        SeparationVerdict(_violation()), SeparationVerdict(_violation()),
        SeparationVerdict(None),
        "SeparationVerdict(violation=Violation(kind=<ViolationKind.EDGE: 'Edge'>, "
        "coalition=(0, 1), allocated=Fraction(1, 1), bound=Fraction(3, 1), "
        "witness_edges=(0,)))",
        ("violation",),
    )


def test_variant_structure_value_semantics():
    check_value(
        VariantStructure(0, 3, None, 2), VariantStructure(0, 3, None, 2),
        VariantStructure(0, 3, 1, 2),
        "VariantStructure(s=0, t=3, kept_s=None, kept_t=2)", ("s", "t", "kept_s", "kept_t"),
    )


def _layered(w=-1):
    return LayeredGraph(i0=0, j0=1, k=1, layers=((0,), (1,)), arcs=(((0, 1, Fraction(w)),),))


def test_layered_graph_value_semantics():
    check_value(
        _layered(), _layered(), _layered(-2),
        "LayeredGraph(i0=0, j0=1, k=1, layers=((0,), (1,)), "
        "arcs=(((0, 1, Fraction(-1, 1)),),))",
        ("i0", "j0", "k", "layers", "arcs"),
    )


def test_layered_path_value_semantics():
    check_value(
        LayeredPath(0, 1, 3, (0, 1, 0, 1), Fraction(-10)),
        LayeredPath(0, 1, 3, (0, 1, 0, 1), Fraction(-10)),
        LayeredPath(0, 1, 1, (0, 1), Fraction(-10)),
        "LayeredPath(i0=0, j0=1, k=3, vertices=(0, 1, 0, 1), weight=Fraction(-10, 1))",
        ("i0", "j0", "k", "vertices", "weight"),
    )


def test_constraint_family_value_semantics():
    check_value(
        ConstraintFamily(cycles=(), paths=(((0,), ()),)),
        ConstraintFamily(cycles=(), paths=(((0,), ()),)),
        ConstraintFamily(cycles=(), paths=()),
        "ConstraintFamily(cycles=(), paths=(((0,), ()),))", ("cycles", "paths"),
    )


def test_graph_family_value_semantics():
    check_value(
        GraphFamily((_costed(),), ("G2",)), GraphFamily((_costed(),), ("G2",)),
        GraphFamily((_costed(),), ("G2'",)),
        "GraphFamily(members=(CostedGraph(vertices=(0, 1, 2), edges=(CostEdge(u=0, v=1, "
        "cost=-1, orig=0), CostEdge(u=1, v=2, cost=2, orig=None))),), "
        "labels=('G2',))",
        ("members", "labels"),
    )


_SIZES = ("n", "m", "family_size", "family_bound", "p_vars", "gamma_vars", "lambda_vars",
          "total_vars", "base_constraints", "arc_constraints", "cost_constraints",
          "nonneg_constraints", "total_constraints", "var_envelope", "constraint_envelope")


def test_size_report_value_semantics():
    check_value(
        SizeReport(*range(15)), SizeReport(*range(15)), SizeReport(*range(1, 16)),
        "SizeReport(" + ", ".join(f"{f}={k}" for k, f in enumerate(_SIZES)) + ")", _SIZES,
    )


def test_simplex_result_value_semantics():
    check_value(
        SimplexResult("infeasible"), SimplexResult("infeasible"), SimplexResult("feasible"),
        "SimplexResult(status='infeasible', witness=None, objective=None)",
        ("status", "witness", "objective"),
    )
    # a witness is a dict, so a result that carries one has no hash
    check_value(
        SimplexResult("optimal", {"x": Fraction(1)}, Fraction(2)),
        SimplexResult("optimal", {"x": Fraction(1)}, Fraction(2)),
        SimplexResult("optimal", {"x": Fraction(2)}, Fraction(2)),
        "SimplexResult(status='optimal', witness={'x': Fraction(1, 1)}, "
        "objective=Fraction(2, 1))",
        ("status", "witness", "objective"), hashable=False,
    )


def test_constraint_value_semantics():
    # coeffs is a read-only mapping, so a Constraint has no hash and no pickle
    check_value(
        Constraint("c", {"x": 1, "y": Fraction(1, 2), "z": 0}, ">=", "1/2"),
        Constraint("c", {"x": Fraction(1), "y": 0.5}, ">=", Fraction(1, 2)),
        Constraint("c", {"x": 1}, ">=", Fraction(1, 2)),
        "Constraint(name='c', coeffs=mappingproxy({'x': 1, 'y': Fraction(1, 2)}), "
        "rel='>=', rhs=Fraction(1, 2))",
        ("name", "coeffs", "rel", "rhs"), hashable=False, picklable=False,
    )


def test_rows_value_semantics():
    # the view compares as the list of its rows and has no hash; its repr
    # would only name the system it reads, so it is not pinned
    def rows(rhs):
        s = ConstraintSystem("s", ["x"])
        s.add_constraint("c", {"x": 1}, ">=", rhs)
        return s.constraints

    a, same, other = rows(0), rows(0), rows(1)
    assert a == same and not a != same and a is not same
    assert a != other and not a == other
    assert a == [Constraint("c", {"x": 1}, ">=", 0)]
    with pytest.raises(TypeError):
        hash(a)
