import hashlib
import io
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from corematch import extform, linsys, matching
from corematch.linsys import (
    Constraint,
    ConstraintSystem,
    emit_lp,
    parse_lp,
    simplex_feasible,
    simplex_solve,
)
from corematch.model import Allocation, random_instance

from conftest import random_allocation, random_cost_graph


def system(constraints, nvars=None, objective=None, name="test"):
    names = sorted({v for coeffs, _, _ in constraints for v in coeffs})
    if nvars is not None:
        names = [f"x{i}" for i in range(nvars)]
    sys_ = ConstraintSystem(name=name, variables=list(names), objective=objective)
    for k, (coeffs, rel, rhs) in enumerate(constraints):
        sys_.add_constraint(f"c{k}", coeffs, rel, rhs)
    return sys_


def test_infeasible_box():
    s = system([({"x": 1}, ">=", 0), ({"x": 1}, "<=", -1)])
    assert simplex_feasible(s).status == "infeasible"


def test_feasible_box_witness_verifies():
    s = system([({"x": 1}, ">=", 0), ({"x": 1}, "<=", 1)])
    r = simplex_feasible(s)
    assert r.is_feasible
    assert 0 <= r.witness["x"] <= 1


def test_equality_with_free_variables():
    s = system(
        [({"x": 1, "y": 1}, "=", Fraction(1, 3)), ({"x": 1, "y": -1}, "=", -5)]
    )
    r = simplex_feasible(s)
    assert r.is_feasible
    assert r.witness["x"] + r.witness["y"] == Fraction(1, 3)
    assert r.witness["x"] - r.witness["y"] == -5


def test_optimal_value_exact():
    s = system(
        [({"x": 1, "y": 1}, ">=", 2), ({"x": 1, "y": -1}, "=", Fraction(1, 3))],
        objective={"x": Fraction(1), "y": Fraction(1)},
    )
    r = simplex_solve(s)
    assert r.status == "optimal" and r.objective == 2


def test_unbounded_detection():
    s = system([({"x": 1}, ">=", 0)], objective={"x": Fraction(-1)})
    assert simplex_solve(s).status == "unbounded"


def test_degenerate_cone_is_bounded_at_zero():
    # all-zero right-hand sides: the cone's minimum is at the origin
    s = system(
        [
            ({"x": 1, "y": -1}, "<=", 0),
            ({"y": 1, "x": -1}, "<=", 0),
            ({"x": 1}, ">=", 0),
            ({"y": 1}, ">=", 0),
        ],
        objective={"x": Fraction(1), "y": Fraction(2)},
    )
    r = simplex_solve(s)
    assert r.status == "optimal" and r.objective == 0


def test_redundant_equalities():
    s = system(
        [
            ({"x": 1, "y": 1}, "=", 2),
            ({"x": 2, "y": 2}, "=", 4),
            ({"x": 1}, ">=", 0),
            ({"y": 1}, ">=", 0),
        ]
    )
    assert simplex_feasible(s).is_feasible


def test_infeasible_equality_pair():
    s = system([({"x": 1}, "=", 1), ({"x": 1}, "=", 2)])
    assert simplex_feasible(s).status == "infeasible"


def test_random_systems_against_vertex_enumeration():
    # 2-variable systems: feasibility checked by brute corner/LP-free logic
    rng = random.Random(17)
    for _ in range(60):
        cons = []
        for _ in range(rng.randint(1, 5)):
            a = Fraction(rng.randint(-4, 4))
            b = Fraction(rng.randint(-4, 4))
            if a == b == 0:
                continue
            rel = rng.choice(["<=", ">=", "="])
            rhs = Fraction(rng.randint(-6, 6))
            cons.append(({"x": a, "y": b}, rel, rhs))
        if not cons:
            continue
        s = system(cons)
        got = simplex_feasible(s)
        # dense rational grid scan as an independent (sufficient) witness hunt
        found = None
        for px in range(-30, 31):
            for py in range(-30, 31):
                point = {"x": Fraction(px, 2), "y": Fraction(py, 2)}
                if s.check_point(point):
                    found = point
                    break
            if found:
                break
        if found is not None:
            assert got.is_feasible
        if got.is_feasible:
            assert s.check_point(got.witness)


def fourier_motzkin_feasible(names, cons) -> bool:
    """Independent exact feasibility oracle: eliminate variables one by one.

    `cons` are (coeffs, rel, rhs) rows; equalities are split, then each
    variable elimination pairs its lower and upper bounds.
    """
    rows: list[tuple[dict[str, Fraction], Fraction]] = []  # sum <= rhs form
    for coeffs, rel, rhs in cons:
        if rel in ("<=", "="):
            rows.append((dict(coeffs), Fraction(rhs)))
        if rel in (">=", "="):
            rows.append(({v: -c for v, c in coeffs.items()}, -Fraction(rhs)))
    for v in names:
        uppers, lowers, rest = [], [], []
        for coeffs, rhs in rows:
            a = coeffs.get(v, Fraction(0))
            if a > 0:
                uppers.append((coeffs, rhs, a))
            elif a < 0:
                lowers.append((coeffs, rhs, a))
            else:
                rest.append((coeffs, rhs))
        for ucoef, urhs, ua in uppers:
            for lcoef, lrhs, la in lowers:
                merged = {}
                for w in set(ucoef) | set(lcoef):
                    if w == v:
                        continue
                    c = ucoef.get(w, Fraction(0)) / ua - lcoef.get(w, Fraction(0)) / la
                    if c:
                        merged[w] = c
                rest.append((merged, urhs / ua - lrhs / la))
        rows = rest
    return all(rhs >= 0 for coeffs, rhs in rows)


def test_simplex_agrees_with_fourier_motzkin():
    rng = random.Random(271828)
    feasible_seen = infeasible_seen = 0
    for _ in range(150):
        nvars = rng.randint(1, 4)
        names = [f"v{i}" for i in range(nvars)]
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = {
                names[i]: Fraction(rng.randint(-3, 3)) for i in range(nvars)
            }
            coeffs = {v: c for v, c in coeffs.items() if c}
            if not coeffs:
                continue
            rel = rng.choice(["<=", ">=", "="])
            rhs = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            cons.append((coeffs, rel, rhs))
        if not cons:
            continue
        s = ConstraintSystem(name="cross", variables=list(names))
        for k, (coeffs, rel, rhs) in enumerate(cons):
            s.add_constraint(f"c{k}", coeffs, rel, rhs)
        got = simplex_feasible(s)
        want = fourier_motzkin_feasible(names, cons)
        assert got.is_feasible == want
        feasible_seen += want
        infeasible_seen += not want
    assert feasible_seen > 40 and infeasible_seen > 15


def test_witnesses_in_lowest_terms():
    s = system(
        [({"x": 2, "y": 4}, "=", 1), ({"x": 1, "y": -1}, "=", 0)]
    )
    r = simplex_feasible(s)
    for value in r.witness.values():
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator > 0


def roundtrip(s: ConstraintSystem) -> ConstraintSystem:
    buf = io.StringIO()
    emit_lp(s, buf)
    return parse_lp(buf.getvalue())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_roundtrip_random_systems(data):
    rationals = st.fractions(
        min_value=-20, max_value=20, max_denominator=12
    )
    nvars = data.draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(nvars)]
    s = ConstraintSystem(name="fuzz", variables=list(names))
    if data.draw(st.booleans()):
        s.objective = {
            v: data.draw(rationals) for v in names if data.draw(st.booleans())
        } or None
    for k in range(data.draw(st.integers(0, 6))):
        coeffs = {v: data.draw(rationals) for v in names if data.draw(st.booleans())}
        rel = data.draw(st.sampled_from(["<=", ">=", "="]))
        s.add_constraint(f"c{k}", coeffs, rel, data.draw(rationals))
    assert roundtrip(s) == s


def test_emit_deterministic_golden():
    s = system(
        [({"x": Fraction(1, 2), "y": -1}, "=", 0), ({"x": 1}, ">=", -8)],
        objective={"x": Fraction(2), "y": Fraction(-1, 2)},
        name="golden",
    )
    buf = io.StringIO()
    emit_lp(s, buf)
    assert buf.getvalue() == (
        "\\ constraint-system: golden\n"
        "\\ variables: 2  constraints: 2\n"
        "Minimize\n"
        "\\ exact obj: 2 x - 1/2 y\n"
        " obj: 2 x - 0.5 y\n"
        "Subject To\n"
        "\\ exact c0: 1/2 x - y = 0\n"
        " c0: 0.5 x - y = 0\n"
        " c1: x >= -8\n"
        "Bounds\n"
        " x free\n"
        " y free\n"
        "End\n"
    )
    buf2 = io.StringIO()
    emit_lp(s, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_roundtrip_simple():
    s = system([({"x": 1, "y": 3}, "<=", 7)], objective={"x": Fraction(1)})
    assert roundtrip(s) == s


def test_roundtrip_non_decimal_coefficients():
    s = system(
        [
            ({"x": Fraction(1, 3), "y": Fraction(2, 3)}, "<=", Fraction(1, 3)),
            ({"x": Fraction(1, 7)}, "=", Fraction(22, 7)),
            ({"y": 1}, ">=", 0),
        ],
        objective={"x": Fraction(1, 6)},
    )
    back = roundtrip(s)
    assert back == s


def test_roundtrip_empty_constraint():
    s = ConstraintSystem(name="empty-row", variables=["x"])
    s.add_constraint("zero", {}, "=", 0)
    back = roundtrip(s)
    assert back == s


def test_roundtrip_preserves_order_and_names():
    s = ConstraintSystem(name="ordered", variables=["b", "a"])
    s.add_constraint("second", {"a": 1}, "<=", 4)
    s.add_constraint("first", {"b": Fraction(5, 2), "a": -2}, ">=", 1)
    back = roundtrip(s)
    assert back.variables == ["b", "a"]
    assert [c.name for c in back.constraints] == ["second", "first"]
    assert back == s


def test_parse_rejects_maximize():
    with pytest.raises(ValueError):
        parse_lp("Maximize\n obj: x\nSubject To\n c: x <= 1\nBounds\n x free\nEnd\n")


def test_constraint_validation():
    s = ConstraintSystem(name="v", variables=["x"])
    with pytest.raises(ValueError):
        s.add_constraint("bad", {"zz": 1}, "<=", 0)
    with pytest.raises(ValueError):
        Constraint("r", {"x": Fraction(1)}, "<>", Fraction(0))


# -- pinned LP answers and bytes ----------------------------------------------
#
# The digests and the pivot count below were recorded with the dense tableau
# and dense LP writer that the per-nonzero code replaced; the same arithmetic,
# the same Bland's-rule pivots and the same emitted text must reproduce them.

FLOW_PRIMAL_DIGEST = "d0714296a3bf102e03ff3a59ff4906d298f9ce853bd4b58a7e4675bfce1694c0"
DUAL_DIGEST = "c2c5776fbb4cc2759be3aed60cec7f3dd800a41924b9812973348705a6d8215a"
CORPUS_PIVOTS = 2647
EMIT_DIGEST = "4d851533548c1ee7b7fdda54a95eda39c275e25846f48bd12bf0739bbfcfd5e3"


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _result_key(r):
    witness = None if r.witness is None else sorted(r.witness.items())
    return r.status, r.objective, witness


@lru_cache(maxsize=1)
def _pinned_corpus_run():
    """Solve the flow primals of 36 seeded cost graphs (n = 3..6) and check
    the dual of every family member of 10 seeded instances (n = 3..7) at an
    egalitarian and a random allocation; count `_Tableau._pivot` calls."""
    pivots = 0
    pivot = linsys._Tableau._pivot

    def counted(self, *args):
        nonlocal pivots
        pivots += 1
        return pivot(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linsys._Tableau, "_pivot", counted)
        primal = []
        for i in range(36):
            g = random_cost_graph(random.Random(8100 + i), 3 + i % 4, density=0.5, cmax=6)
            primal.append(_result_key(simplex_solve(extform.build_flow_primal(g))))
        dual = []
        for i in range(10):
            inst = random_instance(seed=8300 + i, n=3 + i % 5, density=Fraction(1, 2), wmax=8)
            nu_n = matching.b_matching_value(inst)
            rng = random.Random(8400 + i)
            for p in (
                Allocation(tuple(Fraction(nu_n, inst.n) for _ in range(inst.n))),
                random_allocation(rng, inst),
            ):
                for g in extform.enumerate_family(inst, p).members:
                    dual.append(_result_key(simplex_feasible(extform.build_dual_system(g))))
    return primal, dual, pivots


def test_flow_primal_results_pinned():
    primal, _, _ = _pinned_corpus_run()
    statuses = {status for status, _, _ in primal}
    assert statuses == {"optimal", "unbounded", "feasible"}
    assert _digest(primal) == FLOW_PRIMAL_DIGEST


def test_dual_results_pinned():
    _, dual, _ = _pinned_corpus_run()
    assert {status for status, _, _ in dual} == {"feasible", "infeasible"}
    assert _digest(dual) == DUAL_DIGEST


def test_pivot_count_pinned():
    _, _, pivots = _pinned_corpus_run()
    assert pivots == CORPUS_PIVOTS


def _hand_built_systems():
    """Systems whose rows list variables out of declaration order, carry zero
    coefficients or undeclared variables, have no finite decimal expansion,
    or have a fractional objective."""
    shuffled = ConstraintSystem(name="shuffled", variables=["c", "a", "b"])
    shuffled.add_constraint("r0", {"b": 2, "c": -1, "a": Fraction(1, 4)}, "<=", 3)
    shuffled.add_constraint("r1", {"b": Fraction(-7, 5), "a": 1}, ">=", Fraction(-1, 8))
    shuffled.add_constraint("r2", {"a": -1, "c": 1}, "=", 0)
    shuffled.objective = {"b": Fraction(1, 4), "c": Fraction(-5, 2), "a": 3}

    zeros = ConstraintSystem(name="zeros", variables=["x", "y", "z"])
    row = zeros.add_constraint("r0", {"z": 1, "x": 2}, "<=", 1)
    row.coeffs["y"] = Fraction(0)  # a zero written in after construction
    zeros.add_constraint("r1", {"y": 0, "x": 0}, "=", 0)
    zeros.objective = {"z": Fraction(0), "y": Fraction(1)}

    thirds = ConstraintSystem(name="thirds", variables=["u", "v"])
    thirds.add_constraint("r0", {"v": Fraction(1, 3), "u": 1}, "<=", Fraction(2, 3))
    thirds.add_constraint("r1", {"v": 1, "u": Fraction(1, 2)}, ">=", Fraction(1, 7))
    thirds.add_constraint("r2", {"u": Fraction(3, 2)}, "=", Fraction(5, 4))
    thirds.objective = {"v": Fraction(1, 3), "u": Fraction(1, 2)}

    undeclared = ConstraintSystem(
        name="undeclared",
        variables=["q", "p"],
        constraints=[Constraint("r0", {"zz": 1, "p": -1, "q": 2}, "<=", 1)],
    )
    return [shuffled, zeros, thirds, undeclared, ConstraintSystem(name="empty")]


def _emit_corpus():
    systems = _hand_built_systems()
    for i in range(8):
        inst = random_instance(seed=8500 + i, n=3 + i % 4, density=Fraction(1, 2), wmax=9)
        systems.append(extform.build_extended_formulation(inst))
    return systems


def test_emit_lp_bytes_pinned():
    texts = []
    for s in _emit_corpus():
        buf = io.StringIO()
        emit_lp(s, buf)
        texts.append(buf.getvalue())
    assert "\\X obj:" in texts[2] and "\\ exact obj:" in texts[0]
    assert _digest(texts) == EMIT_DIGEST


# -- witness re-verification semantics ----------------------------------------


def test_check_point_semantics():
    s = ConstraintSystem(name="sem", variables=["x", "y"])
    s.add_constraint("cap", {"x": 1}, "<=", Fraction(1, 10))
    s.add_constraint("low", {"x": 1, "y": 1}, ">=", 0)
    # a missing variable reads as 0
    assert s.check_point({})
    assert s.check_point({"x": Fraction(1, 20)})
    assert not s.check_point({"y": -1})
    # an undeclared extra key is ignored
    assert s.check_point({"x": 0, "y": 0, "zz": 10**9})
    # a float is coerced exactly: 0.1 as a float is just above 1/10
    assert not s.check_point({"x": 0.1})
    assert s.check_point({"x": Fraction(1, 10)})
    assert s.check_point({"x": 0.0625, "y": 1})


def test_holds_reads_missing_as_zero_and_floats_exactly():
    row = Constraint("cap", {"x": Fraction(1), "y": Fraction(-2)}, "<=", Fraction(1, 10))
    assert row.holds({})
    assert row.holds({"y": 3})
    assert not row.holds({"x": 0.1})
    assert row.holds({"x": Fraction(1, 10)})
    eq = Constraint("eq", {"x": Fraction(3)}, "=", Fraction(3, 10))
    assert eq.holds({"x": Fraction(1, 10)}) and not eq.holds({"x": 0.1})


def test_constraint_keeps_fractions_and_converts_the_rest():
    half = Fraction(1, 2)
    con = Constraint("r", {"x": half, "y": 2, "z": 0, "w": Fraction(0)}, "<=", 3)
    assert con.coeffs == {"x": half, "y": Fraction(2)}
    assert con.coeffs["x"] is half
    assert all(type(c) is Fraction for c in con.coeffs.values())
    assert type(con.rhs) is Fraction and con.rhs == 3
    s = ConstraintSystem(name="k", variables=["x"])
    rhs = Fraction(7, 3)
    added = s.add_constraint("r", {"x": half}, ">=", rhs)
    assert added.coeffs["x"] is half and added.rhs is rhs


# -- objectives over undeclared variables ---------------------------------------


def test_undeclared_objective_variable_rejected():
    s = ConstraintSystem(variables=["x"], objective={"z": 1})
    with pytest.raises(ValueError, match=r"objective uses undeclared \['z'\]"):
        emit_lp(s, io.StringIO())
    with pytest.raises(ValueError, match=r"objective uses undeclared \['z'\]"):
        simplex_solve(s)
    s.add_constraint("c", {"x": 1}, ">=", 0)
    s.objective = {"x": 1, "z": Fraction(1, 2)}
    with pytest.raises(ValueError, match="undeclared"):
        simplex_solve(s)
    with pytest.raises(ValueError, match="undeclared"):
        emit_lp(s, io.StringIO())


def test_zero_objective_term_over_undeclared_variable_is_harmless():
    # a zero term adds nothing, as a zero constraint coefficient is dropped
    s = ConstraintSystem(variables=["x"], objective={"x": 1, "z": 0})
    s.add_constraint("c", {"x": 1}, ">=", 2)
    r = simplex_solve(s)
    assert r.status == "optimal" and r.objective == 2
    assert roundtrip(s) == s
