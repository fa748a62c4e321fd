import gc
import hashlib
import io
import itertools
import math
import pathlib
import random
import re
import tracemalloc
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
from corematch.model import (
    Allocation,
    Edge,
    Instance,
    InvariantError,
    parse_allocation,
    parse_instance,
    random_instance,
)

from conftest import random_allocation, random_cost_graph

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


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


def test_ratio_test_is_exact_on_large_ints():
    # as floats both ratios read 2**53, and the tie would pick the first row
    big = 2**53
    s = system(
        [({"x": 1}, ">=", 0), ({"x": 1}, "<=", big + 1), ({"x": 1}, "<=", big)],
        objective={"x": -1},
    )
    r = simplex_solve(s)
    assert r.status == "optimal" and r.objective == -big and r.witness == {"x": big}


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
    assert back.variables == ("b", "a")
    assert [c.name for c in back.constraints] == ["second", "first"]
    assert back == s


def test_roundtrip_extension_row_named_obj():
    # a "\X obj: ..." row under Subject To is a constraint, not the objective
    row = Constraint("obj", {"x": Fraction(1, 3)}, "<=", 1)
    s = ConstraintSystem(name="test", variables=["x"], constraints=[row],
                         objective={"x": Fraction(1)})
    assert roundtrip(s) == s


@pytest.mark.parametrize(
    "variables, row, bad",
    [
        (["x-1"], "c", "variable name 'x-1'"),
        (["x y"], "c", "variable name 'x y'"),
        (["3x"], "c", "variable name '3x'"),
        (["x", "é"], "c", "variable name 'é'"),
        (["x"], "a:b", "constraint name 'a:b'"),
        (["x"], "", "constraint name ''"),
        (["x-1"], "a:b", "variable name 'x-1'"),
        (["x", "y\nz"], "c", "variable name 'y\\nz'"),
        (["x"], "c\nd", "constraint name 'c\\nd'"),
    ],
    ids=["minus", "space", "digit-first", "non-ascii", "colon", "empty", "variables-first",
         "variable-line-break", "row-line-break"],
)
def test_emit_rejects_unreadable_names(variables, row, bad):
    # each of these used to be written and then fail to parse back
    s = ConstraintSystem(variables=variables)
    s.add_constraint(row, {variables[0]: 1}, "<=", 1)
    with pytest.raises(ValueError, match=re.escape(bad)):
        emit_lp(s, io.StringIO())


@pytest.mark.parametrize(
    "name",
    ["a\nb", "a\r\nb", "a\rb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b",
     "a\u2029b", "x\n", " x", "x ", "\tx"],
)
def test_system_names_that_cannot_read_back_are_rejected(name):
    # a line break splits the header line, and the reader strips the name
    s = ConstraintSystem(name=name, variables=["x"])
    with pytest.raises(ValueError, match=re.escape(f"system name {name!r}")):
        emit_lp(s, io.StringIO())


def test_system_names_read_back():
    for name in ("", "a b", "core-extform(x)", "x: y", "\\X tab\there"):
        s = ConstraintSystem(name=name, variables=["x"])
        s.add_constraint("c", {"x": 1}, "<=", 1)
        assert roundtrip(s) == s


def test_emit_accepts_grammar_names():
    s = ConstraintSystem(variables=["_", "x_e0_1_2", "Z9"])
    s.add_constraint("r_0", {"_": 1, "Z9": -1}, "=", 0)
    assert roundtrip(s) == s


def test_parse_rejects_maximize():
    with pytest.raises(ValueError):
        parse_lp("Maximize\n obj: x\nSubject To\n c: x <= 1\nBounds\n x free\nEnd\n")


_HEAD = "\\ constraint-system: bad\nMinimize\n obj: x\nSubject To\n"
_TAIL = "Bounds\n x free\n y free\nEnd\n"

# case -> (LP text, the line the error names); each is one defect in text
# that parse_lp reads once the defect is mended
MALFORMED_LP = {
    "line before Minimize": ("junk: x <= 1\n" + _HEAD + _TAIL, 1),
    "lower-case section": (_HEAD.replace("Minimize", "minimize") + _TAIL, 2),
    "line after End": (_HEAD + _TAIL + " c: x <= 1\n", 9),
    "comment after End, then a row": (_HEAD + _TAIL + "\\ note\n c: x <= 1\n", 10),
    "section out of order": ("Subject To\n c: x <= 1\nMinimize\n obj: x\n" + _TAIL, 1),
    "Bounds before Subject To": (_HEAD.replace("Subject To", "Bounds") + _TAIL, 4),
    "section twice": (_HEAD + "Subject To\n" + _TAIL, 5),
    "missing End": (_HEAD + _TAIL.replace("End\n", ""), 8),
    "Maximize": (_HEAD.replace("Minimize", "Maximize") + _TAIL, 2),
    "two adjacent names": (_HEAD + " c1: x y <= 3\n" + _TAIL, 5),
    "number after a name": (_HEAD + " c1: x 2 y <= 3\n" + _TAIL, 5),
    "sign with no name": (_HEAD + " c1: x + <= 1\n" + _TAIL, 5),
    "number with no name": (_HEAD + " c1: x + 2 <= 1\n" + _TAIL, 5),
    "two numbers": (_HEAD + " c1: 2 3 x <= 1\n" + _TAIL, 5),
    "number glued to a name": (_HEAD + " c1: 2x <= 1\n" + _TAIL, 5),
    "no terms": (_HEAD + " c1: <= 1\n" + _TAIL, 5),
    "name twice in a row": (_HEAD + " c1: x + x <= 2\n" + _TAIL, 5),
    "name twice in the objective": (_HEAD.replace("obj: x", "obj: x - x") + _TAIL, 3),
    "row name outside the grammar": (_HEAD + " 3bad: x <= 1\n" + _TAIL, 5),
    "variable outside the grammar": (_HEAD + " c1: x - é <= 1\n" + _TAIL, 5),
    "bound outside the grammar": (_HEAD + _TAIL.replace(" y free", " x-1 free"), 7),
    "bound that is not free": (_HEAD + _TAIL.replace(" y free", " y >= 0"), 7),
    "row without a relation": (_HEAD + " c1: x + y\n" + _TAIL, 5),
    "objective with a relation": (_HEAD.replace("obj: x", "obj: x <= 1") + _TAIL, 3),
    "second objective": (_HEAD.replace("Subject To", " obj2: y\nSubject To") + _TAIL, 4),
    "second exact objective": (_HEAD.replace(" obj: x", "\\X obj: x\n\\X obj: y") + _TAIL, 4),
    "exact row under Bounds": (_HEAD + "Bounds\n\\X c: 1/3 x <= 1\n x free\nEnd\n", 6),
    "zero denominator": (_HEAD + " c1: x <= 1/0\n" + _TAIL, 5),
    "rhs with no number": (_HEAD + " c1: x <=\n" + _TAIL, 5),
}


@pytest.mark.parametrize("text, line", MALFORMED_LP.values(), ids=MALFORMED_LP)
def test_parse_rejects_malformed_lp(text, line):
    with pytest.raises(ValueError, match=rf"^line {line}: "):
        parse_lp(text)


def test_parse_reads_the_grammar():
    # blank lines, comments, CRLF and spacing around signs are read; a
    # "\X" row replaces the objective written after it
    assert parse_lp(_HEAD + _TAIL).variables == ("x", "y")
    text = (
        _HEAD.replace(" obj: x", "\\X obj: 1/3 x\n obj: 0")
        + "\n c1: -2 x+y <= -1/2\n\\ a comment\n c2: 0 = 0\n"
        + _TAIL + "\\ after End\n"
    )
    for lines in (text, text.replace("\n", "\r\n")):
        s = parse_lp(lines)
        assert s.name == "bad" and s.variables == ("x", "y")
        assert s.objective == {"x": Fraction(1, 3)}
        assert s.constraints == [
            Constraint("c1", {"x": -2, "y": 1}, "<=", Fraction(-1, 2)),
            Constraint("c2", {}, "=", 0),
        ]
    assert parse_lp(text.replace("\\X obj: 1/3 x\n", "")).objective is None


def test_parse_rejects_undeclared_names():
    with pytest.raises(ValueError, match=r"constraint c1 uses undeclared \['z'\]"):
        parse_lp(_HEAD + " c1: x - z <= 1\n" + _TAIL)
    with pytest.raises(ValueError, match=r"objective uses undeclared \['z'\]"):
        parse_lp(_HEAD.replace("obj: x", "obj: z") + _TAIL)


def test_constructor_rows_over_undeclared_variables_rejected():
    # such a row used to build: simplex_feasible then raised KeyError and
    # emit_lp dropped the term, so the system did not round-trip
    row = Constraint("r0", {"zz": 1, "p": -1}, "<=", 1)
    with pytest.raises(ValueError, match=r"constraint r0 uses undeclared \['zz'\]"):
        ConstraintSystem(variables=["q", "p"], constraints=[row])
    s = ConstraintSystem(variables=["q", "p"], constraints=[Constraint("r0", {"p": -1}, "<=", 1)])
    assert simplex_feasible(s).is_feasible
    assert roundtrip(s) == s


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
EMIT_DIGEST = "a4e78dbc6931cb535770daa383cb775cafa54aa9a4434ddeee371a8278483b9f"


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _result_key(r):
    witness = None if r.witness is None else sorted(r.witness.items())
    return r.status, r.objective, witness


def _dual_corpus():
    """(instance, allocation) pairs: 10 seeded instances (n = 3..7), each at
    an egalitarian and a random allocation."""
    for i in range(10):
        inst = random_instance(seed=8300 + i, n=3 + i % 5, density=Fraction(1, 2), wmax=8)
        nu_n = matching.b_matching_value(inst)
        rng = random.Random(8400 + i)
        yield inst, Allocation(tuple(Fraction(nu_n, inst.n) for _ in range(inst.n)))
        yield inst, random_allocation(rng, inst)


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
        for inst, p in _dual_corpus():
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


SKIPPED_BLOCKS = 40


def _membership_blocks():
    """The membership block of every family member of `_dual_corpus` and of
    each data/ game at each of its allocations."""
    cases = list(_dual_corpus())
    for game in sorted(DATA.glob("*.game")):
        inst = parse_instance(game.read_text())
        cases += [(inst, parse_allocation(a.read_text(), inst))
                  for a in sorted(DATA.glob(game.stem + "*.alloc"))]
    for inst, p in cases:
        for g in extform.enumerate_family(inst, p).members:
            yield extform._membership_lp(g)


def test_slack_basis_skip_pinned(monkeypatch):
    # the tableau is skipped exactly where it would hold no artificial, and
    # the skip answers as the tableau does
    blocks = skipped = 0
    for lp in _membership_blocks():
        tab = linsys._Tableau(lp)
        skip = linsys._slack_point(lp) is not None
        assert skip == (tab.first_art == tab.total)
        got = simplex_feasible(lp)
        with monkeypatch.context() as mp:
            mp.setattr(linsys, "_slack_point", lambda lp: None)
            forced = simplex_feasible(lp)
        assert (got.status, got.witness) == (forced.status, forced.witness)
        blocks += 1
        skipped += skip
    assert blocks > skipped == SKIPPED_BLOCKS


def test_phase2_eliminates_no_artificial_column(monkeypatch):
    # after phase 1 no artificial is basic or may re-enter, so phase 2 works
    # without their columns (the pivots are pinned above)
    current = None
    steps = []
    phase2, eliminate = linsys._Tableau.phase2, linsys._eliminate

    def tracked(self):
        nonlocal current
        current = self
        try:
            return phase2(self)
        finally:
            current = None

    def counted(row, den, prow, pden, c):
        if current is not None:
            steps.append(any(current.first_art <= j < current.total for j in prow))
        return eliminate(row, den, prow, pden, c)

    monkeypatch.setattr(linsys._Tableau, "phase2", tracked)
    monkeypatch.setattr(linsys, "_eliminate", counted)
    for i in range(12):
        g = random_cost_graph(random.Random(8100 + i), 3 + i % 4, density=0.5, cmax=6)
        simplex_solve(extform.build_flow_primal(g))
    assert len(steps) > 100 and not any(steps)


SETUP_DIGEST = "3ff475170b73cb9b43d265d6cbea4ebcfa73a745dd45b782848c8117e9716fe8"


def _setup_corpus():
    """240 seeded systems over 1..5 variables that mix "<=", "=" and ">="
    rows, negative and fractional right-hand sides, free variables, sign rows
    in both presolved forms (x >= 0 and -2 x <= 0), one-variable boxes,
    redundant scaled copies of equality rows (phase 1 drops them) and, for
    most systems, an objective."""
    systems = []
    for i in range(240):
        rng = random.Random(9100 + i)
        names = [f"x{k}" for k in range(rng.randint(1, 5))]
        s = ConstraintSystem(name=f"setup{i}", variables=list(names))
        for v in names:
            r = rng.random()
            if r < 0.25:
                s.add_constraint(f"{v}_sign", {v: 1}, ">=", 0)
            elif r < 0.4:
                s.add_constraint(f"{v}_sign", {v: -2}, "<=", 0)
            elif r < 0.55:
                s.add_constraint(f"{v}_box", {v: 1}, "<=", rng.randint(-2, 6))
        for k in range(rng.randint(1, 5)):
            coeffs = {
                v: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                for v in names
                if rng.random() < 0.7
            }
            rel = rng.choice(("<=", "=", ">="))
            rhs = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 3)))
            s.add_constraint(f"c{k}", coeffs, rel, rhs)
            if rel == "=" and rng.random() < 0.5:
                f = rng.choice((-2, 3, Fraction(1, 2)))
                s.add_constraint(
                    f"c{k}_copy", {v: f * c for v, c in coeffs.items()}, "=", f * rhs
                )
        if rng.random() < 0.6:
            s.objective = {
                v: Fraction(rng.randint(-3, 3)) for v in names if rng.random() < 0.6
            } or None
        systems.append(s)
    return systems


def test_setup_corpus_results_pinned():
    results = []
    for s in _setup_corpus():
        results.append(_result_key(simplex_solve(s)))
        results.append(_result_key(simplex_feasible(s)))
    assert {r[0] for r in results} == {"optimal", "feasible", "infeasible", "unbounded"}
    assert _digest(results) == SETUP_DIGEST


def test_equal_systems_solve_alike():
    # parse_lp(emit_lp(s)) == s, so both must solve alike; an objective whose
    # every term is zero compares equal to no objective, and solves as none
    zero_objective = {}
    for s in _setup_corpus() + _scaled_corpus():
        back = roundtrip(s)
        result = simplex_solve(s)
        assert back == s and _result_key(result) == _result_key(simplex_solve(back))
        if s.objective and back.objective is None:
            zero_objective[s.name] = result.status
    assert zero_objective == {
        "setup9": "feasible", "setup61": "feasible", "setup85": "infeasible",
        "setup137": "infeasible", "setup164": "infeasible", "setup172": "feasible",
        "setup181": "infeasible", "setup202": "feasible"}


SCALED_DIGEST = "9d8d8c28c33351a9ce17e580302836b35c0d8aff68859f84fa0f44b1cc852786"
SCALED_PIVOTS = 1223
_SCALED = (2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3))


def _scaled_corpus():
    """200 seeded systems over 2..5 variables whose coefficients all come from
    {±2, ±3, ±1/2, ±2/3}, so that most pivot elements are not ±1: sign rows
    with a scaled coefficient, mixed relations, fractional right-hand sides
    and, for most systems, a scaled objective."""
    systems = []
    for i in range(200):
        rng = random.Random(9700 + i)
        names = [f"x{k}" for k in range(rng.randint(2, 5))]
        s = ConstraintSystem(name=f"scaled{i}", variables=list(names))
        for v in names:
            if rng.random() < 0.4:
                s.add_constraint(f"{v}_sign", {v: rng.choice(_SCALED[::2])}, ">=", 0)
        for k in range(rng.randint(2, 6)):
            coeffs = {v: rng.choice(_SCALED) for v in names if rng.random() < 0.7}
            rel = rng.choice(("<=", "=", ">="))
            rhs = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            s.add_constraint(f"c{k}", coeffs, rel, rhs)
        if rng.random() < 0.7:
            s.objective = {v: rng.choice(_SCALED) for v in names if rng.random() < 0.7} or None
        systems.append(s)
    return systems


def test_scaled_pivots_pinned(monkeypatch):
    # pins the pivots whose element is not +-1, which the flow and dual
    # corpora above rarely take
    elements = []
    pivot = linsys._Tableau._pivot

    def recorded(self, r, c):
        elements.append(Fraction(self.rows[r][c], self.dens[r]))
        return pivot(self, r, c)

    monkeypatch.setattr(linsys._Tableau, "_pivot", recorded)
    results = []
    for s in _scaled_corpus():
        results.append(_result_key(simplex_solve(s)))
        results.append(_result_key(simplex_feasible(s)))
    assert {r[0] for r in results} == {"optimal", "feasible", "infeasible", "unbounded"}
    assert sum(abs(x) != 1 for x in elements) > len(elements) // 2
    assert len(elements) == SCALED_PIVOTS
    assert _digest(results) == SCALED_DIGEST


# (seed, n) of `random_instance(seed, n, 1/2, 6)` -> (status, pivots) of its
# extended formulation under phase 1; seed 9721's core is empty
LARGE_FORMULATIONS = {
    (9734, 6): ("feasible", 164),
    (9721, 6): ("infeasible", 312),
    (9741, 7): ("feasible", 149),
}
LARGE_DIGEST = "c310ddaca2a24289b717dcd8eac2a6feeaa458516ab9104b1bd0a73e91874d92"


def test_large_formulations_pinned(monkeypatch):
    # 500-800 rows and 150-300 pivots per tableau, far past the corpora
    # above; a formulation's column order comes from dict iteration
    pivots = 0
    pivot = linsys._Tableau._pivot

    def counted(self, *args):
        nonlocal pivots
        pivots += 1
        return pivot(self, *args)

    monkeypatch.setattr(linsys._Tableau, "_pivot", counted)
    got, results = {}, []
    for seed, n in LARGE_FORMULATIONS:
        pivots = 0
        inst = random_instance(seed=seed, n=n, density=Fraction(1, 2), wmax=6)
        result = simplex_feasible(extform.build_extended_formulation(inst))
        got[seed, n] = result.status, pivots
        results.append(_result_key(result))
    assert got == LARGE_FORMULATIONS
    assert _digest(results) == LARGE_DIGEST


def test_rows_stay_int_and_in_lowest_terms(monkeypatch):
    # after every pivot, each row and the cost row is nonzero ints over a
    # positive int denominator coprime to them, and each row's basic entry
    # equals its denominator
    pivots = 0
    pivot = linsys._Tableau._pivot

    def checked(self, r, c):
        nonlocal pivots
        pivot(self, r, c)
        pivots += 1
        for row, den in [*zip(self.rows, self.dens), (self.cost, self.cost_den)]:
            assert type(den) is int and den > 0 and math.gcd(den, *row.values()) == 1
            assert all(type(x) is int and x for x in row.values())
        assert all(row[b] == den for row, den, b in zip(self.rows, self.dens, self.basis))

    monkeypatch.setattr(linsys._Tableau, "_pivot", checked)
    for s in _scaled_corpus():
        simplex_solve(s)
        simplex_feasible(s)
    for i in range(36):
        g = random_cost_graph(random.Random(8100 + i), 3 + i % 4, density=0.5, cmax=6)
        simplex_solve(extform.build_flow_primal(g))
    assert pivots > SCALED_PIVOTS


def test_results_are_fractions():
    systems = _setup_corpus()[:80] + _scaled_corpus()[:80]
    for i in range(8):
        g = random_cost_graph(random.Random(8100 + i), 3 + i % 4, density=0.5, cmax=6)
        systems += [extform.build_flow_primal(g), extform.build_dual_system(g)]
    values = []
    for s in systems:
        for r in (simplex_solve(s), simplex_feasible(s)):
            values += (r.witness or {}).values()
            if r.objective is not None:
                values.append(r.objective)
    assert len(values) > 1000 and 0 in values and 1 in values
    assert {type(x) for x in values} == {Fraction}


def _hand_built_systems():
    """Systems whose rows list variables out of declaration order, are
    written with zero coefficients, have no finite decimal expansion, or have a fractional
    objective."""
    shuffled = ConstraintSystem(name="shuffled", variables=["c", "a", "b"])
    shuffled.add_constraint("r0", {"b": 2, "c": -1, "a": Fraction(1, 4)}, "<=", 3)
    shuffled.add_constraint("r1", {"b": Fraction(-7, 5), "a": 1}, ">=", Fraction(-1, 8))
    shuffled.add_constraint("r2", {"a": -1, "c": 1}, "=", 0)
    shuffled.objective = {"b": Fraction(1, 4), "c": Fraction(-5, 2), "a": 3}

    zeros = ConstraintSystem(name="zeros", variables=["x", "y", "z"])
    zeros.add_constraint("r0", {"z": 1, "x": 2, "y": Fraction(0)}, "<=", 1)
    zeros.add_constraint("r1", {"y": 0, "x": 0}, "=", 0)
    zeros.objective = {"z": Fraction(0), "y": Fraction(1)}

    thirds = ConstraintSystem(name="thirds", variables=["u", "v"])
    thirds.add_constraint("r0", {"v": Fraction(1, 3), "u": 1}, "<=", Fraction(2, 3))
    thirds.add_constraint("r1", {"v": 1, "u": Fraction(1, 2)}, ">=", Fraction(1, 7))
    thirds.add_constraint("r2", {"u": Fraction(3, 2)}, "=", Fraction(5, 4))
    thirds.objective = {"v": Fraction(1, 3), "u": Fraction(1, 2)}
    return [shuffled, zeros, thirds, ConstraintSystem(name="empty")]


def _emit_corpus():
    systems = _hand_built_systems()
    for i in range(8):
        inst = random_instance(seed=8500 + i, n=3 + i % 4, density=Fraction(1, 2), wmax=9)
        systems.append(extform.build_extended_formulation(inst))
    return systems


BLOCKS_EMIT_DIGEST = "4cfe52ebc65f756f085b754014d1a99c3527dd2dd141f335b1ee083551d7fb82"


def test_flow_and_dual_lp_text_pinned():
    # the variable and row order of both building blocks, on the cost graphs
    # of the pinned corpus
    texts = []
    for i in range(36):
        g = random_cost_graph(random.Random(8100 + i), 3 + i % 4, density=0.5, cmax=6)
        dual = ConstraintSystem(name="flow-dual")
        extform._add_dual_block(dual, g, "g1_", False)
        for s in (extform.build_flow_primal(g), dual):
            buf = io.StringIO()
            emit_lp(s, buf)
            texts.append(buf.getvalue())
    assert _digest(texts) == BLOCKS_EMIT_DIGEST


FORMULATION_DIGEST = "d2fdbde5919fac3011daff60d99db58d3472adbcb93e187e23687d80ef26be64"


def _build_shape_instances():
    """Games of the benchmark's formulation builds: n = 5 with 6 edges and
    n = 6 with 7 edges, each with two capacity-1 vertices and weights 0..10,
    six of each shape; then one n = 7 game (858 rows)."""
    for i in range(12):
        rng = random.Random(9950 + i)
        n, m = (5, 6) if i % 2 == 0 else (6, 7)
        pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))
        b = [1, 1] + [2] * (n - 2)
        rng.shuffle(b)
        edges = tuple(Edge(u, v, Fraction(rng.randint(0, 10))) for u, v in pairs)
        yield Instance(n=n, b=tuple(b), edges=edges, name=f"shape{i}")
    yield random_instance(seed=9909, n=7, density=Fraction(1, 2), wmax=9)


def test_formulation_bytes_pinned_at_benchmark_shapes():
    # the bytes and the shape of the formulations the benchmark builds, and
    # of one at n = 7, past the reach of the other emit digests
    items = []
    for inst in _build_shape_instances():
        s = extform.build_extended_formulation(inst)
        items.append((len(s.variables), len(s.constraints), _emitted(s)))
    assert items[-1][1] == 858
    assert _digest(items) == FORMULATION_DIGEST


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


def test_witness_breaking_only_a_sign_column_is_caught(monkeypatch):
    # x >= 0 is presolved into a sign column, so no row of the lowered
    # system reads x; the re-verification still checks its sign (the "="
    # row needs an artificial, so the solve reaches the tableau)
    s = ConstraintSystem(name="sign", variables=["x", "y"])
    s.add_constraint("nn_x", {"x": 1}, ">=", 0)
    s.add_constraint("c", {"y": 1}, "=", 1)
    lp = linsys._lower(s)
    assert (lp.sign, [(list(c), v, rel, rhs) for c, v, rel, rhs in lp.rows]) == (
        {0}, [([1], [1], "=", 1)])
    assert simplex_feasible(s).witness == {"x": 0, "y": 1}
    monkeypatch.setattr(linsys._Tableau, "witness", lambda self: {0: -1, 1: 1})
    with pytest.raises(InvariantError, match="simplex witness failed re-verification"):
        simplex_feasible(s)


def test_holds_reads_missing_as_zero_and_floats_exactly():
    row = Constraint("cap", {"x": Fraction(1), "y": Fraction(-2)}, "<=", Fraction(1, 10))
    assert row.holds({})
    assert row.holds({"y": 3})
    assert not row.holds({"x": 0.1})
    assert row.holds({"x": Fraction(1, 10)})
    eq = Constraint("eq", {"x": Fraction(3)}, "=", Fraction(3, 10))
    assert eq.holds({"x": Fraction(1, 10)}) and not eq.holds({"x": 0.1})


def test_constraint_keeps_fractions_and_converts_the_rest():
    # every value is stored as an int when it is integral and a Fraction when
    # it is not; a float or a string converts exactly, a non-integral Fraction
    # is kept as it is, and a zero is dropped after conversion
    half = Fraction(1, 2)
    coeffs = {"x": half, "y": 2, "t": Fraction(6, 3), "f": 0.1, "h": -1.5, "q": "-3/1",
              "z": 0, "w": Fraction(0), "s": "0", "g": 0.0}
    con = Constraint("r", coeffs, "<=", Fraction(3))
    assert con.coeffs == {"x": half, "y": 2, "t": 2, "f": Fraction(0.1), "h": Fraction(-3, 2),
                          "q": -3}
    assert con.coeffs["f"] == Fraction(3602879701896397, 36028797018963968)
    assert con.coeffs["x"] is half
    assert [type(c) for c in con.coeffs.values()] == [Fraction, int, int, Fraction, Fraction, int]
    assert type(con.rhs) is int and con.rhs == 3
    for rhs, want in ((0.1, Fraction(0.1)), ("0", 0), (0.0, 0), ("7/2", Fraction(7, 2)),
                      (2.0, 2), (Fraction(-4, 2), -2)):
        row = Constraint("r", {}, "=", rhs)
        assert row.rhs == want and type(row.rhs) is type(want)
    s = ConstraintSystem(name="k", variables=["x"])
    rhs = Fraction(7, 3)
    added = s.add_constraint("r", {"x": half}, ">=", rhs)
    assert added.coeffs["x"] is half and added.rhs is rhs


def test_add_constraint_does_not_alias_the_callers_dict():
    s = ConstraintSystem(name="alias", variables=["x", "y"])
    coeffs = {"x": 1, "y": 0}
    con = s.add_constraint("r", coeffs, "<=", 1)
    assert con.coeffs is not coeffs and con.coeffs == {"x": 1}
    assert coeffs == {"x": 1, "y": 0}  # the zero is dropped from the row only
    coeffs["x"] = 5
    coeffs["y"] = 7
    assert con.coeffs == {"x": 1}


# -- the row store ----------------------------------------------------------------


def test_store_is_read_only():
    s = system([({"x": 1, "y": -1}, "<=", 1)], objective={"x": 1})
    copy = system([({"x": 1, "y": -1}, "<=", 1)], objective={"x": 1})
    con = s.constraints[0]
    with pytest.raises(TypeError):
        s.constraints[0] = Constraint("c0", {"x": 2}, "<=", 1)
    with pytest.raises(TypeError):
        del s.constraints[0]
    with pytest.raises(AttributeError):
        s.constraints.append(con)
    with pytest.raises(AttributeError):
        s.constraints = []
    with pytest.raises(TypeError):
        con.coeffs["y"] = 0
    with pytest.raises(AttributeError):
        con.rhs = 5
    # a row's columns index the variables, so they cannot be reordered
    with pytest.raises(TypeError):
        s.variables[0] = "y"
    with pytest.raises(AttributeError):
        s.variables.reverse()
    added = s.add_constraint("c1", {"x": 1}, ">=", 0)
    with pytest.raises(TypeError):
        added.coeffs["x"] = 3
    assert len(s.constraints) == 2
    copy.add_constraint("c1", {"x": 1}, ">=", 0)
    assert s == copy and _outcome(s) == _outcome(copy)


def test_store_builds_views_only_when_read(monkeypatch):
    inst = random_instance(seed=8503, n=6, density=Fraction(1, 2), wmax=9)
    s = extform.build_extended_formulation(inst)
    built = []
    init = Constraint.__init__

    def counted(self, name, *args):
        built.append(name)
        init(self, name, *args)

    monkeypatch.setattr(Constraint, "__init__", counted)
    assert len(s.constraints) == extform.size_report(inst).total_constraints == 892
    _emitted(s)
    assert built == []
    last = s.constraints[-1]
    assert built == [last.name] and last.name.startswith("g14_nn_lam_")
    views = list(s.constraints)
    assert [c.name for c in views[:3]] == ["total", "nn_p_0", "nn_p_1"]
    assert s.constraints == views and views == s.constraints
    assert s.constraints[1] == Constraint("nn_p_0", {"p_0": 1}, ">=", 0)


def _block(*rows) -> tuple[list, ...]:
    """The rows (columns, values, rel, rhs) as one block, the flat lists
    (columns, values, row ends, relations, right-hand sides)."""
    cols, vals, ends, rels, rhs = [], [], [], [], []
    for c, v, rel, b in rows:
        cols += c
        vals += v
        ends.append(len(cols))
        rels.append(rel)
        rhs.append(b)
    return cols, vals, ends, rels, rhs


def test_store_extend_checks_the_columns_of_a_block():
    s = ConstraintSystem(variables=["x", "y"])
    for variables, names, rows in (([], ["r"], [([0, 2], [1, -1], "<=", 0)]),
                                   (["z"], ["r"], [([-1], [1], "<=", 0)]),
                                   ([], ["r", "q"], [([0], [1], "<=", 0)])):
        with pytest.raises(ValueError, match="outside the system"):
            s._extend(variables, names, *_block(*rows))
    assert (s.variables, len(s.constraints)) == (("x", "y"), 0)
    s._extend(["z"], ["r", "e"], *_block(([0, 2], [-1, 1], "<=", 0), ([], [], "=", 0)))
    assert list(s.constraints) == [Constraint("r", {"z": 1, "x": -1}, "<=", 0),
                                   Constraint("e", {}, "=", 0)]
    s.add_constraint("c", {"z": 2}, ">=", 1)
    assert s.constraints[2] == Constraint("c", {"z": 2}, ">=", 1)


@pytest.mark.parametrize("block, message", [
    (([0], [1, 2], [1], ["<="], [0]), "do not match its ends"),
    (([0], [1], [1], ["<=", "<="], [0]), "do not match its ends"),
    (([0], [1], [1], ["<="], []), "do not match its ends"),
    (([0, 1], [1, 1], [1], ["<="], [0]), "do not match its ends"),
    (([0], [1], [-1, 1], ["<=", "<="], [0, 0]), "do not match its ends"),
    (([0, 1], [1, 1], [2, 1], ["<=", "<="], [0, 0]), "do not match its ends"),
    (([0], [1], [1], ["<>"], [0]), "bad relation '<>'"),
], ids=["values", "relations", "rhs", "last-end", "negative-end", "end-goes-back", "relation"])
def test_store_extend_refuses_a_block_of_another_shape(block, message):
    # no builder hands over such a block, so no other test reached these
    store, same = linsys._Store(), linsys._Store()
    for s in (store, same):
        s.extend([0, 1], [1, -1], [2], ["<="], [3])
    with pytest.raises(ValueError, match=re.escape(message)):
        store.extend(*block)
    assert store == same and len(store) == 1


def test_block_run_checks_the_count_of_names_it_formats():
    run = linsys._Run(2, lambda prefix: [f"{prefix}0"], "x")
    with pytest.raises(InvariantError, match="formatted 1 names, not 2"):
        list(run)
    assert list(linsys._Run(1, lambda prefix: [f"{prefix}0"], "x")) == ["x0"]


def test_store_rejects_duplicate_variables():
    with pytest.raises(ValueError, match="duplicate variables"):
        ConstraintSystem(variables=["x", "y", "x"])
    s = ConstraintSystem(variables=["x"])
    # a block's names are the builder's to keep distinct; a repeat is
    # caught when the columns are next read
    s._extend(["x"], [], *_block())
    with pytest.raises(ValueError, match="duplicate variables"):
        s.add_constraint("c", {"x": 1}, "<=", 1)
    with pytest.raises(ValueError, match="duplicate variables"):
        parse_lp(_HEAD + _TAIL.replace(" y free", " x free"))


def test_names_leave_a_formulation_at_most_64_bytes_a_row():
    # the formulation of a 16 561-row game as its builder leaves it, under
    # tracemalloc: the flat store keeps a term as an array int and a list
    # slot, and a dual block's column and row names are two runs that format
    # them when read (formatted when built, they took 128 of 179 bytes a row
    # on Python 3.11; a row as a {column: value} dict took 482)
    inst = random_instance(seed=4, n=10, density=Fraction(1, 2), wmax=10)
    extform.build_extended_formulation(inst)  # fills the instance's caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = extform.build_extended_formulation(inst)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(s.constraints) == 16561
    assert size / len(s.constraints) <= 64


# SHA-256 of "\n".join(variables) and of the joined row names, computed when
# every name was formatted as its own string at build time
NAMES_DIGESTS = {
    "shape0": ("41e562c828177c7823baf6611d268cd8e52909920420469e68362ed436821d9a",
               "753c3071c8c288a2fea17bb9b14c6e038c4c611dae5fc3570a64b26876b39523"),
    "shape1": ("cfe1901e3cd6549b940e840fb692c6e082d7b09c53a67c94a7ef08a037ce57ce",
               "cd94bd301cc6f468cc8f051f69d154103a32fce190733568fb060e7bd241dd02"),
    "n7": ("c9b4a603f8e9f64b61180eb1d577b72515ae2cad8bfd5cedfe6600b1634db52f",
           "1622f3c0f8b28a26fcef70be59f208e093ea603198de52ee0f9755a289db50ba"),
    "flow-primal": ("293d28dcf7ddc5fd311185711ca64cb2308fe547e4e5d47b3ebdc61c9bb84736",
                    "b1c49ef28fb17dfd3733c2aaba90f8888605309c48d95a48182ddcba04d14e2e"),
    "flow-dual": ("27a438cfd483b85e551ae6c3cb8c2bd048d596a7bd9be1e14492dbb980a28dde",
                  "a066af79f10b471ac7cab15fd236f126f64956e6b76f17d5a653530627c792c2"),
}


def test_names_pinned_at_benchmark_shapes():
    # the names of one formulation of each benchmark build shape (n = 5 and
    # n = 6), of the pinned n = 7 one, and of the flow primal and dual system
    # of a 5-edge member of the n = 6 game's family, read in order
    def digests(s):
        return tuple(hashlib.sha256("\n".join(names).encode()).hexdigest()
                     for names in (s.variables, s._names))

    insts = list(_build_shape_instances())
    got = {"shape0": digests(extform.build_extended_formulation(insts[0])),
           "shape1": digests(extform.build_extended_formulation(insts[1])),
           "n7": digests(extform.build_extended_formulation(insts[-1]))}
    g = extform.enumerate_family(insts[1]).members[6]
    assert len(g.edges) == 5
    got["flow-primal"] = digests(extform.build_flow_primal(g))
    got["flow-dual"] = digests(extform.build_dual_system(g))
    assert got == NAMES_DIGESTS


def test_names_behave_as_a_read_only_tuple():
    # variables and row names, made of literal runs (the p columns, the base
    # rows) and block runs (each dual block), read as the tuple of their names
    inst = random_instance(seed=8502, n=5, density=Fraction(1, 2), wmax=9)
    s = extform.build_extended_formulation(inst)
    assert s._cols is None  # the build reads no column map once blocks are in
    for names in (s.variables, s._names):
        assert any(type(run) is linsys._Run for run in names._runs)
        plain = tuple(names)
        assert repr(names) == repr(plain)
        assert names == plain and plain == names and not names != plain
        assert names != plain[:-1] and plain[:-1] != names and names != list(plain)
        assert len(names) == len(plain) and list(reversed(names)) == list(reversed(plain))
        assert names[:3] == plain[:3] and names[-5::-7] == plain[-5::-7]
        assert names[10:len(plain) - 10:3] == plain[10:len(plain) - 10:3]
        order = list(range(-len(plain), len(plain)))
        random.Random(1).shuffle(order)
        assert [names[k] for k in order] == [plain[k] for k in order]
        for k in (0, len(plain) // 2, len(plain) - 1):
            assert plain[k] in names and names.index(plain[k]) == k
        assert "no_such_name" not in names
        with pytest.raises(ValueError):
            names.index("no_such_name")
        with pytest.raises(IndexError):
            names[len(plain)]
        with pytest.raises(TypeError):
            names[0] = "y"
        with pytest.raises(AttributeError):
            names.reverse()
    assert s.variables[:inst.n] == tuple(f"p_{v}" for v in range(inst.n))
    assert s._names[0] == "total" and s._names[-1].startswith("g")
    back = roundtrip(s)
    assert back == s and s == back
    assert back.variables == s.variables and back._names == s._names
    _emitted(s)
    assert s._cols is None  # nor does emit_lp


def test_store_rows_ascend_from_every_builder():
    # `_Store.extend` leaves the column order to its callers, so each
    # builder's rows are checked here: emit_lp writes them as stored
    def ascending(rows):
        return all(all(a < b for a, b in itertools.pairwise(cols)) for cols, _, _, _ in rows)

    for i in range(6):
        inst = random_instance(seed=8600 + i, n=4 + i % 3, density=Fraction(1, 2), wmax=9)
        assert ascending(extform.build_extended_formulation(inst)._rows)
        for g in extform.enumerate_family(inst).members:
            assert ascending(extform.build_flow_primal(g)._rows)
            assert ascending(extform.build_dual_system(g)._rows)
            assert ascending(extform._membership_lp(g).rows)
    s = ConstraintSystem(variables=["x", "y", "z"])
    s.add_constraint("r", {"z": 1, "x": 2, "y": -1}, "<=", 1)
    assert list(s._rows[0][0]) == [0, 1, 2] and s._rows[0][1] == [2, -1, 1]


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


# -- objective values that are not Fractions -------------------------------------


def _emitted(s: ConstraintSystem) -> str:
    buf = io.StringIO()
    emit_lp(s, buf)
    return buf.getvalue()


def test_emit_reads_objective_values_exactly():
    # the simplex converts objective values exactly; the writer does the same
    s = ConstraintSystem(name="obj", variables=["x"], objective={"x": 0.5})
    s.add_constraint("c", {"x": 1}, ">=", 2)
    assert simplex_solve(s).objective == 1
    assert parse_lp(_emitted(s)).objective == {"x": Fraction(1, 2)}
    s.objective = {"x": "1/3"}
    text = _emitted(s)
    assert "\\X obj: 1/3 x\n" in text
    assert parse_lp(text).objective == {"x": Fraction(1, 3)}


def test_objective_zero_is_read_exactly():
    # "0" is a zero as the simplex reads it, so it is no undeclared term
    for zero in ("0", 0.0):
        s = ConstraintSystem(variables=["x"], objective={"x": 1, "z": zero})
        s.add_constraint("c", {"x": 1}, ">=", 2)
        assert simplex_solve(s).objective == 2
        assert roundtrip(s).objective == {"x": 1}


def test_equality_reads_objective_values_exactly():
    # objective values compare as the simplex and the writer read them
    s = ConstraintSystem(variables=["x", "z"], objective={"x": 1, "z": "0"})
    assert roundtrip(s) == s
    half = ConstraintSystem(variables=["x"], objective={"x": "1/2"})
    assert half == ConstraintSystem(variables=["x"], objective={"x": 0.5})
    assert half != ConstraintSystem(variables=["x"], objective={"x": "1/3"})


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "2/0", "1/0"])
def test_values_with_no_exact_rational_raise_value_error(bad):
    # a non-finite float or a zero denominator names the value in a
    # ValueError, wherever a value is read: a row, its rhs, an objective
    # and a point
    name = re.escape(repr(bad))
    with pytest.raises(ValueError, match=name):
        ConstraintSystem("s", ["x"]).add_constraint("c", {"x": bad}, "<=", 1)
    with pytest.raises(ValueError, match=name):
        Constraint("c", {"x": 1}, "<=", bad)
    s = ConstraintSystem("s", ["x"], objective={"x": bad})
    for read in (simplex_solve, _emitted, lambda s: s == ConstraintSystem("s", ["x"]),
                 lambda s: ConstraintSystem("s", ["x"]) == s):
        with pytest.raises(ValueError, match=name):
            read(s)
    with pytest.raises(ValueError, match=name):
        system([({"x": 1}, "<=", 1)]).check_point({"x": bad})


# -- rows over undeclared variables added after construction ---------------------


@pytest.mark.parametrize("objective", [None, {"p": 1}])
def test_simplex_rejects_late_rows_over_undeclared_variables(objective):
    # the store is read-only, so such a row never reaches the simplex or the
    # writer: add_constraint rejects it, as the constructor does, and the
    # system solves and emits as it did before
    s = ConstraintSystem(name="late", variables=["q", "p"], objective=objective)
    s.add_constraint("r0", {"p": 1, "q": 1}, "<=", 4)
    before = _outcome(s)
    with pytest.raises(ValueError, match=r"constraint r1 uses undeclared \['zz'\]"):
        s.add_constraint("r1", {"zz": 1, "p": -1, "q": 2}, "<=", 1)
    # a one-term sign row is not presolved into a bound on a missing column
    with pytest.raises(ValueError, match=r"constraint nn_zz uses undeclared \['zz'\]"):
        s.add_constraint("nn_zz", {"zz": 1}, ">=", 0)
    with pytest.raises(ValueError, match=r"constraint nn_zz uses undeclared \['zz'\]"):
        ConstraintSystem(variables=["q", "p"], constraints=[Constraint("nn_zz", {"zz": 1}, ">=", 0)])
    assert len(s.constraints) == 1 and _outcome(s) == before


def test_late_zero_term_over_undeclared_variable_is_harmless():
    # a zero is dropped before the row's names are checked
    s = ConstraintSystem(name="late", variables=["x"], objective={"x": 1})
    row = s.add_constraint("c", {"x": 1, "zz": Fraction(0)}, ">=", 2)
    assert row.coeffs == {"x": 1} and s.constraints[0] == row
    assert simplex_solve(s).objective == 2


# -- ints and Fractions agree with plain Fraction arithmetic ----------------------

_HUGE = 10**30
_values = st.one_of(
    st.integers(-9, 9),
    st.sampled_from([0, _HUGE, -_HUGE, Fraction(0), Fraction(1), Fraction(-1), Fraction(_HUGE)]),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7])),
    st.builds(lambda k, d: Fraction(k * _HUGE, d), st.integers(-3, 3), st.sampled_from([1, 2, 3, 7])),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def _reference_lhs(con: Constraint, point) -> Fraction:
    return sum(
        (Fraction(c) * Fraction(point[v]) for v, c in con.coeffs.items() if v in point),
        Fraction(0),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_holds_agrees_with_fraction_reference(data):
    names = [f"x{i}" for i in range(data.draw(st.integers(0, 5)))]
    coeffs = {v: data.draw(_values) for v in names if data.draw(st.booleans())}
    point = {v: data.draw(_values) for v in names if data.draw(st.booleans())}
    probe = Constraint("probe", coeffs, "=", 0)
    lhs = _reference_lhs(probe, point)
    # the rhs is often the left-hand side itself or next to it, so that ties
    # and near misses come up
    rhs = data.draw(st.one_of(_values, st.sampled_from([lhs, lhs + Fraction(1, 7), lhs - 1])))
    for rel, want in (("<=", lhs <= Fraction(rhs)), (">=", lhs >= Fraction(rhs)),
                      ("=", lhs == Fraction(rhs))):
        assert Constraint("r", coeffs, rel, rhs).holds(point) is want


_KINDS = ("one", "minus_one", "half", "third", "three")
_specs = st.fixed_dictionaries({
    "nvars": st.integers(1, 5),
    "rows": st.lists(
        st.tuples(
            st.lists(st.sampled_from(_KINDS + (None,)), min_size=5, max_size=5),
            st.sampled_from(["<=", ">=", "="]),
            st.one_of(st.none(), st.integers(-4, 4)),
        ),
        max_size=7,
    ),
    "objective": st.one_of(st.none(), st.lists(st.sampled_from(_KINDS + (None,)),
                                               min_size=5, max_size=5)),
})


def _spec_system(spec, ints: bool) -> ConstraintSystem:
    """The system a spec draws, with every integral coefficient, objective
    value and rhs an int when `ints`, and a Fraction otherwise."""

    def number(x: Fraction):
        return x.numerator if ints and x.denominator == 1 else x

    def value(kind):
        return number({"one": Fraction(1), "minus_one": Fraction(-1), "half": Fraction(-1, 2),
                       "third": Fraction(1, 3), "three": Fraction(3)}[kind])

    names = [f"v{i}" for i in range(spec["nvars"])]
    s = ConstraintSystem(name="spec", variables=list(names))
    for k, (kinds, rel, half_rhs) in enumerate(spec["rows"]):
        coeffs = {v: value(kind) for v, kind in zip(names, kinds) if kind}
        rhs = number(Fraction(half_rhs or 0, 2))
        s.add_constraint(f"c{k}", coeffs, rel, rhs)
    if spec["objective"] is not None:
        s.objective = {v: value(kind) for v, kind in zip(names, spec["objective"]) if kind}
    return s


def _outcome(s: ConstraintSystem):
    return _emitted(s), _result_key(simplex_solve(s)), _result_key(simplex_feasible(s))


@settings(max_examples=150, deadline=None)
@given(_specs)
def test_int_and_fraction_coefficients_emit_and_solve_alike(spec):
    assert _outcome(_spec_system(spec, ints=True)) == _outcome(_spec_system(spec, ints=False))


@settings(max_examples=150, deadline=None)
@given(_specs, st.data())
def test_zero_terms_written_at_construction_emit_and_solve_as_before(spec, data):
    # a zero coefficient written into a row, or a zero rhs written as a
    # Fraction, changes neither the stored row, the LP text, the tableau (a
    # sign row stays a bound) nor any simplex outcome
    clean = _spec_system(spec, ints=True)
    padded = ConstraintSystem(name=clean.name, variables=clean.variables,
                              objective=clean.objective)
    for con in clean.constraints:
        coeffs = dict(con.coeffs)
        absent = [v for v in clean.variables if v not in coeffs]
        if absent and data.draw(st.booleans()):
            coeffs[data.draw(st.sampled_from(absent))] = Fraction(0)
        padded.add_constraint(con.name, coeffs, con.rel, Fraction(con.rhs))
    assert padded == clean
    assert [type(c.rhs) for c in padded.constraints] == [type(c.rhs) for c in clean.constraints]
    assert _outcome(padded) == _outcome(clean)
    tab, ref = linsys._Tableau(linsys._lower(padded)), linsys._Tableau(linsys._lower(clean))
    assert (tab.cols, tab.rows, tab.dens, tab.basis) == (ref.cols, ref.rows, ref.dens, ref.basis)
