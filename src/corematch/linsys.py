"""Linear constraint systems over exact rationals: a two-phase simplex for
feasibility/optimization, and a deterministic LP-format writer/reader.

Variables are free unless the system contains an explicit sign constraint;
the simplex presolves single-variable ">= 0" rows into variable bounds and
splits the remaining free variables. Tableau arithmetic uses gmpy2.mpq when
available (several times faster) and falls back to fractions.Fraction; both
are exact, so results are identical.

Every step does arithmetic on nonzeros only: tableau set-up, the phase-1 and
phase-2 cost rows, pivot-row scaling and elimination, witness
re-verification and `emit_lp` (each row's terms in declaration order). Every
witness is still re-verified against every constraint before it is returned.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, TextIO

from .model import InvariantError

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _Q = Fraction

_ZERO = _Q(0)
_ONE = _Q(1)


def _q(x):
    """x (an int or a Fraction) as a tableau number, reusing x if it is one."""
    return x if type(x) is _Q else _Q(x.numerator, x.denominator)


def _exact(x) -> Fraction:
    """x as an exact Fraction (a float converts exactly), reusing a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class Constraint:
    name: str
    coeffs: dict[str, Fraction]
    rel: str  # one of "<=", "=", ">="
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {self.rel!r}")
        exact = ((v, _exact(c)) for v, c in self.coeffs.items())
        self.coeffs = {v: c for v, c in exact if c}
        self.rhs = _exact(self.rhs)

    def holds(self, point: Mapping[str, Fraction]) -> bool:
        """Exact test of the row at `point`; a variable missing from the point
        reads as 0 and a value that is not a Fraction is converted exactly."""
        lhs = 0
        for v, c in self.coeffs.items():
            x = point.get(v)
            if x:
                lhs += c * _exact(x)
        if self.rel == "<=":
            return lhs <= self.rhs
        if self.rel == ">=":
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass
class ConstraintSystem:
    """Named rational variables plus linear constraints and an optional
    minimization objective."""

    name: str = ""
    variables: list[str] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: Optional[dict[str, Fraction]] = None

    def __post_init__(self):
        self._vs = set(self.variables)
        if len(self._vs) != len(self.variables):
            raise ValueError("duplicate variables")

    def add_variable(self, name: str) -> str:
        if name in self._vs:
            raise ValueError(f"duplicate variable {name}")
        self.variables.append(name)
        self._vs.add(name)
        return name

    def add_constraint(self, name, coeffs, rel, rhs) -> Constraint:
        con = Constraint(name, dict(coeffs), rel, rhs)
        unknown = set(con.coeffs) - self._vs
        if unknown:
            raise ValueError(f"constraint {name} uses undeclared {sorted(unknown)}")
        self.constraints.append(con)
        return con

    def check_point(self, point: Mapping[str, Fraction]) -> bool:
        """Exact test of every constraint at `point` (see `Constraint.holds`);
        keys that are not variables of a row are ignored."""
        return all(c.holds(point) for c in self.constraints)

    def __eq__(self, other):
        if not isinstance(other, ConstraintSystem):
            return NotImplemented

        def obj(sys_):
            return {v: c for v, c in (sys_.objective or {}).items() if c}

        return (
            self.name == other.name
            and self.variables == other.variables
            and self.constraints == other.constraints
            and obj(self) == obj(other)
        )


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    witness: Optional[dict[str, Fraction]] = None
    objective: Optional[Fraction] = None

    @property
    def is_feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


class _Tableau:
    """Dense simplex tableau with Bland's rule (anti-cycling, deterministic)."""

    def __init__(self, system: ConstraintSystem):
        self.sys = system
        var_order = list(system.variables)

        # presolve: a single-variable constraint equivalent to v >= 0 becomes
        # a sign marker instead of a row
        nonneg = set()
        rows_src = []
        for con in system.constraints:
            items = list(con.coeffs.items())
            if len(items) == 1 and con.rhs == 0 and con.rel != "=":
                v, c = items[0]
                if (c > 0 and con.rel == ">=") or (c < 0 and con.rel == "<="):
                    nonneg.add(v)
                    continue
            rows_src.append(con)

        # columns: one per nonnegative variable, two per free variable
        self.cols: list[tuple[str, int]] = []  # (variable, sign)
        for v in var_order:
            self.cols.append((v, +1))
            if v not in nonneg:
                self.cols.append((v, -1))
        ncols = len(self.cols)
        col_of: dict[str, list[int]] = {}
        for j, (v, sign) in enumerate(self.cols):
            col_of.setdefault(v, []).append(j)

        # rows: normalize to nonnegative rhs; "<=" gains a slack (basic),
        # everything else gains an artificial (basic)
        self.rows: list[list] = []
        self.basis: list[int] = []
        slack_specs = []  # (row, +-1) slack/surplus to append later
        art_specs = []  # rows needing artificials
        rhs = []
        for con in rows_src:
            # flip ">=" to "<=", then flip again if the rhs is negative
            b = _q(con.rhs)
            rel = con.rel
            flip = rel == ">="
            if flip:
                b = -b
                rel = "<="
            if b < 0:
                flip = not flip
                b = -b
                if rel == "<=":
                    rel = ">="
            coeffs = [_ZERO] * ncols
            for v, c in con.coeffs.items():
                q = -_q(c) if flip else _q(c)
                for j in col_of[v]:
                    coeffs[j] = q if self.cols[j][1] > 0 else -q
            self.rows.append(coeffs)
            rhs.append(b)
            if rel == "<=":
                slack_specs.append((len(self.rows) - 1, +1))
            elif rel == ">=":
                slack_specs.append((len(self.rows) - 1, -1))
                art_specs.append(len(self.rows) - 1)
            else:
                art_specs.append(len(self.rows) - 1)

        nslack = len(slack_specs)
        nart = len(art_specs)
        self.nstruct = ncols
        self.nslack = nslack
        total = ncols + nslack + nart
        for i, row in enumerate(self.rows):
            row.extend([_ZERO] * (nslack + nart))
            row.append(rhs[i])
        for k, (i, sign) in enumerate(slack_specs):
            self.rows[i][ncols + k] = _ONE if sign > 0 else -_ONE
        self.art_cols = []
        for k, i in enumerate(art_specs):
            self.rows[i][ncols + nslack + k] = _ONE
            self.art_cols.append(ncols + nslack + k)
        self.total = total

        self.basis = [-1] * len(self.rows)
        for k, (i, sign) in enumerate(slack_specs):
            if sign > 0:
                self.basis[i] = ncols + k
        for k, i in enumerate(art_specs):
            self.basis[i] = ncols + nslack + k
        # rows whose slack is a surplus (-1) got an artificial as basis
        if any(b < 0 for b in self.basis):
            raise InvariantError("a row has no initial basic column")

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, cost: list, r: int, c: int):
        prow = self.rows[r]
        piv = prow[c]
        # touch only the pivot row's nonzero columns; the tableau is sparse
        cols = [j for j, b in enumerate(prow) if b]
        if piv != _ONE:
            inv = _ONE / piv
            for j in cols:
                prow[j] *= inv
        nz = [(j, prow[j]) for j in cols]
        for row in self.rows:
            if row is prow:
                continue
            f = row[c]
            if f:
                for j, b in nz:
                    row[j] -= f * b
        f = cost[c]
        if f:
            for j, b in nz:
                cost[j] -= f * b
        self.basis[r] = c

    def _bland(self, cost: list, allowed) -> str:
        """Run Bland's rule to optimality; returns 'optimal' or 'unbounded'."""
        ncols = self.total
        while True:
            enter = -1
            for j in range(ncols):
                if allowed[j] and cost[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = row[-1] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded"
            self._pivot(cost, leave, enter)

    # -- phases -----------------------------------------------------------

    def phase1(self) -> bool:
        """Minimize the artificial sum; True iff the system is feasible."""
        cost = [_ZERO] * self.total + [_ZERO]
        for j in self.art_cols:
            cost[j] = _ONE
        art = set(self.art_cols)
        for i, b in enumerate(self.basis):
            if b in art:
                for j, x in enumerate(self.rows[i]):
                    if x:
                        cost[j] -= x
        allowed = [True] * self.total
        status = self._bland(cost, allowed)
        if status != "optimal":  # phase-1 objective is bounded below by 0
            raise InvariantError("phase-1 objective came out unbounded")
        if -cost[-1] != 0:
            return False
        # pivot leftover artificials out; drop rows that became redundant
        for i in range(len(self.rows) - 1, -1, -1):
            if self.basis[i] in art:
                row = self.rows[i]
                for j in range(self.total):
                    if j not in art and row[j] != 0:
                        self._pivot(cost, i, j)
                        break
                else:
                    del self.rows[i]
                    del self.basis[i]
        return True

    def phase2(self) -> tuple[str, Optional[Fraction]]:
        obj = self.sys.objective or {}
        cost = [_ZERO] * self.total + [_ZERO]
        for j, (v, sign) in enumerate(self.cols):
            c = obj.get(v)
            if c:
                cost[j] = _q(c) if sign > 0 else -_q(c)
        for i, b in enumerate(self.basis):
            f = cost[b]
            if f:
                for j, x in enumerate(self.rows[i]):
                    if x:
                        cost[j] -= f * x
        art = set(self.art_cols)
        allowed = [j not in art for j in range(self.total)]
        status = self._bland(cost, allowed)
        if status == "unbounded":
            return "unbounded", None
        return "optimal", Fraction(-cost[-1])

    def witness(self) -> dict[str, Fraction]:
        values = {v: Fraction(0) for v in self.sys.variables}
        for i, b in enumerate(self.basis):
            if b < self.nstruct:
                v, sign = self.cols[b]
                values[v] += sign * Fraction(self.rows[i][-1])
        return values


def _check_objective(system: ConstraintSystem) -> None:
    """Raise ValueError if a nonzero objective term uses an undeclared
    variable, as `add_constraint` does for a row."""
    unknown = {v for v, c in (system.objective or {}).items() if c} - system._vs
    if unknown:
        raise ValueError(f"objective uses undeclared {sorted(unknown)}")


def _check_witness(system: ConstraintSystem, point: dict[str, Fraction]) -> None:
    if not system.check_point(point):
        raise InvariantError("simplex witness failed re-verification")


def simplex_feasible(system: ConstraintSystem) -> SimplexResult:
    """Exact phase-I feasibility; a returned witness is re-verified by
    substitution into every constraint before being handed back."""
    tab = _Tableau(system)
    if not tab.phase1():
        return SimplexResult(status="infeasible")
    point = tab.witness()
    _check_witness(system, point)
    return SimplexResult(status="feasible", witness=point)


def simplex_solve(system: ConstraintSystem) -> SimplexResult:
    """Minimize the objective: optimal (with witness), infeasible, or
    unbounded. Systems without an objective reduce to a feasibility check.
    Raises ValueError if the objective uses an undeclared variable."""
    _check_objective(system)
    tab = _Tableau(system)
    if not tab.phase1():
        return SimplexResult(status="infeasible")
    if not system.objective:
        point = tab.witness()
        _check_witness(system, point)
        return SimplexResult(status="feasible", witness=point)
    status, value = tab.phase2()
    if status == "unbounded":
        return SimplexResult(status="unbounded")
    point = tab.witness()
    _check_witness(system, point)
    return SimplexResult(status="optimal", witness=point, objective=value)


# ---------------------------------------------------------------------------
# LP text format.
#
# Standard sections (Minimize / Subject To / Bounds / End); every variable is
# declared free in Bounds (sign constraints are ordinary rows here), and the
# Bounds order doubles as the variable declaration order for round-trips.
# Coefficients are written as exact decimals; a constraint containing any
# coefficient without a finite decimal expansion moves to an extension line
# "\X name: 1/3 x + ... <= 2/3" that external parsers skip as a comment.
# Informational "\ exact" comments carry the fraction form of decimal rows.
# ---------------------------------------------------------------------------


def _decimal_str(x: Fraction) -> Optional[str]:
    den = x.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    k = max(twos, fives)
    if k == 0:
        return str(x.numerator)
    scaled = x.numerator * 10**k // x.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def _term_head(c: Fraction, exact: bool) -> str:
    """What precedes the variable in a term with coefficient c != 0: the sign,
    then the magnitude (exact or decimal) unless it is 1."""
    num, den = c.numerator, c.denominator
    sign = "- " if num < 0 else "+ "
    if den == 1:  # an integer reads the same either way
        return sign if num in (1, -1) else f"{sign}{abs(num)} "
    mag = abs(c)
    return f"{sign}{mag if exact else _decimal_str(mag)} "


def _terms_str(coeffs: dict[str, Fraction], pos: dict[str, int], exact: bool) -> str:
    """The nonzero terms over declared variables, in declaration order (`pos`
    maps each variable to its position); terms over other names are skipped."""
    terms = sorted((pos[v], v, c) for v, c in coeffs.items() if c and v in pos)
    if not terms:
        return "0"
    text = " ".join(_term_head(c, exact) + v for _, v, c in terms)
    return text[2:] if text[0] == "+" else text  # no "+" before the first term


def _row_kind(values) -> str:
    """"int" if every value is an integer, else "decimal" if every value has a
    finite decimal expansion, else "exact"."""
    kind = "int"
    for x in values:
        den = x.denominator
        if den == 1:
            continue
        while den % 2 == 0:
            den //= 2
        while den % 5 == 0:
            den //= 5
        if den != 1:
            return "exact"
        kind = "decimal"
    return kind


def emit_lp(system: ConstraintSystem, sink: TextIO) -> None:
    """Write the system deterministically in LP format (see module notes).
    Raises ValueError if the objective uses an undeclared variable."""
    _check_objective(system)
    order = system.variables
    pos = {v: i for i, v in enumerate(order)}
    w = sink.write
    w(f"\\ constraint-system: {system.name}\n")
    w(f"\\ variables: {len(order)}  constraints: {len(system.constraints)}\n")
    w("Minimize\n")
    obj = system.objective or {}
    kind = _row_kind(obj.values())
    if kind == "exact":
        w(f"\\X obj: {_terms_str(obj, pos, exact=True)}\n")
        w(" obj: 0\n")
    else:
        if kind == "decimal":
            w(f"\\ exact obj: {_terms_str(obj, pos, exact=True)}\n")
        w(f" obj: {_terms_str(obj, pos, exact=False)}\n")
    w("Subject To\n")
    for con in system.constraints:
        rhs_exact = str(con.rhs)
        kind = _row_kind(itertools.chain(con.coeffs.values(), (con.rhs,)))
        if kind != "exact":
            if kind == "decimal":
                w(
                    f"\\ exact {con.name}: "
                    f"{_terms_str(con.coeffs, pos, exact=True)} {con.rel} {rhs_exact}\n"
                )
            w(
                f" {con.name}: {_terms_str(con.coeffs, pos, exact=False)} "
                f"{con.rel} {_decimal_str(con.rhs)}\n"
            )
        else:
            w(
                f"\\X {con.name}: {_terms_str(con.coeffs, pos, exact=True)} "
                f"{con.rel} {rhs_exact}\n"
            )
    w("Bounds\n")
    for v in order:
        w(f" {v} free\n")
    w("End\n")


def _parse_term_list(text: str, where: str) -> dict[str, Fraction]:
    toks = text.replace("+", " + ").replace("-", " - ").split()
    coeffs: dict[str, Fraction] = {}
    sign = Fraction(1)
    pending: Optional[Fraction] = None
    for tok in toks:
        if tok == "+":
            sign = Fraction(1) if pending is None else sign
            continue
        if tok == "-":
            if pending is None:
                sign = -sign if sign < 0 else Fraction(-1)
            continue
        head = tok[0]
        if head.isdigit() or head == ".":
            value = Fraction(tok)
            if pending is not None:
                raise ValueError(f"two consecutive numbers in {where}")
            pending = value
        else:
            coeff = sign if pending is None else sign * pending
            coeffs[tok] = coeffs.get(tok, Fraction(0)) + coeff
            sign = Fraction(1)
            pending = None
    if pending is not None and pending != 0:
        raise ValueError(f"dangling number in {where}")
    return {v: c for v, c in coeffs.items() if c != 0}


def _parse_constraint_line(body: str, where: str):
    name, _, rest = body.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"constraint without a name in {where}")
    for rel in ("<=", ">=", "="):
        lhs, sep, rhs = rest.partition(rel)
        if sep:
            return name, _parse_term_list(lhs, where), rel, Fraction(rhs.strip())
    raise ValueError(f"no relation in {where}")


def parse_lp(source) -> ConstraintSystem:
    """Read a file produced by emit_lp back into an equal ConstraintSystem."""
    text = source.read() if hasattr(source, "read") else source
    name = ""
    objective: Optional[dict[str, Fraction]] = None
    constraints: list[Constraint] = []
    variables: list[str] = []
    section = None
    obj_text: Optional[str] = None
    obj_override: Optional[dict[str, Fraction]] = None

    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("\\X"):
            body = stripped[2:].strip()
            if section == "minimize" or body.startswith("obj:"):
                obj_override = _parse_term_list(body.partition(":")[2], "objective")
            else:
                cname, coeffs, rel, rhs = _parse_constraint_line(body, body)
                constraints.append(Constraint(cname, coeffs, rel, rhs))
            continue
        if stripped.startswith("\\"):
            comment = stripped[1:].strip()
            if comment.startswith("constraint-system:"):
                name = comment.partition(":")[2].strip()
            continue
        lowered = stripped.lower()
        if lowered == "minimize":
            section = "minimize"
            continue
        if lowered == "maximize":
            raise ValueError("only minimization problems are supported")
        if lowered == "subject to":
            section = "subject to"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "end":
            break
        if section == "minimize":
            obj_text = stripped.partition(":")[2].strip()
        elif section == "subject to":
            cname, coeffs, rel, rhs = _parse_constraint_line(stripped, stripped)
            constraints.append(Constraint(cname, coeffs, rel, rhs))
        elif section == "bounds":
            parts = stripped.split()
            if len(parts) == 2 and parts[1] == "free":
                variables.append(parts[0])
            else:
                raise ValueError(f"unsupported bounds line: {stripped}")

    if obj_override is not None:
        objective = obj_override
    elif obj_text:
        parsed = _parse_term_list(obj_text, "objective")
        objective = parsed or None

    system = ConstraintSystem(name=name, variables=variables, objective=objective)
    for con in constraints:
        system.add_constraint(con.name, con.coeffs, con.rel, con.rhs)
    return system
