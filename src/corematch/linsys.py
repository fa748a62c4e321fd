"""Linear constraint systems over exact rationals: a two-phase simplex for
feasibility/optimization, and a deterministic LP-format writer/reader that
share one grammar: `parse_lp` reads exactly what `emit_lp` writes and
rejects, naming its line, anything else.

Variables are free unless the system contains an explicit sign constraint;
the simplex presolves single-variable ">= 0" rows into variable bounds and
splits the remaining free variables. Arithmetic is exact, under one number
rule from the row to the tableau: a value is an int when it is integral and
a Fraction only when it is not (`_value`), so a pivot on a +-1 element stays
in ints. Constraint coefficients and right-hand sides are stored that way;
witnesses and objective values are returned as fractions.Fraction.

Every step costs time per nonzero, and each coefficient is converted once,
when its row is built: the tableau copies the row's values as they are, a
pivot visits only the rows that hold its column, and `emit_lp` formats each
distinct coefficient and right-hand side once and writes each row's terms in
declaration order. Every witness is still re-verified against every
constraint before it is returned, by `Constraint.holds`, which sums in ints
(a numerator over a denominator) so an integral row builds no Fraction."""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, TextIO

from .model import InvariantError


def _value(x) -> int | Fraction:
    """x under the module's number rule: an int if it is integral, else a
    Fraction (x itself if it is one); a float or a string converts exactly."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _exact(x) -> Fraction:
    """An output value x as a Fraction, reusing a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass
class Constraint:
    name: str
    coeffs: dict[str, int | Fraction]
    rel: str  # one of "<=", "=", ">="
    rhs: int | Fraction

    def __post_init__(self):
        if self.rel not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {self.rel!r}")
        coeffs = {}
        for v, c in self.coeffs.items():
            if type(c) is not int:  # most coefficients are ints already
                c = _value(c)
            if c:  # a zero is dropped after conversion ("0", 0.0, Fraction(0))
                coeffs[v] = c
        self.coeffs = coeffs
        self.rhs = _value(self.rhs)

    def holds(self, point: Mapping[str, Fraction]) -> bool:
        """Exact test of the row at `point`; a variable missing from the point
        reads as 0 and a value that is neither an int nor a Fraction is
        converted exactly. The left-hand side is summed as an int numerator
        over an int denominator (an int is its own numerator over 1), so an
        integral row builds no Fraction."""
        num, den = 0, 1
        for v, c in self.coeffs.items():
            x = point.get(v)
            if not x:  # missing, or a zero
                continue
            if type(x) is not int and type(x) is not Fraction:
                x = Fraction(x)
            tn, td = c.numerator * x.numerator, c.denominator * x.denominator
            if td == den:
                num += tn
            else:
                g = gcd(den, td)
                num = num * (td // g) + tn * (den // g)
                den = den // g * td
        # compare num / den with rhs across the (positive) denominators
        rhs = self.rhs
        num, rhs = num * rhs.denominator, rhs.numerator * den
        if self.rel == "<=":
            return num <= rhs
        if self.rel == ">=":
            return num >= rhs
        return num == rhs


def _undeclared(con: Constraint, names) -> ValueError:
    return ValueError(f"constraint {con.name} uses undeclared {sorted(names)}")


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
        for con in self.constraints:
            self._check_declared(con)

    def _check_declared(self, con: Constraint) -> None:
        if not self._vs.issuperset(con.coeffs):
            raise _undeclared(con, set(con.coeffs) - self._vs)

    def add_variable(self, name: str) -> str:
        if name in self._vs:
            raise ValueError(f"duplicate variable {name}")
        self.variables.append(name)
        self._vs.add(name)
        return name

    def add_constraint(self, name, coeffs, rel, rhs) -> Constraint:
        con = Constraint(name, coeffs, rel, rhs)  # builds its own dict
        self._check_declared(con)
        self.constraints.append(con)
        return con

    def check_point(self, point: Mapping[str, Fraction]) -> bool:
        """Exact test of every constraint at `point` (see `Constraint.holds`);
        keys that are not variables of a row are ignored."""
        return all(c.holds(point) for c in self.constraints)

    def __eq__(self, other):
        if not isinstance(other, ConstraintSystem):
            return NotImplemented

        return (
            self.name == other.name
            and self.variables == other.variables
            and self.constraints == other.constraints
            and _objective_terms(self) == _objective_terms(other)
        )


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    witness: Optional[dict[str, Fraction]] = None
    objective: Optional[Fraction] = None

    @property
    def is_feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


def _eliminate(row: dict, prow: dict, c: int) -> None:
    """row -= row[c] * prow, where prow[c] == 1; entries that cancel are
    deleted, so row[c] goes, and an integral Fraction becomes an int."""
    f = row.get(c)
    if f:
        for j, b in prow.items():
            x = row.get(j, 0) - f * b
            if type(x) is not int and x.denominator == 1:
                x = x.numerator
            if x:
                row[j] = x
            else:
                del row[j]


class _Tableau:
    """Sparse simplex tableau with Bland's rule (anti-cycling, deterministic).

    A row maps each column to its nonzero entry, an int when the entry is
    integral and a Fraction otherwise; the right-hand side is column `total`.
    Columns run structural (one per nonnegative variable, two per free one),
    then one slack or surplus per inequality row, then the artificials from
    `first_art` on, one per row that is ">=" or "=" once its rhs is made
    nonnegative.
    """

    def __init__(self, system: ConstraintSystem):
        self.sys = system

        # presolve: a single-variable constraint equivalent to v >= 0 becomes
        # a sign marker instead of a row (nonneg[v] is the row); every other
        # row is normalized to a nonnegative rhs b, as (row, flip, rel, b)
        nonneg: dict[str, Constraint] = {}
        rows_src = []
        for con in system.constraints:
            rel = con.rel
            b = con.rhs
            if len(con.coeffs) == 1 and rel != "=" and not b:
                ((v, c),) = con.coeffs.items()
                if (c > 0 and rel == ">=") or (c < 0 and rel == "<="):
                    nonneg[v] = con
                    continue
            # flip ">=" to "<=", then flip again if the rhs is negative
            flip = rel == ">="
            if flip:
                b = -b
                rel = "<="
            if b < 0:
                flip = not flip
                b = -b
                if rel == "<=":
                    rel = ">="
            rows_src.append((con, flip, rel, b))

        # (variable, sign) per column; col_of[v] is v's (plus, minus) column
        # pair, minus None for a nonnegative v
        self.cols: list[tuple[str, int]] = []
        col_of: dict[str, tuple[int, Optional[int]]] = {}
        for v in system.variables:
            plus = len(self.cols)
            self.cols.append((v, +1))
            if v in nonneg:
                col_of[v] = plus, None
            else:
                self.cols.append((v, -1))
                col_of[v] = plus, plus + 1
        if not nonneg.keys() <= col_of.keys():
            v = next(v for v in nonneg if v not in col_of)
            raise _undeclared(nonneg[v], [v])
        self.nstruct = slack = len(self.cols)
        self.first_art = art = slack + sum(rel != "=" for _, _, rel, _ in rows_src)
        self.total = total = art + sum(rel != "<=" for _, _, rel, _ in rows_src)

        # "<=" gains a slack (basic), ">=" a surplus and an artificial
        # (basic), "=" an artificial (basic)
        self.rows: list[dict[int, int | Fraction]] = []
        self.basis: list[int] = []
        add_row, add_basic = self.rows.append, self.basis.append
        try:
            for con, flip, rel, b in rows_src:
                row = {}
                for v, q in con.coeffs.items():
                    if not q:  # a zero written into the row after construction
                        continue
                    if flip:
                        q = -q
                    plus, minus = col_of[v]
                    row[plus] = q
                    if minus is not None:
                        row[minus] = -q
                if rel == "<=":
                    row[slack] = 1
                    add_basic(slack)
                    slack += 1
                else:
                    if rel == ">=":
                        row[slack] = -1
                        slack += 1
                    row[art] = 1
                    add_basic(art)
                    art += 1
                if b:
                    row[total] = b
                add_row(row)
        except KeyError as exc:  # col_of has no column for the variable
            raise _undeclared(con, exc.args) from None
        if any(row.get(b) != 1 for row, b in zip(self.rows, self.basis)):
            raise InvariantError("a row has no initial basic column")

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, cost: dict, r: int, c: int):
        prow = self.rows[r]
        piv = prow[c]
        if piv == -1:
            for j, x in prow.items():
                prow[j] = -x
        elif piv != 1:
            inv = Fraction(1, piv)
            for j, x in prow.items():
                prow[j] = _value(x * inv)
        for row in self.rows:  # a row without column c is left as it is
            if c in row and row is not prow:
                _eliminate(row, prow, c)
        _eliminate(cost, prow, c)
        self.basis[r] = c

    def _price(self, cost: dict) -> None:
        """Make every basic column's cost zero by subtracting its row."""
        for row, b in zip(self.rows, self.basis):
            _eliminate(cost, row, b)

    def _bland(self, cost: dict) -> str:
        """Run Bland's rule over every column to optimality; returns
        'optimal' or 'unbounded'."""
        total = self.total
        while True:
            enter = min((j for j, x in cost.items() if j < total and x < 0), default=-1)
            if enter < 0:
                return "optimal"
            # the least ratio rhs / a over a > 0, compared by cross
            # multiplication (an int over an int would give a float)
            leave = -1
            for i, row in enumerate(self.rows):
                a = row.get(enter)
                if a is not None and a > 0:
                    rhs = row.get(total, 0)
                    if leave < 0:
                        leave, best_rhs, best_a = i, rhs, a
                        continue
                    x, y = rhs * best_a, best_rhs * a
                    if x < y or (x == y and self.basis[i] < self.basis[leave]):
                        leave, best_rhs, best_a = i, rhs, a
            if leave < 0:
                return "unbounded"
            self._pivot(cost, leave, enter)

    # -- phases -----------------------------------------------------------

    def phase1(self) -> bool:
        """Minimize the artificial sum; True iff the system is feasible."""
        cost = dict.fromkeys(range(self.first_art, self.total), 1)
        self._price(cost)
        if self._bland(cost) != "optimal":  # bounded below by 0
            raise InvariantError("phase-1 objective came out unbounded")
        if cost.get(self.total):
            return False
        # pivot leftover artificials out on their row's first other nonzero
        # column; drop rows that became redundant
        for i in range(len(self.rows) - 1, -1, -1):
            if self.basis[i] >= self.first_art:
                j = min(self.rows[i])
                if j < self.first_art:
                    self._pivot(cost, i, j)
                else:
                    del self.rows[i]
                    del self.basis[i]
        return True

    def phase2(self) -> tuple[str, Optional[Fraction]]:
        # after phase 1 every artificial is nonbasic at zero and may not
        # re-enter, so its column leaves the tableau
        art = range(self.first_art, self.total)
        self.rows = [{j: x for j, x in row.items() if j not in art} for row in self.rows]
        obj = self.sys.objective or {}
        cost = {}
        for j, (v, sign) in enumerate(self.cols):
            c = obj.get(v)
            if c:
                c = _value(c)
                cost[j] = c if sign > 0 else -c
        self._price(cost)
        if self._bland(cost) == "unbounded":
            return "unbounded", None
        return "optimal", _exact(-cost.get(self.total, 0))

    def witness(self) -> dict[str, int | Fraction]:
        """Each variable's value at the current basis, in tableau values."""
        values = dict.fromkeys(self.sys.variables, 0)
        for row, b in zip(self.rows, self.basis):
            if b < self.nstruct:
                v, sign = self.cols[b]
                values[v] += sign * row.get(self.total, 0)
        return values


def _objective_terms(system: ConstraintSystem) -> dict[str, int | Fraction]:
    """The objective's nonzero terms, each value read as the simplex reads
    it (`_value`), so "0" and 0.0 are zeros."""
    exact = ((v, _value(c)) for v, c in (system.objective or {}).items())
    return {v: c for v, c in exact if c}


def _check_objective(system: ConstraintSystem) -> dict[str, int | Fraction]:
    """The objective's nonzero terms (see `_objective_terms`); raises
    ValueError if one uses an undeclared variable, as `add_constraint` does
    for a row."""
    terms = _objective_terms(system)
    unknown = terms.keys() - system._vs
    if unknown:
        raise ValueError(f"objective uses undeclared {sorted(unknown)}")
    return terms


def _verified_witness(system: ConstraintSystem, tab: _Tableau) -> dict[str, Fraction]:
    """The tableau's witness, re-verified against every constraint in the
    tableau's own values and then returned as Fractions."""
    point = tab.witness()
    if not system.check_point(point):
        raise InvariantError("simplex witness failed re-verification")
    return {v: _exact(x) for v, x in point.items()}


def simplex_feasible(system: ConstraintSystem) -> SimplexResult:
    """Exact phase-I feasibility; a returned witness is re-verified by
    substitution into every constraint before being handed back."""
    tab = _Tableau(system)
    if not tab.phase1():
        return SimplexResult(status="infeasible")
    return SimplexResult(status="feasible", witness=_verified_witness(system, tab))


def simplex_solve(system: ConstraintSystem) -> SimplexResult:
    """Minimize the objective: optimal (with witness), infeasible, or
    unbounded. Systems without an objective reduce to a feasibility check.
    Raises ValueError if the objective uses an undeclared variable."""
    _check_objective(system)
    if not system.objective:
        return simplex_feasible(system)
    tab = _Tableau(system)
    if not tab.phase1():
        return SimplexResult(status="infeasible")
    status, value = tab.phase2()
    if status == "unbounded":
        return SimplexResult(status="unbounded")
    return SimplexResult(status="optimal", witness=_verified_witness(system, tab),
                         objective=value)


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
# Variable and constraint names match [A-Za-z_][A-Za-z0-9_]*, so no name can
# read as a number, an operator, a separator or two tokens. The patterns
# below are that grammar; `_check_names` holds the writer to it, and
# `parse_lp` reads nothing outside it.
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
# a magnitude: an integer, a decimal or a fraction with a nonzero denominator
_NUM = r"[0-9]+(?:\.[0-9]+|/[1-9][0-9]*)?"
# a term: a sign (optional on a row's first term), an optional magnitude
# with a space before the name, and the name
_TERM_RE = re.compile(rf"\s*([+-]?)\s*(?:({_NUM})\s+)?({_NAME})\s*")
_ROW_RE = re.compile(
    rf"(?P<name>{_NAME}):(?P<terms>[^<>=]*)(?:(?P<rel><=|>=|=)\s*(?P<rhs>-?{_NUM}))?"
)
_BOUND_RE = re.compile(rf"({_NAME})\s+free")


def _check_names(system: ConstraintSystem) -> None:
    """Raise ValueError naming the system name, or else the first variable,
    then constraint, name that `parse_lp` could not read back. The system
    name goes on one header line that is read back stripped, so it may hold
    no line break (any that `str.splitlines` splits on) and no space at
    either end."""
    name = system.name
    if name != name.strip() or len(name.splitlines()) > 1:
        raise ValueError(f"system name {name!r} has a line break or a space at one end")
    for kind, names in (
        ("variable", system.variables),
        ("constraint", (con.name for con in system.constraints)),
    ):
        for name in names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(
                    f"{kind} name {name!r} does not match [A-Za-z_][A-Za-z0-9_]*"
                )


def _decimal_places(den: int) -> Optional[int]:
    """The digits after the point that a fraction with denominator den needs
    (the larger power of 2 or 5 in den), or None if den has another prime."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def _forms(x) -> tuple[int, str, Optional[str]]:
    """(rank, exact, decimal) of a value x: rank 0 for an integer, 1 for a
    finite decimal expansion, 2 otherwise; exact is "n" or "n/d", and decimal
    is the same value with a decimal point, None at rank 2."""
    num, den = x.numerator, x.denominator
    if den == 1:
        text = str(num)
        return 0, text, text
    exact = f"{num}/{den}"
    k = _decimal_places(den)
    if k is None:
        return 2, exact, None
    scaled = num * 10**k // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return 1, exact, f"{sign}{digits[:-k]}.{digits[-k:]}"


def _head(c) -> tuple[int, Optional[str], Optional[str]]:
    """(rank, exact head, decimal head) of a coefficient c, ranked as by
    `_forms`; a head is what precedes the variable in a term: the sign, then
    the magnitude unless it is 1 (" + ", " - 2 ", " + 1/3 "). Both heads are
    None for a zero, and the decimal head is None at rank 2."""
    num = c.numerator
    if not num:
        return 0, None, None
    sign = " - " if num < 0 else " + "
    if num in (1, -1) and c.denominator == 1:
        return 0, sign, sign
    rank, exact, decimal = _forms(abs(c))
    return rank, f"{sign}{exact} ", decimal and f"{sign}{decimal} "


def _terms(names, coeffs, heads: dict, k: int, rank: int) -> tuple[int, str]:
    """The terms of `coeffs` over `names` (their order) with nonzero
    coefficients, written with exact (k = 1) or decimal (k = 2) heads, and the
    greater of `rank` and their coefficients' ranks. `heads` maps id(c) to
    `_head(c)` and gains the coefficients it lacks."""
    parts = []
    for v in names:
        c = coeffs[v]
        head = heads.get(id(c))
        if head is None:
            head = heads[id(c)] = _head(c)
        if head[0] > rank:
            rank = head[0]
        if head[k] is not None:
            parts.append(head[k])
            parts.append(v)
    if not parts:
        return rank, "0"
    text = "".join(parts)
    return rank, text[3:] if text[1] == "+" else text[1:]  # no "+" before the first term


def emit_lp(system: ConstraintSystem, sink: TextIO) -> None:
    """Write the system deterministically in LP format (see module notes).
    Raises ValueError if the objective or a row uses an undeclared variable
    or a name breaks the name grammar."""
    obj = _check_objective(system)
    _check_names(system)
    order = system.variables
    pos = {v: i for i, v in enumerate(order)}
    # each distinct coefficient and rhs is formatted once, keyed by id() (a
    # Fraction hashes slowly): every key's object lives in the system or in
    # `obj` until the call returns
    heads: dict[int, tuple] = {}
    values: dict[int, tuple] = {}

    def row(coeffs, rank) -> tuple[int, str, Optional[str]]:
        """(rank, exact terms, decimal terms) of a row whose rhs ranks `rank`;
        the decimal terms are None at rank 2. Raises KeyError naming a
        variable that is not declared."""
        names = sorted(coeffs, key=pos.__getitem__)
        rank, exact = _terms(names, coeffs, heads, 1, rank)
        if rank == 1:
            return rank, exact, _terms(names, coeffs, heads, 2, rank)[1]
        return rank, exact, None if rank else exact

    w = sink.write
    w(f"\\ constraint-system: {system.name}\n")
    w(f"\\ variables: {len(order)}  constraints: {len(system.constraints)}\n")
    w("Minimize\n")
    rank, exact, decimal = row(obj, 0)
    if rank == 2:
        w(f"\\X obj: {exact}\n")
        w(" obj: 0\n")
    else:
        if rank == 1:
            w(f"\\ exact obj: {exact}\n")
        w(f" obj: {decimal}\n")
    w("Subject To\n")
    for con in system.constraints:
        rhs = values.get(id(con.rhs))
        if rhs is None:
            rhs = values[id(con.rhs)] = _forms(con.rhs)
        try:
            rank, exact, decimal = row(con.coeffs, rhs[0])
        except KeyError as exc:  # pos has no entry for the variable
            raise _undeclared(con, exc.args) from None
        if rank == 2:
            w(f"\\X {con.name}: {exact} {con.rel} {rhs[1]}\n")
        else:
            if rank == 1:
                w(f"\\ exact {con.name}: {exact} {con.rel} {rhs[1]}\n")
            w(f" {con.name}: {decimal} {con.rel} {rhs[2]}\n")
    w("Bounds\n")
    for v in order:
        w(f" {v} free\n")
    w("End\n")


def _read_terms(text: str) -> dict[str, int | Fraction]:
    """The coefficients of a term list (see `_TERM_RE`), or {} for "0"."""
    text = text.strip()
    coeffs: dict[str, int | Fraction] = {}
    pos = 0
    while text != "0" and (pos < len(text) or not coeffs):
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ValueError(f"no term at {text[pos:]!r}")
        sign, num, name = m.groups()
        if coeffs and not sign:
            raise ValueError(f"no sign before {name!r}")
        if name in coeffs:
            raise ValueError(f"{name!r} twice in one row")
        c = _value(num) if num else 1
        coeffs[name] = -c if sign == "-" else c
        pos = m.end()
    return coeffs


def _read_row(text: str, objective: bool) -> tuple:
    """(name, coefficients, relation, rhs text) of "name: terms rel rhs", or
    of "name: terms", with relation and rhs None, when `objective`."""
    m = _ROW_RE.fullmatch(text.strip())
    if m is None or (m["rel"] is None) != objective:
        raise ValueError("not " + ("an objective 'name: terms'" if objective
                                   else "a row 'name: terms rel rhs'"))
    return m["name"], _read_terms(m["terms"]), m["rel"], m["rhs"]


_SECTIONS = ("Minimize", "Subject To", "Bounds", "End")


def parse_lp(source) -> ConstraintSystem:
    """Read LP text in the grammar `emit_lp` writes (see module notes) into a
    ConstraintSystem; raises ValueError naming the first line outside the
    grammar, or a row or objective term over an undeclared variable."""
    text = source.read() if hasattr(source, "read") else source
    name = ""
    objectives: dict[bool, dict[str, int | Fraction]] = {}  # keyed by "is a \\X row"
    constraints: list[Constraint] = []
    variables: list[str] = []
    section = number = 0  # section: how many section lines have been read
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        exact = line.startswith("\\X")
        body = line[2:] if exact else line
        try:
            if line in _SECTIONS:
                if section == 4 or line != _SECTIONS[section]:
                    raise ValueError(f"section {line!r} out of order")
                section += 1
            elif line.startswith("\\ constraint-system:"):
                name = line.partition(":")[2].strip()
            elif not line or (line.startswith("\\") and not exact):
                continue  # a blank line or a comment
            elif section == 1:
                if exact in objectives:
                    raise ValueError("a second objective")
                objectives[exact] = _read_row(body, True)[1]
            elif section == 2:
                constraints.append(Constraint(*_read_row(body, False)))
            elif section == 3 and not exact:
                m = _BOUND_RE.fullmatch(line)
                if m is None:
                    raise ValueError("not a bound 'name free'")
                variables.append(m[1])
            else:
                raise ValueError("a line outside Minimize, Subject To and Bounds")
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}: {raw!r}") from None
    if section != 4:
        raise ValueError(f"line {number + 1}: no End line before the text ends")
    system = ConstraintSystem(
        name=name, variables=variables, constraints=constraints,
        objective=objectives.get(True, objectives.get(False)) or None,
    )
    _check_objective(system)
    return system
