"""Linear constraint systems over exact rationals: a two-phase simplex for
feasibility/optimization, and a deterministic LP-format writer/reader that
share one grammar: `parse_lp` reads exactly what `emit_lp` writes and
rejects, naming its line, anything else.

Every system keeps its rows in one flat store, `_Store`, variable k being
column k: the columns of all rows one after the other in one int array,
their values in one list, the row offsets, and a relation code and a
right-hand side per row. A row holds its nonzero terms in ascending column
order, the order `emit_lp` writes, so the writer sorts nothing and
`parse_lp(emit_lp(s)) == s` compares the flat fields as they are. A
ConstraintSystem keeps a store beside two name sequences, `variables` and
its row names (see below); an `_LP` keeps a store too, and the store is the
only row format: the tableau set-up, `_lower`, `_slack_point`, `_holds`,
`check_point`, `emit_lp`, `__eq__` and the `Constraint` view all read it.
The tableau set-up, `_holds` and `emit_lp` walk a store's columns and values
with one iterator, each row taking its length in turn, so they slice no row.
Every row enters through `_extend` and `_Store.extend`, a block at a time:
extform hands over whole blocks as flat lists, and `_append` translates
names to columns once per row for the constructor and `parse_lp`, which each
hand over all their rows as one block, and for `add_constraint`, whose block
is its one row. `constraints` is a read-only sequence that builds a frozen
`Constraint` view of a row only when the row is read.

A system holds no name string per column or row of a block after it is
built. A name sequence, `_Names`, is read-only and equal to the tuple of its
names. It is made of runs of two kinds. A literal run is a list of the
names, as the constructor, `add_constraint` and `parse_lp` hand them over. A
block run, `_Run`, is a name count and a function with its arguments
(extform's: a prefix, a vertex tuple and edge endpoint pairs) that formats
the block's names, in order, each time it is read. So a name is formatted
when it is read: a pass in order formats each name once, and `emit_lp` makes
one such pass per sequence for the name check, the +1 and -1 term strings
and the text; reading by index formats the whole block run that holds the
name, and only the last block so read is kept formatted. `_pos`, the column
of each name, is built when it is first read: extform's builders read it
only before their first block, and `emit_lp` only for an objective.

The simplex reads one form, `_LP`: a column count, the sign (>= 0) columns
and a store of rows. `_lower` makes a system one, presolving a one-variable
row equivalent to v >= 0 into a sign column and copying the other rows a run
at a time; `extform.check_membership` builds its blocks as `_LP`s. `_solve`
goes from an `_LP` to a verified point: with no objective and no row that
needs an artificial, phase 1 would make no pivot from the slack basis, so
the point is the origin and no `_Tableau` is built (`_slack_point`).

Arithmetic is exact. Under the module's number rule a stored value is an int
when it is integral and a Fraction only when it is not (`_value`, which
reads every value that enters a system). The tableau holds no Fraction: each
row is ints over one positive int denominator, in lowest terms, and the rhs
column is scaled once by the lcm of the rhs denominators, so a pivot is one
int multiply-subtract per entry and one gcd per changed row; witnesses and
objective values become Fractions once, on the way out. Work is per nonzero,
and each coefficient is converted once, when its row is built; `emit_lp`
formats each distinct coefficient once. Every point is re-verified against
every row and sign column of its `_LP` by `_holds`, which sums in ints."""

import re
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, pairwise
from math import gcd, lcm
from operator import attrgetter, eq
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, TextIO

from .model import InvariantError


def _value(x) -> int | Fraction:
    """x under the module's number rule: an int if it is integral, else a
    Fraction (x itself if it is one); a float or a string converts exactly.
    Raises ValueError naming x if it has no exact value (a non-finite float,
    a zero denominator or a malformed string)."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        try:
            x = Fraction(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            raise ValueError(f"{x!r} is not a finite rational") from None
    return x.numerator if x.denominator == 1 else x


def _holds(terms, rel: str, rhs: int | Fraction, point: Mapping) -> bool:
    """Exact test of the row `terms rel rhs` at `point`, terms being (key,
    coefficient) pairs keyed as the point is; a key missing from the point
    reads as 0, and a value other than an int or a Fraction converts exactly
    (`_value`). The left-hand side is summed as an int numerator over an int
    denominator, so an integral row builds no Fraction (and at the origin,
    an empty point, no term is read)."""
    num, den = 0, 1
    for v, c in terms if point else ():
        x = point.get(v)
        if not x:  # missing, or a zero
            continue
        if type(x) is not int and type(x) is not Fraction:
            x = _value(x)
        tn, td = c.numerator * x.numerator, c.denominator * x.denominator
        if td == den:
            num += tn
        else:
            g = gcd(den, td)
            num = num * (td // g) + tn * (den // g)
            den = den // g * td
    # compare num / den with rhs across the (positive) denominators
    num, rhs = num * rhs.denominator, rhs.numerator * den
    if rel == "<=":
        return num <= rhs
    if rel == ">=":
        return num >= rhs
    return num == rhs


@dataclass(frozen=True)
class Constraint:
    """One named row `coeffs rel rhs`, read-only: coeffs is a read-only
    {name: value} mapping. Values follow the module's number rule, and a
    zero coefficient is dropped."""

    name: str
    coeffs: Mapping[str, int | Fraction]
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
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))
        object.__setattr__(self, "rhs", _value(self.rhs))

    def holds(self, point: Mapping[str, Fraction]) -> bool:
        """Exact test of the row at `point` (see `_holds`)."""
        return _holds(self.coeffs.items(), self.rel, self.rhs, point)


_RELS = ("<=", "=", ">=")  # a row's relation, by its code in the store
_LE, _EQ, _GE = range(3)
_CODES = {rel: code for code, rel in enumerate(_RELS)}


class _Store:
    """Rows in one flat form (see module notes): row r's terms are the
    columns cols[starts[r]:starts[r + 1]], ascending, with their values at
    the same places of vals; its relation is _RELS[rels[r]] and its
    right-hand side rhs[r]. Values follow the module's number rule, and no
    stored coefficient is zero."""

    __slots__ = ("cols", "vals", "starts", "rels", "rhs")

    def __init__(self):
        self.cols = array("I")  # unsigned, so no column is negative
        self.vals: list = []
        self.starts = array("Q", [0])
        self.rels = bytearray()
        self.rhs: list = []

    def __len__(self) -> int:
        return len(self.rhs)

    def __eq__(self, other):
        if not isinstance(other, _Store):
            return NotImplemented
        return (self.cols, self.vals, self.starts, self.rels, self.rhs) == (
            other.cols, other.vals, other.starts, other.rels, other.rhs)

    def __getitem__(self, r: int) -> tuple:
        """Row r as (columns, values, relation, rhs), the columns an array;
        a negative r counts from the end."""
        r = range(len(self))[r]
        lo, hi = self.starts[r], self.starts[r + 1]
        return self.cols[lo:hi], self.vals[lo:hi], _RELS[self.rels[r]], self.rhs[r]

    def holds(self, point: Mapping) -> bool:
        """Exact test of every row at `point`, keyed by column (`_holds`)."""
        if not point:  # the origin, where each left-hand side is 0
            return all(rhs >= 0 if code == _LE else rhs <= 0 if code == _GE else not rhs
                       for code, rhs in zip(self.rels, self.rhs))
        terms = zip(self.cols, self.vals)  # each row takes its hi - lo in turn
        return all(_holds(islice(terms, hi - lo), _RELS[code], rhs, point)
                   for (lo, hi), code, rhs in zip(pairwise(self.starts), self.rels, self.rhs))

    def extend(self, cols: list, vals: list, ends: list, rels: list, rhs: list) -> None:
        """Append a block of rows given as flat lists: row k's columns are
        cols[ends[k - 1]:ends[k]] (from 0 for k = 0), in ascending order,
        which the caller keeps, its values the same places of `vals`, its
        relation rels[k] and its right-hand side rhs[k]. The block's shape is
        checked once: raises ValueError, changing nothing, if the lengths
        disagree, an end goes back, a relation is unknown or a column is
        negative."""
        n = len(ends)
        if (len(vals) != len(cols) or len(rels) != n or len(rhs) != n
                or (ends[-1] if n else 0) != len(cols) or n and ends[0] < 0
                or sorted(ends) != ends):
            raise ValueError("a block's rows do not match its ends")
        try:
            codes = bytes(map(_CODES.__getitem__, rels))
        except KeyError as exc:
            raise ValueError(f"bad relation {exc.args[0]!r}") from None
        base = len(self.cols)
        try:
            self.cols.fromlist(cols)  # all or nothing
        except (OverflowError, TypeError):
            raise ValueError("a block row names a column outside the system") from None
        self.vals += vals
        self.starts.fromlist([base + e for e in ends])
        self.rels += codes
        self.rhs += rhs

    def without(self, drop: list[int]) -> "_Store":
        """A copy without the rows listed, ascending, in `drop`, made a run
        of kept rows at a time."""
        out, a = _Store(), 0
        for r in [*drop, len(self)]:
            if r > a:  # rows a .. r - 1: one copy of each field's run
                lo, hi = self.starts[a], self.starts[r]
                shift = len(out.cols) - lo
                out.cols += self.cols[lo:hi]
                out.vals += self.vals[lo:hi]
                ends = self.starts[a + 1:r + 1]
                out.starts += array("Q", [e + shift for e in ends]) if shift else ends
                out.rels += self.rels[a:r]
                out.rhs += self.rhs[a:r]
            a = r + 1
        return out


class _Run:
    """A block run of a name sequence: `size` names, which `format(*args)`
    returns as a list, in order, each time the run is read. It keeps what
    the names are made of, not the names."""

    __slots__ = ("size", "format", "args")

    def __init__(self, size: int, format: Callable[..., list[str]], *args):
        self.size, self.format, self.args = size, format, args

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[str]:
        names = self.format(*self.args)
        if len(names) != self.size:
            raise InvariantError(f"a block run formatted {len(names)} names, not {self.size}")
        return iter(names)


class _Names(Sequence):
    """A read-only sequence of names made of runs (see module notes), equal
    to the tuple of the same names: a literal run is a list of names, which
    the names of a literal block appended next join, and a block run is a
    `_Run`. Reading in order formats each name once; reading by index
    formats the whole block run that holds the name, and the last block run
    so read is the one kept formatted."""

    __slots__ = ("_runs", "_ends", "_block")

    def __init__(self, names: Iterable[str] = ()):
        self._runs: list = []
        self._ends = array("Q")  # run r's names end at _ends[r]
        self._block: tuple[int, list[str]] = (-1, [])  # (run, its names)
        self._add(names)

    def _add(self, run) -> None:
        """Append `run`, a `_Run` or names, which a literal run before it
        takes in."""
        if type(run) is not _Run:
            run = list(run)
            if self._runs and type(self._runs[-1]) is list:
                self._runs[-1] += run
                self._ends[-1] += len(run)
                return
        if len(run):
            self._runs.append(run)
            self._ends.append(len(self) + len(run))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(self._runs)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        k = range(len(self))[k]
        r = bisect_right(self._ends, k)
        run = self._runs[r]
        if r:
            k -= self._ends[r - 1]
        if type(run) is list:
            return run[k]
        if self._block[0] != r:
            self._block = r, list(run)
        return self._block[1][k]

    def __eq__(self, other):
        if not isinstance(other, (_Names, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass
class _Rows(Sequence):
    """A system's rows as `Constraint` views, each built when it is read."""

    _system: "ConstraintSystem"

    def __len__(self) -> int:
        return len(self._system._rows)

    def __getitem__(self, i: int) -> Constraint:
        s = self._system
        cols, vals, rel, rhs = s._rows[i]
        return Constraint(s._names[i], {s.variables[k]: c for k, c in zip(cols, vals)}, rel, rhs)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented


def _columns(variables: Sequence[str]) -> dict[str, int]:
    """Each variable's column; raises ValueError if two share a name."""
    pos = {v: k for k, v in enumerate(variables)}
    if len(pos) != len(variables):
        raise ValueError("duplicate variables")
    return pos


class ConstraintSystem:
    """Named rational variables, linear constraints stored by column (see
    module notes) and an optional minimization objective."""

    def __init__(self, name: str = "", variables=(), constraints=(),
                 objective: Optional[dict[str, Fraction]] = None):
        self.name = name
        self.variables = _Names(variables)  # fixed: a row's columns index it
        self.objective = objective
        self._cols: Optional[dict[str, int]] = _columns(self.variables)
        self._rows = _Store()
        self._names = _Names()  # row k's name
        self._append(Constraint(c.name, c.coeffs, c.rel, c.rhs) for c in constraints)

    @property
    def constraints(self) -> _Rows:
        return _Rows(self)

    @property
    def _pos(self) -> dict[str, int]:
        """Each variable's column (`_columns`), built again when first read
        after `_extend` declared variables."""
        if self._cols is None:
            self._cols = _columns(self.variables)
        return self._cols

    def _extend(self, variables: list[str] | _Run, names: list[str] | _Run, cols: list,
                vals: list, ends: list, rels: list, rhs: list) -> None:
        """Declare `variables`, kept distinct by the caller, and append a
        block of rows named `names`, given as `_Store.extend` takes it; each
        of the two is a run of its sequence (`_Names`), a list of names or a
        `_Run`. Checked once per block: raises ValueError, changing nothing,
        if a column is undeclared or the block's shape does not hold."""
        ncols = len(self.variables) + len(variables)
        if len(names) != len(ends) or max(cols, default=-1) >= ncols:
            raise ValueError("a block row names a column outside the system")
        self._rows.extend(cols, vals, ends, rels, rhs)
        if variables:
            self._cols = None
            self.variables._add(variables)
        self._names._add(names)

    def add_constraint(self, name, coeffs, rel, rhs) -> Constraint:
        """Append the row as a one-row block (`_append`) and return it."""
        con = Constraint(name, coeffs, rel, rhs)  # builds its own dict
        self._append([con])
        return con

    def _append(self, cons) -> None:
        """Append the Constraints `cons` as one block (`_extend`), each row
        translated to columns once and put in column order; raises
        ValueError, changing nothing, if one uses an undeclared variable."""
        pos = self._pos
        cols, vals, ends, names, rels, rhs = [], [], [], [], [], []
        for con in cons:
            if not pos.keys() >= con.coeffs.keys():
                unknown = sorted(con.coeffs.keys() - pos.keys())
                raise ValueError(f"constraint {con.name} uses undeclared {unknown}")
            at = {pos[v]: c for v, c in con.coeffs.items()}
            row = sorted(at)
            cols += row
            vals += map(at.__getitem__, row)
            ends.append(len(cols))
            names.append(con.name)
            rels.append(con.rel)
            rhs.append(con.rhs)
        self._extend([], names, cols, vals, ends, rels, rhs)

    def check_point(self, point: Mapping[str, Fraction]) -> bool:
        """Exact test of every row at `point`, by name (see `_holds`); other
        keys are ignored."""
        pos = self._pos
        at = {pos[v]: x for v, x in point.items() if v in pos}
        return self._rows.holds(at)

    def __eq__(self, other):
        if not isinstance(other, ConstraintSystem):
            return NotImplemented
        return (self.name, self.variables, self._names, self._rows) == (
            other.name, other.variables, other._names, other._rows
        ) and _objective_terms(self) == _objective_terms(other)


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "feasible" | "infeasible" | "unbounded"
    witness: Optional[dict[str, Fraction]] = None
    objective: Optional[Fraction] = None

    @property
    def is_feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


_denominator = attrgetter("denominator")


def _reduced(row: dict, den: int) -> tuple[dict, int]:
    """row / den in lowest terms: both divided by the gcd of den and every
    entry."""
    g = gcd(den, *row.values()) if den != 1 else 1
    return (row, den) if g == 1 else ({j: x // g for j, x in row.items()}, den // g)


def _eliminate(row: dict, den: int, prow: dict, pden: int, c: int) -> tuple[dict, int]:
    """row / den less its column-c entry times prow / pden, where prow[c] ==
    pden: the new (row, den), in lowest terms (row itself, changed in place,
    where no scale is needed). Entries that cancel are deleted, so column c
    goes; the rest is one int multiply-subtract per entry of prow."""
    f = row.get(c)
    if not f:
        return row, den
    if pden != 1:
        g = gcd(f, pden)
        if g != pden:  # scale row by pden / g so that f / pden times prow is in ints
            m = pden // g
            row = {j: x * m for j, x in row.items()}
            den *= m
        f //= g
    for j, b in prow.items():
        x = row.get(j, 0) - f * b
        if x:
            row[j] = x
        else:
            del row[j]
    return (row, den) if den == 1 else _reduced(row, den)


class _LP(NamedTuple):
    """The indexed form the tableau reads: columns 0 .. ncols - 1, those in
    `sign` constrained to be >= 0 and the rest free; the rows, a `_Store`;
    and an objective {column: value} to minimize, or None for a feasibility
    check. Values follow the module's number rule."""

    ncols: int
    sign: set[int]
    rows: _Store
    objective: Optional[dict[int, int | Fraction]] = None

    # a ConstraintSystem's shape under its names, which is what the trace
    # notes of perfbench/tracing.py read from every simplex_feasible call
    @property
    def variables(self) -> range:
        return range(self.ncols)

    @property
    def constraints(self) -> _Store:
        return self.rows


def _lower(system: ConstraintSystem,
           objective: Optional[Mapping[str, int | Fraction]] = None) -> _LP:
    """The system as an _LP, with `objective` (checked terms, or None) by
    column. A one-variable row equivalent to v >= 0 (c v >= 0 with c > 0, or
    c v <= 0 with c < 0) makes v a sign column; the other rows stay as stored
    (the system's own store where no row is dropped)."""
    rows = system._rows
    starts, rhs = rows.starts, rows.rhs
    sign: set[int] = set()
    drop = []
    for r, code in enumerate(rows.rels):
        if code != _EQ and not rhs[r]:
            lo = starts[r]
            if starts[r + 1] - lo == 1 and (rows.vals[lo] > 0) == (code == _GE):
                sign.add(rows.cols[lo])
                drop.append(r)
    if objective is not None:
        objective = {system._pos[v]: c for v, c in objective.items()}
    return _LP(len(system.variables), sign, rows.without(drop) if drop else rows, objective)


class _Tableau:
    """Sparse simplex tableau with Bland's rule (anti-cycling, deterministic).

    Row i is the ints rows[i], a {column: nonzero entry} dict, over the
    positive int dens[i], and is kept in lowest terms (`_reduced`); its basic
    column's entry equals its denominator. The cost row is cost over
    cost_den in the same way. The right-hand side is column `total`, scaled
    once by `scale`, the lcm of the rows' rhs denominators: a positive scale
    of a row or of the rhs column changes no sign, no ratio rhs / a and no
    tie, so Bland's rule and the ratio test read the ints as they are.
    Columns run structural (one per sign column of the _LP, two per free
    one), then one slack or surplus per inequality row, then the artificials
    from `first_art` on, one per row that is ">=" or "=" once its rhs is made
    nonnegative.
    """

    def __init__(self, lp: _LP):
        self.objective = lp.objective
        # every row is normalized to a nonnegative rhs, as (flip, rel,
        # |rhs|): a ">=" row is negated into "<=" unless its rhs is
        # positive, any other row where its rhs is negative
        rows_src = []
        scale = 1
        for code, b in zip(lp.rows.rels, lp.rows.rhs):
            rel = _RELS[code]
            flip = b <= 0 if rel == ">=" else b < 0
            if flip and rel != "=":
                rel = "<=" if rel == ">=" else ">="
            if type(b) is not int:
                scale = lcm(scale, b.denominator)
            rows_src.append((flip, rel, abs(b)))
        self.scale = scale

        # (LP column, sign) per tableau column; LP column k is tableau
        # column plus[k], less tableau column minus[k] unless k is a sign
        # column (minus[k] None)
        self.cols: list[tuple[int, int]] = []
        plus: list[int] = []
        minus: list[Optional[int]] = []
        for k in range(lp.ncols):
            plus.append(len(self.cols))
            minus.append(None if k in lp.sign else len(self.cols) + 1)
            self.cols += [(k, +1)] if k in lp.sign else [(k, +1), (k, -1)]
        self.nstruct = slack = len(self.cols)
        self.first_art = art = slack + sum(rel != "=" for _, rel, _ in rows_src)
        self.total = total = art + sum(rel != "<=" for _, rel, _ in rows_src)

        # each row over the lcm of its coefficients' denominators; "<="
        # gains a slack (basic), ">=" a surplus and an artificial (basic),
        # "=" an artificial (basic)
        self.rows: list[dict[int, int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        vals = lp.rows.vals
        fractions = Fraction in map(type, vals)  # else every row's den is 1
        terms = zip(lp.rows.cols, vals)  # each row takes its hi - lo in turn
        for (lo, hi), (flip, rel, b) in zip(pairwise(lp.rows.starts), rows_src):
            den = lcm(*map(_denominator, vals[lo:hi])) if fractions else 1
            row = {}
            for k, q in islice(terms, hi - lo):
                if den != 1:
                    q = q.numerator * (den // q.denominator)
                if flip:
                    q = -q
                row[plus[k]] = q
                j = minus[k]
                if j is not None:
                    row[j] = -q
            if rel == "<=":
                row[slack] = den
                self.basis.append(slack)
                slack += 1
            else:
                if rel == ">=":
                    row[slack] = -den
                    slack += 1
                row[art] = den
                self.basis.append(art)
                art += 1
            if b:
                row[total] = den * (b * scale if type(b) is int
                                    else b.numerator * (scale // b.denominator))
            self.rows.append(row)
            self.dens.append(den)
        if any(row.get(b) != den for row, den, b in zip(self.rows, self.dens, self.basis)):
            raise InvariantError("a row has no initial basic column")
        self.cost: dict[int, int] = {}
        self.cost_den = 1

    # -- pivoting ---------------------------------------------------------

    def _pivot(self, r: int, c: int):
        """Make column c basic in row r: row r is divided by its entry (its
        sign goes into the entries, so its denominator stays positive), then
        eliminated from every other row and from the cost row."""
        rows, dens = self.rows, self.dens
        prow, pden = rows[r], dens[r]
        piv = prow[c]
        if piv != pden:
            if piv < 0:
                prow, piv = {j: -x for j, x in prow.items()}, -piv
            prow, pden = _reduced(prow, piv)
            rows[r], dens[r] = prow, pden
        for i, row in enumerate(rows):  # a row without column c is left as it is
            if c in row and i != r:
                rows[i], dens[i] = _eliminate(row, dens[i], prow, pden, c)
        self.cost, self.cost_den = _eliminate(self.cost, self.cost_den, prow, pden, c)
        self.basis[r] = c

    def _price(self, cost: dict[int, int], den: int) -> None:
        """Take cost / den as the cost row, with every basic column's cost
        made zero by subtracting its row."""
        for row, rden, b in zip(self.rows, self.dens, self.basis):
            cost, den = _eliminate(cost, den, row, rden, b)
        self.cost, self.cost_den = cost, den

    def _bland(self) -> str:
        """Run Bland's rule over every column to optimality; returns
        'optimal' or 'unbounded'."""
        total = self.total
        while True:
            enter = min((j for j, x in self.cost.items() if j < total and x < 0), default=-1)
            if enter < 0:
                return "optimal"
            # the least ratio rhs / a over a > 0 (a row's denominator
            # cancels), compared by cross multiplication
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
            self._pivot(leave, enter)

    # -- phases -----------------------------------------------------------

    def phase1(self) -> bool:
        """Minimize the artificial sum; True iff the system is feasible."""
        self._price(dict.fromkeys(range(self.first_art, self.total), 1), 1)
        if self._bland() != "optimal":  # bounded below by 0
            raise InvariantError("phase-1 objective came out unbounded")
        if self.cost.get(self.total):
            return False
        # pivot leftover artificials out on their row's first other nonzero
        # column; drop rows that became redundant
        for i in range(len(self.rows) - 1, -1, -1):
            if self.basis[i] >= self.first_art:
                j = min(self.rows[i])
                if j < self.first_art:
                    self._pivot(i, j)
                else:
                    del self.rows[i], self.dens[i], self.basis[i]
        return True

    def phase2(self) -> tuple[str, Optional[Fraction]]:
        # after phase 1 every artificial is nonbasic at zero and may not
        # re-enter, so its column leaves the tableau
        art = range(self.first_art, self.total)
        for i, row in enumerate(self.rows):
            self.rows[i], self.dens[i] = _reduced(
                {j: x for j, x in row.items() if j not in art}, self.dens[i])
        obj = self.objective
        cost = {}
        for j, (k, sign) in enumerate(self.cols):
            c = obj.get(k)
            if c:
                cost[j] = c if sign > 0 else -c
        den = lcm(*map(_denominator, cost.values()))
        self._price({j: c.numerator * (den // c.denominator) for j, c in cost.items()}, den)
        if self._bland() == "unbounded":
            return "unbounded", None
        return "optimal", Fraction(-self.cost.get(self.total, 0), self.cost_den * self.scale)

    def witness(self) -> dict[int, Fraction]:
        """Each basic LP column's value at the current basis; a column that
        is not listed is zero."""
        values = {}
        for row, den, b in zip(self.rows, self.dens, self.basis):
            if b < self.nstruct:
                k, sign = self.cols[b]
                x = Fraction(sign * row.get(self.total, 0), den * self.scale)
                values[k] = values[k] + x if k in values else x
        return values


def _objective_terms(system: ConstraintSystem) -> dict[str, int | Fraction]:
    """The objective's nonzero terms, each value read as the simplex reads
    it (`_value`), so "0" and 0.0 are zeros."""
    exact = ((v, _value(c)) for v, c in (system.objective or {}).items())
    return {v: c for v, c in exact if c}


def _check_objective(system: ConstraintSystem) -> dict[str, int | Fraction]:
    """The objective's nonzero terms (`_objective_terms`); raises ValueError
    if one uses an undeclared variable, as `add_constraint` does for a row."""
    terms = _objective_terms(system)
    unknown = terms and terms.keys() - system._pos.keys()
    if unknown:
        raise ValueError(f"objective uses undeclared {sorted(unknown)}")
    return terms


def _slack_point(lp: _LP) -> Optional[dict]:
    """The origin, {}, where lp has no objective and no row needs an
    artificial (no "=" row, every "<=" row has rhs >= 0 and every ">=" row
    rhs <= 0): phase 1 would make no pivot from the slack basis. Else None."""
    return {} if lp.objective is None and all(
        rhs >= 0 if code == _LE else code == _GE and rhs <= 0
        for code, rhs in zip(lp.rows.rels, lp.rows.rhs)) else None


def _solve(lp: _LP) -> tuple[str, Optional[dict[int, int | Fraction]], Optional[Fraction]]:
    """Phase 1, then phase 2 if lp has an objective: (status, point, value).
    The point, `_slack_point`'s or else `_Tableau.witness`, is re-verified by
    substitution into every row and every sign column before it is returned;
    point and value are None where the status has none."""
    status, value = "feasible", None
    point = _slack_point(lp)
    if point is None:
        tab = _Tableau(lp)
        if not tab.phase1():
            return "infeasible", None, None
        if lp.objective is not None:
            status, value = tab.phase2()
            if status == "unbounded":
                return status, None, None
        point = tab.witness()
    if (any(x < 0 for k, x in point.items() if k in lp.sign)
            or not lp.rows.holds(point)):
        raise InvariantError("simplex witness failed re-verification")
    return status, point, value


def _result(system: ConstraintSystem, solved: tuple) -> SimplexResult:
    """`_solve`'s answer on `_lower(system)`, with the witness by name."""
    status, point, value = solved
    if point is None:
        return SimplexResult(status=status)
    witness = {v: Fraction(point.get(k, 0)) for v, k in system._pos.items()}
    return SimplexResult(status=status, witness=witness, objective=value)


def simplex_feasible(system: ConstraintSystem | _LP) -> SimplexResult:
    """Exact phase-I feasibility; a returned witness is re-verified by
    substitution into every constraint before being handed back. An `_LP`
    is solved as it is (`_solve`), and its witness is the verified point by
    column; a column that is not listed is zero."""
    if isinstance(system, _LP):
        status, point, _ = _solve(system)
        return SimplexResult(status=status, witness=point)
    return _result(system, _solve(_lower(system)))


def simplex_solve(system: ConstraintSystem) -> SimplexResult:
    """Minimize the objective: optimal (with witness), infeasible, or
    unbounded. An objective with no nonzero term is a feasibility check.
    Raises ValueError if the objective uses an undeclared variable."""
    terms = _check_objective(system)
    if not terms:
        return simplex_feasible(system)
    return _result(system, _solve(_lower(system, terms)))


# ---------------------------------------------------------------------------
# LP text format.
#
# Standard sections (Minimize / Subject To / Bounds / End); every variable is
# declared free in Bounds, in declaration order (sign constraints are rows).
# Coefficients are written as exact decimals; a row with a coefficient that
# has no finite decimal expansion moves to an extension line "\X name: 1/3 x
# + ... <= 2/3" that external parsers skip as a comment, and "\ exact"
# comments carry the fraction form of decimal rows. Names match
# [A-Za-z_][A-Za-z0-9_]*, so no name reads as a number, an operator, a
# separator or two tokens. The patterns below are that grammar;
# `_check_names` holds the writer to it, and `parse_lp` reads nothing else.
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_NAME_LINES_RE = re.compile(rf"{_NAME}(?:\n{_NAME})*")
# a magnitude: an integer, a decimal or a fraction with a nonzero denominator
_NUM = r"[0-9]+(?:\.[0-9]+|/[1-9][0-9]*)?"
# a term: a sign (optional on a row's first term), an optional magnitude
# with a space before the name, and the name
_TERM_RE = re.compile(rf"\s*([+-]?)\s*(?:({_NUM})\s+)?({_NAME})\s*")
_ROW_RE = re.compile(
    rf"(?P<name>{_NAME}):(?P<terms>[^<>=]*)(?:(?P<rel><=|>=|=)\s*(?P<rhs>-?{_NUM}))?"
)
_BOUND_RE = re.compile(rf"({_NAME})\s+free")


def _check_names(name: str, variables: list[str], rows: list[str]) -> None:
    """Raise ValueError naming the system name, or else the first variable,
    then constraint, name that `parse_lp` could not read back. The system
    name is read back stripped from one header line, so it may hold no line
    break (any that `str.splitlines` splits on) and no space at either end."""
    if name != name.strip() or len(name.splitlines()) > 1:
        raise ValueError(f"system name {name!r} has a line break or a space at one end")
    for kind, names in (("variable", variables), ("constraint", rows)):
        # one match over the names a line each, unless a name holds a "\n"
        text = "\n".join(names)
        if names and (text.count("\n") >= len(names) or not _NAME_LINES_RE.fullmatch(text)):
            name = next(v for v in names if not _NAME_RE.fullmatch(v))
            raise ValueError(f"{kind} name {name!r} does not match [A-Za-z_][A-Za-z0-9_]*")


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


def _joined(parts: list[str]) -> str:
    """A row's term texts as one term list: no "+" before the first term,
    and "0" for no term."""
    if not parts:
        return "0"
    text = "".join(parts)
    return text[3:] if text[1] == "+" else text[1:]


def emit_lp(system: ConstraintSystem, sink: TextIO) -> None:
    """Write the system deterministically in LP format (see module notes).
    Raises ValueError if the objective uses an undeclared variable or a name
    breaks the name grammar."""
    obj = _check_objective(system)
    # every name formatted once (see module notes), for the check and the text
    order, names = list(system.variables), list(system._names)
    _check_names(system.name, order, names)
    # per column, the term of a +1 and of a -1; each other distinct value is
    # formatted once, keyed by id() (a Fraction hashes slowly): every key's
    # object lives in the system or in `obj` until the call returns
    plus, minus = [f" + {v}" for v in order], [f" - {v}" for v in order]
    heads: dict[int, tuple] = {}
    values: dict[int, tuple] = {}

    def terms(pairs, rank: int) -> tuple[int, str, Optional[str]]:
        """The greater of `rank` and the ranks of the values of the (column,
        value) pairs, their terms with exact heads, and, at rank 1, with
        decimal heads."""
        parts, others = [], []  # others: (place, decimal head, column)
        for j, c in pairs:
            if c == 1:
                parts.append(plus[j])
            elif c == -1:
                parts.append(minus[j])
            else:
                head = heads.get(id(c))
                if head is None:  # (rank, exact head, decimal head): " - 2 ", " + 1/3 "
                    sign = " - " if c < 0 else " + "
                    r, e, d = _forms(abs(c))
                    head = heads[id(c)] = r, f"{sign}{e} ", d and f"{sign}{d} "
                if head[0] > rank:
                    rank = head[0]
                others.append((len(parts), head[2], j))
                parts.append(head[1] + order[j])
        exact = _joined(parts)
        if rank != 1:
            return rank, exact, None
        for k, d, j in others:
            parts[k] = d + order[j]
        return rank, exact, _joined(parts)

    w = sink.write
    w(f"\\ constraint-system: {system.name}\n")
    w(f"\\ variables: {len(order)}  constraints: {len(system._rows)}\n")
    w("Minimize\n")
    obj = {system._pos[v]: c for v, c in obj.items()}
    rank, exact, decimal = terms(sorted(obj.items()), 0)
    if rank == 2:
        w(f"\\X obj: {exact}\n obj: 0\n")
    else:
        if rank == 1:
            w(f"\\ exact obj: {exact}\n")
            exact = decimal
        w(f" obj: {exact}\n")
    w("Subject To\n")
    rows = system._rows
    pairs = zip(rows.cols, rows.vals)  # each row takes its hi - lo in turn
    for name, (lo, hi), code, rhs in zip(names, pairwise(rows.starts), rows.rels, rows.rhs):
        form = values.get(id(rhs))
        if form is None:
            form = values[id(rhs)] = _forms(rhs)
        rank, exact, decimal = terms(islice(pairs, hi - lo), form[0])
        rel = _RELS[code]
        if rank == 2:
            w(f"\\X {name}: {exact} {rel} {form[1]}\n")
        else:
            if rank == 1:
                w(f"\\ exact {name}: {exact} {rel} {form[1]}\n")
                exact = decimal
            w(f" {name}: {exact} {rel} {form[2]}\n")
    w("Bounds\n")
    if order:
        w(" " + " free\n ".join(order) + " free\n")
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
    rows: list[tuple] = []
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
                rows.append(_read_row(body, False))
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
    system = ConstraintSystem(name, variables,
                              objective=objectives.get(True, objectives.get(False)) or None)
    system._append(Constraint(*row) for row in rows)
    _check_objective(system)
    return system
