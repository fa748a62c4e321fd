"""Data model for 2-matching games: instances, allocations, violations, file I/O.

All numeric quantities are exact rationals (`fractions.Fraction`); no floating
point is used anywhere a decision depends on arithmetic.
"""

from __future__ import annotations

import math
import random
import re
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from functools import cached_property
from numbers import Real
from typing import Iterable, NamedTuple, Optional, Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class FormatError(ValueError):
    """Malformed instance/allocation text. Carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvariantError(RuntimeError):
    """An internal exactness check failed (a bug, never a bad input). Raised
    explicitly rather than asserted, so `python -O` keeps the check."""


class SizeGuardError(RuntimeError):
    """A brute-force oracle refused an input past its size guard."""


# the most digits an integer in an input file may have (Python's default
# limit on converting a str to an int); the parsers hold input to it
# themselves, so the CLI can lift the interpreter's limit to print values
# derived from the files, which may be longer
MAX_DIGITS = 4300


def _int(digits: str, line: Optional[int]) -> int:
    """int(digits) for ASCII digits with an optional sign; more than
    MAX_DIGITS digits is a FormatError."""
    if len(digits.lstrip("+-")) > MAX_DIGITS:
        raise FormatError(f"integer with too many digits ({len(digits)})", line)
    return int(digits)


def parse_uint(token: str, line: Optional[int] = None) -> int:
    """Parse an unsigned ASCII integer, [0-9]+; reject signs, "_" and other
    digits."""
    if not (token.isascii() and token.isdigit()):
        raise FormatError(f"malformed integer {token!r}", line)
    return _int(token, line)


def parse_rational(token: str, line: Optional[int] = None) -> Fraction:
    """Parse "<int>" or "<int>/<posint>" exactly (optional sign, ASCII
    digits); reject anything else."""
    if not _RATIONAL_RE.fullmatch(token):
        raise FormatError(f"malformed rational {token!r}", line)
    # the regex has checked the grammar, so build from ints rather than
    # letting Fraction parse the string again
    num, slash, den = token.partition("/")
    if not slash:
        return Fraction(_int(num, line))
    d = _int(den, line)
    if d == 0:
        raise FormatError(f"zero denominator in {token!r}", line)
    return Fraction(_int(num, line), d)


class Edge(NamedTuple):
    u: int
    v: int
    w: Fraction

    def key(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def other(self, x: int) -> int:
        return self.v if x == self.u else self.u


def _is_exact(x) -> bool:
    """Whether x is an int or a Fraction (bools and floats are not)."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    """Whether x is an int (a bool is not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index(x, valid) -> bool:
    """The index rule: x is an int (a bool is not) in `valid`, a range, a
    list of allowed values or a vertex set; every public function that
    takes a vertex id or an edge index reads it."""
    return _is_int(x) and x in valid


class GraphError(ValueError):
    """A graph or game that breaks a rule of its type, at the position of
    the offending edge (in edge order) or vertex, or at neither for a rule
    of the whole (the vertex count, vertices that repeat)."""

    def __init__(self, message: str, edge: Optional[int] = None, vertex: Optional[int] = None):
        self.edge, self.vertex = edge, vertex
        super().__init__(message)


def check_simple_graph(vertices: Sequence, edges: Iterable[Sequence]) -> None:
    """Raise GraphError unless `vertices` are distinct and each edge, a
    sequence opening with its endpoints (u, v, ...), joins two distinct
    vertices of `vertices` that no earlier edge joins.

    One pass over the edges; vertices need only be hashable.
    """
    known = set(vertices)
    if len(known) != len(vertices):
        raise GraphError("duplicate vertices")
    seen = set()
    for k, e in enumerate(edges):
        u, v = e[0], e[1]
        if u not in known or v not in known:
            raise GraphError(f"unknown vertex in edge {u}-{v}", k)
        if u == v:
            raise GraphError(f"loop at vertex {u}", k)
        if (u, v) in seen or (v, u) in seen:
            raise GraphError(f"duplicate edge {u}-{v}", k)
        seen.add((u, v))


@contextmanager
def lines_blamed(lines, edge_lines, vertex_lines=None):
    """Turn a GraphError into a FormatError, with the same text, on the line
    of its edge (`edge_lines`, the edges' (line number, text) pairs) or
    vertex (`vertex_lines` maps it to its line number), else on the header,
    the first of the file's `lines`."""
    try:
        yield
    except GraphError as err:
        no = (edge_lines[err.edge][0] if err.edge is not None
              else lines[0][0] if err.vertex is None else vertex_lines[err.vertex])
        raise FormatError(str(err), no) from None


class _Frozen:
    """Base of the validated types. `__init__`, each type's one validator,
    sets the fields named in `_fields` with `object.__setattr__`; after that
    a field can be neither assigned nor deleted. Objects of one type are
    equal, and hash alike, when their `_key()`s are; the repr shows every
    field, and a pickle or a copy goes through `__init__` again."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    _key = _astuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={x!r}" for f, x in zip(self._fields, self._astuple()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Instance(_Frozen):
    """A 2-matching game: simple graph, capacities b in {1,2}, weights w >= 0,
    each rule stated once, in `__init__`, an edge's own before the graph's.

    Vertex ids are dense 0-based integers; edge order is the file order and is
    preserved so downstream scans and certificates are deterministic.
    """

    # no __slots__: the cached properties below keep their values in __dict__
    _fields = ("n", "b", "edges", "name")

    def __init__(self, n: int, b: tuple[int, ...], edges: tuple[Edge, ...], name: str = ""):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "name", name)
        if not _is_int(self.n):
            raise GraphError(f"vertex count is not an int: {self.n!r}")
        if self.n < 1:
            raise GraphError("instance needs at least one vertex")
        if len(self.b) != self.n:
            raise GraphError("capacity vector length != n")
        for v, bv in enumerate(self.b):
            if not _is_int(bv):
                raise GraphError(f"capacity at vertex {v} is not an int: {bv!r}", vertex=v)
            if bv not in (1, 2):
                raise GraphError(f"capacity out of range at vertex {v}: {bv}", vertex=v)
        for k, e in enumerate(self.edges):
            if not isinstance(e, Edge):
                raise GraphError(f"edge {k} is not an Edge: {e!r}", k)
            u, v, w = e
            if not (_is_int(u) and _is_int(v)):
                raise GraphError(f"edge {k} has an endpoint that is not an int: {u!r}-{v!r}", k)
            if not _is_exact(w):
                raise GraphError(f"weight on edge {u}-{v} is not an int or a Fraction: {w!r}", k)
            if w < 0:
                raise GraphError(f"negative weight on edge {u}-{v}", k)
        check_simple_graph(range(self.n), self.edges)

    def _key(self) -> tuple:
        return self.n, self.b, self.edges  # the name is not compared

    @cached_property
    def grand_value(self) -> Fraction:
        """ν(N), the grand coalition's value: computed on first use and
        dropped with this object."""
        from . import matching  # matching imports this module

        return matching.b_matching_value(self)

    @cached_property
    def scaled_weights(self) -> tuple[tuple[int, ...], int]:
        """The edge weights times the lcm of their denominators, as ints in
        edge order, and that lcm: computed on first use, for the b-matching
        value solves and the transfer costs."""
        from . import matching  # matching imports this module

        ints, scale = matching._scale(e.w for e in self.edges)
        return tuple(ints), scale

    @cached_property
    def skeleton(self):
        """`separation.skeleton`: computed on first use and dropped with this object."""
        from . import separation  # separation imports this module

        return separation.skeleton(self)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _incident(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            inc[e.u].append(i)
            inc[e.v].append(i)
        return tuple(tuple(x) for x in inc)

    def _check_vertices(self, *xs) -> None:
        for x in xs:
            if not _is_index(x, range(self.n)):
                raise ValueError(f"not a vertex of the game: {x!r}")

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge indices incident to v, in edge-index order; ValueError unless
        v is a vertex id."""
        self._check_vertices(v)
        return self._incident[v]

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e.key(): i for i, e in enumerate(self.edges)}

    def find_edge(self, u: int, v: int) -> Optional[int]:
        """The index of edge uv, or None; ValueError unless u and v are vertex ids."""
        self._check_vertices(u, v)
        return self.edge_index.get((u, v) if u < v else (v, u))

    @cached_property
    def n2(self) -> tuple[int, ...]:
        """Vertices with capacity 2, ascending."""
        return tuple(v for v in range(self.n) if self.b[v] == 2)

    @cached_property
    def e2(self) -> tuple[int, ...]:
        """Indices of the edges joining two capacity-2 vertices, ascending."""
        b = self.b
        return tuple(i for i, e in enumerate(self.edges) if b[e.u] == 2 == b[e.v])

    @cached_property
    def nbrs2(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex v, the pairs (x, i) for every edge i = vx whose other
        end x has capacity 2, in edge-index order: A(v) when b_v = 1.
        `separation._ends` reads it, the one place the endpoint-variant rule
        is stated: a capacity-1 endpoint v keeps one such edge, with x other
        than the far endpoint."""
        edges, b = self.edges, self.b
        return tuple(
            tuple((x, i) for i in inc if b[x := edges[i].other(v)] == 2)
            for v, inc in enumerate(self._incident)
        )


class Allocation(_Frozen):
    """Payoff vector indexed by vertex id. Entries are ints or Fractions,
    stored as Fractions so that halving one stays exact, and may be negative."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        object.__setattr__(self, "values", values)
        for v, x in enumerate(self.values):
            if not _is_exact(x):
                raise ValueError(f"allocation entry {v} is not an int or a Fraction: {x!r}")
        if not all(type(x) is Fraction for x in self.values):
            object.__setattr__(self, "values", tuple(map(Fraction, self.values)))

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)

    def total(self) -> Fraction:
        """p(N), summed in ints over the lcm of the denominators."""
        lcm = math.lcm(*(x.denominator for x in self.values))
        return Fraction(sum(x.numerator * (lcm // x.denominator) for x in self.values), lcm)

    def of(self, S: Iterable[int]) -> Fraction:
        """p(S), the allocation total over a coalition."""
        return sum((self.values[v] for v in S), Fraction(0))


def check_allocation_length(inst: Instance, p: Allocation) -> None:
    """Raise ValueError unless p has one entry per vertex of inst."""
    if len(p) != inst.n:
        raise ValueError("allocation length differs from the vertex count")


def check_coalition(inst: Instance, S: Iterable[int]) -> set[int]:
    """The members of S; ValueError when one is not an int (a bool is not)
    or lies outside 0..n-1."""
    members = tuple(S)
    for v in members:  # before any set, which would merge True into a 1
        if not _is_index(v, range(inst.n)):
            raise ValueError("coalition contains unknown vertices" if _is_int(v)
                             else f"coalition member is not an int: {v!r}")
    return set(members)


def coalition(members: Iterable[int]) -> tuple[int, ...]:
    """Canonical coalition form: strictly increasing vertex tuple."""
    out = tuple(sorted(set(members)))
    if not out:
        raise ValueError("empty coalition")
    return out


class ViolationKind(Enum):
    TOTAL_VALUE = "TotalValue"
    VERTEX = "Vertex"
    EDGE = "Edge"
    CYCLE = "Cycle"
    PATH = "Path"
    # Brute-force certificates: a maximally violated coalition need not be a
    # vertex/edge/cycle/path, so the oracle reports this catch-all kind.
    COALITION = "Coalition"


class Violation(NamedTuple):
    """Certificate that an allocation is not in the core.

    For every kind except TotalValue, allocated < bound; for TotalValue,
    allocated != bound. For Cycle/Path the witness edges form the simple
    cycle/path on exactly the coalition's vertices and bound = w(witness).
    """

    kind: ViolationKind
    coalition: tuple[int, ...]
    allocated: Fraction
    bound: Fraction
    witness_edges: tuple[int, ...] = ()

    def describe(self) -> str:
        ids = ",".join(str(v) for v in self.coalition)
        return (
            f"kind={self.kind.value} S={{{ids}}} "
            f"p(S)={self.allocated} bound={self.bound}"
        )


# ---------------------------------------------------------------------------
# File formats
#
#   instance:  "game <n> <m>" header, then n "vertex <id> <b>" lines, then
#              m "edge <u> <v> <w>" lines; '#' starts a comment.
#   allocation: n lines "<id> <rational>".
# ---------------------------------------------------------------------------


def _content_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_edge_lines(lines, value: str):
    """Read "edge <u> <v> <value>" lines: yields (line number, u, v,
    rational) per line; raises FormatError, with the line number, on a
    malformed line. Each distinct token is read once, at its first line, so
    edges that share a value token share its Fraction. Whether the edges
    and their values obey the rules of the graph's type is the type's to
    decide (see `lines_blamed`)."""
    ends: dict[str, int] = {}
    values: dict[str, Fraction] = {}
    for no, line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "edge":
            raise FormatError(f"expected 'edge <u> <v> <{value}>'", no)
        _, su, sv, sx = parts
        u = ends.get(su)
        if u is None:
            u = ends[su] = parse_uint(su, no)
        v = ends.get(sv)
        if v is None:
            v = ends[sv] = parse_uint(sv, no)
        x = values.get(sx)
        if x is None:
            x = values[sx] = parse_rational(sx, no)
        yield no, u, v, x


def parse_header(lines, word: str, what: str) -> tuple[int, int]:
    """The counts n and m of the "<word> <n> <m>" header, the first of the
    (line number, content) `lines`."""
    if not lines:
        raise FormatError(f"empty {what} file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != word:
        raise FormatError(f"expected header '{word} <n> <m>'", no)
    return parse_uint(parts[1], no), parse_uint(parts[2], no)


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format into an Instance. The parser
    only reads (header, line count, tokens, vertex ids in range and not
    repeated); `Instance` is the one validator, and its GraphError lands on
    its edge's or vertex's line, or the header. So file shape and syntax
    errors come first, then the game's rules."""
    lines = list(_content_lines(text))
    n, m = parse_header(lines, "game", "instance")
    if len(lines) != 1 + n + m:
        raise FormatError(
            f"expected {n} vertex and {m} edge lines, found {len(lines) - 1}"
        )

    b, at = {}, {}  # vertex id -> capacity, and -> its line number
    for no, line in lines[1 : 1 + n]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "vertex":
            raise FormatError("expected 'vertex <id> <b>'", no)
        vid, bv = parse_uint(parts[1], no), parse_uint(parts[2], no)
        if vid >= n:
            raise FormatError(f"vertex id {vid} out of range", no)
        if vid in b:
            raise FormatError(f"duplicate vertex {vid}", no)
        b[vid], at[vid] = bv, no

    edges = [Edge(u, v, w) for _, u, v, w in parse_edge_lines(lines[1 + n :], "w")]
    with lines_blamed(lines, lines[1 + n :], at):
        return Instance(n=n, b=tuple(b[i] for i in range(n)), edges=tuple(edges))


def emit_instance(inst: Instance) -> str:
    """Instance back to text; parse(emit(inst)) == inst."""
    out = [f"game {inst.n} {inst.m}"]
    out += [f"vertex {v} {inst.b[v]}" for v in range(inst.n)]
    out += [f"edge {e.u} {e.v} {e.w}" for e in inst.edges]
    return "\n".join(out) + "\n"


def parse_allocation(text: str, inst: Instance) -> Allocation:
    """Parse "<id> <rational>" lines covering every vertex exactly once."""
    values: dict[int, Fraction] = {}
    for no, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError("expected '<id> <rational>'", no)
        vid = parse_uint(parts[0], no)
        if vid >= inst.n:
            raise FormatError(f"unknown vertex id {vid}", no)
        if vid in values:
            raise FormatError(f"duplicate vertex {vid}", no)
        values[vid] = parse_rational(parts[1], no)
    if len(values) != inst.n:
        missing = sorted(set(range(inst.n)) - set(values))
        raise FormatError(f"allocation incomplete: missing vertices {missing}")
    return Allocation(tuple(values[v] for v in range(inst.n)))


def emit_allocation(alloc: Allocation) -> str:
    return "".join(
        f"{v} {x}\n" for v, x in enumerate(alloc.values)
    )


def random_instance(seed: int, n: int, density: Fraction, wmax: int) -> Instance:
    """Deterministic random instance: Bernoulli(density) edges, integer weights
    uniform in [0, wmax], capacities uniform in {1, 2}.

    Identical arguments always produce identical instances. ValueError
    unless n and wmax are ints (a bool is not), wmax >= 0, and density is a
    real number in [0, 1].
    """
    for name, x in (("n", n), ("wmax", wmax)):
        if not _is_int(x):
            raise ValueError(f"{name} must be an int: {x!r}")
    if not isinstance(density, Real) or isinstance(density, bool):
        raise ValueError(f"density must be a real number: {density!r}")
    if not 0 <= density <= 1:
        raise ValueError("density must lie in [0, 1]")
    if wmax < 0:
        raise ValueError("wmax must be >= 0")
    rng = random.Random(seed)
    b = tuple(rng.randint(1, 2) for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append(Edge(u, v, Fraction(rng.randint(0, wmax))))
    return Instance(
        n=n,
        b=b,
        edges=tuple(edges),
        name=f"random(seed={seed},n={n},density={density},wmax={wmax})",
    )
