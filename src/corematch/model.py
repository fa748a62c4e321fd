"""Data model for 2-matching games: instances, allocations, violations, file I/O.

All numeric quantities are exact rationals (`fractions.Fraction`); no floating
point is used anywhere a decision depends on arithmetic.
"""

import random
import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
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


def parse_uint(token: str, line: Optional[int] = None) -> int:
    """Parse an unsigned ASCII integer, [0-9]+; reject signs, "_" and other
    digits."""
    if not (token.isascii() and token.isdigit()):
        raise FormatError(f"malformed integer {token!r}", line)
    return int(token)


def parse_rational(token: str, line: Optional[int] = None) -> Fraction:
    """Parse "<int>" or "<int>/<posint>" exactly (optional sign, ASCII
    digits); reject anything else."""
    if not _RATIONAL_RE.fullmatch(token):
        raise FormatError(f"malformed rational {token!r}", line)
    if "/" in token and int(token.split("/")[1]) == 0:
        raise FormatError(f"zero denominator in {token!r}", line)
    return Fraction(token)


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


def check_simple_graph(vertices: Sequence, edges: Iterable[Sequence]) -> None:
    """Raise ValueError unless `vertices` are distinct and each edge, a
    sequence opening with its endpoints (u, v, ...), joins two distinct
    vertices of `vertices` that no earlier edge joins.

    One pass over the edges; vertices need only be hashable.
    """
    known = set(vertices)
    if len(known) != len(vertices):
        raise ValueError("duplicate vertices")
    seen = set()
    for e in edges:
        u, v = e[0], e[1]
        if u not in known or v not in known:
            raise ValueError(f"unknown vertex in edge {u}-{v}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if (u, v) in seen or (v, u) in seen:
            raise ValueError(f"duplicate edge {u}-{v}")
        seen.add((u, v))


@dataclass(frozen=True)
class Instance:
    """A 2-matching game: simple graph, capacities b in {1,2}, weights w >= 0.

    Vertex ids are dense 0-based integers; edge order is the file order and is
    preserved so downstream scans and certificates are deterministic.
    """

    n: int
    b: tuple[int, ...]
    edges: tuple[Edge, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("instance needs at least one vertex")
        if len(self.b) != self.n:
            raise ValueError("capacity vector length != n")
        for v, bv in enumerate(self.b):
            if bv not in (1, 2):
                raise ValueError(f"capacity out of range at vertex {v}: {bv}")
        check_simple_graph(range(self.n), self.edges)
        for e in self.edges:
            if not _is_exact(e.w):
                raise ValueError(
                    f"weight on edge {e.u}-{e.v} is not an int or a Fraction: {e.w!r}"
                )
            if e.w < 0:
                raise ValueError(f"negative weight on edge {e.u}-{e.v}")

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

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge indices incident to v, in edge-index order."""
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e.key(): i for i, e in enumerate(self.edges)}

    def find_edge(self, u: int, v: int) -> Optional[int]:
        return self.edge_index.get((u, v) if u < v else (v, u))

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached_property
    def n2(self) -> tuple[int, ...]:
        """Vertices with capacity 2, ascending."""
        return tuple(v for v in range(self.n) if self.b[v] == 2)

    def total_weight(self) -> Fraction:
        return sum((e.w for e in self.edges), Fraction(0))


@dataclass(frozen=True)
class Allocation:
    """Payoff vector indexed by vertex id. Entries are ints or Fractions and
    may be negative."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        for v, x in enumerate(self.values):
            if not _is_exact(x):
                raise ValueError(f"allocation entry {v} is not an int or a Fraction: {x!r}")

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def of(self, S: Iterable[int]) -> Fraction:
        """p(S), the allocation total over a coalition."""
        return sum((self.values[v] for v in S), Fraction(0))


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


@dataclass(frozen=True)
class Violation:
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


def parse_edge_lines(lines, n: int, value: str):
    """Read "edge <u> <v> <value>" lines of a graph on vertices 0..n-1.

    Yields (line number, u, v, rational) per line; raises FormatError, with
    the line number, on a malformed line, an unknown vertex, a loop or a
    repeated edge in either orientation.
    """
    seen: set[tuple[int, int]] = set()
    for no, line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "edge":
            raise FormatError(f"expected 'edge <u> <v> <{value}>'", no)
        u, v = parse_uint(parts[1], no), parse_uint(parts[2], no)
        if not (u < n and v < n):
            raise FormatError(f"unknown vertex in edge {u}-{v}", no)
        if u == v:
            raise FormatError(f"loop at vertex {u}", no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise FormatError(f"duplicate edge {u}-{v}", no)
        seen.add(key)
        yield no, u, v, parse_rational(parts[3], no)


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
    """Parse the line-oriented instance format into a validated Instance."""
    lines = list(_content_lines(text))
    n, m = parse_header(lines, "game", "instance")
    if n < 1:
        raise FormatError("instance needs at least one vertex", lines[0][0])
    if len(lines) != 1 + n + m:
        raise FormatError(
            f"expected {n} vertex and {m} edge lines, found {len(lines) - 1}"
        )

    b: dict[int, int] = {}
    for no, line in lines[1 : 1 + n]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "vertex":
            raise FormatError("expected 'vertex <id> <b>'", no)
        vid, bv = parse_uint(parts[1], no), parse_uint(parts[2], no)
        if vid >= n:
            raise FormatError(f"vertex id {vid} out of range", no)
        if vid in b:
            raise FormatError(f"duplicate vertex {vid}", no)
        if bv not in (1, 2):
            raise FormatError(f"capacity out of range at vertex {vid}: {bv}", no)
        b[vid] = bv

    edges: list[Edge] = []
    for no, u, v, w in parse_edge_lines(lines[1 + n :], n, "w"):
        if w < 0:
            raise FormatError(f"negative weight on edge {u}-{v}", no)
        edges.append(Edge(u, v, w))
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

    Identical arguments always produce identical instances.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
