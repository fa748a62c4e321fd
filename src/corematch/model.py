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
from typing import Iterable, NamedTuple, Optional

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


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


def parse_rational(token: str, line: Optional[int] = None) -> Fraction:
    """Parse "<int>" or "<int>/<posint>" exactly; reject anything else."""
    if not _RATIONAL_RE.match(token):
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
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge {e.u}-{e.v}: unknown vertex")
            if e.u == e.v:
                raise ValueError(f"loop at vertex {e.u}")
            if e.key() in seen:
                raise ValueError(f"duplicate edge {e.u}-{e.v}")
            seen.add(e.key())
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
    """Payoff vector indexed by vertex id. Entries may be negative."""

    values: tuple[Fraction, ...]

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


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format into a validated Instance."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty instance file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "game":
        raise FormatError("expected header 'game <n> <m>'", no)
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise FormatError("non-integer counts in header", no) from None
    if n < 1:
        raise FormatError("instance needs at least one vertex", no)
    if len(lines) != 1 + n + m:
        raise FormatError(
            f"expected {n} vertex and {m} edge lines, found {len(lines) - 1}"
        )

    b: dict[int, int] = {}
    for no, line in lines[1 : 1 + n]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "vertex":
            raise FormatError("expected 'vertex <id> <b>'", no)
        try:
            vid, bv = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError("non-integer vertex line", no) from None
        if not 0 <= vid < n:
            raise FormatError(f"vertex id {vid} out of range", no)
        if vid in b:
            raise FormatError(f"duplicate vertex {vid}", no)
        if bv not in (1, 2):
            raise FormatError(f"capacity out of range at vertex {vid}: {bv}", no)
        b[vid] = bv

    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for no, line in lines[1 + n :]:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "edge":
            raise FormatError("expected 'edge <u> <v> <w>'", no)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError("non-integer edge endpoints", no) from None
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"unknown vertex in edge {u}-{v}", no)
        if u == v:
            raise FormatError(f"loop at vertex {u}", no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise FormatError(f"duplicate edge {u}-{v}", no)
        seen.add(key)
        w = parse_rational(parts[3], no)
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
        try:
            vid = int(parts[0])
        except ValueError:
            raise FormatError(f"non-integer vertex id {parts[0]!r}", no) from None
        if not 0 <= vid < inst.n:
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
