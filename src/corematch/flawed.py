"""A previously published layered-graph path-separation procedure, replicated
as-is because it is subtly wrong, plus the instance demonstrating the flaw.

The procedure searches, for every endpoint pair (i0, j0) and length k, for a
negative-weight i0-j0 path in a layered product graph. Layered paths may
revisit vertices of the underlying graph, so a negative layered path does not
certify a violated (simple) path constraint: the bundled counterexample has a
core allocation that the scan nevertheless rejects. So does a game with one
edge, `data/one-edge.game`: edge 0-1 of weight 10 between two capacity-2
vertices, where p = (5, 5, 0, 0) is in the core and the walk 0,1,0,1 (k = 3)
weighs -10.

Fidelity: the repository's copy of the paper (PAPER.md) holds only its
abstract, so whether the published procedure also let k run up to n - 1
with repeated interior vertices, as `build_layered` does, is not checked
against the published text; the replication keeps that reading.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import oracle, separation
from .model import Allocation, Instance, _is_index, check_allocation_length, parse_instance


@dataclass(frozen=True)
class LayeredGraph:
    """Product of the instance with a length-k path, between i0 and j0.

    Layer 0 holds i0, layer k holds j0, layers 1..k-1 hold the capacity-2
    vertex set. Arc weights put the full allocation share on the endpoints
    and half a share on each interior visit:

        i0 -> j:   p_i0 + p_j/2 - w
        i  -> j:   (p_i + p_j)/2 - w
        i  -> j0:  p_i/2 + p_j0 - w         (k = 1 collapses to p_i0 + p_j0 - w)
    """

    i0: int
    j0: int
    k: int
    layers: tuple[tuple[int, ...], ...]  # vertex ids per layer, 0..k
    arcs: tuple[tuple[tuple[int, int, Fraction], ...], ...]  # arcs[r]: layer r-1 -> r


def build_layered(inst: Instance, p: Allocation, i0: int, j0: int, k: int) -> LayeredGraph:
    check_allocation_length(inst, p)
    if i0 == j0 or not (_is_index(i0, range(inst.n)) and _is_index(j0, range(inst.n))):
        raise ValueError("endpoints must be two distinct vertices")
    if not _is_index(k, range(1, inst.n)):
        raise ValueError(f"length k must lie in 1..{inst.n - 1}")
    n2 = inst.n2
    layers = [(i0,)] + [n2] * (k - 1) + [(j0,)]

    arcs: list[tuple[tuple[int, int, Fraction], ...]] = []
    for r in range(1, k + 1):
        level = []
        for i in layers[r - 1]:
            for eidx in inst.incident(i):
                e = inst.edges[eidx]
                j = e.other(i)
                if j not in layers[r]:
                    continue
                if r == 1 and r == k:
                    weight = p[i] + p[j] - e.w
                elif r == 1:
                    weight = p[i] + p[j] / 2 - e.w
                elif r == k:
                    weight = p[i] / 2 + p[j] - e.w
                else:
                    weight = (p[i] + p[j]) / 2 - e.w
                level.append((i, j, weight))
        level.sort(key=lambda a: (a[1], a[0]))
        arcs.append(tuple(level))
    return LayeredGraph(i0=i0, j0=j0, k=k, layers=tuple(layers), arcs=tuple(arcs))


@dataclass(frozen=True)
class LayeredPath:
    i0: int
    j0: int
    k: int
    vertices: tuple[int, ...]  # walk through the instance, length k+1
    weight: Fraction


def shortest_layered_path(lg: LayeredGraph) -> Optional[LayeredPath]:
    """Layer-by-layer DP (the graph is acyclic); ties keep the smallest
    predecessor id. None when j0 is unreachable in exactly k steps."""
    dist: dict[int, Fraction] = {lg.i0: Fraction(0)}
    pred: list[dict[int, int]] = []
    for level in lg.arcs:
        ndist: dict[int, Fraction] = {}
        npred: dict[int, int] = {}
        for i, j, w in level:
            if i not in dist:
                continue
            d = dist[i] + w
            if j not in ndist or d < ndist[j]:
                ndist[j] = d
                npred[j] = i
        dist = ndist
        pred.append(npred)
    if lg.j0 not in dist:
        return None
    walk = [lg.j0]
    for r in range(lg.k - 1, -1, -1):
        walk.append(pred[r][walk[-1]])
    walk.reverse()
    return LayeredPath(
        i0=lg.i0, j0=lg.j0, k=lg.k, vertices=tuple(walk), weight=dist[lg.j0]
    )


def flawed_separate_paths(inst: Instance, p: Allocation) -> Optional[LayeredPath]:
    """Scan all (i0, j0, k) in order; return the first strictly negative
    shortest layered path, or None."""
    check_allocation_length(inst, p)
    for i0 in range(inst.n):
        for j0 in range(inst.n):
            if j0 == i0:
                continue
            for k in range(1, inst.n):
                best = shortest_layered_path(build_layered(inst, p, i0, j0, k))
                if best is not None and best.weight < 0:
                    return best
    return None


# ---------------------------------------------------------------------------
# The counterexample: a 5-vertex game whose displayed allocation is in the
# core, yet the layered scan reports a negative "path" that revisits a vertex.
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_TEXT = """\
# counterexample to the layered-graph path separation
game 5 4
vertex 0 1   # s
vertex 1 1   # t
vertex 2 2   # u
vertex 3 2   # v
vertex 4 1   # w
edge 0 2 1   # s-u
edge 1 2 1   # t-u
edge 2 3 10  # u-v
edge 3 4 1   # v-w
"""

COUNTEREXAMPLE_NAMES = ("s", "t", "u", "v", "w")


def counterexample_instance() -> Instance:
    return parse_instance(COUNTEREXAMPLE_TEXT)


def counterexample_allocation() -> Allocation:
    return Allocation(tuple(Fraction(x) for x in (0, 0, 2, 10, 0)))


def demo_counterexample() -> str:
    """Run the corrected oracle, the brute-force oracle, and the flawed scan
    on the counterexample, and report all three verdicts."""
    inst = counterexample_instance()
    p = counterexample_allocation()
    names = COUNTEREXAMPLE_NAMES

    verdict = separation.separate(inst, p)
    brute = oracle.core_check_bruteforce(inst, p)
    flaw = flawed_separate_paths(inst, p)

    lines = []
    lines.append("layered path separation: counterexample")
    lines.append("========================================")
    lines.append(
        "instance: 5 vertices "
        + " ".join(f"{names[v]}(b={inst.b[v]})" for v in range(inst.n))
        + "; edges "
        + " ".join(
            f"{names[e.u]}-{names[e.v]}:{e.w}" for e in inst.edges
        )
    )
    lines.append(
        "allocation p = ("
        + ", ".join(str(x) for x in p.values)
        + ")"
    )
    lines.append(f"nu(N) = {inst.grand_value}")
    lines.append(
        f"p(N)  = {p.total()}"
        + (" (matches nu(N))" if p.total() == inst.grand_value else " (MISMATCH)")
    )
    lines.append(
        "corrected separation:  "
        + ("InCore" if verdict.in_core else f"Violated [{verdict.violation.describe()}]")
    )
    lines.append(
        "brute-force coalition scan: "
        + ("InCore" if brute is None else f"Violated [{brute.describe()}]")
    )
    if flaw is None:
        lines.append("flawed layered scan:   no negative path")
    else:
        walk = "(" + ",".join(names[v] for v in flaw.vertices) + ")"
        pshare = flaw.weight + sum(
            inst.edges[inst.find_edge(a, b)].w
            for a, b in zip(flaw.vertices, flaw.vertices[1:])
        )
        wshare = pshare - flaw.weight
        lines.append(
            f"flawed layered scan:   negative path {walk} weight "
            f"{flaw.weight} ({pshare} - {wshare})"
        )
        revisits = len(flaw.vertices) - len(set(flaw.vertices))
        if verdict.in_core and revisits:
            lines.append(
                "the scan rejects a core allocation: its witness revisits "
                f"{revisits} vertex(es), so it is not a simple path"
            )
    return "\n".join(lines) + "\n"
