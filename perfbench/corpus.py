"""Seeded query generators for the corematch benchmark.

Every input is built here from the benchmark's seed; the program only ever
receives the generated instances, allocations and graphs. Three sources feed
the workloads:

* planted instances: a perfect b-matching of top weight W is planted on a
  fixed component recipe, so the allocation p_v = W*b_v/2 is in the core by
  construction, and small transfers of known sign stay in it or leave it;
* a pool of random instances (the distribution of `model.random_instance`)
  whose grand-coalition values and verdicts were recorded once, so any seed
  can draw from it and still be checked against the recorded results;
* a pool of criterion-6-style random cost graphs, with recorded answers.
"""

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

# Top weight of the planted matching. Every other edge weighs at most W - 1,
# so any coalition that is not a union of planted components has slack >= 1
# at the planted allocation (see `planted_instance`).
W = 10

# Component recipes per size: ("edge"|"path"|"cycle", vertex count). Fixing
# the recipe fixes the number of capacity-1 vertices, which sets the number
# of endpoint variants and so most of an in-core query's cost.
RECIPES = {
    16: (("edge", 2), ("edge", 2), ("path", 4), ("cycle", 4), ("cycle", 4)),
    8: (("edge", 2), ("path", 3), ("cycle", 3)),
    6: (("edge", 2), ("path", 4)),
    7: (("edge", 2), ("edge", 2), ("cycle", 3)),
}

FRESH_SIZES = (24, 32, 40)
FRESH_POOL = 300
FLOW_SIZES = (5, 6)
FLOW_EDGES = {5: 6, 6: 7}  # fixed edge count per size keeps LP shapes alike
FLOW_POOL = 300


@dataclass(frozen=True)
class Planted:
    """A planted game as plain data: capacities, edges (u, v, w) in
    lexicographic order, and the vertex sets of the planted components."""

    n: int
    b: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    components: tuple[tuple[int, ...], ...]

    def text(self) -> str:
        return game_text(self.b, self.edges)

    def planted_allocation(self) -> list[Fraction]:
        return [Fraction(W * bv, 2) for bv in self.b]

    @property
    def neighbours(self) -> dict[int, list[int]]:
        """Each vertex's neighbours in the planted matching (weight-W edges)."""
        out: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for u, v, w in self.edges:
            if w == W:
                out[u].append(v)
                out[v].append(u)
        return out


def planted_instance(rng: random.Random, n: int) -> Planted:
    """Plant a perfect b-matching with every edge of weight W.

    Any b-matching of G[S] has at most sum_{v in S} b_v / 2 edges of weight
    <= W, so p(S) >= nu(S) for p_v = W*b_v/2: p is in the core and p(N) =
    nu(N). Equality needs a perfect b-matching of G[S] made of weight-W
    edges, i.e. of planted edges only, so the tight coalitions are exactly
    the unions of planted components and every other coalition has slack of
    at least min(W/2, 1) = 1.
    """
    recipe = RECIPES[n]
    order = list(range(n))
    rng.shuffle(order)
    components = []
    b = [0] * n
    matched = set()
    pos = 0
    for kind, size in recipe:
        comp = order[pos : pos + size]
        pos += size
        components.append(tuple(sorted(comp)))
        for v in comp:
            b[v] = 2
        if kind == "cycle":
            pairs = zip(comp, comp[1:] + comp[:1])
        else:
            b[comp[0]] = b[comp[-1]] = 1
            pairs = zip(comp, comp[1:])
        matched |= {(min(x, y), max(x, y)) for x, y in pairs}
    # Exactly half of the other pairs of each capacity class (1-1, 1-2, 2-2)
    # become edges, with the weights 0 .. W-1 in turn, shuffled. Instances of
    # one size then differ in layout but not in how many edges of each
    # weight join each class, which sets how many edges are negative at p.
    extra = {}
    for cls in ((1, 1), (1, 2), (2, 2)):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u, v) not in matched and tuple(sorted((b[u], b[v]))) == cls]
        chosen = rng.sample(pairs, len(pairs) // 2)
        extra.update(zip(chosen, [k % W for k in range(len(chosen))]))
    edges = [
        (u, v, W if (u, v) in matched else extra[(u, v)])
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) in matched or (u, v) in extra
    ]
    return Planted(n, tuple(b), tuple(edges), tuple(components))


def transfer(p: list[Fraction], rng: random.Random, planted: Planted,
             stay_in_core: bool, kind: str) -> list[Fraction]:
    """Move delta in (0, 1) away from a vertex of a random planted component
    of the given kind ("edge", "path" or "cycle") to another vertex.

    Inside one planted component every union of components keeps its sum and
    every other coalition loses less than its slack of 1, so the result is
    in the core. Sent to another component, the giving component C ends with
    p(C) < nu(C), so the result is not in the core, and the kind of C (edge,
    path or cycle) fixes the stage that decides.
    """
    comps = planted.components
    giver = rng.choice([k for k, (kd, _) in enumerate(RECIPES[planted.n]) if kd == kind])
    # a path gives from an end; the receiver inside the component is a
    # planted neighbour. Both keep the work per query alike across seeds.
    i = rng.choice([v for v in comps[giver] if kind != "path" or planted.b[v] == 1])
    if stay_in_core:
        j = rng.choice(planted.neighbours[i])
    else:
        j = rng.choice([v for k, c in enumerate(comps) if k != giver for v in c])
    delta = Fraction(rng.randint(1, 6), 7)
    q = list(p)
    q[i] -= delta
    q[j] += delta
    return q


def allocation_text(values) -> str:
    return "".join(f"{v} {x}\n" for v, x in enumerate(values))


# ---------------------------------------------------------------------------
# Pools with recorded answers.
# ---------------------------------------------------------------------------


def random_game(seed: int, n: int):
    """The game `model.random_instance(seed, n, Fraction(1, 2), 10)` builds,
    as (capacities, edges); generated here so the program sees only text."""
    rng = random.Random(seed)
    b = tuple(rng.randint(1, 2) for _ in range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, rng.randint(0, 10)))
    return b, tuple(edges)


def game_text(b, edges) -> str:
    out = [f"game {len(b)} {len(edges)}"]
    out += [f"vertex {v} {bv}" for v, bv in enumerate(b)]
    out += [f"edge {u} {v} {w}" for u, v, w in edges]
    return "\n".join(out) + "\n"


def fresh_pool_entry(i: int):
    """Pool entry i of sep-fresh: (instance seed, n, allocation class)."""
    n = FRESH_SIZES[i % len(FRESH_SIZES)]
    kind = "egalitarian" if (i // len(FRESH_SIZES)) % 2 == 0 else "random"
    return 1_000_000 + i, n, kind


def fresh_allocation(i: int, n: int, kind: str, nu_n: Fraction) -> list[Fraction]:
    """Egalitarian split of nu(N), or a random allocation shifted to total
    nu(N) (the normalized allocation of the acceptance tests)."""
    if kind == "egalitarian":
        return [nu_n / n] * n
    rng = random.Random(2_000_000 + i)
    raw = [Fraction(rng.randint(-4, 14), rng.randint(1, 4)) for _ in range(n)]
    shift = (nu_n - sum(raw)) / n
    return [x + shift for x in raw]


def flow_pool_entry(i: int):
    """Pool entry i of the flow-primal corpus: a criterion-6-style random
    cost graph as (n, edges), costs uniform in [-10, 10], with exactly
    FLOW_EDGES[n] edges."""
    n = FLOW_SIZES[i % len(FLOW_SIZES)]
    rng = random.Random(3_000_000 + i)
    pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), FLOW_EDGES[n]))
    return n, tuple((u, v, rng.randint(-10, 10)) for u, v in pairs)


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def digest(items) -> str:
    """sha256 over the textual form of a sequence of inputs."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\0")
    return h.hexdigest()
