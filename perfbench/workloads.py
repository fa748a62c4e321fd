"""The three workloads: their batches, how a query runs, how it is checked.

A batch is a fixed list of queries built from the seed. Its length follows
`--seconds` through each workload's nominal rate (queries per second of the
code the rates were set on), so a given seed and run length always give the
same queries, the same sample count and the same tail percentile.
"""

import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import corpus
from corematch import extform, linsys, model, separation
from corematch.negcycle import CostEdge, CostedGraph

# Nominal queries per second of run length, per workload.
RATE = {"sep-reuse": 2.4, "sep-fresh": 1.65, "extform-lp": 12.0}

# sep-reuse: each planted instance (n = 16) gets this allocation stream:
# P = the planted allocation, I = a transfer along a planted edge (in the
# core), O = a transfer to another component (not in the core). Transfers
# rotate over the component kinds edge, path and cycle.
REUSE_N = 16
REUSE_STREAM = "PIOIOIOI"

# sep-fresh: one unit of (n, allocation class) strata. The weights put the
# median inside the n = 32 queries and the tail inside the n = 40 ones.
FRESH_UNIT = tuple(
    (n, kind)
    for n, weight in zip(corpus.FRESH_SIZES, (1, 2, 2))
    for _ in range(weight)
    for kind in ("egalitarian", "random")
)

# extform-lp: one round of the fixed query mix.
LP_ROUND = (
    ("member", 6), ("flow", 6), ("build", 6),
    ("member", 7), ("flow", 5), ("build", 5),
)
BUILD_SHAPE = {5: (6, 2), 6: (7, 2)}  # n -> (edges, capacity-1 vertices)


@dataclass
class Query:
    kind: str  # "separate", "fresh", "member", "flow" or "build"
    key: str  # the input as text, for the input digest
    args: tuple
    expect: object = None  # expected verdict, where one is known


def batch_size(workload: str, seconds: float) -> int:
    """Whole units of the workload's pattern (one instance's stream, one
    round of strata, one round of the LP mix), at least one."""
    unit = {"sep-reuse": len(REUSE_STREAM), "sep-fresh": len(FRESH_UNIT),
            "extform-lp": len(LP_ROUND)}[workload]
    return unit * max(1, round(seconds * RATE[workload] / unit))


def build_batch(workload: str, seed: int, seconds: float, expected: dict) -> list[Query]:
    size = batch_size(workload, seconds)
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sep-reuse":
        return _reuse_batch(rng, size)
    if workload == "sep-fresh":
        return _fresh_batch(rng, size, expected["sep-fresh"])
    if workload == "extform-lp":
        return _lp_batch(rng, size, expected["flow"])
    raise ValueError(f"unknown workload {workload!r}")


def warmup_batch(workload: str, seed: int, rep: int) -> list[Query]:
    """A few small queries of the workload's kinds, none of them in the
    measured batch; their results are not checked."""
    rng = random.Random(f"{workload}/{seed}/warm-up {rep}")
    if workload == "sep-reuse":
        planted = corpus.planted_instance(rng, 8)
        inst = model.parse_instance(planted.text())
        p = model.Allocation(tuple(planted.planted_allocation()))
        return [Query("separate", "", (inst, p))]
    if workload == "sep-fresh":
        b, edges = corpus.random_game(rng.randrange(10**9), 12)
        return [Query("fresh", "", (corpus.game_text(b, edges), corpus.allocation_text([0] * 12)))]
    planted = corpus.planted_instance(rng, 6)
    inst = model.parse_instance(planted.text())
    p = model.Allocation(tuple(planted.planted_allocation()))
    g = CostedGraph((0, 1, 2), (CostEdge(0, 1, Fraction(-1), 0), CostEdge(1, 2, Fraction(2), 1),
                                CostEdge(0, 2, Fraction(rng.randint(-3, 3)), 2)))
    return [Query("member", "", (inst, p)), Query("flow", "", (g,)), Query("build", "", (inst,))]


def _reuse_batch(rng: random.Random, size: int) -> list[Query]:
    out: list[Query] = []
    kinds = itertools.cycle(("edge", "path", "cycle"))
    while len(out) < size:
        planted = corpus.planted_instance(rng, REUSE_N)
        inst = model.parse_instance(planted.text())
        p0 = planted.planted_allocation()
        for step in REUSE_STREAM:
            p = p0 if step == "P" else corpus.transfer(p0, rng, planted, step == "I", next(kinds))
            key = f"reuse:{planted.text()}{corpus.allocation_text(p)}"
            out.append(Query("separate", key, (inst, model.Allocation(tuple(p))), step != "O"))
    return out


def _fresh_batch(rng: random.Random, size: int, recorded: dict) -> list[Query]:
    # pool entry i belongs to stratum i % strata (see corpus.fresh_pool_entry)
    strata = {corpus.fresh_pool_entry(i)[1:]: i for i in range(2 * len(corpus.FRESH_SIZES))}
    units = size // len(FRESH_UNIT)
    draws = {
        key: iter(rng.sample(range(first, corpus.FRESH_POOL, len(strata)),
                             units * FRESH_UNIT.count(key)))
        for key, first in strata.items()
    }
    out = []
    for j in range(size):
        i = next(draws[FRESH_UNIT[j % len(FRESH_UNIT)]])
        seed, n, kind = corpus.fresh_pool_entry(i)
        b, edges = corpus.random_game(seed, n)
        alloc = corpus.fresh_allocation(i, n, kind, Fraction(recorded["nu"][i]))
        text, alloc_text = corpus.game_text(b, edges), corpus.allocation_text(alloc)
        out.append(Query("fresh", f"fresh:{text}{alloc_text}", (text, alloc_text), recorded["in_core"][i]))
    return out


def _lp_batch(rng: random.Random, size: int, recorded: dict) -> list[Query]:
    rounds = size // len(LP_ROUND)
    # pool entry i of the flow corpus has FLOW_SIZES[i % 2] vertices
    flows = {n: iter(rng.sample(range(k, corpus.FLOW_POOL, 2), rounds))
             for k, n in enumerate(corpus.FLOW_SIZES)}
    out = []
    for _ in range(rounds):
        for kind, n in LP_ROUND:
            if kind == "member":
                planted = corpus.planted_instance(rng, n)
                inst = model.parse_instance(planted.text())
                p = model.Allocation(tuple(planted.planted_allocation()))
                out.append(Query("member", f"member:{planted.text()}", (inst, p), True))
            elif kind == "flow":
                i = next(flows[n])
                nn, edges = corpus.flow_pool_entry(i)
                g = CostedGraph(tuple(range(nn)),
                                tuple(CostEdge(u, v, Fraction(c), k) for k, (u, v, c) in enumerate(edges)))
                out.append(Query("flow", f"flow:{nn}:{edges}", (g,), recorded["unbounded"][i]))
            else:
                m, ones = BUILD_SHAPE[n]
                pairs = sorted(rng.sample(list(itertools.combinations(range(n), 2)), m))
                b = [1] * ones + [2] * (n - ones)
                rng.shuffle(b)
                text = corpus.game_text(b, [(u, v, rng.randint(0, 10)) for u, v in pairs])
                out.append(Query("build", f"build:{text}", (model.parse_instance(text),)))
    return out


def run_query(q: Query):
    """The timed part of a query: public corematch calls only."""
    if q.kind == "separate":
        return separation.separate(*q.args)
    if q.kind == "fresh":
        inst = model.parse_instance(q.args[0])
        p = model.parse_allocation(q.args[1], inst)
        return inst, p, separation.separate(inst, p)
    if q.kind == "member":
        return extform.check_membership(*q.args)
    if q.kind == "flow":
        return extform.flow_primal_unbounded(*q.args)
    system = extform.build_extended_formulation(*q.args)
    sink = io.StringIO()
    linsys.emit_lp(system, sink)
    return system, sink.getvalue()


def verdict(q: Query, result):
    """The comparable outcome of a query: in-core flag, boolean, or sizes."""
    if q.kind == "separate":
        return result.in_core
    if q.kind == "fresh":
        return result[2].in_core
    if q.kind in ("member", "flow"):
        return result
    system, text = result
    return len(system.variables), len(system.constraints), len(text)


def check(q: Query, result) -> list[str]:
    """Problems with a query's result; empty when it is correct."""
    errors = []
    if q.kind in ("separate", "fresh"):
        inst, p, v = (q.args[0], q.args[1], result) if q.kind == "separate" else result
        if v.in_core != q.expect:
            errors.append(f"in_core={v.in_core}, expected {q.expect}")
        if v.violation is not None and not separation.verify_violation(inst, p, v.violation):
            errors.append(f"certificate fails re-verification: {v.violation.describe()}")
    elif q.kind in ("member", "flow"):
        if result != q.expect:
            errors.append(f"{q.kind} returned {result}, expected {q.expect}")
    else:
        system, text = result
        report = extform.size_report(q.args[0])
        shape = (len(system.variables), len(system.constraints))
        if shape != (report.total_vars, report.total_constraints):
            errors.append(f"formulation has {shape}, size_report says "
                          f"{(report.total_vars, report.total_constraints)}")
        if not text.rstrip().endswith("End"):
            errors.append("emitted LP does not end with 'End'")
    return errors
