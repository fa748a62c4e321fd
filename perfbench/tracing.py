"""Outside-in tracing: spans around corematch's public functions.

The program is never edited. `Tracer.install` rebinds the module attributes
listed in `WRAPPED` to recording wrappers and `Tracer.restore` puts the
originals back. A name that another module imported directly must be
rebound at that site too, or calls through it would go unseen; `install`
refuses to run while any loaded corematch module holds an unlisted binding
of a wrapped function.

Each span records its name, start and end (perf_counter_ns), its parent
span, the query it belongs to, and an optional note taken from the call's
arguments or result (T-set sizes, system shapes, statuses).
"""

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, attribute) for every binding that gets a wrapper. The span name
# is the defining module's short name plus the function name, so a function
# rebound at an import site shares the span name of its definition.
WRAPPED = (
    ("corematch.model", "parse_instance"),
    ("corematch.model", "parse_allocation"),
    ("corematch.flawed", "parse_instance"),  # from .model import parse_instance
    ("corematch.matching", "b_matching_value"),
    ("corematch.separation", "separate"),
    ("corematch.separation", "check_total_value"),
    ("corematch.separation", "separate_vertices_edges"),
    ("corematch.separation", "separate_cycles"),
    ("corematch.separation", "separate_paths"),
    ("corematch.separation", "variant_structures"),
    ("corematch.separation", "realize_variant"),
    ("corematch.negcycle", "find_negative_cycle"),
    ("corematch.negcycle", "min_t_join"),
    ("corematch.negcycle", "decompose_even_subgraph"),
    ("corematch.extform", "enumerate_family"),
    ("corematch.extform", "build_dual_system"),
    ("corematch.extform", "build_flow_primal"),
    ("corematch.extform", "build_extended_formulation"),
    ("corematch.extform", "check_membership"),
    ("corematch.extform", "flow_primal_unbounded"),
    ("corematch.linsys", "simplex_feasible"),
    ("corematch.linsys", "simplex_solve"),
    ("corematch.linsys", "emit_lp"),
    ("corematch.extform", "simplex_feasible"),  # from .linsys import simplex_feasible
    ("corematch.extform", "simplex_solve"),  # from .linsys import simplex_solve
)

STAGES = {
    "separation.check_total_value": "total_value",
    "separation.separate_vertices_edges": "vertex_edge",
    "separation.separate_cycles": "cycle",
    "separation.separate_paths": "path",
}


def _t_size(bound, result):
    return len(set(bound.arguments["T"]))


def _found(bound, result):
    return result is not None


def _system_shape(bound, result):
    system = bound.arguments["system"]
    return [len(system.constraints), len(system.variables), result.status]


def _family_size(bound, result):
    return len(result.members)


NOTES = {
    **{stage: _found for stage in STAGES},
    "negcycle.min_t_join": _t_size,
    "negcycle.find_negative_cycle": _found,
    "linsys.simplex_feasible": _system_shape,
    "linsys.simplex_solve": _system_shape,
    "extform.enumerate_family": _family_size,
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_ratio"):
        return "ratio"
    return "count"


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span recorder for one traced pass; single-threaded."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, query index, note]
        self.spans: list[list] = []
        self.query = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = span_name(fn)
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(signature.bind(*args, **kwargs), result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for modname, attr in WRAPPED:
            fn = getattr(importlib.import_module(modname), attr)
            originals.setdefault(fn, self._wrap(fn))
        listed = set(WRAPPED)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("corematch.") or mod is None:
                continue
            for attr, value in vars(mod).items():
                if callable(value) and value in originals and (modname, attr) not in listed:
                    raise RuntimeError(f"unlisted binding {modname}.{attr} of a wrapped function")
        for modname, attr in WRAPPED:
            mod = sys.modules[modname]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, originals[fn])

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "query": query, "note": note}) + "\n")


def installed() -> bool:
    """Whether any listed binding currently holds a wrapper."""
    return any(
        hasattr(getattr(sys.modules[m], a), "__wrapped__")
        for m, a in WRAPPED
        if m in sys.modules
    )


def layer_metrics(spans, query_walls_s) -> dict[str, float]:
    """Per-layer totals over one traced pass.

    `query_walls_s` holds each query's wall time; the part not covered by
    the query's root spans is reported as `trace.unaccounted_s`.
    """
    n = len(spans)
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * n
    last_stage: dict[int, int] = {}
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            child[parent] += dur[i]
            if s[0] in STAGES and spans[parent][0] == "separation.separate":
                last_stage[parent] = i
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    notes = defaultdict(list)
    root_s = 0.0
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        total[s[0]] += dur[i]
        self_s[s[0]] += dur[i] - child[i]
        if s[5] is not None:
            notes[s[0]].append(s[5])
        if s[3] < 0:
            root_s += dur[i]

    decided = defaultdict(int)
    for i, s in enumerate(spans):
        if s[0] == "separation.separate":
            stage = last_stage.get(i)
            # the last stage that ran decided, unless it found nothing
            found = stage is not None and spans[stage][5]
            decided[STAGES[spans[stage][0]] if found else "in_core"] += 1

    t_sizes = notes["negcycle.min_t_join"]
    found = notes["negcycle.find_negative_cycle"]
    lp = notes["linsys.simplex_feasible"] + notes["linsys.simplex_solve"]

    def frac(part, whole):
        return part / whole if whole else 0.0

    m = {
        "model.parse.self_s": self_s["model.parse_instance"] + self_s["model.parse_allocation"],
        "matching.b_matching_value.calls": calls["matching.b_matching_value"],
        "matching.b_matching_value.self_s": self_s["matching.b_matching_value"],
        "separation.total_value_s": total["separation.check_total_value"],
        "separation.vertices_edges_s": total["separation.separate_vertices_edges"],
        "separation.cycles_s": total["separation.separate_cycles"],
        "separation.paths_s": total["separation.separate_paths"],
        "separation.variants": calls["separation.realize_variant"],
        "separation.variant_build_s": total["separation.variant_structures"]
        + total["separation.realize_variant"],
    }
    for stage in ("total_value", "vertex_edge", "cycle", "path", "in_core"):
        m[f"separation.decided.{stage}"] = decided[stage]
    m.update({
        "negcycle.find_negative_cycle.calls": calls["negcycle.find_negative_cycle"],
        "negcycle.find_negative_cycle.self_s": self_s["negcycle.find_negative_cycle"],
        "negcycle.min_t_join.s": total["negcycle.min_t_join"],
        "negcycle.t_vertices": sum(t_sizes),
        "negcycle.t_empty_frac": frac(sum(1 for t in t_sizes if t == 0), len(t_sizes)),
        "negcycle.decompose_even_subgraph.s": total["negcycle.decompose_even_subgraph"],
        "negcycle.hit_ratio": frac(sum(found), len(found)),
        "extform.enumerate_family.s": total["extform.enumerate_family"],
        "extform.family_members": sum(notes["extform.enumerate_family"]),
        "extform.build_dual_system.s": total["extform.build_dual_system"],
        "extform.build_flow_primal.s": total["extform.build_flow_primal"],
        "extform.build_extended_formulation.s": total["extform.build_extended_formulation"],
        "linsys.simplex_feasible.calls": calls["linsys.simplex_feasible"],
        "linsys.simplex_feasible.s": total["linsys.simplex_feasible"],
        "linsys.simplex_solve.calls": calls["linsys.simplex_solve"],
        "linsys.simplex_solve.s": total["linsys.simplex_solve"],
        "linsys.rows_sum": sum(x[0] for x in lp),
        "linsys.cols_sum": sum(x[1] for x in lp),
        "linsys.infeasible_frac": frac(sum(1 for x in lp if x[2] == "infeasible"), len(lp)),
        "linsys.emit_lp.s": total["linsys.emit_lp"],
        "trace.unaccounted_s": sum(query_walls_s) - root_s,
        "trace.spans": n,
    })
    return m
