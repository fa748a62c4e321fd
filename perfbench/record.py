"""Record the answers of the benchmark's pools into expected.json.

Run once, from the repository root, on the commit whose answers are the
reference: python3 perfbench/record.py. It evaluates every pool entry with
the program, cross-checks each answer by a second route, and refuses to
write if any cross-check fails.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402
from corematch import extform, matching, model, negcycle, separation  # noqa: E402


def record_fresh():
    nus, in_core = [], []
    for i in range(corpus.FRESH_POOL):
        seed, n, kind = corpus.fresh_pool_entry(i)
        b, edges = corpus.random_game(seed, n)
        inst = model.parse_instance(corpus.game_text(b, edges))
        if inst != model.random_instance(seed, n, Fraction(1, 2), 10):
            raise SystemExit(f"pool entry {i} differs from model.random_instance")
        nu_n = matching.b_matching_value(inst)
        p = model.Allocation(tuple(corpus.fresh_allocation(i, n, kind, nu_n)))
        verdict = separation.separate(inst, p)
        if verdict.violation is not None and not separation.verify_violation(inst, p, verdict.violation):
            raise SystemExit(f"pool entry {i}: certificate fails re-verification")
        nus.append(str(nu_n))
        in_core.append(verdict.in_core)
        print(f"sep-fresh {i} n={n} {kind} in_core={verdict.in_core}", flush=True)
    return {"nu": nus, "in_core": in_core}


def record_flow():
    unbounded = []
    for i in range(corpus.FLOW_POOL):
        n, edges = corpus.flow_pool_entry(i)
        g = negcycle.CostedGraph(
            tuple(range(n)),
            tuple(negcycle.CostEdge(u, v, Fraction(c), k) for k, (u, v, c) in enumerate(edges)),
        )
        answer = extform.flow_primal_unbounded(g)
        if answer != (negcycle.find_negative_cycle(g) is not None):
            raise SystemExit(f"flow pool entry {i}: LP and negative-cycle search disagree")
        unbounded.append(answer)
        print(f"flow {i} n={n} unbounded={answer}", flush=True)
    return {"unbounded": unbounded}


def main():
    data = {
        "about": "answers for the benchmark pools, recorded with corematch "
                 "0.1.0 and cross-checked as record.py describes",
        "flow": record_flow(),
        "sep-fresh": record_fresh(),
    }
    with open(corpus.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
