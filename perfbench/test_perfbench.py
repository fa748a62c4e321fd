"""The benchmark's own checks: seeded inputs, planted instances, tracing."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from corematch import matching, model, separation  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return corpus.load_expected()


@pytest.mark.parametrize("workload", workloads.RATE)
def test_same_seed_same_input_digest(workload, expected):
    def digest(seed):
        batch = workloads.build_batch(workload, seed, 1, expected)
        return corpus.digest(q.key for q in batch)

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


@pytest.mark.parametrize("n", sorted(corpus.RECIPES))
def test_planted_allocation_is_tight(n):
    for seed in range(3):
        planted = corpus.planted_instance(random.Random(seed), n)
        inst = model.parse_instance(planted.text())
        assert set(inst.b) == {1, 2}
        p = planted.planted_allocation()
        assert sum(p) == matching.b_matching_value(inst)
        for stay in (True, False):
            q = corpus.transfer(p, random.Random(seed), planted, stay, corpus.RECIPES[n][-1][0])
            assert sum(q) == sum(p)


def test_pools_match_recorded_answers(expected):
    assert len(expected["sep-fresh"]["nu"]) == corpus.FRESH_POOL
    assert len(expected["flow"]["unbounded"]) == corpus.FLOW_POOL
    seed, n, _ = corpus.fresh_pool_entry(0)
    b, edges = corpus.random_game(seed, n)
    inst = model.parse_instance(corpus.game_text(b, edges))
    assert inst == model.random_instance(seed, n, Fraction(1, 2), 10)
    assert matching.b_matching_value(inst) == Fraction(expected["sep-fresh"]["nu"][0])


def _small_batch(expected):
    """Cheap queries of every kind: a planted n=8 stream and one LP round."""
    rng = random.Random(3)
    planted = corpus.planted_instance(rng, 8)
    inst = model.parse_instance(planted.text())
    p0 = planted.planted_allocation()
    batch = [workloads.Query("separate", "", (inst, model.Allocation(tuple(p0))), True)]
    for stay, kind in ((True, "cycle"), (False, "edge"), (False, "path"), (False, "cycle")):
        p = corpus.transfer(p0, rng, planted, stay, kind)
        batch.append(workloads.Query("separate", "", (inst, model.Allocation(tuple(p))), stay))
    return batch + workloads.build_batch("extform-lp", 1, 0, expected)


def test_traced_verdicts_equal_untraced(expected):
    plain = [workloads.run_query(q) for q in _small_batch(expected)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_batch = _small_batch(expected)
        traced = [workloads.run_query(q) for q in traced_batch]
    finally:
        tracer.restore()
    assert not tracing.installed()
    assert [workloads.verdict(q, r) for q, r in zip(traced_batch, traced)] == \
        [workloads.verdict(q, r) for q, r in zip(traced_batch, plain)]
    for q, r in zip(traced_batch, traced):
        assert workloads.check(q, r) == []
    layer = tracing.layer_metrics(tracer.spans, [0.0])
    assert layer["separation.decided.in_core"] == 2
    assert layer["separation.decided.path"] == 1
    assert layer["linsys.simplex_feasible.calls"] > 0
    assert layer["extform.family_members"] > 0


def test_install_refuses_unlisted_binding():
    separation.sneaky_alias = separation.separate
    try:
        with pytest.raises(RuntimeError, match="unlisted binding"):
            tracing.Tracer().install()
    finally:
        del separation.sneaky_alias
    assert not tracing.installed()


def test_benchmark_json_names_match_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = set(tracing.layer_metrics([], [])) | {"trace.overhead_frac"}
    assert {m["name"] for m in declared["per_layer"]} == layer
    assert all(m["unit"] == tracing.unit(m["name"]) for m in declared["per_layer"])
    assert [w["name"] for w in declared["workloads"]] == list(workloads.RATE)
