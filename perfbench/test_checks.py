"""The benchmark's correctness checks accept right outputs and reject wrong ones.

Run with: python3 -m pytest perfbench
"""

import json
import math

import numpy as np
import pytest

import run

run._import_library()

import checks  # noqa: E402
import workloads  # noqa: E402
from zobcd import harness  # noqa: E402
from zobcd.core import NoiseModel, Oracle, RngStreams  # noqa: E402
from zobcd.objectives import MaxSSumSquared, SparseQuadric  # noqa: E402

SPEC = dict(
    objective={"name": "sparse-quadric", "d": 300, "s": 6},
    method="zobcd-r",
    params=dict(J=3, alpha=0.9, delta=1e-4, budget=10**6, target=1e-3, b1=4.0, max_iters=200),
    seed=2,
)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A real harness run on a small quadric, with what the checks need."""
    out = tmp_path_factory.mktemp("run")
    with workloads.Capture(harness, "run_single") as runs, workloads.Capture(harness, "make_objective") as objs:
        harness.run_experiment(harness.ExperimentSpec(**SPEC), out)
    return runs.seen[0], objs.seen[0], out


def _queries(result):
    return [r.cumulative_queries for r in result.trace.records]


def test_objective_value_matches_definition():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(50)
    q = SparseQuadric(50, np.array([3, 7, 9]), np.array([1.0, 2.0, 0.5]))
    assert checks.objective_value(q, x) == pytest.approx(
        0.5 * (x[3] ** 2 + 2 * x[7] ** 2 + 0.5 * x[9] ** 2), rel=1e-15)
    top = sorted(np.abs(x))[-4:]
    assert checks.objective_value(MaxSSumSquared(50, 4), x) == pytest.approx(0.5 * sum(t * t for t in top), rel=1e-15)


def test_final_value_accepts_right_and_rejects_shifted(small_run):
    result, obj, _ = small_run
    last = result.trace.records[-1].f_value
    checks.check_final_value(obj, result.x_final, last, 1e-3)
    with pytest.raises(checks.CheckFailed, match="differs"):
        checks.check_final_value(obj, result.x_final, last * (1 + 1e-9), 1e-3)
    with pytest.raises(checks.CheckFailed, match="above the target"):
        checks.check_final_value(obj, result.x_final, last, last / 2)


def test_query_accounting_rejects_one_extra_query(small_run):
    result, _, _ = small_run
    s_block = math.ceil(1.1 * 6 / 3)
    m = checks.zobcd_rows(6, 300, 3, b1=4.0, sparsity_factor=1.1)
    assert m == min(max(math.ceil(4.0 * s_block * math.log(100)), s_block + 1), 100)
    queries = _queries(result)
    checks.check_query_accounting(queries, m + 1)
    queries[-1] += 1
    with pytest.raises(checks.CheckFailed, match="expected"):
        checks.check_query_accounting(queries, m + 1)


def test_summary_rejects_mismatched_queries_to_target(small_run, tmp_path):
    result, _, out = small_run
    hit = checks.first_hit(((r.iteration, r.cumulative_queries, r.f_value) for r in result.trace.records), 1e-3)
    checks.check_summary(out, 1e-3, hit)
    with pytest.raises(checks.CheckFailed):
        checks.check_summary(out, 1e-3, hit + 1)
    summary = json.loads((out / "summary.json").read_text())
    summary["runs"][0]["queries_to_target"] = hit - 1
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    (tmp_path / "trace_000.csv").write_bytes((out / "trace_000.csv").read_bytes())
    with pytest.raises(checks.CheckFailed):
        checks.check_summary(tmp_path, 1e-3, hit)


def test_gradient_reference_picks_lowest_index_on_ties():
    x = np.array([1.0, -2.0, 2.0, 0.5])
    g = checks.analytic_gradient(MaxSSumSquared(4, 2), x)
    assert g.tolist() == [0.0, -2.0, 2.0, 0.0]
    g = checks.analytic_gradient(MaxSSumSquared(4, 1), x)
    assert g.tolist() == [0.0, -2.0, 0.0, 0.0]


def test_first_query_hook_times_one_query_and_restores():
    orig = Oracle.__dict__["eval"]
    oracle = Oracle(lambda x: 0.0, NoiseModel.none(), RngStreams(0))
    with run.FirstQuery(Oracle) as fq:
        oracle.eval(np.zeros(2))
        assert fq.ns is not None and Oracle.__dict__["eval"] is orig
    assert Oracle.__dict__["eval"] is orig


def test_rounds_that_do_not_repeat_are_reported():
    same = [{"label": "a", "iterations": 3, "queries": 30}]
    assert run.repeats_exactly([same, same]) is None
    assert "did not repeat" in run.repeats_exactly([same, [{"label": "a", "iterations": 3, "queries": 31}]])
