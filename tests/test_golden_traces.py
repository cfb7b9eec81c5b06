"""Golden traces: fixed-seed runs of every method must keep their recorded traces.

The fixture ``data/golden_traces.json`` holds, for each case, an experiment
spec and the (iteration, cumulative_queries, f_value) rows its first repeat
produced. Iterations and queries must match exactly; f-values must agree to
1e-12 relative, which tolerates BLAS builds that re-associate sums.

Regenerate the fixture (only when a change is meant to alter traces) with:

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

import contextlib
import json
import math
import sys
from pathlib import Path

import pytest

from zobcd import baselines, harness
from zobcd.core import NoiseModel, RngStreams, make_noisy_oracle
from zobcd.harness import ExperimentSpec, run_single

FIXTURE = Path(__file__).parent / "data" / "golden_traces.json"
REL_TOL = 1e-12

_GAUSS = {"kind": "gaussian", "level": 1e-6}
CASES = {
    "zobcd-r-reshuffle": {
        "objective": {"name": "sparse-quadric", "d": 400, "s": 12},
        "method": "zobcd-r",
        "params": {"J": 4, "alpha": 0.9, "delta": 1e-2, "budget": 10**6, "max_iters": 6,
                   "reshuffle_period": 2},
        "seed": 1, "noise": _GAUSS,
    },
    "zobcd-r-unequal-blocks": {
        "objective": {"name": "sparse-quadric", "d": 401, "s": 10},
        "method": "zobcd-r",
        "params": {"J": 4, "alpha": 0.9, "delta": 1e-2, "budget": 10**6, "max_iters": 6},
        "seed": 2, "noise": _GAUSS,
    },
    "zobcd-rc-reshuffle": {
        "objective": {"name": "sparse-quadric", "d": 400, "s": 12},
        "method": "zobcd-rc",
        "params": {"J": 4, "alpha": 0.9, "delta": 1e-2, "budget": 10**6, "max_iters": 6,
                   "reshuffle_period": 2, "m_override": 40},
        "seed": 3, "noise": _GAUSS,
    },
    "zobcd-r-max-s-sum": {
        "objective": {"name": "max-s-sum-squared", "d": 300, "s": 10},
        "method": "zobcd-r",
        "params": {"J": 3, "alpha": 0.9, "delta": 1e-2, "budget": 10**6, "max_iters": 6,
                   "reshuffle_period": 3, "b1": 3.0},
        "seed": 4, "noise": {"kind": "bounded", "level": 1e-4},
    },
    "zobcd-r-dense-fallback": {
        # s_block = 6 >= n/2 = 5 on 10-column blocks: CoSaMP's first fit takes
        # every column of a rank-deficient 10 x 10 ensemble
        "objective": {"name": "sparse-quadric", "d": 40, "s": 20},
        "method": "zobcd-r",
        "params": {"J": 4, "alpha": 0.9, "delta": 1e-2, "budget": 10**6, "max_iters": 6},
        "seed": 7, "noise": _GAUSS,
    },
    "zobcd-rc-small-block": {
        # blocks of n = 30: the circulant correlation at small n
        "objective": {"name": "sparse-quadric", "d": 120, "s": 6},
        "method": "zobcd-rc",
        "params": {"J": 4, "alpha": 0.9, "delta": 1e-2, "budget": 10**6, "max_iters": 6,
                   "reshuffle_period": 2, "m_override": 12},
        "seed": 6, "noise": _GAUSS,
    },
    "fdsa": {
        "objective": {"name": "sparse-quadric", "d": 50, "s": 5},
        "method": "fdsa",
        "params": {"alpha": 0.5, "delta": 1e-3, "budget": 10**6, "max_iters": 3},
        "seed": 5, "noise": _GAUSS,
    },
    "spsa": {
        "objective": {"name": "sparse-quadric", "d": 400, "s": 12},
        "method": "spsa",
        "params": {"alpha": 0.003, "delta": 1e-3, "budget": 10**6, "max_iters": 30},
        "seed": 6, "noise": _GAUSS,
    },
    "zoscd": {
        "objective": {"name": "sparse-quadric", "d": 400, "s": 12},
        "method": "zoscd",
        "params": {"alpha": 0.9, "delta": 1e-3, "budget": 10**6, "max_iters": 50},
        "seed": 7, "noise": _GAUSS,
    },
    "zoscd-noiseless": {
        # 2000 iterations, most of them on coordinates the quadric ignores
        "objective": {"name": "sparse-quadric", "d": 400, "s": 12},
        "method": "zoscd",
        "params": {"alpha": 0.9, "delta": 1e-3, "budget": 10**6, "max_iters": 2000},
        "seed": 8,
    },
}

# Cases whose row rule asks for more rows than their blocks have: the count
# is clamped to the block size with this warning.
CLAMP_WARNINGS = {"zobcd-r-dense-fallback": "s=6 needs m=28 rows, clamped to the block size n=10"}


def _trace_rows(doc: dict) -> list:
    spec = ExperimentSpec(**doc)
    result = run_single(spec, spec.seed)
    return [[r.iteration, r.cumulative_queries, r.f_value] for r in result.trace.records]


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    golden = json.loads(FIXTURE.read_text())[name]
    assert golden["spec"] == CASES[name], "fixture spec differs from the case; regenerate it"
    clamp = CLAMP_WARNINGS.get(name)
    with pytest.warns(UserWarning, match=clamp) if clamp else contextlib.nullcontext():
        got = _trace_rows(CASES[name])
    _assert_golden(got, golden["trace"])


def _assert_golden(got: list, want: list):
    assert [r[:2] for r in got] == [r[:2] for r in want]
    for (it, _, f_got), (_, _, f_want) in zip(got, want):
        assert math.isclose(f_got, f_want, rel_tol=REL_TOL, abs_tol=0.0), (it, f_got, f_want)


@pytest.mark.parametrize("name", ["zoscd-noiseless", "zoscd"])
def test_zoscd_reports_f_once_per_move(name, monkeypatch):
    # ZO-SCD keeps report_f's value while its steps are zero: it calls
    # report_f once for x0 and once per iteration that moved x, which under
    # noise is every iteration. The trace must stay the golden one, and
    # x_final that of a run with no report channel.
    spec = ExperimentSpec(**CASES[name])
    seen = {}

    def run_baseline(oracle, x0, cfg, report_f):
        queries, reports = [], []

        def query(x, query=oracle.eval):
            queries.append(query(x))
            return queries[-1]

        def report(x):
            reports.append(1)
            return report_f(x)

        oracle.eval = query
        result = baselines.run_baseline(oracle, x0, cfg, report)
        noise = NoiseModel(spec.noise["kind"], spec.noise["level"])
        bare = baselines.run_baseline(make_noisy_oracle(report_f, noise, RngStreams(cfg.seed)), x0, cfg)
        # one (base, probe) pair a step, and the step is zero exactly when they are equal
        moves = sum(probe != base for base, probe in zip(queries[::2], queries[1::2]))
        seen.update(reports=len(reports), moves=moves, same_x=result.x_final.tobytes() == bare.x_final.tobytes())
        return result

    monkeypatch.setattr(harness, "run_baseline", run_baseline)
    trace = run_single(spec, spec.seed).trace
    iterations = len(trace) - 1
    assert seen["reports"] == 1 + seen["moves"]
    if spec.noise["kind"] == "none":
        assert 0 < seen["moves"] < iterations / 10
    else:
        assert seen["moves"] == iterations
    assert seen["same_x"]
    golden = json.loads(FIXTURE.read_text())[name]["trace"]
    _assert_golden([[r.iteration, r.cumulative_queries, r.f_value] for r in trace], golden)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_traces.py --write")
    doc = {name: {"spec": spec, "trace": _trace_rows(spec)} for name, spec in CASES.items()}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
