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
    want = golden["trace"]
    assert [r[:2] for r in got] == [r[:2] for r in want]
    for (it, _, f_got), (_, _, f_want) in zip(got, want):
        assert math.isclose(f_got, f_want, rel_tol=REL_TOL, abs_tol=0.0), (it, f_got, f_want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_traces.py --write")
    doc = {name: {"spec": spec, "trace": _trace_rows(spec)} for name, spec in CASES.items()}
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
