"""Correctness checks computed apart from the library under test.

Each check recomputes its expected value from a definition (the objective's
formula, the query-count formula, the raw trace file) instead of trusting
the program's own answer, and raises CheckFailed on a mismatch.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from zobcd.objectives import MaxSSumSquared, SparseQuadric


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def objective_value(obj, x: np.ndarray) -> float:
    """f(x) from the objective's definition, summed exactly with fsum."""
    if isinstance(obj, SparseQuadric):
        return 0.5 * math.fsum(obj.coeffs * x[obj.support] ** 2)
    if isinstance(obj, MaxSSumSquared):
        top = np.sort(np.abs(x))[x.size - obj.s :]
        return 0.5 * math.fsum(top * top)
    raise TypeError(f"no reference formula for {type(obj).__name__}")


def analytic_gradient(obj, x: np.ndarray) -> np.ndarray:
    """Dense gradient of f at x; for max-s-sum, ties go to the lowest index."""
    g = np.zeros(x.size)
    if isinstance(obj, SparseQuadric):
        g[obj.support] = obj.coeffs * x[obj.support]
    elif isinstance(obj, MaxSSumSquared):
        top = np.argsort(-np.abs(x), kind="stable")[: obj.s]
        g[top] = x[top]
    else:
        raise TypeError(f"no reference gradient for {type(obj).__name__}")
    return g


def zobcd_rows(s: int, d: int, J: int, b1: float, sparsity_factor: float) -> int:
    """Directions per ZO-BCD-R iteration: ceil(b1 s_block ln n), clamped to [s_block+1, n]."""
    n = d // J
    s_block = max(1, math.ceil(sparsity_factor * s / J))
    return min(max(math.ceil(b1 * s_block * math.log(n)), s_block + 1), n)


def check_final_value(obj, x_final: np.ndarray, last_f: float, target: float):
    f = objective_value(obj, x_final)
    if abs(f - last_f) > 1e-12 * max(abs(f), 1e-300):
        raise CheckFailed(f"recomputed f(x_final)={f!r} differs from the trace's {last_f!r}")
    if f > target * (1 + 1e-12):
        raise CheckFailed(f"recomputed f(x_final)={f!r} is above the target {target}")


def check_query_accounting(queries: list[int], per_iteration: int):
    """Trace rows must sit exactly per_iteration queries apart, starting at 0."""
    if not queries or queries[0] != 0:
        raise CheckFailed(f"trace must start at 0 queries, starts at {queries[:1]}")
    steps = np.diff(queries)
    bad = np.flatnonzero(steps != per_iteration)
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(
            f"iteration {i + 1} used {int(steps[i])} queries, expected {per_iteration}"
        )


def first_hit(rows, target: float):
    """Cumulative queries of the first (iteration, queries, f) row with f <= target."""
    for _, q, f in rows:
        if f <= target:
            return q
    return None


def read_trace_csv(path: Path) -> list[tuple[int, int, float]]:
    with open(path, newline="") as fh:
        return [
            (int(r["iteration"]), int(r["cumulative_queries"]), float(r["f_value"]))
            for r in csv.DictReader(fh)
        ]


def check_summary(out_dir: Path, target: float, expected_queries: int):
    """summary.json, the CSV trace parsed here, and the benchmark's count must agree."""
    from_csv = first_hit(read_trace_csv(out_dir / "trace_000.csv"), target)
    summary = json.loads((out_dir / "summary.json").read_text())
    reported = summary["runs"][0]["queries_to_target"]
    if not reported == from_csv == expected_queries:
        raise CheckFailed(
            f"queries_to_target: summary.json {reported}, trace csv {from_csv}, run {expected_queries}"
        )


def stored_bytes(ens) -> int:
    """Bytes held by an ensemble's array attributes."""
    return sum(v.nbytes for v in vars(ens).values() if isinstance(v, np.ndarray))
