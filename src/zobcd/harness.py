"""Experiment runner: seeded repeats, trace export, and summary statistics.

An experiment spec is a single JSON document; see README for the schema.
Each repeat r runs with master seed ``seed + r`` and writes one trace file
(CSV columns: iteration, cumulative_queries, f_value, compute_nanos), plus a
shared summary.json, and removes the trace files of an earlier run that it
does not rewrite.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field
from pathlib import Path

import numpy as np

from zobcd.core import MAX_INDEX, ConfigurationError, ConvergenceTrace, NoiseModel, RngStreams, make_noisy_oracle
from zobcd.baselines import BASELINES, BaselineConfig, run_baseline
from zobcd.objectives import OBJECTIVES, make_objective
from zobcd.optimizer import RunResult, ZobcdConfig, run_zobcd

METHOD_NAMES = ("zobcd-r", "zobcd-rc", *BASELINES)
TRACE_COLUMNS = ("iteration", "cumulative_queries", "f_value", "compute_nanos")


def _check_number(name: str, value, integral: bool = False):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integral else numbers.Real):
        raise ConfigurationError(f"{name} must be {'an integer' if integral else 'a number'}, got {value!r}")


def _check_fields(where: str, doc: dict, fields: dict):
    """doc's keys must name dataclass fields and cover those without defaults;
    values of int- and float-typed fields must be numbers of that kind, and
    values of bool-typed fields must be true or false."""
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)} (accepted: {sorted(fields)})")
    missing = {k for k, f in fields.items() if f.default is MISSING and f.default_factory is MISSING}
    if missing - set(doc):
        raise ConfigurationError(f"{where} is missing required keys: {sorted(missing - set(doc))}")
    for key, value in doc.items():
        kind = fields[key].type  # a string: "int", "float | None", "dict", ...
        if kind.startswith(("int", "float")) and not (value is None and kind.endswith("None")):
            _check_number(f"{where}.{key}", value, integral=kind.startswith("int"))
        elif kind == "bool" and not isinstance(value, bool):
            raise ConfigurationError(f"{where}.{key} must be true or false, got {value!r}")


@dataclass
class ExperimentSpec:
    objective: dict
    method: str
    params: dict
    repeats: int = 1
    seed: int = 0
    noise: dict = field(default_factory=lambda: {"kind": "none", "level": 0.0})
    record_timing: bool = True

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ConfigurationError(f"unknown method {self.method!r} (choose from {METHOD_NAMES})")
        for key, allowed in (("objective", {"name", "d", "s"}), ("noise", {"kind", "level"})):
            doc = getattr(self, key)
            if not isinstance(doc, dict) or set(doc) - allowed:
                raise ConfigurationError(f"{key} must be an object with keys among {sorted(allowed)}")
        name = self.objective.get("name")
        if name not in OBJECTIVES:
            raise ConfigurationError(f"unknown objective {name!r} (choose from {OBJECTIVES})")
        for key in ("d", "s"):
            _check_number(f"objective.{key}", self.objective.get(key), integral=True)
        max_d = MAX_INDEX // 8  # x0 holds d float64s
        if not 1 <= self.objective["s"] <= self.objective["d"] <= max_d:
            raise ConfigurationError(f"objective needs 1 <= s <= d <= {max_d}, got {self.objective}")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        if not isinstance(self.params, dict):
            raise ConfigurationError("params must be an object")
        config = BaselineConfig if self.method in BASELINES else ZobcdConfig
        supplied = {"method", "variant", "d", "s", "seed"}  # set by run_single, not by params
        _check_fields("params", self.params, {k: f for k, f in config.__dataclass_fields__.items() if k not in supplied})

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigurationError(f"cannot read experiment spec {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigurationError(f"experiment spec {path} must be a JSON object")
        _check_fields("spec", doc, cls.__dataclass_fields__)
        return cls(**doc)


def run_single(spec: ExperimentSpec, run_seed: int) -> RunResult:
    """One seeded run of the spec's method on a fresh objective instance."""
    streams = RngStreams(run_seed)
    obj_rng = streams.substream("objective")
    o = spec.objective
    obj = make_objective(o["name"], int(o["d"]), int(o["s"]), obj_rng)
    x0 = obj_rng.standard_normal(obj.d)
    noise = NoiseModel(spec.noise.get("kind", "none"), spec.noise.get("level", 0.0))
    oracle = make_noisy_oracle(obj.eval, noise, streams)

    if spec.method in BASELINES:
        cfg = BaselineConfig(method=spec.method, seed=run_seed, **spec.params)
        return run_baseline(oracle, x0, cfg, report_f=obj.eval)
    variant = "R" if spec.method == "zobcd-r" else "RC"
    cfg = ZobcdConfig(variant=variant, d=obj.d, s=spec.objective["s"], seed=run_seed, **spec.params)
    return run_zobcd(oracle, x0, cfg, report_f=obj.eval)


def _write(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _write_trace(trace: ConvergenceTrace, path: Path, record_timing: bool):
    lines = [f"{it},{q},{f!r},{ns if record_timing else 0}\n" for it, q, f, ns in trace.records]
    _write(path, ",".join(TRACE_COLUMNS) + "\n" + "".join(lines))


def read_trace(path: str | Path) -> ConvergenceTrace:
    """Load a trace file; an unreadable file or a malformed row is a ConfigurationError naming where it is."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
        raise ConfigurationError(f"cannot read trace file {path}: {exc}") from exc
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ConfigurationError(f"{path} is not a trace file")
    if len(lines) == 1:
        raise ConfigurationError(f"{path} holds no trace records")
    trace = ConvergenceTrace()
    for n, line in enumerate(lines[1:], start=2):
        try:
            it, q, f, ns = line.split(",")
            trace.append(int(it), int(q), float(f), int(ns))
        except ValueError as exc:
            raise ConfigurationError(f"{path} line {n}: malformed trace row ({exc})") from exc
    return trace


def _remove_stale_traces(out: Path, repeats: int):
    """Delete the files ``trace_<r:03d>.csv`` in out for repeats r >= repeats."""
    for path in list(out.glob("trace_*.csv")):
        index = path.name[len("trace_") : -len(".csv")]
        ours = index.isascii() and index.isdigit() and path.name == f"trace_{int(index):03d}.csv"
        if ours and int(index) >= repeats and path.is_file():
            path.unlink()


def _first_hit(trace: ConvergenceTrace, target: float | None):
    """(iteration, queries) of the first record at or below target."""
    if target is None:
        return "unreached", "unreached"
    for r in trace.records:
        if r.f_value <= target:
            return r.iteration, r.cumulative_queries
    return "unreached", "unreached"


def _median_iqr(values: list) -> dict:
    """Order statistics with 'unreached' treated as +inf."""
    nums = sorted(math.inf if v == "unreached" else float(v) for v in values)
    k = len(nums)
    med = nums[k // 2] if k % 2 else 0.5 * (nums[k // 2 - 1] + nums[k // 2])
    q1 = nums[int(0.25 * (k - 1))]
    q3 = nums[int(0.75 * (k - 1))]
    fmt = lambda v: "unreached" if math.isinf(v) else v
    return {
        "median": fmt(med),
        "iqr": [fmt(q1), fmt(q3)],
        "unreached_count": sum(1 for v in nums if math.isinf(v)),
    }


def summarize(traces: list[ConvergenceTrace], target: float | None, terminations=None) -> dict:
    if not traces:
        raise ConfigurationError("summarize needs at least one trace")
    runs = []
    for i, trace in enumerate(traces):
        if not trace.records:
            raise ConfigurationError(f"trace {i} holds no records")
        it_hit, q_hit = _first_hit(trace, target)
        iter_records = [r for r in trace.records if r.iteration > 0]
        runs.append(
            {
                "run": i,
                "termination": terminations[i] if terminations else None,
                "iterations": max(r.iteration for r in trace.records),
                "total_queries": trace.records[-1].cumulative_queries,
                "iterations_to_target": it_hit,
                "queries_to_target": q_hit,
                "mean_iter_compute_ns": (
                    float(np.mean([r.compute_nanos for r in iter_records])) if iter_records else 0.0
                ),
            }
        )
    return {
        "target": target,
        "runs": runs,
        "iterations_to_target": _median_iqr([r["iterations_to_target"] for r in runs]),
        "queries_to_target": _median_iqr([r["queries_to_target"] for r in runs]),
    }


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> dict:
    """Execute all repeats, write trace files and summary.json, return the summary."""
    out = Path(out_dir)
    traces, terminations = [], []
    for r in range(spec.repeats):
        result = run_single(spec, spec.seed + r)
        if r == 0:
            # Only now: every config value is checked while the first run is
            # set up, so a rejected spec creates no directory and empties none.
            try:
                out.mkdir(parents=True, exist_ok=True)
                _remove_stale_traces(out, spec.repeats)
            except OSError as exc:
                raise ConfigurationError(f"cannot prepare output directory {out}: {exc}") from exc
        _write_trace(result.trace, out / f"trace_{r:03d}.csv", spec.record_timing)
        traces.append(result.trace)
        terminations.append(result.termination)
    summary = summarize(traces, spec.params.get("target"), terminations)
    summary["spec"] = {
        "objective": spec.objective,
        "method": spec.method,
        "params": spec.params,
        "noise": spec.noise,
        "repeats": spec.repeats,
        "seed": spec.seed,
    }
    _write(out / "summary.json", json.dumps(summary, indent=1))
    return summary
