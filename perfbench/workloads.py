"""The benchmark's workloads: each is a fixed list of operations made from --seed.

An operation is one seed of one configuration, run to its target through
the library's public entry points. It returns what the checks need: the
RunResult, the objective, and the harness output directory if there is one.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from zobcd import cli, core, harness, objectives, optimizer

import checks

NOISE_VARIANCE = 1e-6
QUADRIC_CAPS = {4: 120, 8: 400}  # over 4x the iterations seen per J
MAXSUM_CAP = 300
BASELINE_CAPS = {"fdsa": 20, "spsa": 50_000, "zoscd": 1_000_000}


@dataclass
class Finished:
    result: object  # optimizer.RunResult
    objective: object
    out_dir: Path | None = None
    extra: list = field(default_factory=list)  # checks specific to the operation


@dataclass(frozen=True)
class Op:
    label: str
    target: float
    per_iteration: int  # oracle queries per iteration, computed by the benchmark
    run: Callable[[Path], Finished]


class Capture(contextlib.AbstractContextManager):
    """Record the results of owner.attr while active."""

    def __init__(self, owner, attr: str):
        self.owner, self.attr, self.seen = owner, attr, []

    def __enter__(self):
        orig = self.orig = getattr(self.owner, self.attr)
        seen = self.seen

        def spy(*args, **kwargs):
            out = orig(*args, **kwargs)
            seen.append(out)
            return out

        setattr(self.owner, self.attr, spy)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.orig)


def _zobcd_op(label, objective, d, s, target, cap, seed, x0_nnz=None, **params) -> Op:
    """ZO-BCD through optimizer.run_zobcd on the acceptance tests' seed-0 problem.

    The objective, x0 and the method's own seed come from seed 0; --seed
    draws the oracle noise. An ExperimentSpec ties all of them to one seed,
    so it cannot express this run.
    """
    cfg = dict(d=d, s=s, alpha=0.9, delta=1e-2, budget=10**9, seed=0, target=target,
               max_iters=cap, block_sparsity_factor=1.05, **params)
    per_iteration = checks.zobcd_rows(s, d, params["J"], params["b1"], 1.05) + 1

    def run(out: Path) -> Finished:
        gen = core.RngStreams(0).substream("objective")
        obj = objectives.make_objective(objective, d, s, gen)
        if x0_nnz is None:
            x0 = gen.standard_normal(d)
        else:
            x0 = np.zeros(d)
            nonzero = gen.choice(d, size=x0_nnz, replace=False)
            x0[nonzero] = gen.standard_normal(x0_nnz)
        noise = core.NoiseModel.gaussian(NOISE_VARIANCE)
        oracle = core.make_noisy_oracle(obj.eval, noise, core.RngStreams(seed))
        result = optimizer.run_zobcd(oracle, x0, optimizer.ZobcdConfig(**cfg), report_f=obj.eval)

        def oracle_count():
            if oracle.query_count != result.trace.records[-1].cumulative_queries:
                raise checks.CheckFailed(
                    f"oracle counted {oracle.query_count} queries, trace says "
                    f"{result.trace.records[-1].cumulative_queries}"
                )

        return Finished(result, obj, None, [oracle_count])

    return Op(label, target, per_iteration, run)


def quadric_r(seed: int) -> list[Op]:
    """The sparse quadric of the iteration-count acceptance test at J = 4 and 8.

    J = 2 is left out: its iteration count moves between 8 and 16 with the
    noise seed alone (see README.md).
    """
    return [
        _zobcd_op(f"zobcd-r J={J} seed={seed}", "sparse-quadric", 20_000, 200, 1e-2, QUADRIC_CAPS[J],
                  seed, variant="R", J=J, b1=4.0, reshuffle_period=J)
        for J in (4, 8)
    ]


def maxsum_r(seed: int) -> list[Op]:
    """Max-s-sum-squared from an x0 with 500 nonzeros, J = 4."""
    return [
        _zobcd_op(f"zobcd-r max-s-sum J=4 seed={seed}", "max-s-sum-squared", 20_000, 200, 1.0, MAXSUM_CAP,
                  seed, x0_nnz=500, variant="R", J=4, b1=4.0, reshuffle_period=4)
    ]


def baselines(seed: int) -> list[Op]:
    """FDSA, SPSA and ZO-SCD through the command line, noiseless, spec seed 0.

    A spec's seed draws the objective, x0 and the method's randomness
    together, and --seed has no noise to draw here, so every --seed runs the
    same three specs (see README.md).
    """
    d, s = 20_000, 200
    alphas = {"fdsa": 0.9, "spsa": 0.003, "zoscd": 0.9}
    per_iteration = {"fdsa": d + 1, "spsa": 2, "zoscd": 2}
    ops = []
    for method, alpha in alphas.items():

        def run(out: Path, method=method, alpha=alpha) -> Finished:
            out.mkdir(parents=True, exist_ok=True)
            spec = {
                "objective": {"name": "sparse-quadric", "d": d, "s": s},
                "method": method,
                "params": {"alpha": alpha, "delta": 1e-3, "budget": 10**9, "target": 1e-2,
                           "max_iters": BASELINE_CAPS[method]},
                "seed": 0,
                "noise": {"kind": "none", "level": 0.0},
            }
            (out / "spec.json").write_text(json.dumps(spec))
            printed = io.StringIO()
            with Capture(harness, "run_single") as runs, Capture(harness, "make_objective") as objs:
                with contextlib.redirect_stdout(printed):
                    code = cli.main(["run", "--config", str(out / "spec.json"), "--out", str(out)])

            def cli_output():
                if code != 0:
                    raise checks.CheckFailed(f"zobcd run exited with {code}")
                shown = json.loads(printed.getvalue())["queries_to_target"]["median"]
                first = checks.first_hit(checks.read_trace_csv(out / "trace_000.csv"), 1e-2)
                if shown != first:
                    raise checks.CheckFailed(f"zobcd run printed {shown}, trace says {first}")

            return Finished(runs.seen[0], objs.seen[0], out, [cli_output])

        ops.append(Op(method, 1e-2, per_iteration[method], run))
    return ops


WORKLOADS = {"quadric-r": quadric_r, "maxsum-r": maxsum_r, "baselines": baselines}
