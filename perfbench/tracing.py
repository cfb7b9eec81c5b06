"""In-memory span tracer that wraps the public functions of each zobcd module.

A span is (name, start, end, parent). Spans are appended to flat arrays in
call order, so a parent always precedes its children, and are written out
only when the benchmark ends. Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import checks

# (module, attribute path) of every traced entry point, grouped by layer.
TRACED = {
    "core": ["Oracle.eval", "make_noisy_oracle"],
    "objectives": ["SparseQuadric.eval", "MaxSSumSquared.eval", "make_objective"],
    "estimator": ["estimate_block_gradient"],
    "sampling": [
        "make_rademacher",
        "make_partial_circulant",
        *(f"{cls}.{meth}" for cls in ("RademacherEnsemble", "PartialCirculantEnsemble")
          for meth in ("__init__", "apply", "adjoint", "row", "columns")),
        "PartialCirculantEnsemble.with_new_omega",
    ],
    "sparse_recovery": ["cosamp", "restricted_lsq", "top_k_magnitude"],
    "blocks": ["random_partition", "reshuffle_if_due"],
    "optimizer": ["run_zobcd", "step"],
    "baselines": ["run_baseline", "run_fdsa", "run_spsa", "run_zoscd"],
    "harness": ["run_experiment", "run_single", "summarize"],
    "cli": ["main"],
}

OBJECTIVE_EVALS = ("objectives.SparseQuadric.eval", "objectives.MaxSSumSquared.eval")
BUILDS = (
    "sampling.make_rademacher",
    "sampling.make_partial_circulant",
    "sampling.RademacherEnsemble.__init__",
    "sampling.PartialCirculantEnsemble.__init__",
    "sampling.PartialCirculantEnsemble.with_new_omega",
)
BASELINE_METHODS = ("baselines.run_fdsa", "baselines.run_spsa", "baselines.run_zoscd")
AFTER = "perfbench.after"  # benchmark-side work done inside a traced call's parent


class Tracer:
    """Records spans of the wrapped functions and a few per-call observations."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.objective = None
        self.grad_rel_err: list[float] = []
        self.cosamp_nnz: list[int] = []
        self.stored_bytes: list[int] = []
        self.reshuffles = 0
        self.baseline_iterations = 0
        self.trace_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, after=None):
        nid = self._id(name)
        after_id = self._id(AFTER)
        names, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def open_span(span_name):
            i = len(names)
            names.append(span_name)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            return i

        def close_span(i):
            end[i] = clock()
            stack.pop()

        if after is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = open_span(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(i)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = open_span(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close_span(i)
                k = open_span(after_id)
                try:
                    after(result, *args)
                finally:
                    close_span(k)
                return result

        return wrapper

    def install(self):
        """Replace every traced entry point, in every zobcd module that binds it."""
        afters = {
            "objectives.make_objective": self._after_make_objective,
            "estimator.estimate_block_gradient": self._after_estimate,
            "sampling.RademacherEnsemble.__init__": self._after_ensemble,
            "sampling.PartialCirculantEnsemble.__init__": self._after_ensemble,
            "sparse_recovery.cosamp": self._after_cosamp,
            "blocks.reshuffle_if_due": self._after_reshuffle,
            "harness.run_experiment": self._after_experiment,
            **{name: self._after_baseline for name in BASELINE_METHODS},
        }
        modules = {m: sys.modules[f"zobcd.{m}"] for m in TRACED}
        for mod_name, attrs in TRACED.items():
            mod = modules[mod_name]
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(orig, name, afters.get(name)))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, name, afters.get(name))
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            self._set(other, key, wrapped)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- observations made after a traced call returns ------------------------

    def _after_make_objective(self, obj, *args):
        self.objective = obj

    def _after_estimate(self, result, oracle, x, p, j, cfg, *rest):
        g_hat = result[0] if isinstance(result, tuple) else result  # return_base=True
        idx = p.block_indices(j)
        g_true = checks.analytic_gradient(self.objective, x)[idx]
        norm = float(np.linalg.norm(g_true))
        if norm > 0:
            self.grad_rel_err.append(float(np.linalg.norm(g_hat.to_dense() - g_true)) / norm)

    def _after_ensemble(self, _none, ens, *args):
        self.stored_bytes.append(checks.stored_bytes(ens))

    def _after_cosamp(self, g_hat, *args):
        self.cosamp_nnz.append(g_hat.nnz)

    def _after_reshuffle(self, new_p, p, *args):
        self.reshuffles += new_p is not p

    def _after_baseline(self, result, *args):
        self.baseline_iterations += result.trace.records[-1].iteration

    def _after_experiment(self, summary, spec, out_dir, *args):
        self.trace_bytes += sum(f.stat().st_size for f in Path(out_dir).glob("trace_*"))

    # -- output ---------------------------------------------------------------

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.columns())

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer totals divided by the number of traced rounds."""
        cols = self.columns()
        name, parent = cols["name"], cols["parent"]
        dur = cols["end_ns"] - cols["start_ns"]
        ids = {n: i for i, n in enumerate(self.names)}
        n_spans = name.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n_spans)
        pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def sel(*names):
            return np.isin(name, [ids[n] for n in names if n in ids])

        def under(*names):
            return np.isin(pname, [ids[n] for n in names if n in ids])

        def total_s(mask):
            return float(dur[mask].sum()) / 1e9 / rounds

        def count(mask):
            return int(mask.sum()) // rounds

        def ancestor_in(names):
            """Index of each span's nearest ancestor named in names, or -1."""
            target = np.zeros(len(self.names) + 1, dtype=bool)
            target[[ids[n] for n in names if n in ids]] = True
            anc = parent.copy()  # frombuffer arrays are read-only
            while True:
                open_ = (anc >= 0) & ~target[name[np.maximum(anc, 0)]]
                if not open_.any():
                    return anc
                anc[open_] = parent[anc[open_]]

        oracle = sel("core.Oracle.eval")
        obj_eval = sel(*OBJECTIVE_EVALS)
        est = sel("estimator.estimate_block_gradient")
        est_children = under("estimator.estimate_block_gradient") & sel(
            "core.Oracle.eval", "sparse_recovery.cosamp"
        )
        cosamp = sel("sparse_recovery.cosamp")
        builds = sel(*BUILDS) & ~under(*BUILDS)
        topk = sel("sparse_recovery.top_k_magnitude") & ~under("sparse_recovery.top_k_magnitude")
        zobcd = sel("optimizer.run_zobcd")
        methods = sel(*BASELINE_METHODS)
        in_method = ancestor_in(BASELINE_METHODS) >= 0
        queries = max(int(oracle.sum()), 1)
        evals = max(int(obj_eval.sum()), 1)

        out = {
            "core.queries": (count(oracle), "count"),
            "core.overhead_us": (
                (float(dur[oracle].sum()) - float(dur[obj_eval & under("core.Oracle.eval")].sum()))
                / 1e3 / queries, "us"),
            "objectives.evals": (count(obj_eval), "count"),
            "objectives.eval_us": (float(dur[obj_eval].sum()) / 1e3 / evals, "us"),
            "estimator.calls": (count(est), "count"),
            "estimator.probe_s": (total_s(est) - total_s(est_children), "s"),
            "estimator.grad_rel_err": (
                float(np.median(self.grad_rel_err)) if self.grad_rel_err else 0.0, "ratio"),
            "sampling.build_s": (total_s(builds), "s"),
            "sampling.stored_mb": (max(self.stored_bytes, default=0) / 1e6, "MB"),
        }
        for meth in ("row", "adjoint", "columns"):
            mask = sel(*(f"sampling.{c}.{meth}" for c in ("RademacherEnsemble", "PartialCirculantEnsemble")))
            out[f"sampling.{meth}_s"] = (total_s(mask), "s")
            out[f"sampling.{meth}_calls"] = (count(mask), "count")
        out.update({
            "sparse_recovery.cosamp_s": (total_s(cosamp), "s"),
            "sparse_recovery.cosamp_iters": (
                float((sel("sampling.RademacherEnsemble.adjoint", "sampling.PartialCirculantEnsemble.adjoint")
                       & under("sparse_recovery.cosamp")).sum()) / max(int(cosamp.sum()), 1), "count"),
            "sparse_recovery.lsq_s": (total_s(sel("sparse_recovery.restricted_lsq")), "s"),
            "sparse_recovery.topk_s": (total_s(topk), "s"),
            "sparse_recovery.nnz": (float(np.mean(self.cosamp_nnz)) if self.cosamp_nnz else 0.0, "count"),
            "blocks.partition_s": (total_s(sel("blocks.random_partition")), "s"),
            "blocks.reshuffles": (self.reshuffles // rounds, "count"),
            "optimizer.iterations": (count(sel("optimizer.step")), "count"),
            "optimizer.step_s": (total_s(sel("optimizer.step")), "s"),
            "optimizer.report_s": (total_s(obj_eval & under("optimizer.run_zobcd")), "s"),
            "optimizer.self_s": (float((dur[zobcd] - child[zobcd]).sum()) / 1e9 / rounds, "s"),
            "baselines.iterations": (self.baseline_iterations // rounds, "count"),
            "baselines.self_s": (total_s(methods) - total_s(oracle & in_method), "s"),
            "harness.self_s": (
                total_s(sel("harness.run_experiment")) - total_s(sel("harness.run_single")), "s"),
            "harness.trace_bytes": (self.trace_bytes // rounds, "bytes"),
            "trace.spans": (n_spans // rounds, "count"),
        })
        return out
