#!/usr/bin/env python3
"""zobcd benchmark: time and oracle queries to target, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload quadric-r --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 32 --trace 0

A run repeats whole rounds of its workload's operations and stops at the
round boundary nearest to --seconds (at least one round). --trace 0 prints
the end-to-end metrics as medians over rounds; --trace 1 alternates
untraced and traced rounds and prints the per-layer metrics. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")
# The keys of workloads.WORKLOADS, repeated because workloads.py imports the
# library, which is found only after the arguments are parsed.
WORKLOAD_NAMES = ("quadric-r", "maxsum-r", "baselines")


def _import_library():
    """Put the checkout's src/ on sys.path, or exit if it holds no zobcd."""
    if not (ROOT / "src" / "zobcd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zobcd sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


# Set-up passes after every untraced round. Spread over the whole run, their
# median does not hang on the machine's speed in the second after the last round.
SETUP_PASSES_PER_ROUND = 10


class SetupDone(Exception):
    """Raised at an operation's first oracle query when only its set-up is timed."""


class FirstQuery:
    """Timestamp of an operation's first oracle query.

    Wraps Oracle.eval for one call only and then puts the original back, so
    the remaining queries of the run pay nothing for the observation. With
    stop=True the first query raises SetupDone instead of running.
    """

    def __init__(self, oracle_cls, stop: bool = False):
        self.cls, self.stop, self.ns = oracle_cls, stop, None

    def __enter__(self):
        orig = self.orig = self.cls.__dict__["eval"]

        def first(oracle, x):
            self.ns = time.perf_counter_ns()
            self.cls.eval = orig
            if self.stop:
                raise SetupDone
            return orig(oracle, x)

        self.cls.eval = first
        return self

    def __exit__(self, *exc):
        self.cls.eval = self.orig


def run_op(op, out: Path, checks, oracle_cls) -> dict:
    """One operation: timed, then checked against the benchmark's own computations."""
    row = {"label": op.label, "failed": None, "check_failed": False}
    try:
        with FirstQuery(oracle_cls) as fq:
            done = op.run(out)
            t1 = time.perf_counter_ns()
        records = done.result.trace.records
        row.update(
            ttt_ns=t1 - fq.ns,
            iterations=records[-1].iteration,
            queries=checks.first_hit(((r.iteration, r.cumulative_queries, r.f_value) for r in records), op.target),
        )
        if done.result.termination != "target_reached" or row["queries"] is None:
            row["failed"] = (f"stopped ({done.result.termination}) above target {op.target} "
                             f"after {row['iterations']} iterations")
            return row
        try:
            checks.check_final_value(done.objective, done.result.x_final, records[-1].f_value, op.target)
            checks.check_query_accounting([r.cumulative_queries for r in records], op.per_iteration)
            if done.out_dir is not None:
                checks.check_summary(done.out_dir, op.target, row["queries"])
            for extra in done.extra:
                extra()
        except checks.CheckFailed as exc:
            row["failed"], row["check_failed"] = f"check failed: {exc}", True
    except Exception as exc:  # a raising operation is a failed operation, not a crash
        row["failed"] = f"raised {type(exc).__name__}: {exc}"
    return row


def setup_pass(ops, out: Path, oracle_cls) -> float:
    """Seconds from the start of each operation to its first query, summed over ops."""
    total = 0
    for i, op in enumerate(ops):
        with FirstQuery(oracle_cls, stop=True) as fq:
            t0 = time.perf_counter_ns()
            try:
                op.run(out / f"op{i}")
            except SetupDone:
                total += fq.ns - t0
            except Exception:  # already counted as a failed operation by its round
                pass
    return total / 1e9


def run_round(ops, out: Path, checks, oracle_cls) -> tuple[list[dict], float]:
    t0 = time.perf_counter()
    rows = [run_op(op, out / f"op{i}", checks, oracle_cls) for i, op in enumerate(ops)]
    return rows, time.perf_counter() - t0


def end_to_end(rounds: list[list[dict]], setups: list[float]) -> dict:
    """Medians over rounds of each round's sums over its operations.

    setup_s is the median over separate set-up passes, which stop each
    operation at its first query.
    """
    per_round = []
    for rows in rounds:
        ok = [r for r in rows if r["failed"] is None]
        ttt = sum(r["ttt_ns"] for r in ok) / 1e9
        iters = sum(r["iterations"] for r in ok)
        per_round.append({
            "time_to_target_s": ttt,
            "queries_to_target": sum(r["queries"] for r in ok),
            "iter_ms": 1e3 * ttt / max(iters, 1),
        })
    units = {"time_to_target_s": "s", "queries_to_target": "count", "iter_ms": "ms"}
    metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
    metrics.update({k: {"value": statistics.median(r[k] for r in per_round), "unit": u} for k, u in units.items()})
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    return metrics


def repeats_exactly(rounds: list[list[dict]]) -> str | None:
    """Iterations and queries of an operation must not change between rounds."""
    first = {r["label"]: (r.get("iterations"), r.get("queries")) for r in rounds[0]}
    for rows in rounds[1:]:
        for r in rows:
            if (r.get("iterations"), r.get("queries")) != first[r["label"]]:
                return f"{r['label']} did not repeat: {first[r['label']]} then {(r.get('iterations'), r.get('queries'))}"
    return None


def run_workload(args) -> int:
    _import_library()
    import checks
    import workloads
    from zobcd.core import Oracle

    ops = workloads.WORKLOADS[args.workload](args.seed)
    out = OUT / f"{args.workload}-seed{args.seed}"
    start = time.perf_counter()
    cycles = 0
    rounds, walls, setups = [], {False: [], True: []}, []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    while True:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                rows, wall = run_round(ops, out, checks, Oracle)
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append(rows)
            walls[traced].append(wall)
            for r in rows:
                status = "ok" if r["failed"] is None else f"FAILED {r['failed']}"
                ttt = f"{r['ttt_ns'] / 1e9:.2f}" if "ttt_ns" in r else None
                print(f"{args.workload} {'traced ' if traced else ''}{r['label']}: iterations={r.get('iterations')} "
                      f"queries_to_target={r.get('queries')} time_to_target_s={ttt} {status}")
        if not tracer:
            setups += [setup_pass(ops, out, Oracle) for _ in range(SETUP_PASSES_PER_ROUND)]
        cycles += 1
        # Stop at the round boundary nearest to --seconds, so that a run
        # measures about --seconds whether its rounds are short or long.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= args.seconds:
            break

    problem = repeats_exactly(rounds)
    if problem:
        print(f"{args.workload}: {problem}")
    correct = problem is None and not any(r["check_failed"] for rows in rounds for r in rows)
    if tracer:
        n = len(walls[True])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics(n).items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(walls[True]) - statistics.median(walls[False]), "unit": "s"}
        tracer.write(out / "spans.npz")
    else:
        print(f"{args.workload} set-up passes (s): " + " ".join(f"{v:.4f}" for v in setups))
        metrics = end_to_end(rounds, setups)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(len(rows) for rows in rounds)
    failed = sum(r["failed"] is not None for rows in rounds for r in rows)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} runs attempted, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy is first imported: every process of
    # the benchmark is single-threaded, and subprocesses inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
