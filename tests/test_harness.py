"""Tests for the experiment harness and the command-line interface."""

import json
import warnings
from array import array
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zobcd import harness
from zobcd.core import ConfigurationError, ConvergenceTrace, TraceRecord
from zobcd.cli import main
from zobcd.harness import (
    _WRITE_CHUNK,
    ExperimentSpec,
    _first_hit,
    _trace_text,
    _write,
    read_trace,
    run_experiment,
    run_single,
    summarize,
)

SPEC_DOC = {
    "objective": {"name": "sparse-quadric", "d": 200, "s": 10},
    "method": "zobcd-r",
    "params": {
        "J": 2,
        "alpha": 0.9,
        "delta": 1e-4,
        "budget": 20000,
        "target": 1e-4,
    },
    "repeats": 2,
    "seed": 3,
    "noise": {"kind": "none", "level": 0.0},
    "record_timing": False,
}


_PARAMS = SPEC_DOC["params"]
# Each malformed input must end `zobcd` with exit code 1 and a one-line message,
# and leave no output directory behind.
BAD_INPUTS = {
    "params-unknown-key": dict(params=dict(_PARAMS, bogus=1)),
    "params-duplicates-objective-d": dict(params=dict(_PARAMS, d=200)),
    "params-duplicates-seed": dict(params=dict(_PARAMS, seed=4)),
    "params-missing-budget": dict(params={k: v for k, v in _PARAMS.items() if k != "budget"}),
    "params-string-number": dict(params=dict(_PARAMS, J="2")),
    "params-fractional-J": dict(params=dict(_PARAMS, J=2.5)),
    "params-fractional-max-iters": dict(params=dict(_PARAMS, max_iters=2.5)),
    "params-fractional-budget": dict(params=dict(_PARAMS, budget=10.5)),
    "params-bool-J": dict(params=dict(_PARAMS, J=True)),
    "params-null-alpha": dict(params=dict(_PARAMS, alpha=None)),
    "params-baseline-fractional-budget": dict(method="spsa", params=dict(alpha=0.1, delta=1e-3, budget=10.5)),
    "params-baseline-string-target": dict(method="zoscd", params=dict(alpha=0.1, delta=1e-3, budget=10, target="1")),
    "repeats-bool": dict(repeats=True),
    "params-delta-zero": dict(params=dict(_PARAMS, delta=0.0)),
    "params-reshuffle-period-zero": dict(params=dict(_PARAMS, reshuffle_period=0)),
    "params-baseline-given-J": dict(method="fdsa", params=dict(alpha=0.1, delta=1e-3, budget=10, J=2)),
    "params-rc-rows-beyond-block": dict(method="zobcd-rc", params=dict(_PARAMS, m_override=200)),
    "params-b1-nan": dict(params=dict(_PARAMS, b1=float("nan"))),
    "params-b1-negative": dict(params=dict(_PARAMS, b1=-1.0)),
    "params-rc-unequal-blocks": dict(method="zobcd-rc", params=dict(_PARAMS, J=3)),
    "params-rc-b3-inf": dict(method="zobcd-rc", params=dict(_PARAMS, b3=float("inf"))),  # b3 is no longer a key
    "params-rc-m-override-negative": dict(method="zobcd-rc", params=dict(_PARAMS, m_override=-5)),
    "params-m-override-zero": dict(params=dict(_PARAMS, m_override=0)),
    "params-alpha-nan": dict(params=dict(_PARAMS, alpha=float("nan"))),
    "params-delta-inf": dict(params=dict(_PARAMS, delta=float("inf"))),
    "params-baseline-alpha-nan": dict(method="fdsa", params=dict(alpha=float("nan"), delta=1e-3, budget=10)),
    "params-baseline-delta-inf": dict(method="fdsa", params=dict(alpha=0.1, delta=float("inf"), budget=10)),
    "params-block-sparsity-factor-negative": dict(params=dict(_PARAMS, block_sparsity_factor=-1.0)),
    "params-target-nan": dict(params=dict(_PARAMS, target=float("nan"))),
    # integers too large for a float: finite, yet math.isfinite cannot take them
    "params-target-huge-integer": dict(params=dict(_PARAMS, target=10**400)),
    "params-alpha-huge-integer": dict(params=dict(_PARAMS, alpha=10**400)),
    "params-b1-huge-integer": dict(params=dict(_PARAMS, b1=10**400)),
    "params-baseline-target-huge-integer": dict(
        method="spsa", params=dict(alpha=0.1, delta=1e-3, budget=10, target=10**400)),
    "params-baseline-delta-huge-integer": dict(method="spsa", params=dict(alpha=0.1, delta=10**400, budget=10)),
    "params-m-override-huge-integer": dict(params=dict(_PARAMS, m_override=10**400)),
    "objective-d-huge-integer": dict(objective={"name": "sparse-quadric", "d": 10**400, "s": 10}),
    "noise-level-huge-integer": dict(noise={"kind": "gaussian", "level": 10**400}),
    # below the largest intp, yet too large for numpy to address as an array
    "params-m-override-unaddressable": dict(params=dict(_PARAMS, m_override=2**62)),
    "objective-d-unaddressable": dict(objective={"name": "sparse-quadric", "d": 2**62, "s": 10}),
    # numpy's uniform(-level, level) overflows its range 2 * level
    "noise-bounded-level-beyond-half-max": dict(noise={"kind": "bounded", "level": 1.5e308}),
    "params-max-iters-negative": dict(params=dict(_PARAMS, max_iters=-3)),
    # the CoSaMP cap is a library constant, no longer a spec key
    "params-n-cosamp-removed": dict(params=dict(_PARAMS, n_cosamp=10)),
    "objective-missing-d": dict(objective={"name": "sparse-quadric", "s": 10}),
    "objective-fractional-d": dict(objective={"name": "sparse-quadric", "d": 200.5, "s": 10}),
    "objective-missing-s": dict(objective={"name": "sparse-quadric", "d": 200}),
    "objective-string-s": dict(objective={"name": "sparse-quadric", "d": 200, "s": "10"}),
    "objective-s-above-d": dict(objective={"name": "sparse-quadric", "d": 20, "s": 30}),
    "repeats-string": dict(repeats="3"),
    "seed-fractional": dict(seed=1.5),
    "seed-negative": dict(seed=-2),
    "noise-level-nan": dict(noise={"kind": "gaussian", "level": float("nan")}),
    "noise-level-inf": dict(noise={"kind": "gaussian", "level": float("inf")}),
    "noise-unknown-key": dict(noise={"kind": "gaussian", "lvl": 1e-6}),
    # x0 is randn(d) and the quadric's coefficients are 1: neither is a spec key any more
    "x0-scale-removed": dict(x0_scale=1.0),
    "objective-coeff-removed": dict(objective={"name": "sparse-quadric", "d": 200, "s": 10, "coeff": 1.0}),
    "record-timing-string": dict(record_timing="false"),
    # traces are CSV only; the JSON encoding and its spec key are gone
    "spec-format-removed": dict(format="csv"),
    "malformed-trace-row": None,
    "trace-not-utf8": None,
    "trace-is-a-directory": None,
    "trace-row-beyond-int64": None,
    "spec-not-utf8": None,
    # a sound spec whose output directory o holds a directory where a file goes
    "out-trace-is-a-directory": dict(method="fdsa", params=dict(alpha=0.1, delta=1e-3, budget=10)),
    "out-summary-is-a-directory": dict(method="fdsa", params=dict(alpha=0.1, delta=1e-3, budget=10)),
}
TRACE_HEADER = b"iteration,cumulative_queries,f_value,compute_nanos\n"
# The file each None case above writes, as (name, bytes), and the file in the
# output directory o that each out-* case blocks; bytes None makes a directory
# of that name. A trace_* file goes to `zobcd summarize`, a spec to `zobcd run`.
BAD_FILES = {
    "malformed-trace-row": ("trace_000.csv", TRACE_HEADER + b"0,0,1.5,0\n1,10,oops,7\n"),
    "trace-not-utf8": ("trace_000.csv", TRACE_HEADER + b"0,0,1.5,0\n\xff\n"),
    "trace-is-a-directory": ("trace_000.csv", None),
    "trace-row-beyond-int64": ("trace_000.csv", TRACE_HEADER + b"0,0,1.5,0\n1,9223372036854775808,0.5,7\n"),
    "spec-not-utf8": ("spec.json", b"\xff{}"),
    "out-trace-is-a-directory": ("o/trace_000.csv", None),
    "out-summary-is-a-directory": ("o/summary.json", None),
}


def write_spec(tmp_path, doc=SPEC_DOC):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


class TestExperimentSpec:
    def test_from_file_roundtrip(self, tmp_path):
        spec = ExperimentSpec.from_file(write_spec(tmp_path))
        assert spec.method == "zobcd-r"
        assert spec.params["J"] == 2
        assert spec.repeats == 2
        assert spec.record_timing is False

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(SPEC_DOC, typo_key=1)
        with pytest.raises(ConfigurationError, match="unknown spec keys"):
            ExperimentSpec.from_file(write_spec(tmp_path, doc))

    def test_missing_required_key_rejected(self, tmp_path):
        doc = {k: v for k, v in SPEC_DOC.items() if k != "method"}
        with pytest.raises(ConfigurationError, match="missing required"):
            ExperimentSpec.from_file(write_spec(tmp_path, doc))

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(objective={"name": "sparse-quadric", "d": 10, "s": 2}, method="nope", params={})

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(objective={"name": "nope", "d": 10, "s": 2}, method="fdsa", params={})

    def test_readme_example_spec_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("Example spec:", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "example.json"
        path.write_text(block)
        spec = ExperimentSpec.from_file(path)
        assert spec.method == "zobcd-r" and spec.repeats == 5

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            ExperimentSpec.from_file(path)


class TestRunSingle:
    def test_reaches_target_on_quadric(self):
        spec = ExperimentSpec(**SPEC_DOC)
        result = run_single(spec, run_seed=3)
        assert result.termination == "target_reached"
        assert result.trace.f_values()[-1] <= 1e-4

    def test_baseline_method_dispatch(self):
        doc = dict(
            SPEC_DOC,
            method="spsa",
            params={"alpha": 0.02, "delta": 1e-4, "budget": 400},
        )
        result = run_single(ExperimentSpec(**doc), run_seed=0)
        assert result.trace.queries()[-1] <= 400 + 1

    def test_same_seed_is_deterministic(self):
        spec = ExperimentSpec(**SPEC_DOC)
        a = run_single(spec, run_seed=9).trace.f_values()
        b = run_single(spec, run_seed=9).trace.f_values()
        assert np.array_equal(a, b)


SHORT_FVALS = [2.5, 1e-300, 0.1 + 0.2, 123456789.125, float("nan")]
LONG_FVALS = [1.0 / (k + 1) - 0.5 for k in range(2 * _WRITE_CHUNK + 3)]  # three chunks, the last one short
# floats whose text or whose comparison is easy to get wrong: signed zeros and
# NaNs, the extremes, and neighbours of 2**53, where integer targets round
EDGE_FLOATS = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308, 9007199254740992.0, 9007199254740994.0, 9007199254740996.0,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
INT64 = st.one_of(st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1]), st.integers(-(2**63), 2**63 - 1))


class TestTraceFiles:
    def test_experiment_writes_traces_and_summary(self, tmp_path):
        spec = ExperimentSpec(**SPEC_DOC)
        out = tmp_path / "results"
        summary = run_experiment(spec, out)
        assert sorted(f.name for f in out.iterdir()) == ["summary.json", "trace_000.csv", "trace_001.csv"]
        assert (out / "summary.json").exists()
        assert summary["iterations_to_target"]["unreached_count"] == 0
        assert summary["spec"]["method"] == "zobcd-r"

    def test_csv_schema_and_roundtrip(self, tmp_path):
        spec = ExperimentSpec(**SPEC_DOC)
        out = tmp_path / "results"
        run_experiment(spec, out)
        path = out / "trace_000.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,cumulative_queries,f_value,compute_nanos"
        trace = read_trace(path)
        direct = run_single(spec, run_seed=spec.seed).trace
        assert np.array_equal(trace.f_values(), direct.f_values())
        assert np.array_equal(trace.queries(), direct.queries())

    def test_record_timing_false_zeroes_nanos(self, tmp_path):
        # a zoscd run of three write chunks, the last one short
        doc = dict(
            SPEC_DOC,
            method="zoscd",
            params={"alpha": 0.9, "delta": 1e-3, "budget": 10**6, "max_iters": 2 * _WRITE_CHUNK + 2},
        )
        out = tmp_path / "results"
        summary = run_experiment(ExperimentSpec(**doc), out)
        for r, run in enumerate(summary["runs"]):
            trace = read_trace(out / f"trace_{r:03d}.csv")
            assert len(trace) == 2 * _WRITE_CHUNK + 3
            assert not any(trace.compute_nanos)
            assert run["mean_iter_compute_ns"] == 0.0

    @pytest.mark.parametrize(
        "record_timing, fvals",
        [
            (True, SHORT_FVALS),
            (False, SHORT_FVALS),
            (True, LONG_FVALS),
            (False, LONG_FVALS),
        ],
        ids=["True", "False", "True-longer-than-a-chunk", "False-longer-than-a-chunk"],
    )
    def test_trace_bytes_equal_the_row_by_row_format(self, tmp_path, record_timing, fvals):
        # an untimed run reaches the writer with its nanos column already zeroed
        trace = ConvergenceTrace()
        for k, f in enumerate(fvals):
            trace.append(k, 3 * k + 1, f, 1000 + k if record_timing else 0)
        path = tmp_path / "t.csv"
        _write(path, _trace_text(trace))
        lines = ["iteration,cumulative_queries,f_value,compute_nanos"]
        lines += [f"{r.iteration},{r.cumulative_queries},{repr(r.f_value)},{r.compute_nanos if record_timing else 0}"
                  for r in trace]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(INT64, INT64, FLOATS, INT64, st.integers(1, 4)), max_size=30), chunk=st.integers(1, 7))
    def test_trace_text_equals_the_row_by_row_format(self, rows, chunk):
        # each row 1-4 times over, so that f comes in runs, cut by small chunks
        rows = [row[:4] for row in rows for _ in range(row[4])]
        trace = ConvergenceTrace()
        for name, column in zip(TraceRecord._fields, zip(*rows) if rows else [()] * 4):
            setattr(trace, name, array("d" if name == "f_value" else "q", column))
        with mock.patch.object(harness, "_WRITE_CHUNK", chunk):
            text = "".join(_trace_text(trace))
        rows_text = "".join([f"{it},{q},{f!r},{n}\n" for it, q, f, n in rows])
        assert text == ",".join(TraceRecord._fields) + "\n" + rows_text

    def test_rerun_removes_only_the_stale_trace_files(self, tmp_path):
        out = tmp_path / "results"
        run_experiment(ExperimentSpec(**dict(SPEC_DOC, repeats=3)), out)
        others = ["notes.txt", "spec.json", "trace_01.csv", "trace_0002.csv", "trace_x.csv", "trace_001.json"]
        for name in others:
            (out / name).write_text("kept\n")
        (out / "trace_005.csv").mkdir()
        run_experiment(ExperimentSpec(**dict(SPEC_DOC, repeats=1)), out)
        names = others + ["summary.json", "trace_000.csv", "trace_005.csv"]
        assert sorted(f.name for f in out.iterdir()) == sorted(names)
        assert all((out / name).read_text() == "kept\n" for name in others)

    def test_repeated_run_is_byte_identical(self, tmp_path):
        spec = ExperimentSpec(**SPEC_DOC)
        run_experiment(spec, tmp_path / "a")
        run_experiment(spec, tmp_path / "b")
        assert (tmp_path / "a" / "trace_000.csv").read_bytes() == (
            tmp_path / "b" / "trace_000.csv"
        ).read_bytes()

    def test_summary_is_byte_identical_without_timing(self, tmp_path):
        # with record_timing false the trace files hold no timing, and
        # summary.json must describe those files, not the run's clock
        doc = dict(
            SPEC_DOC,
            objective={"name": "sparse-quadric", "d": 400, "s": 10},
            method="zoscd",
            params={"alpha": 0.9, "delta": 1e-3, "budget": 10**6, "max_iters": 500},
            repeats=1,
        )
        for out in ("a", "b"):
            run_experiment(ExperimentSpec(**doc), tmp_path / out)
        summary = (tmp_path / "a" / "summary.json").read_bytes()
        assert summary == (tmp_path / "b" / "summary.json").read_bytes()
        assert json.loads(summary)["runs"][0]["mean_iter_compute_ns"] == 0.0
        assert summarize([read_trace(tmp_path / "a" / "trace_000.csv")], None)["runs"][0]["mean_iter_compute_ns"] == 0.0

    def test_read_trace_rejects_non_trace(self, tmp_path):
        path = tmp_path / "trace_000.csv"
        path.write_text("nope\n1,2,3,4\n")
        with pytest.raises(ConfigurationError):
            read_trace(path)


class TestSummarize:
    def make_trace(self, fvals):
        trace = ConvergenceTrace()
        for i, f in enumerate(fvals):
            trace.append(i, 10 * i + 1, f, 0)
        return trace

    def test_median_and_unreached(self):
        traces = [
            self.make_trace([5.0, 1.0, 0.05]),
            self.make_trace([5.0, 0.05, 0.01]),
            self.make_trace([5.0, 3.0, 2.0]),
        ]
        out = summarize(traces, target=0.1)
        stats = out["iterations_to_target"]
        assert stats["median"] == 2
        assert stats["unreached_count"] == 1
        runs = out["runs"]
        assert runs[0]["iterations_to_target"] == 2
        assert runs[1]["iterations_to_target"] == 1
        assert runs[2]["iterations_to_target"] == "unreached"
        assert runs[2]["queries_to_target"] == "unreached"

    def test_no_target_reports_unreached(self):
        out = summarize([self.make_trace([3.0, 2.0])], target=None)
        assert out["iterations_to_target"]["median"] == "unreached"

    @settings(max_examples=300, deadline=None)
    @given(
        fvals=st.lists(FLOATS, max_size=20),
        target=st.one_of(
            FLOATS.filter(lambda t: np.isfinite(t)),
            st.integers(-(2**60), 2**60),
            st.sampled_from([2**53 + 1, 2**53 + 3, -(2**53 + 3), 2**1024, 10**400, -(10**400)]),
        ),
    )
    @example(fvals=[float("nan")] * 3, target=1.0)
    @example(fvals=[5.0, float("nan"), 3.0], target=1.0)  # no hit
    @example(fvals=[float("inf"), 2.0], target=10**400)
    @example(fvals=[9007199254740996.0, 9007199254740992.0], target=2**53 + 3)  # the target's float rounds up
    def test_first_hit_equals_the_row_loop(self, fvals, target):
        trace = self.make_trace(fvals)
        rows = zip(trace.iteration, trace.cumulative_queries, trace.f_value)
        want = next(((it, q) for it, q, f in rows if f <= target), ("unreached", "unreached"))
        got = _first_hit(trace, target)
        assert got == want and [type(v) for v in got] == [type(v) for v in want]
        trace.append(len(fvals), 10 * len(fvals) + 1, 0.5, 0)  # no view of a column is left behind

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([], target=None)

    def test_trace_without_records_rejected(self):
        with pytest.raises(ConfigurationError, match="trace 1 holds no records"):
            summarize([self.make_trace([1.0]), ConvergenceTrace()], target=None)


class TestCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path)
        out = tmp_path / "results"
        code = main(["run", "--config", str(spec_path), "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == 1e-4
        code = main(["summarize", "--in", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations_to_target"]["unreached_count"] == 0

    def test_summarize_accepts_an_integer_target_beyond_float_range(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", "--config", str(write_spec(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        (out / "summary.json").write_text(json.dumps({"target": 10**400}))
        assert main(["summarize", "--in", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == 10**400
        assert [(r["iterations_to_target"], r["queries_to_target"]) for r in doc["runs"]] == [(0, 0)] * 2

    def test_iteration_cap_is_recorded_in_the_summary(self, tmp_path, capsys):
        # a large budget and no target: the run ends on its iteration cap
        params = dict(_PARAMS, max_iters=3, budget=10**6)
        del params["target"]
        out = tmp_path / "results"
        code = main(["run", "--config", str(write_spec(tmp_path, dict(SPEC_DOC, params=params))), "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [(r["termination"], r["iterations"]) for r in runs] == [("max_iters_reached", 3)] * 2

    def test_bad_config_exit_code_1(self, tmp_path, capsys):
        doc = dict(SPEC_DOC, typo_key=1)
        code = main(["run", "--config", str(write_spec(tmp_path, doc))])
        capsys.readouterr()
        assert code == 1

    def test_missing_traces_exit_code_1(self, tmp_path, capsys):
        code = main(["summarize", "--in", str(tmp_path)])
        capsys.readouterr()
        assert code == 1

    def test_header_only_trace_exit_code_1(self, tmp_path, capsys):
        (tmp_path / "trace_000.csv").write_text("iteration,cumulative_queries,f_value,compute_nanos\n")
        assert main(["summarize", "--in", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        assert "trace_000.csv holds no trace records" in err

    @pytest.mark.parametrize(
        "summary, flag, named",
        [
            ("not json", [], "summary.json"),
            ("[1, 2]", [], "summary.json"),
            ('{"target": "abc"}', [], "summary.json"),
            ('{"target": NaN}', [], "summary.json"),
            (None, ["--target", "nan"], "--target"),
            (None, ["--target", "inf"], "--target"),
        ],
        ids=["not-json", "json-list", "string-target", "nan-target", "flag-nan", "flag-inf"],
    )
    def test_bad_summarize_target_exits_1_with_one_line(self, tmp_path, capsys, summary, flag, named):
        (tmp_path / "trace_000.csv").write_text(
            "iteration,cumulative_queries,f_value,compute_nanos\n0,0,1.5,0\n1,10,0.5,7\n"
        )
        if summary is not None:
            (tmp_path / "summary.json").write_text(summary)
        assert main(["summarize", "--in", str(tmp_path), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        assert named in err

    def test_negative_seed_exit_code_1(self, tmp_path, capsys):
        argv = ["run", "--config", str(write_spec(tmp_path)), "--out", str(tmp_path / "o"), "--seed", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err

    def test_seed_flag_overrides_spec_seed(self, tmp_path, capsys):
        out = tmp_path / "flag_results"
        assert main(["run", "--config", str(write_spec(tmp_path)), "--seed", "17", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spec"]["seed"] == 17
        assert [r["total_queries"] for r in summary["runs"]] == [
            run_single(ExperimentSpec(**SPEC_DOC), seed).trace.queries()[-1] for seed in (17, 18)
        ]

    def test_rerun_replaces_the_traces_of_an_earlier_run(self, tmp_path, capsys):
        # two repeats, then one into the same directory: trace_001.csv of the
        # first run must not reach `zobcd summarize`
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_spec(tmp_path)), "--out", str(out)]) == 0
        capsys.readouterr()
        spec = write_spec(tmp_path, dict(SPEC_DOC, repeats=1, seed=7))
        assert main(["run", "--config", str(spec), "--out", str(out)]) == 0
        ran = json.loads(capsys.readouterr().out)
        assert main(["summarize", "--in", str(out)]) == 0
        summarized = json.loads(capsys.readouterr().out)
        assert len(summarized["runs"]) == 1
        assert summarized["queries_to_target"] == ran["queries_to_target"]

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_1_with_one_line(self, tmp_path, capsys, case):
        name, content = BAD_FILES.get(case, ("", b""))
        if name:
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.mkdir() if content is None else path.write_bytes(content)
        if name.startswith("trace_"):
            code = main(["summarize", "--in", str(tmp_path)])
        else:
            config = path if BAD_INPUTS[case] is None else write_spec(tmp_path, dict(SPEC_DOC, **BAD_INPUTS[case]))
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        assert (tmp_path / "o").exists() == name.startswith("o/")
        assert name in err
        if case in ("malformed-trace-row", "trace-row-beyond-int64"):
            assert "trace_000.csv line 3: malformed trace row" in err

    def test_huge_b1_clamps_the_rows_without_a_traceback(self, tmp_path, capsys):
        # b1 * s_block * ln n overflows to inf: every 100-column block gets
        # 100 rows, with the clamp warning
        doc = dict(
            SPEC_DOC,
            objective={"name": "sparse-quadric", "d": 400, "s": 12},
            params=dict(J=4, alpha=0.9, delta=1e-2, budget=10**6, max_iters=2, b1=1e308),
            repeats=1,
        )
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="needs m=inf rows, clamped to the block size n=100"):
            code = main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [(r["iterations"], r["total_queries"]) for r in runs] == [(2, 202)]

    @pytest.mark.parametrize("params", [dict(delta=1e-320), dict(alpha=1e300)], ids=["delta-1e-320", "alpha-1e300"])
    def test_numerical_failure_exits_2_without_numpy_warnings(self, tmp_path, capsys, params):
        # noise over a subnormal radius overflows the divided differences; a
        # step of 1e300 overflows the objective's squares
        doc = dict(
            SPEC_DOC,
            params={**dict(J=2, alpha=0.9, delta=1e-2, budget=10**5, max_iters=50), **params},
            noise={"kind": "gaussian", "level": 1e-6},
            repeats=1,
        )
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert [str(w.message) for w in caught] == []
        assert err.count("\n") <= 1, err
        runs = json.loads((out / "summary.json").read_text())["runs"]
        assert [r["termination"] for r in runs] == ["numerical_failure"]

    def test_list_commands(self, capsys):
        assert main(["list-objectives"]) == 0
        assert "sparse-quadric" in capsys.readouterr().out
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        assert "zobcd-r" in out and "fdsa" in out
