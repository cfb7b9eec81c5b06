"""Tests for the experiment harness and the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from zobcd.core import ConfigurationError, ConvergenceTrace
from zobcd.cli import main
from zobcd.harness import (
    ExperimentSpec,
    _write_trace,
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
        spec = ExperimentSpec(**SPEC_DOC)
        out = tmp_path / "results"
        run_experiment(spec, out)
        trace = read_trace(out / "trace_000.csv")
        assert all(r.compute_nanos == 0 for r in trace.records)

    @pytest.mark.parametrize("record_timing", [True, False])
    def test_trace_bytes_equal_the_row_by_row_format(self, tmp_path, record_timing):
        trace = ConvergenceTrace()
        for k, f in enumerate([2.5, 1e-300, 0.1 + 0.2, 123456789.125, float("nan")]):
            trace.append(k, 3 * k + 1, f, 1000 + k)
        path = tmp_path / "t.csv"
        _write_trace(trace, path, record_timing)
        lines = ["iteration,cumulative_queries,f_value,compute_nanos"]
        lines += [f"{r.iteration},{r.cumulative_queries},{repr(r.f_value)},{r.compute_nanos if record_timing else 0}"
                  for r in trace.records]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

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
        if case == "malformed-trace-row":
            assert "trace_000.csv line 3" in err

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

    def test_list_commands(self, capsys):
        assert main(["list-objectives"]) == 0
        assert "sparse-quadric" in capsys.readouterr().out
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        assert "zobcd-r" in out and "fdsa" in out
