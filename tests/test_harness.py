"""Tests for the experiment harness and the command-line interface."""

import json

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
    "objective-coeff-huge-integer": dict(objective={"name": "sparse-quadric", "d": 200, "s": 10, "coeff": 10**400}),
    "noise-level-huge-integer": dict(noise={"kind": "gaussian", "level": 10**400}),
    "x0-scale-huge-integer": dict(x0_scale=10**400),
    # below the largest intp, yet too large for numpy to address as an array
    "params-m-override-unaddressable": dict(params=dict(_PARAMS, m_override=2**62)),
    "objective-d-unaddressable": dict(objective={"name": "sparse-quadric", "d": 2**62, "s": 10}),
    # numpy's uniform(-level, level) overflows its range 2 * level
    "noise-bounded-level-beyond-half-max": dict(noise={"kind": "bounded", "level": 1.5e308}),
    "params-max-iters-negative": dict(params=dict(_PARAMS, max_iters=-3)),
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
    "x0-scale-nan": dict(x0_scale=float("nan")),
    "x0-scale-inf": dict(x0_scale=float("inf")),
    "objective-coeff-nan": dict(objective={"name": "sparse-quadric", "d": 200, "s": 10, "coeff": float("nan")}),
    "record-timing-string": dict(record_timing="false"),
    "malformed-trace-row": None,
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
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_experiment_writes_traces_and_summary(self, tmp_path, fmt):
        spec = ExperimentSpec(**dict(SPEC_DOC, format=fmt))
        out = tmp_path / "results"
        summary = run_experiment(spec, out)
        files = sorted(out.glob(f"trace_*.{fmt}"))
        assert [f.name for f in files] == [f"trace_000.{fmt}", f"trace_001.{fmt}"]
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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("record_timing", [True, False])
    def test_trace_bytes_equal_the_row_by_row_format(self, tmp_path, fmt, record_timing):
        trace = ConvergenceTrace()
        for k, f in enumerate([2.5, 1e-300, 0.1 + 0.2, 123456789.125, float("nan")]):
            trace.append(k, 3 * k + 1, f, 1000 + k)
        path = tmp_path / f"t.{fmt}"
        _write_trace(trace, path, fmt, record_timing)
        rows = [(r.iteration, r.cumulative_queries, r.f_value, r.compute_nanos if record_timing else 0)
                for r in trace.records]
        if fmt == "csv":
            lines = ["iteration,cumulative_queries,f_value,compute_nanos"]
            lines += [f"{it},{q},{repr(f)},{ns}" for it, q, f, ns in rows]
            expected = "\n".join(lines) + "\n"
        else:
            keys = ("iteration", "cumulative_queries", "f_value", "compute_nanos")
            expected = json.dumps([dict(zip(keys, row)) for row in rows], indent=1) + "\n"
        assert path.read_bytes() == expected.encode()

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

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        spec_path = write_spec(tmp_path)
        out_env = tmp_path / "env_results"
        monkeypatch.setenv("ZOBCD_SEED", "41")
        monkeypatch.setenv("ZOBCD_OUT", str(out_env))
        assert main(["run", "--config", str(spec_path)]) == 0
        capsys.readouterr()
        summary = json.loads((out_env / "summary.json").read_text())
        assert summary["spec"]["seed"] == 41

    def test_non_integer_seed_env_exit_code_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ZOBCD_SEED", "forty")
        assert main(["run", "--config", str(write_spec(tmp_path)), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], "-3")])
    def test_negative_seed_exit_code_1(self, tmp_path, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("ZOBCD_SEED", env)
        argv = ["run", "--config", str(write_spec(tmp_path)), "--out", str(tmp_path / "o"), *flag]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err

    def test_seed_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        spec_path = write_spec(tmp_path)
        monkeypatch.setenv("ZOBCD_SEED", "41")
        out = tmp_path / "flag_results"
        assert main(["run", "--config", str(spec_path), "--seed", "17", "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["spec"]["seed"] == 17

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_1_with_one_line(self, tmp_path, capsys, case):
        if case == "malformed-trace-row":
            (tmp_path / "trace_000.csv").write_text(
                "iteration,cumulative_queries,f_value,compute_nanos\n0,0,1.5,0\n1,10,oops,7\n"
            )
            code = main(["summarize", "--in", str(tmp_path)])
        else:
            doc = dict(SPEC_DOC, **BAD_INPUTS[case])
            code = main(["run", "--config", str(write_spec(tmp_path, doc)), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()
        if case == "malformed-trace-row":
            assert "trace_000.csv line 3" in err

    def test_list_commands(self, capsys):
        assert main(["list-objectives"]) == 0
        assert "sparse-quadric" in capsys.readouterr().out
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        assert "zobcd-r" in out and "fdsa" in out
