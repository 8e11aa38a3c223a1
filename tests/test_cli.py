import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import bvfsm.cli as cli
from bvfsm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
    run_dimension_sweep,
    run_experiment,
    time_step,
)

FAST_BVFSM = {
    "K": 40,
    "T_z": 10,
    "T_y": 10,
    "schedule": {"sigma2": {"rule": "static", "value": 2.0, "decay_pow": 0.6}},
    "aux_f": {"name": "inverse", "modified": True},
}


def write_config(tmp_path, **overrides):
    cfg = {
        "problem": "sin:n=2,a=2,c=2",
        "methods": ["bvfsm", "rhg"],
        "x0": 8.0,
        "y0": 8.0,
        "seed": 0,
        "bvfsm": FAST_BVFSM,
        "baseline": {"T": 10, "I": 10, "Q": 5, "ul_steps": 15},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 0
    assert set(summary["results"]) == {"bvfsm", "rhg"}
    header, rows = read_csv(out / "trace_bvfsm.csv")
    assert header == ["k", "l", "wall_time_s", "F", "f", "ul_grad_norm",
                      "rel_err_x", "rel_err_F"]
    assert len(rows) == 42  # initial record + K steps + feasibility polish
    # summary round-trips: the echoed config re-validates end to end
    from bvfsm.cli import build_solver_config, load_problem

    echoed = summary["config"]
    bench = load_problem(echoed, summary["seed"])
    build_solver_config(echoed, bench)
    assert echoed["methods"] == ["bvfsm", "rhg"]


def test_run_experiment_deterministic_outside_timing(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_experiment(cfg, out_dir=out1) == EXIT_OK
    assert run_experiment(cfg, out_dir=out2) == EXIT_OK
    for name in ("trace_bvfsm.csv", "trace_rhg.csv"):
        h1, rows1 = read_csv(out1 / name)
        h2, rows2 = read_csv(out2 / name)
        for r1, r2 in zip(rows1, rows2):
            for col in h1:
                if col == "wall_time_s":
                    continue
                assert r1[col] == r2[col], f"{name}:{col}"


def test_run_experiment_empty_methods_is_config_error(tmp_path):
    cfg = write_config(tmp_path, methods=[])
    out = tmp_path / "nothing"
    assert run_experiment(cfg, out_dir=out) == EXIT_CONFIG
    assert not out.exists()


def test_run_experiment_unknown_problem_is_config_error(tmp_path):
    cfg = write_config(tmp_path, problem="mnist:n=2")
    assert run_experiment(cfg, out_dir=tmp_path / "x") == EXIT_CONFIG


def test_run_experiment_unknown_method_is_config_error(tmp_path):
    cfg = write_config(tmp_path, methods=["bvfsm", "sgd"])
    assert run_experiment(cfg, out_dir=tmp_path / "x") == EXIT_CONFIG


def test_run_experiment_mistyped_baseline_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, methods=["rhg"], baseline={"Tee": 3})
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_experiment_non_numeric_solver_setting_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, methods=["bvfsm"], bvfsm={**FAST_BVFSM, "K": "abc"})
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


VERB_ARGS = {
    "run": ["--out-dir", "{out}"],
    "sweep": ["--n", "1", "--methods", "bvfsm", "--out", "{out}"],
    "time": ["--sizes", "1:2", "--methods", "bvfsm", "--repeats", "3", "--out", "{out}"],
}


@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
def test_non_numeric_solver_setting_is_config_error_in_every_verb(tmp_path, verb, capsys):
    cfg = write_config(tmp_path, methods=["bvfsm"], bvfsm={**FAST_BVFSM, "K": "abc"})
    out = tmp_path / "out"
    argv = [verb, "--config", str(cfg)] + [a.format(out=out) for a in VERB_ARGS[verb]]
    assert main(argv) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # rejected before any method ran


def test_run_experiment_non_numeric_ul_steps_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, methods=["rhg"], baseline={"ul_steps": "x"})
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "config error: baseline" in capsys.readouterr().err


@pytest.mark.parametrize("method, baseline, key, value", [
    ("bda", {"aggregation": 0.3}, "aggregation", 0.3),
    ("trhg", {"I": 25}, "I", 25),
])
def test_baseline_section_reaches_a_method_without_argument(method, baseline, key, value):
    from bvfsm.cli import _resolve_method
    from bvfsm.problems import parse_problem

    cfg = {"baseline": baseline, "methods": [method]}
    name, bcfg, _ = _resolve_method(parse_problem("sin:n=2"), method, cfg)
    assert name == method and getattr(bcfg, key) == value


def test_run_experiment_rhg_argument_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, methods=["rhg:5"])
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "config error: baseline" in capsys.readouterr().err


@pytest.mark.parametrize("bvfsm, key", [
    ({**FAST_BVFSM, "T_Y": 5, "stepy": 0.5}, "T_Y"),
    ({**FAST_BVFSM, "schedule": {"sigma_1": 9}}, "sigma_1"),
], ids=["section-key", "schedule-key"])
def test_run_experiment_unknown_solver_key_is_config_error(tmp_path, bvfsm, key, capsys):
    cfg = write_config(tmp_path, methods=["bvfsm"], bvfsm=bvfsm)
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("spec", ["sin:n=2", "sin-constrained:n=2", "sin-pessimistic:n=2",
                                  "hyperclean:n_train=8,n_val=6,dim=2"])
def test_suggested_solver_profiles_pass_the_key_check(spec):
    from bvfsm.cli import build_solver_config
    from bvfsm.problems import parse_problem

    build_solver_config({}, parse_problem(spec))


def test_shipped_config_passes_the_key_check():
    from bvfsm.cli import build_solver_config, load_problem

    cfg = json.loads((Path(__file__).parents[1] / "configs" / "convergence.json").read_text())
    build_solver_config(cfg, load_problem(cfg, 0))


SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_config_passes_the_key_checks(path):
    # each experiment script hands config() to a verb; a sweep script names its
    # methods in METHODS and runs the sin family
    import importlib.util

    from bvfsm.cli import _resolve_method, _vector, _wall_clock_cap, load_problem
    from bvfsm.problems import parse_problem

    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg = script.config()
    bench = load_problem(cfg, 0) if "problem" in cfg else parse_problem("sin:n=2,a=2,c=2")
    methods = cfg["methods"] if "methods" in cfg else script.METHODS
    assert methods
    for mspec in methods:
        _resolve_method(bench, mspec, cfg)
    _vector(bench.problem.m, cfg.get("x0"))
    _vector(bench.problem.n, cfg.get("y0"))
    _wall_clock_cap(cfg)


@pytest.mark.parametrize("x0", ["abc", [1.0, 2.0]])
def test_run_experiment_malformed_start_point_is_config_error(tmp_path, x0):
    cfg = write_config(tmp_path, x0=x0)
    assert run_experiment(cfg, out_dir=tmp_path / "x") == EXIT_CONFIG


@pytest.mark.parametrize("y0", [[math.nan, 0.5], [0.5, math.inf], -math.inf],
                         ids=["nan", "inf", "scalar-inf"])
def test_run_experiment_non_finite_start_point_is_config_error(tmp_path, y0, capsys):
    # json writes NaN and Infinity, and reads them back as floats
    cfg = write_config(tmp_path, problem="sin-constrained:n=2", methods=["bvfsm"], y0=y0)
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["sigma2", "sigma2_H", "sigma2_h"])
def test_run_experiment_dynamic_constraint_shift_is_config_error(tmp_path, key, capsys):
    # "static" is the one shift rule, for the value-function term and constraints alike
    cfg = write_config(tmp_path, problem="sin-constrained:n=2,a=2,c=1", methods=["bvfsm"],
                       bvfsm={**FAST_BVFSM, "schedule": {key: {"rule": "dynamic"}}})
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert f"config error: bvfsm: {key}: unknown rule 'dynamic'; known: ['static']" \
        in capsys.readouterr().err


def test_run_experiment_timeout_partial_artifacts(tmp_path):
    cfg = write_config(tmp_path, methods=["bvfsm"],
                       bvfsm={**FAST_BVFSM, "K": 100000},
                       wall_clock_cap_s=0.05)
    out = tmp_path / "partial"
    assert run_experiment(cfg, out_dir=out) == EXIT_RUNTIME
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["bvfsm"]["flag"] == "SolveTimeout"
    _, rows = read_csv(out / "trace_bvfsm.csv")
    assert 1 <= len(rows) < 100001


def test_seed_env_fallback(tmp_path, monkeypatch):
    cfg_dict = {
        "problem": "hyperclean:n_train=8,n_val=6,dim=2",
        "methods": ["bvfsm"],
        "bvfsm": {**FAST_BVFSM, "K": 2},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg_dict))
    monkeypatch.setenv("BVFSM_SEED", "17")
    out = tmp_path / "env"
    assert run_experiment(path, out_dir=out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 17


def test_dimension_sweep_row_per_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    rows = run_dimension_sweep(
        "sin", [1, 2], ["bvfsm", "rhg"],
        cfg={"bvfsm": FAST_BVFSM, "baseline": {"T": 10, "I": 10, "ul_steps": 5}},
        out_path=out,
    )
    assert len(rows) == 4
    header, parsed = read_csv(out)
    assert header[:3] == ["n", "method", "rel_err_x"]
    assert len(parsed) == 4


def test_dimension_sweep_records_cell_failures(tmp_path):
    rows = run_dimension_sweep(
        "sin", [1], ["bvfsm"],
        cfg={"bvfsm": {**FAST_BVFSM, "K": 100000}, "wall_clock_cap_s": 0.05},
    )
    assert len(rows) == 1
    assert np.isnan(rows[0]["rel_err_x"])
    assert "SolveTimeout" in rows[0]["note"]


def test_dimension_sweep_sanity_row_fast():
    start = time.perf_counter()
    rows = run_dimension_sweep(
        "sin", [1], ["bvfsm", "rhg"],
        cfg={"bvfsm": FAST_BVFSM, "baseline": {"T": 10, "I": 10, "ul_steps": 5}},
    )
    assert time.perf_counter() - start < 5.0
    assert all(not r["note"] for r in rows)


def test_dimension_sweep_constrained_from_default_start(recwarn):
    # The sweep's default start, x0 = 8 and y0 = 0, is far outside every
    # band of sin-constrained; the constrained z-solve must step back inside.
    rows = run_dimension_sweep("sin-constrained", [2], ["bvfsm"],
                               {"c": 1, "bvfsm": {"K": 50}})
    assert len(rows) == 1 and rows[0]["note"] == ""
    assert np.isfinite(rows[0]["rel_err_x"])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_time_step_stub_medians_stable(monkeypatch):
    # constant-time stub: medians across reruns must agree within 20%
    def stub(problem, method, x, y, cfg):
        time.sleep(0.004)
        return np.zeros(problem.m), np.asarray(y), ""

    monkeypatch.setattr(cli, "hypergradient_step", stub)
    rows1 = time_step([(1, 4)], ["rhg"], repeats=7)
    rows2 = time_step([(1, 4)], ["rhg"], repeats=7)
    m1, m2 = rows1[0]["median_s"], rows2[0]["median_s"]
    assert abs(m1 - m2) / max(m1, m2) < 0.2


def test_time_step_requires_three_repeats():
    from bvfsm import InvalidParameter

    with pytest.raises(InvalidParameter):
        time_step([(1, 2)], ["rhg"], repeats=2)


def test_main_list_verbs(capsys):
    assert main(["list-problems"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sin" in out and "hyperclean" in out
    assert main(["list-methods"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bvfsm" in out and "neumann" in out


def test_main_validate_verb(capsys):
    assert main(["validate", "--problem", "sin:n=2", "--probes", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_main_run_verb(tmp_path):
    cfg = write_config(tmp_path, methods=["bvfsm"])
    out = tmp_path / "cli-run"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
    assert (out / "summary.json").exists()


def test_main_sweep_verb(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bvfsm": FAST_BVFSM}))
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(cfg), "--n", "1", "--methods", "bvfsm",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()


def test_main_time_verb(tmp_path):
    out = tmp_path / "timing.csv"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"bvfsm": {**FAST_BVFSM, "K": 1},
                               "baseline": {"T": 5, "I": 5, "Q": 3}}))
    code = main(["time", "--config", str(cfg), "--sizes", "1:4", "--methods",
                 "bvfsm", "cg", "--repeats", "3", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[:4] == ["m", "n", "method", "median_s"]
    assert len(rows) == 2


@pytest.mark.parametrize("spec", ["sin:q=3", "sin:n=abc", "sin:n=2,m=0", "hyperclean:dim=0",
                                  "hyperclean:explicit_box=yes"])
def test_main_validate_bad_problem_parameter_is_config_error(spec, capsys):
    assert main(["validate", "--problem", spec, "--probes", "3"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_sweep_family_without_n_is_config_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "hyperclean", "--n", "1", "--methods", "bvfsm",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_main_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("entry", [{"rule": "dynamc"}, {"valu": 5},
                                   {"rule": "dynamic", "value": 5}])
def test_shift_entry_typo_is_config_error(tmp_path, entry, capsys):
    cfg = write_config(tmp_path, methods=["bvfsm"],
                       bvfsm={**FAST_BVFSM, "schedule": {"sigma2": entry}})
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("aux", [{"name": "inverse", "modifed": True},
                                 {"name": "inverse", "modified": "false"}],
                         ids=["key-typo", "string-bool"])
def test_aux_entry_typo_is_config_error(tmp_path, aux, capsys):
    cfg = write_config(tmp_path, methods=["bvfsm"], bvfsm={**FAST_BVFSM, "aux_f": aux})
    out = tmp_path / "x"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_non_numeric_wall_clock_cap_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cap.json"
    cfg.write_text(json.dumps({"wall_clock_cap_s": "abc",
                               "baseline": {"T": 5, "I": 5, "ul_steps": 2}}))
    out = tmp_path / "cap.csv"
    code = main(["sweep", "--config", str(cfg), "--n", "1", "--methods", "rhg",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "wall_clock_cap_s" in capsys.readouterr().err
    assert not out.exists()


def test_baseline_loop_stops_at_divergence():
    import warnings

    from bvfsm import BaselineConfig, BilevelProblem, ScalarField
    from bvfsm.problems import BenchmarkProblem

    # f = -y^2/2 + x*y is unbounded below in y: each LL step with s = 1 doubles
    # y, so F = y^2/2 overflows after about 50 UL steps of T = 10
    f = ScalarField(m=1, n=1, fn=lambda x, y: -0.5 * float(y @ y) + float(x @ y),
                    grad_x=lambda x, y: y.copy(), grad_y=lambda x, y: x - y)
    F = ScalarField(m=1, n=1, fn=lambda x, y: 0.5 * float(y @ y),
                    grad_x=lambda x, y: np.zeros(1), grad_y=lambda x, y: y.copy())
    bench = BenchmarkProblem(problem=BilevelProblem(m=1, n=1, F=F, f=f), name="unbounded-ll")
    bcfg = BaselineConfig(T=10, I=10, ll_step=1.0, alpha=0.01)
    ul_steps = 400
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace, flag = cli.run_baseline_loop(bench, "rhg", bcfg, ul_steps,
                                            np.zeros(1), np.ones(1))
    assert flag == "diverging"
    assert len(trace.records) < ul_steps + 1
    values = lambda r: (r.F_value, r.f_value, r.ul_grad_norm)  # noqa: E731
    assert all(map(math.isfinite, values(trace.records[-2])))
    assert not all(map(math.isfinite, values(trace.final)))
