import json
import math
import time
from dataclasses import replace
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
    "schedule": {"sigma2": 2.0, "sigma2_pow": 0.6},
    "aux_f": {"name": "inverse", "modified": True},
}
FAST_BASELINE = {"T": 10, "I": 10, "Q": 5, "ul_steps": 15}


def make_config(**overrides) -> dict:
    cfg = {
        "problem": "sin:n=2,a=2,c=2",
        "methods": ["bvfsm", "rhg"],
        "x0": 8.0,
        "y0": 8.0,
        "seed": 0,
        "bvfsm": FAST_BVFSM,
        "baseline": FAST_BASELINE,
    }
    cfg.update(overrides)
    return cfg


def write_verb_config(tmp_path, verb, **entries):
    """make_config(methods=["bvfsm"]) cut to the top-level keys ``verb`` reads, then ``entries``."""
    keys = cli.CONFIG_KEYS[verb]
    cfg = {key: v for key, v in make_config(methods=["bvfsm"]).items() if key in keys}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**cfg, **entries}))
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = make_config()
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=out) == EXIT_OK
    assert cfg == make_config()  # the caller's config is left as it was
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 0
    assert set(summary["results"]) == {"bvfsm", "rhg"}
    header, rows = read_csv(out / "trace_bvfsm.csv")
    assert header == ["k", "l", "wall_time_s", "F", "f", "ul_grad_norm",
                      "rel_err_x", "rel_err_F"]
    assert len(rows) == 42  # initial record + K steps + feasibility polish
    # summary round-trips: the echoed config re-validates end to end
    from bvfsm.cli import build_solver_config
    from bvfsm.problems import parse_problem

    echoed = summary["config"]
    bench = parse_problem(echoed["problem"], summary["seed"])
    build_solver_config(echoed, bench)
    assert echoed["methods"] == ["bvfsm", "rhg"]


def test_run_experiment_deterministic_outside_timing(tmp_path):
    cfg = make_config()
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


VERB_ARGS = {
    "run": ["--out-dir", "{out}"],
    "sweep": ["--n", "2", "--methods", "bvfsm", "--out", "{out}"],
    "time": ["--sizes", "1:2", "--methods", "bvfsm", "cg", "--repeats", "3", "--out", "{out}"],
}


def verb_argv(verb, cfg, out) -> list:
    """The argv of ``verb`` with the config file ``cfg``, writing its artifacts to ``out``."""
    return [verb, "--config", str(cfg)] + [a.format(out=out) for a in VERB_ARGS[verb]]


@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
def test_main_verb_writes_its_artifacts(tmp_path, verb):
    out = tmp_path / "out"
    assert main(verb_argv(verb, write_verb_config(tmp_path, verb), out)) == EXIT_OK
    if verb == "run":
        assert (out / "summary.json").exists()
        return
    header, rows = read_csv(out)
    head = {"sweep": ["n", "method"], "time": ["m", "n", "method", "median_s"]}[verb]
    assert header[:len(head)] == head
    assert [r["method"] for r in rows] == (["bvfsm"] if verb == "sweep" else ["bvfsm", "cg"])


@pytest.mark.parametrize("method, baseline, key, value", [
    ("bda", {"aggregation": 0.3}, "aggregation", 0.3),
    ("trhg", {"I": 25}, "I", 25),
])
def test_baseline_section_reaches_a_method_without_argument(method, baseline, key, value):
    from bvfsm.cli import _resolve_method
    from bvfsm.problems import parse_problem

    cfg = {"baseline": baseline, "methods": [method]}
    name, bcfg = _resolve_method(parse_problem("sin:n=2"), method, cfg)
    assert name == method and getattr(bcfg, key) == value


@pytest.mark.parametrize("spec", ["sin:n=2", "sin-constrained:n=2", "sin-pessimistic:n=2",
                                  "hyperclean:n_train=8,n_val=6,dim=2"])
def test_default_schedule_values_keep_the_profile(spec):
    # the schedule merges key by key over the profile: restating a default
    # keeps the profile's shifts
    from bvfsm import ScheduleState
    from bvfsm.cli import build_solver_config
    from bvfsm.problems import parse_problem

    bench = parse_problem(spec)
    defaults = {k: getattr(ScheduleState(), k) for k in ("mu", "theta", "sigma1", "decay")}
    for key, value in defaults.items():
        cfg = {"bvfsm": {"schedule": {key: value}}}
        assert build_solver_config(cfg, bench) == build_solver_config({}, bench), key
    cfg = {"bvfsm": {"schedule": defaults}}
    assert build_solver_config(cfg, bench) == build_solver_config({}, bench)


def test_solver_entries_other_than_the_schedule_replace_the_profile():
    # merging sin's {"name": "inverse", "modified": true} with {"name": "quadratic"}
    # would make an invalid modified quadratic; the entry replaces it whole,
    # while the schedule merges: sigma2 set alone keeps the profile's sigma2_pow
    from bvfsm import parse_aux
    from bvfsm.cli import build_solver_config
    from bvfsm.problems import parse_problem

    cfg = {"bvfsm": {"aux_f": {"name": "quadratic"}, "schedule": {"sigma2": 5.0}}}
    scfg = build_solver_config(cfg, parse_problem("sin:n=2"))
    assert scfg.aux_f == parse_aux("quadratic")
    assert (scfg.schedule.sigma2, scfg.schedule.sigma2_pow) == (5.0, 0.6)


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
# the methods of README's A2 command: a sweep names its methods on the command line
SWEEP_METHODS = ["bvfsm", "rhg", "bda:0.5", "cg:20", "neumann:20"]


def _shipped(name):
    """The shipped config ``configs/<name>``, read as ``bvfsm`` reads it."""
    return cli._load_config(Path(__file__).parents[1] / "configs" / name)


def _shift_profiles():
    """The schedule section of every shipped solver profile, and the one each
    shipped config runs over the sin profile."""
    from bvfsm import problems

    def run_by(name):
        user = (_shipped(name).get("bvfsm") or {}).get("schedule", {})
        return {**problems.SIN_SOLVER_PROFILE["schedule"], **user}

    return {
        "sin": problems.SIN_SOLVER_PROFILE.get("schedule", {}),
        "sin-pessimistic": problems.SIN_PESS_SOLVER_PROFILE.get("schedule", {}),
        "sin-constrained": problems.SIN_CON_SOLVER_PROFILE.get("schedule", {}),
        "hyperclean": problems.HYPERCLEAN_SOLVER_PROFILE.get("schedule", {}),
        "convergence.json": run_by("convergence.json"),
        "A2": run_by("dimension_sweep.json"),
    }


def test_hyperclean_family_name_is_case_blind_for_the_seed():
    from bvfsm.problems import parse_problem

    spec = "hyperclean:n_train=8,n_val=6,dim=2"
    bench = parse_problem(spec.replace("hyperclean", "HyperClean"), 5)
    assert bench.params["seed"] == 5
    assert bench.params == parse_problem(spec, 5).params
    assert bench.params != parse_problem(spec, 0).params


SHIFT_PROFILES = _shift_profiles()


@pytest.mark.parametrize("section", SHIFT_PROFILES.values(), ids=list(SHIFT_PROFILES))
def test_shift_steps_keep_their_bits(section):
    # each stage multiplies the shift by decay ** sigma2_pow, bit for bit the
    # factor computed once up front; a section without sigma2_pow steps by sqrt(decay)
    from bvfsm.auxfun import schedule_step
    from bvfsm.cli import build_schedule

    sched = build_schedule(section)
    d, pow_ = sched.decay, section.get("sigma2_pow")
    value = float(section.get("sigma2", 1.0))
    factor = d ** float(pow_) if pow_ is not None else math.sqrt(d)
    for _ in range(3000):
        sched = schedule_step(sched)
        value *= factor
    assert sched.sigma2 == value


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_config_passes_the_key_checks(path):
    # every file in configs/ passes the checks its verb makes before a run
    from bvfsm.cli import CONFIG_KEYS, _reject_unknown, _resolve_method, _wall_clock_cap
    from bvfsm.problems import parse_problem
    from bvfsm.solver import start_point

    cfg = cli._load_config(path)
    # a config that names a problem is for `bvfsm run`, one that does not for `bvfsm sweep`
    verb, methods = ("run", cfg["methods"]) if "problem" in cfg else ("sweep", SWEEP_METHODS)
    _reject_unknown("config", cfg, CONFIG_KEYS[verb])
    bench = parse_problem(cfg.get("problem", "sin:n=2,a=2,c=2"), 0)
    assert methods
    for mspec in methods:
        _resolve_method(bench, mspec, cfg)
    start_point(bench.problem, cfg.get("x0"), cfg.get("y0"))
    _wall_clock_cap(cfg)


BAD_START_POINTS = {
    "nan-entry": ("x0", [math.nan], "x0 has non-finite entries: [nan]"),
    "wrong-length": ("x0", [8.0, 3.0], "x0 must have dimension 1, got shape (2,)"),
    "one-entry-for-two": ("y0", [0.5], "y0 must have dimension 2, got shape (1,)"),
    "2-d": ("x0", [[8.0]], "x0 must have dimension 1, got shape (1, 1)"),
    "non-numeric": ("x0", "abc", "x0 must be numeric, got 'abc'"),
}


@pytest.mark.parametrize("key, value, message", BAD_START_POINTS.values(),
                         ids=list(BAD_START_POINTS))
def test_bad_start_point_is_rejected_alike_everywhere(tmp_path, key, value, message, capsys):
    # one reader, solver.start_point, so the library and every verb agree
    from bvfsm import BaselineConfig, InvalidParameter, SolverConfig, solve
    from bvfsm.problems import parse_problem

    bench = parse_problem("sin:n=2,a=2,c=2")
    start = {"x0": [8.0], "y0": [8.0, 8.0], key: value}
    with pytest.raises(InvalidParameter) as exc:
        solve(bench.problem, SolverConfig(K=1), start["x0"], start["y0"])
    assert str(exc.value) == message
    with pytest.raises(InvalidParameter) as exc:
        cli.run_baseline_loop(bench, "rhg", BaselineConfig(T=3, I=3, ul_steps=1),
                              start["x0"], start["y0"])
    assert str(exc.value) == message
    out = tmp_path / "out"
    for verb in ("run", "sweep", "time"):
        cfg = write_verb_config(tmp_path, verb, **{key: value})
        assert main(verb_argv(verb, cfg, out)) == EXIT_CONFIG, verb
        assert capsys.readouterr().err == f"config error: {message}\n", verb
        assert not out.exists()


def test_start_point_forms():
    from bvfsm.problems import parse_problem
    from bvfsm.solver import start_point

    problem = parse_problem("sin:n=3").problem
    x, y = start_point(problem, None, 2)
    assert x.tolist() == [0.0] and y.tolist() == [2.0, 2.0, 2.0]
    x, y = start_point(problem, np.int64(4), [1, 2, 3])
    assert x.tolist() == [4.0] and y.dtype == float and y.tolist() == [1.0, 2.0, 3.0]


def test_integer_key_takes_an_integral_float():
    from bvfsm import parse_aux
    from bvfsm.cli import _resolve_method, build_solver_config
    from bvfsm.problems import parse_problem

    bench = parse_problem("sin:n=2")
    assert build_solver_config({"bvfsm": {"K": 40.0}}, bench).K == 40
    _, bcfg = _resolve_method(bench, "cg", {"baseline": {"Q": 5.0, "ul_steps": 3.0}})
    assert (bcfg.Q, bcfg.ul_steps) == (5, 3)
    assert type(bcfg.Q) is int and type(bcfg.ul_steps) is int
    assert cli._resolve_seed({"seed": 10**400}, None) == 10**400  # no float on the way
    # an inline argument fills its int field as a config entry does
    Q = _resolve_method(bench, "cg:5.0", {})[1].Q
    q = parse_aux("polynomial:3.0").kind.q
    assert (Q, q) == (5, 3) and type(Q) is int and type(q) is int


def _bvfsm(**entries) -> dict:
    """A ``bvfsm`` section: FAST_BVFSM with ``entries`` over it."""
    return {"bvfsm": {**FAST_BVFSM, **entries}}


def _shift(**entries) -> dict:
    """A ``bvfsm`` section whose schedule sets ``entries``."""
    return _bvfsm(schedule=entries)


def _baseline(method, **entries) -> dict:
    """The one method ``method`` and FAST_BASELINE with ``entries`` over it."""
    return {"methods": [method], "baseline": {**FAST_BASELINE, **entries}}


def _non_finite_sin(family, key, value):
    """The probe of the spec ``family:n=2,key=value``; the other of a and c keeps its default."""
    got = {"a": 2.0, "c": 1.0 if family == "sin-constrained" else 2.0, key: value}
    return ("run", {"problem": f"{family}:n=2,{key}={value}"}, None, [],
            f"problem {family} with {{'n': 2, '{key}': {value}}}: a and c must be finite, "
            f"got a={got['a']}, c=[{got['c']}, {got['c']}]")


SCHEDULE_KEYS = "known: ['decay', 'mu', 'sigma1', 'sigma2', 'sigma2_pow', 'theta']"
SEEDED_SPEC = "hyperclean:seed=3,n_train=8,n_val=6,dim=2"
TOP_KEYS = {  # the top-level keys each verb reads
    "run": "known: ['baseline', 'bvfsm', 'methods', 'out_dir', 'problem', 'seed', "
           "'wall_clock_cap_s', 'x0', 'y0']",
    "sweep": "known: ['a', 'baseline', 'bvfsm', 'c', 'wall_clock_cap_s', 'x0', 'y0']",
    "time": "known: ['baseline', 'bvfsm', 'x0', 'y0']",
}

# verb, top-level config entries, BVFSM_SEED, argv after the verb's own (a
# repeated option takes the later value), the message after "config error: "
CONFIG_PROBES = {
    "alpha-bool": ("run", _bvfsm(alpha=True), None, [],
                   "bvfsm: alpha must be a number, got True"),
    "alpha-string": ("run", _bvfsm(alpha="0.5"), None, [],
                     "bvfsm: alpha must be a number, got '0.5'"),
    "schedule-mu": ("run", _bvfsm(schedule={"mu": True}), None, [],
                    "bvfsm: schedule.mu must be a number, got True"),
    "shift-value": ("run", _shift(sigma2=True), None, [],
                    "bvfsm: schedule.sigma2 must be a number, got True"),
    "cap-bool": ("run", {"wall_clock_cap_s": True}, None, [],
                 "wall_clock_cap_s must be a number, got True"),
    "ll_step-bool": ("run", {"methods": ["rhg"], "baseline": {"ll_step": True}}, None, [],
                     "baseline: ll_step must be a number, got True"),
    "seed-fraction": ("run", {"seed": 1.5}, None, [], "seed must be an integer, got 1.5"),
    "seed-bool": ("run", {"seed": True}, None, [], "seed must be an integer, got True"),
    "alpha-beyond-float": ("run", _bvfsm(alpha=10**400), None, [],
                           f"bvfsm: alpha must be a number, got {10**400!r}"),
    "top-key-run": ("run", {"sed": 3}, None, [],
                    f"unknown config keys ['sed']; {TOP_KEYS['run']}"),
    "top-key-time": ("time", {"x_0": 3}, None, [],
                     f"unknown config keys ['x_0']; {TOP_KEYS['time']}"),
    "run-a": ("run", {"a": 5}, None, [], f"unknown config keys ['a']; {TOP_KEYS['run']}"),
    "sweep-problem": ("sweep", {"problem": "sin:n=5"}, None, [],
                      f"unknown config keys ['problem']; {TOP_KEYS['sweep']}"),
    "time-cap": ("time", {"wall_clock_cap_s": 5}, None, [],
                 f"unknown config keys ['wall_clock_cap_s']; {TOP_KEYS['time']}"),
    "sweep-a-spec": ("sweep", {"a": "2,n=5"}, None, [],
                     "problem sin with {'n': 2, 'a': '2,n=5'}: a must be a number, got '2,n=5'"),
    "sweep-a-bool": ("sweep", {"a": True}, None, [],
                     "problem sin with {'n': 2, 'a': True}: a must be a number, got True"),
    "spec-a-bool": ("run", {"problem": "sin:n=2,a=true"}, None, [],
                    "problem sin with {'n': 2, 'a': True}: a must be a number, got True"),
    "spec-c-bool": ("run", {"problem": "sin-constrained:n=2,c=true"}, None, [],
                    "problem sin-constrained with {'n': 2, 'c': True}: c must be a number, "
                    "got True"),
    "spec-seed-bool": ("run", {"problem": "hyperclean:seed=true,n_train=8,n_val=6"}, None, [],
                       "problem hyperclean with {'seed': True, 'n_train': 8, 'n_val': 6}: "
                       "seed must be an integer, got True"),
    "trhg-bool": ("run", {"methods": ["trhg:true"]}, None, [],
                  "baseline: I must be an integer, got True"),
    "truncated-log-bool": ("run", _bvfsm(aux_f="truncated-log:true"), None, [],
                           "bvfsm: kappa must be a number, got True"),
    "env-seed": ("validate", {}, "abc", [], "BVFSM_SEED must be an integer, got 'abc'"),
    # what a run needs: a method, a known problem and method, and no argument
    # where a method takes none
    "no-methods": ("run", {"methods": []}, None, [], "config must list at least one method"),
    "unknown-problem": ("run", {"problem": "mnist:n=2"}, None, [],
                        "unknown problem 'mnist'; known: ['hyperclean', 'sin', "
                        "'sin-constrained', 'sin-pessimistic']"),
    "unknown-method": ("run", {"methods": ["bvfsm", "sgd"]}, None, [],
                       "baseline: unknown baseline method 'sgd'"),
    "rhg-argument": ("run", {"methods": ["rhg:5"]}, None, [],
                     "baseline: rhg takes no argument, got 'rhg:5'"),
    "bvfsm-argument": ("run", {"methods": ["bvfsm:3"]}, None, [],
                       "bvfsm: bvfsm takes no argument, got 'bvfsm:3'"),
    # the keys of each section, and an int key takes only an integral value
    "baseline-key": ("run", {"methods": ["rhg"], "baseline": {"Tee": 3}}, None, [],
                     "baseline: unknown baseline keys ['Tee']; known: ['I', 'Q', 'T', "
                     "'aggregation', 'aggregation_decay', 'alpha', 'hvp_eps', 'll_step', "
                     "'ul_steps']"),
    "bvfsm-key": ("run", _bvfsm(T_Y=5, stepy=0.5), None, [],
                  "bvfsm: unknown bvfsm keys ['T_Y', 'stepy']; known: ['K', 'L', 'T_y', 'T_z', "
                  "'alpha', 'aux_B', 'aux_H', 'aux_f', 'aux_h', 'schedule', 'step_y', 'step_z']"),
    "schedule-key": ("run", _bvfsm(schedule={"sigma_1": 9}), None, [],
                     f"bvfsm: unknown schedule keys ['sigma_1']; {SCHEDULE_KEYS}"),
    "ul_steps-string": ("run", {"methods": ["rhg"], "baseline": {"ul_steps": "x"}}, None, [],
                        "baseline: ul_steps must be an integer, got 'x'"),
    "sweep-cap-string": ("sweep", {"wall_clock_cap_s": "abc"}, None, [],
                         "wall_clock_cap_s must be a number, got 'abc'"),
    "aux-key-typo": ("run", _bvfsm(aux_f={"name": "inverse", "modifed": True}), None, [],
                     "bvfsm: unknown auxiliary-function keys ['modifed'] in "
                     "{'name': 'inverse', 'modifed': True}"),
    "aux-string-bool": ("run", _bvfsm(aux_f={"name": "inverse", "modified": "false"}), None, [],
                        "bvfsm: auxiliary-function 'modified' must be a bool, got 'false'"),
    # start points
    "x0-non-numeric": ("run", {"x0": "abc"}, None, [], "x0 must be numeric, got 'abc'"),
    "x0-two-entries": ("run", {"x0": [1.0, 2.0]}, None, [],
                       "x0 must have dimension 1, got shape (2,)"),
    # a seed the spec names must agree with one the config or --seed sets
    **{name: (verb, entries, None, argv, "seed 5 conflicts with the problem spec's seed=3")
       for name, verb, entries, argv in [
           ("seed-option-conflict", "run", {"problem": SEEDED_SPEC}, ["--seed", "5"]),
           ("seed-config-conflict", "run", {"problem": SEEDED_SPEC, "seed": 5}, []),
           ("validate-seed-conflict", "validate", {}, ["--problem", SEEDED_SPEC, "--seed", "5"])]},
    "sweep-family-without-n": ("sweep", {}, None, ["--family", "hyperclean"],
                               "problem hyperclean with {'n': 2}: unknown hyperclean keys "
                               "['n']; known: ['corruption_rate', 'dim', 'explicit_box', "
                               "'n_train', 'n_val', 'seed']"),
}

# more rows of the same table, each set under the name of the rule it probes
NON_NUMERIC_K = {verb: (verb, _bvfsm(K="abc"), None, [], "bvfsm: K must be an integer, got 'abc'")
                 for verb in VERB_ARGS}
NON_INTEGRAL = {f"{method}-{section}-{key}-{value}": (
    "run", _baseline(method, **{key: value}) if section == "baseline" else _bvfsm(**{key: value}),
    None, [], f"{section}: {key} must be an integer, got {value!r}")
    for method, section, key, value in [
        ("bvfsm", "bvfsm", "K", 2.5), ("bvfsm", "bvfsm", "K", True),
        ("bvfsm", "bvfsm", "T_z", "10"), ("cg", "baseline", "ul_steps", 2.9),
        ("cg", "baseline", "Q", True), ("cg", "baseline", "T", 50.5)]}
# the shift is one static decaying sequence, two numbers of the schedule, taken
# by the value-function term and constraints alike: no nested shift entry, no
# "rule" and no shift of its own for a constraint
DYNAMIC_SHIFTS = {
    "sigma2": ("run", {"problem": "sin-constrained:n=2,a=2,c=1",
                       **_shift(sigma2={"rule": "dynamic"})}, None, [],
               "bvfsm: schedule.sigma2 must be a number, got {'rule': 'dynamic'}"),
    **{key: ("run", {"problem": "sin-constrained:n=2,a=2,c=1", **_shift(**{key: 0.5})}, None, [],
             f"bvfsm: unknown schedule keys [{key!r}]; {SCHEDULE_KEYS}")
       for key in ("sigma2_H", "sigma2_h")},
}
SHIFT_TYPOS = {f"entry{i}": ("run", _shift(**{key: 5}), None, [],
                             f"bvfsm: unknown schedule keys [{key!r}]; {SCHEDULE_KEYS}")
               for i, key in enumerate(["sigma_2", "sigma2pow", "decay_pow"])}
SCHEDULE_FORM = "bvfsm: schedule parameters must be positive and finite"
SHIFTS_OUTSIDE_THE_FORM = {
    "rule-key": ("run", _shift(sigma2={"rule": "static"}), None, [],
                 "bvfsm: schedule.sigma2 must be a number, got {'rule': 'static'}"),
    "nested-object": ("run", _shift(sigma2={"value": 2.0, "decay_pow": 0.6}), None, [],
                      "bvfsm: schedule.sigma2 must be a number, got "
                      "{'value': 2.0, 'decay_pow': 0.6}"),
    "negative": ("run", _shift(sigma2=-5, sigma2_pow=-1), None, [], SCHEDULE_FORM),
    "zero-value": ("run", _shift(sigma2=0), None, [], SCHEDULE_FORM),
    "inf-value": ("run", _shift(sigma2=math.inf), None, [], SCHEDULE_FORM),
    **{f"pow-{pow_}": ("run", _shift(sigma2_pow=pow_), None, [],
                       f"bvfsm: sigma2_pow must lie in (0, 1), got {float(pow_)}")
       for pow_ in (0, 1)},
}
# json writes NaN and Infinity, and reads them back as floats
NON_FINITE_START = {name: ("run", {"problem": "sin-constrained:n=2", "y0": y0}, None, [],
                           f"y0 has non-finite entries: {shown}")
                    for name, y0, shown in [("nan", [math.nan, 0.5], "[nan 0.5]"),
                                            ("inf", [0.5, math.inf], "[0.5 inf]"),
                                            ("scalar-inf", -math.inf, "[-inf -inf]")]}
NON_FINITE_SIN = {f"{family}-{key}={value}": _non_finite_sin(family, key, value)
                  for family in ("sin", "sin-constrained", "sin-pessimistic")
                  for key in ("a", "c") for value in ("inf", "nan")}
BAD_SPECS = {spec: ("validate", {}, None, ["--problem", spec], f"problem {message}")
             for spec, message in [
                 ("sin:q=3", "sin with {'q': 3}: unknown sin keys ['q']; "
                             "known: ['a', 'c', 'm', 'n']"),
                 ("sin:n=abc", "sin with {'n': 'abc'}: n must be an integer, got 'abc'"),
                 ("sin:n=2,m=0", "sin with {'n': 2, 'm': 0}: m must be >= 1"),
                 ("hyperclean:dim=0", "hyperclean with {'seed': 0, 'dim': 0}: dim must be >= 1 "
                                      "and stay desk-scale (<= 20)"),
                 ("hyperclean:explicit_box=yes", "hyperclean with {'seed': 0, 'explicit_box': "
                                                 "'yes'}: explicit_box must be a bool, got 'yes'")]}


def _rejects(probes):
    """One test of the rows ``probes``: exit 2, one message, and no artifacts."""
    @pytest.mark.parametrize("verb, entries, env_seed, argv, message", probes.values(),
                             ids=list(probes))
    def test(tmp_path, monkeypatch, capsys, verb, entries, env_seed, argv, message):
        if env_seed is not None:
            monkeypatch.setenv("BVFSM_SEED", env_seed)
        out = tmp_path / "out"
        argv = (["validate", "--problem", "sin:n=2", "--probes", "3"] if verb == "validate"
                else verb_argv(verb, write_verb_config(tmp_path, verb, **entries), out)) + argv
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
    return test


# one rejection rule for every input a verb reads
test_config_value_outside_its_kind_is_config_error = _rejects(CONFIG_PROBES)
test_non_numeric_solver_setting_is_config_error_in_every_verb = _rejects(NON_NUMERIC_K)
test_integer_key_that_is_not_an_integer_is_config_error = _rejects(NON_INTEGRAL)
test_run_experiment_dynamic_constraint_shift_is_config_error = _rejects(DYNAMIC_SHIFTS)
test_shift_entry_typo_is_config_error = _rejects(SHIFT_TYPOS)
test_shift_entry_outside_its_form_is_config_error = _rejects(SHIFTS_OUTSIDE_THE_FORM)
test_run_experiment_non_finite_start_point_is_config_error = _rejects(NON_FINITE_START)
test_non_finite_sin_parameter_is_config_error = _rejects(NON_FINITE_SIN)
test_main_validate_bad_problem_parameter_is_config_error = _rejects(BAD_SPECS)


@pytest.mark.parametrize("text", ["[1, 2]", "{not json"], ids=["list", "not-json"])
@pytest.mark.parametrize("verb", sorted(VERB_ARGS))
def test_config_text_that_is_not_an_object_is_config_error(tmp_path, verb, text, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(verb_argv(verb, cfg, out)) == EXIT_CONFIG
    reason = {"[1, 2]": "a config must be a JSON object", "{not json":
              "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"}
    assert capsys.readouterr().err == f"config error: {cfg}: {reason[text]}\n"
    assert not out.exists()


def test_sweep_and_time_sizes_must_be_integers():
    from bvfsm import InvalidParameter

    with pytest.raises(InvalidParameter, match="n must be an integer, got 2.7"):
        run_dimension_sweep("sin", [2.7], ["bvfsm"])
    with pytest.raises(InvalidParameter, match="m must be an integer, got True"):
        time_step([(True, 2)], ["bvfsm"], repeats=3)


def test_sizes_entries_are_read_by_the_number_rule(tmp_path, capsys):
    out = tmp_path / "t.csv"
    argv = ["time", "--sizes", "1:true", "--methods", "bvfsm", "--repeats", "3", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "n must be an integer, got True" in capsys.readouterr().err
    assert not out.exists()
    argv[2] = "1.0:2.0"  # integral values fill the ints m and n
    assert main(argv) == EXIT_OK
    _, rows = read_csv(out)
    assert (rows[0]["m"], rows[0]["n"]) == ("1", "2")


def test_csv_cells_are_plain_numbers(tmp_path):
    # numpy 2 prints np.float64(...) as its repr; every number cell is a plain one
    cfg = {"bvfsm": {**FAST_BVFSM, "K": 3}, "baseline": {"T": 5, "I": 5, "Q": 3, "ul_steps": 3}}
    assert run_experiment({**make_config(**cfg), "methods": ["bvfsm", "rhg"]},
                          out_dir=tmp_path / "run") == EXIT_OK
    run_dimension_sweep("sin", [1], ["bvfsm", "rhg"], cfg, out_path=tmp_path / "sweep.csv")
    time_step([(1, 2)], ["bvfsm", "cg"], repeats=3, cfg=cfg, out_path=tmp_path / "time.csv")
    for path in [tmp_path / "run" / "trace_bvfsm.csv", tmp_path / "run" / "trace_rhg.csv",
                 tmp_path / "sweep.csv", tmp_path / "time.csv"]:
        _, rows = read_csv(path)
        assert rows
        for row in rows:
            for col, cell in row.items():
                if col not in ("method", "note"):
                    float(cell)  # raises on np.float64(...)


def _resolved_by_hand():
    """Every shipped config with each of its methods resolved by hand: (verb,
    config, methods, problem spec, {method: (name, config)})."""
    from bvfsm import BaselineConfig, ScheduleState, SolverConfig, parse_aux

    inverse_mod = parse_aux("inverse", modified=True)

    def baselines(ul_steps, **fields):
        """rhg, bda:0.5, cg:20 and neumann:20 over BaselineConfig(T=100, I=100, **fields)."""
        base = BaselineConfig(T=100, I=100, ul_steps=ul_steps, **fields)
        return {m: (m.partition(":")[0], replace(base, **over))
                for m, over in [("rhg", {}), ("bda:0.5", {"aggregation": 0.5}),
                                ("cg:20", {"Q": 20}), ("neumann:20", {"Q": 20})]}

    sin = SolverConfig(step_z=0.5, aux_f=inverse_mod,
                       schedule=ScheduleState(sigma2=2.0, sigma2_pow=0.6))
    profiles = {
        "sin:n=2": sin,
        "sin-pessimistic:n=2": SolverConfig(K=2000, step_z=0.5, aux_f=inverse_mod,
                                            schedule=ScheduleState(sigma2=1.3, sigma2_pow=0.5)),
        "sin-constrained:n=2": SolverConfig(
            K=2000, aux_f=parse_aux("quadratic"), aux_h=inverse_mod, aux_B=parse_aux("inverse"),
            schedule=ScheduleState(sigma2=0.02, sigma2_pow=0.5)),
        "hyperclean:n_train=8,n_val=6,dim=2": SolverConfig(K=400, aux_f=parse_aux("quadratic")),
    }
    cases = {spec: ("run", {}, ["bvfsm"], spec, {"bvfsm": ("bvfsm", want)})
             for spec, want in profiles.items()}
    conv, sweep, pess_cfg = (_shipped(name) for name in
                             ("convergence.json", "dimension_sweep.json", "pessimistic.json"))
    cases["convergence.json"] = ("run", conv, conv["methods"], conv["problem"], {
        "bvfsm": ("bvfsm", sin), **baselines(500, Q=20, aggregation_decay=0.95)})
    # the A1 run's second start: the copy of convergence.json, from x0 = y0 = 0, that
    # the README describes; the start point leaves every method's config as it was
    cases["run_convergence"] = ("run", {**conv, "x0": 0.0, "y0": 0.0},
                                *cases["convergence.json"][2:])
    cases["dimension_sweep.json"] = ("sweep", sweep, SWEEP_METHODS, "sin:n=2,a=2,c=2", {
        "bvfsm": ("bvfsm", SolverConfig(K=2000, step_z=0.5, aux_f=inverse_mod,
                                        schedule=ScheduleState(sigma2=50.0, sigma2_pow=0.6))),
        **baselines(300, Q=20, aggregation_decay=0.95)})
    pess = baselines(400)
    cases["pessimistic.json"] = ("run", pess_cfg, pess_cfg["methods"], pess_cfg["problem"], {
        "bvfsm": ("bvfsm", profiles["sin-pessimistic:n=2"]),
        "rhg": pess["rhg"], "bda:0.5": pess["bda:0.5"]})
    # a config added to configs/ without a case here fails
    assert {p.name for p in CONFIGS} <= set(cases)
    return cases


RESOLVED_BY_HAND = _resolved_by_hand()


@pytest.mark.parametrize("verb, cfg, methods, spec, expected", RESOLVED_BY_HAND.values(),
                         ids=list(RESOLVED_BY_HAND))
def test_shipped_configs_resolve_to_hand_written_values(verb, cfg, methods, spec, expected):
    # repr tells 2000 from 2000.0, which == does not
    from bvfsm.cli import CONFIG_KEYS, _reject_unknown, _resolve_method, build_solver_config
    from bvfsm.problems import parse_problem

    _reject_unknown("config", cfg, CONFIG_KEYS[verb])
    bench = parse_problem(spec, 0)
    assert set(methods) == set(expected)
    got = {mspec: _resolve_method(bench, mspec, cfg) for mspec in expected}
    assert repr(got) == repr(expected)
    assert repr(build_solver_config(cfg, bench)) == repr(expected["bvfsm"][1])


def test_run_experiment_timeout_partial_artifacts(tmp_path):
    cfg = make_config(methods=["bvfsm"], bvfsm={**FAST_BVFSM, "K": 100000},
                      wall_clock_cap_s=0.05)
    out = tmp_path / "partial"
    assert run_experiment(cfg, out_dir=out) == EXIT_RUNTIME
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["bvfsm"]["flag"] == "SolveTimeout"
    _, rows = read_csv(out / "trace_bvfsm.csv")
    assert 1 <= len(rows) < 100001


HYPERCLEAN_RUN = {
    "problem": "hyperclean:n_train=8,n_val=6,dim=2",
    "methods": ["bvfsm"],
    "bvfsm": {**FAST_BVFSM, "K": 2},
}


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("BVFSM_SEED", "17")
    out = tmp_path / "env"
    assert run_experiment(HYPERCLEAN_RUN, out_dir=out) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 17 == summary["problem_params"]["seed"]


@pytest.mark.parametrize("seed", [None, 3], ids=["fallback", "same"])
def test_summary_reports_the_seed_the_data_was_drawn_from(tmp_path, monkeypatch, seed):
    monkeypatch.setenv("BVFSM_SEED", "17")
    cfg = {**HYPERCLEAN_RUN, "problem": "hyperclean:seed=3,n_train=8,n_val=6,dim=2"}
    out = tmp_path / "x"
    assert run_experiment(cfg, out_dir=out, seed=seed) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 3 == summary["problem_params"]["seed"]


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


def test_time_step_runs_one_step_per_method_in_rounds(monkeypatch):
    # one warm-up round and 3 timed ones, each one step per method in turn, so
    # a change in the machine's speed falls on every method alike; cg fails
    # at its second step, gets the note and sits out the later rounds
    order = []

    def step(problem, method, x, y0):
        order.append(method[0])
        if method[0] == "cg" and order.count("cg") == 2:
            raise RuntimeError("no step")

    monkeypatch.setattr(cli, "_step", step)
    rows = time_step([(1, 2)], ["bvfsm", "cg", "rhg"], repeats=3)
    assert order == ["bvfsm", "cg", "rhg"] * 2 + ["bvfsm", "rhg"] * 2
    assert [(r["method"], r["note"]) for r in rows] == [
        ("bvfsm", ""), ("cg", "RuntimeError: no step"), ("rhg", "")]
    assert math.isnan(rows[1]["median_s"])
    assert all(r["median_s"] >= 0.0 for r in (rows[0], rows[2]))


def test_time_step_requires_three_repeats():
    from bvfsm import InvalidParameter

    with pytest.raises(InvalidParameter):
        time_step([(1, 2)], ["rhg"], repeats=2)


def test_main_list_verbs(capsys):
    assert main(["list-problems"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sin" in out and "hyperclean" in out
    assert main(["list-methods"]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["bvfsm", "rhg", "trhg", "bda", "cg", "neumann"]


# every library name the benchmark's layer tracer swaps for a spanning wrapper
TRACED_LAYERS = (
    ("bvfsm.baselines", "ll_descent"), ("bvfsm.baselines", "cg_hypergradient"),
    ("bvfsm.baselines", "neumann_hypergradient"), ("bvfsm.baselines", "hvp"),
    ("bvfsm.solver", "solve_inner"), ("bvfsm.solver", "solve_regularized_ll"),
    ("bvfsm.solver", "solve_penalized_inner"), ("bvfsm.solver", "ul_gradient_for"),
    ("bvfsm.solver", "schedule_step"),
)


def test_every_traced_layer_is_looked_up_when_it_is_called(monkeypatch):
    # a name bound at import would bypass its wrapper and drop its layer from
    # a traced benchmark run without failing anything else
    import collections
    import importlib

    from bvfsm.problems import parse_problem
    from bvfsm.solver import solve, start_point

    ran = collections.Counter()

    def counted(key, fn):
        def wrapped(*args, **kwargs):
            ran[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module, name in TRACED_LAYERS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, name, counted((module, name), getattr(mod, name)))
    bench = parse_problem("sin:n=2")
    x, y0 = start_point(bench.problem, bench.x0, bench.y0)
    # each step on its own: a `bvfsm time` step must reach every layer it runs
    solver_layers = {("bvfsm.solver", name) for name in
                     ("solve_inner", "solve_regularized_ll", "solve_penalized_inner",
                      "ul_gradient_for")}
    for mspec, estimator in (("bvfsm", None), ("cg", "cg_hypergradient"),
                             ("neumann", "neumann_hypergradient")):
        ran.clear()
        cli._step(bench.problem, cli._resolve_method(bench, mspec, {}), x, y0)
        want = solver_layers if estimator is None else {
            ("bvfsm.baselines", "ll_descent"), ("bvfsm.baselines", estimator),
            ("bvfsm.baselines", "hvp")}
        assert set(ran) == want, mspec
    ran.clear()
    _, cfg = cli._resolve_method(bench, "bvfsm", {"bvfsm": {"K": 1}})
    solve(bench.problem, cfg, x, y0)
    assert set(ran) == solver_layers | {("bvfsm.solver", "schedule_step")}


def test_main_validate_verb(capsys):
    assert main(["validate", "--problem", "sin:n=2", "--probes", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


VALIDATE_SPEC = "hyperclean:n_train=8,n_val=6"


@pytest.mark.parametrize("argv, env_seed, seed", [(["--seed", "5"], None, 5), ([], "7", 7)],
                         ids=["option", "env"])
def test_main_validate_checks_the_data_of_its_seed(monkeypatch, capsys, argv, env_seed, seed):
    # validate draws the data from the seed every verb resolves, not the
    # constructor default, and probes with that seed too
    from bvfsm.problems import parse_problem

    if env_seed is not None:
        monkeypatch.setenv("BVFSM_SEED", env_seed)
    checked = []
    validate = cli.validate_gradients
    monkeypatch.setattr(cli, "validate_gradients",
                        lambda fld, **kw: checked.append((fld, kw["seed"])) or validate(fld, **kw))
    assert main(["validate", "--problem", VALIDATE_SPEC, "--probes", "2"] + argv) == EXIT_OK
    capsys.readouterr()
    wanted, default = parse_problem(VALIDATE_SPEC, seed).problem, parse_problem(VALIDATE_SPEC).problem
    x, y = np.full(wanted.m, 0.5), np.linspace(-1.0, 1.0, wanted.n)
    fields = [fld for fld, _ in checked]
    assert [fld.fn(x, y) for fld in fields[:2]] == [wanted.F.fn(x, y), wanted.f.fn(x, y)]
    assert fields[0].fn(x, y) != default.F.fn(x, y)
    assert {probe_seed for _, probe_seed in checked} == {seed}


@pytest.mark.parametrize("section", [{"sigma2": None}, {}, {"sigma2": None, "sigma2_pow": None}],
                         ids=["null", "empty", "null-keys"])
def test_shift_entry_null_takes_the_default(section):
    from bvfsm import ScheduleState
    from bvfsm.cli import build_schedule

    sched = build_schedule(section)
    assert (sched.sigma2, sched.sigma2_pow) == (1.0, 0.5)
    assert sched == ScheduleState()


def test_baseline_loop_stops_when_the_ll_gradient_turns_non_finite():
    from bvfsm import BaselineConfig, BilevelProblem, ScalarField
    from bvfsm.problems import BenchmarkProblem

    # f = x y^2 / 2: an LL step of 0.5 contracts y at x = 1, but F's gradient
    # moves x to 100001, where each step multiplies y by -5e4.  The next LL
    # descent's gradient x y overflows before it ends: the descent raises,
    # and the loop stops with the last recorded step, every value finite.
    f = ScalarField(m=1, n=1, fn=lambda x, y: 0.5 * x[0] * float(y @ y),
                    grad_x=lambda x, y: np.array([0.5 * float(y @ y)]),
                    grad_y=lambda x, y: x[0] * y)
    F = ScalarField(m=1, n=1, fn=lambda x, y: 0.5 * float(y @ y) - 1e5 * x[0],
                    grad_x=lambda x, y: np.array([-1e5]), grad_y=lambda x, y: y.copy())
    bench = BenchmarkProblem(problem=BilevelProblem(m=1, n=1, F=F, f=f), name="stiffening-ll")
    bcfg = BaselineConfig(T=100, I=100, ll_step=0.5, alpha=1.0, ul_steps=10)
    with np.errstate(over="ignore"):
        trace, flag = cli.run_baseline_loop(bench, "cg", bcfg, np.ones(1), np.ones(1))
    assert flag == "diverging"
    assert [r.x.tolist() for r in trace.records] == [[1.0], [100001.0]]
    final = trace.final
    assert all(map(math.isfinite, (final.F_value, final.f_value, final.ul_grad_norm)))


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
    bcfg = BaselineConfig(T=10, I=10, ll_step=1.0, alpha=0.01, ul_steps=400)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace, flag = cli.run_baseline_loop(bench, "rhg", bcfg, np.zeros(1), np.ones(1))
    assert flag == "diverging"
    assert len(trace.records) < bcfg.ul_steps + 1
    values = lambda r: (r.F_value, r.f_value, r.ul_grad_norm)  # noqa: E731
    assert all(map(math.isfinite, values(trace.records[-2])))
    assert not all(map(math.isfinite, values(trace.final)))
