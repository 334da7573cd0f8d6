"""Suite configuration, report document shape, determinism, and the CLI.
The faults that each family's reductions must fail on are entries of the
mutant registry (tests/test_mutants.py)."""

import dataclasses
import gc
import importlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from galiray import cli, harness, representations
from galiray.cli import main
from galiray.cocycles import DEFAULT_TAU_SEQUENCE
from galiray.group import GalileiElement, element_to_dict, identity_batch
from galiray.representations import RepDescriptor, rep_to_dict
from galiray.harness import (
    DEFAULT_TOLERANCES,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    report_json,
    run_suite,
)


def identity(dim):
    return identity_batch(dim, 1).element(0)


# small case counts so the whole battery runs in well under a second per call
TINY = dict(n_triples=6, n_pairs=3, n_time_cases=3, n_unitarity_cases=2,
            n_time_zero_cases=2, n_exponent_triples=1)


def test_default_config_is_valid():
    cfg = default_config()
    assert cfg.seed == 12345
    assert cfg.n_triples == 1000
    assert cfg.n_pairs == 500
    # the reps, the times, the documented exception, the tolerances and the
    # taus are the battery's constants, not fields
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "seed", "scale", "n_triples", "n_pairs", "n_time_cases",
        "n_unitarity_cases", "n_time_zero_cases", "n_exponent_triples"]
    assert cfg.t_samples == (0.5, 1.7)
    assert cfg.expected_divergences == ("heisenberg_position1d",)
    assert tuple(r.kind for r in cfg.reps) == (
        "schrodinger2d", "nonabelian2d", "bargmann3d", "position1d")


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        default_config(n_triples=0)
    with pytest.raises(ValueError):
        default_config(scale=0.0)
    with pytest.raises(ValueError):
        default_config(n_time_cases=0)


# each key of the battery's constants, at its value
FIXED_KEYS = {"tolerances": dict(DEFAULT_TOLERANCES),
              "tau_sequence": list(DEFAULT_TAU_SEQUENCE),
              "t_samples": list(harness.SuiteConfig.t_samples),
              "expected_divergences": ["heisenberg_position1d"],
              "reps": [rep_to_dict(r) for r in harness.SuiteConfig.reps]}


def _python_error(overrides):
    """What default_config(**overrides) raises: a key of the battery's
    constants is no keyword of SuiteConfig."""
    return TypeError if FIXED_KEYS.keys() & overrides.keys() else ValueError


def _assert_rejects_a_fixed_key(doc, key, tmp_path, capsys):
    """A config document that names a key of the battery's constants is an
    input error that names the key, from a dict and from verify-all."""
    message = f"unknown config keys: ['{key}']"
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(doc)
    path = _write_config(tmp_path, doc)
    assert main(["verify-all", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


NON_FINITE = {
    "nan_scale": {"scale": math.nan},
    "inf_scale": {"scale": math.inf},
    "nan_tau": {"tau_sequence": [0.1, math.nan, 0.025]},
    "nan_t_sample": {"t_samples": [0.5, math.nan]},
    "inf_tolerance": {"tolerances": {"group": math.inf}},
}


def _write_config(tmp_path, overrides):
    """The overrides as a JSON config file."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(overrides))
    return path


@pytest.mark.parametrize("overrides", NON_FINITE.values(), ids=NON_FINITE)
def test_config_rejects_non_finite_values(overrides, tmp_path):
    with pytest.raises(_python_error(overrides)):
        default_config(**overrides)
    # json writes NaN and Infinity literals, which json.loads accepts
    with pytest.raises(ValueError):
        load_config(str(_write_config(tmp_path, overrides)))


def test_config_rejects_a_boolean_tolerance(tmp_path, capsys):
    # a JSON true is an int in Python, and would set the tolerance to 1.0;
    # the tolerances are constants, so the config cannot name one at all
    with pytest.raises(TypeError):
        default_config(tolerances={"group": True})
    _assert_rejects_a_fixed_key({"tolerances": {"group": True}},
                                "tolerances", tmp_path, capsys)
    assert DEFAULT_TOLERANCES["group"] == 1e-12


WRONG_TYPES = {
    "list_tolerances": {"tolerances": [1, 2]},
    "null_tolerances": {"tolerances": None},
    "null_reps": {"reps": None},
    "list_count": {"n_triples": [3]},
    "bool_count": {"n_pairs": True},
    "fractional_count": {"n_unitarity_cases": 2.5},
    "string_scale": {"scale": "1"},
    "scalar_t_samples": {"t_samples": 0.5},
    "bool_t_sample": {"t_samples": [True]},
    "string_taus": {"tau_sequence": ["0.1", "0.05", "0.025"]},
    "rep_without_kind": {"reps": [{"gamma": 1.0}]},
    "bool_rep_label": {"reps": [{"kind": "bargmann3d", "gamma": True}]},
    "string_rep_label": {"reps": [{"kind": "bargmann3d", "gamma": "0.9"}]},
    "non_string_divergence": {"expected_divergences": [3]},
}


@pytest.mark.parametrize("overrides", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_config_rejects_wrongly_typed_values(overrides, tmp_path, capsys):
    # the same value from Python fails before any check runs: no string
    # stands for a number, and a key of the battery's constants (reps
    # among them) is no keyword
    with pytest.raises(_python_error(overrides)):
        default_config(**overrides)
    path = _write_config(tmp_path, overrides)
    with pytest.raises(ValueError):
        load_config(str(path))
    # an input error, not a failed check
    assert main(["verify-all", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


T_LABEL_CLASHES = {
    "equal": [0.5, 0.5],
    "same_label": [0.5, 0.5000001],
    "among_others": [1.7, 0.5, 1.7000001, 2.0],
}


@pytest.mark.parametrize("t_samples", T_LABEL_CLASHES.values(),
                         ids=T_LABEL_CLASHES)
def test_config_rejects_t_samples_that_share_a_check_name(t_samples,
                                                          tmp_path, capsys):
    # each t names its cocycle_xi_t checks by its {t:g} label: the battery's
    # own times give distinct labels, and a config cannot name others
    labels = [f"{t:g}" for t in harness.SuiteConfig.t_samples]
    assert len(set(labels)) == len(labels)
    _assert_rejects_a_fixed_key({"t_samples": t_samples}, "t_samples",
                                tmp_path, capsys)


REPEATED_KINDS = {
    "twice": ["bargmann3d", "bargmann3d"],
    "apart": ["bargmann3d", "position1d", "schrodinger2d", "bargmann3d"],
    "two_kinds": ["position1d", "schrodinger2d", "position1d",
                  "schrodinger2d"],
}


@pytest.mark.parametrize("kinds", REPEATED_KINDS.values(), ids=REPEATED_KINDS)
def test_config_rejects_reps_that_repeat_a_kind(kinds, tmp_path, capsys):
    # every rep names its checks by its kind, so two descriptors of one kind
    # would give two entries of one check name: the battery's own kinds are
    # distinct, and a config cannot name other reps
    by_kind = {rep.kind: rep for rep in harness.SuiteConfig.reps}
    assert len(by_kind) == len(harness.SuiteConfig.reps)
    docs = [rep_to_dict(by_kind[kind]) for kind in kinds]
    _assert_rejects_a_fixed_key({"reps": docs}, "reps", tmp_path, capsys)


REPEATED_TAUS = {
    "adjacent": [0.1, 0.1, 0.05],
    "apart": [0.2, 0.1, 0.05, 0.1],
    "two_values": [0.2, 0.2, 0.1, 0.05, 0.1],
}


@pytest.mark.parametrize("taus", REPEATED_TAUS.values(), ids=REPEATED_TAUS)
def test_config_rejects_a_repeated_tau(taus, tmp_path, capsys):
    # Richardson extrapolation over a repeated tau divides by zero: the
    # battery's own taus are distinct, and a config cannot name others
    assert len(set(DEFAULT_TAU_SEQUENCE)) == len(DEFAULT_TAU_SEQUENCE)
    _assert_rejects_a_fixed_key({"tau_sequence": taus}, "tau_sequence",
                                tmp_path, capsys)


BAD_SEEDS = {"negative": -1, "below_every_offset": -2000, "fraction": 1.5,
             "boolean": True, "string": "7"}


@pytest.mark.parametrize("seed", BAD_SEEDS.values(), ids=BAD_SEEDS)
def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(seed,
                                                                  tmp_path):
    with pytest.raises(ValueError, match="seed must be"):
        default_config(seed=seed)
    with pytest.raises(ValueError, match="seed must be"):
        load_config(str(_write_config(tmp_path, {"seed": seed})))


def test_cli_rejects_a_negative_seed_before_any_check(tmp_path, capsys,
                                                      monkeypatch):
    def forbidden(cfg):
        pytest.fail(f"run_suite ran with seed {cfg.seed}")

    monkeypatch.setattr(cli, "run_suite", forbidden)
    path = _write_config(tmp_path, {"seed": -1})
    for argv in (["--seed", "-1"], ["--seed=-2000"], ["--seed", "1.5"],
                 ["--config", str(path)]):
        assert main(["verify-all", *argv]) == 2, argv
        assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["cocycle", "xi0"],
                                  ["multiplier", "--rep", "bargmann3d"]],
                         ids=["cocycle", "multiplier"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "abc"])
def test_cli_subcommands_reject_a_bad_seed_by_name(argv, seed, capsys):
    assert main(argv + ["--seed", seed]) == 2
    assert (f"argument --seed: seed must be a non-negative integer, got "
            f"{seed!r}") in capsys.readouterr().err


def test_config_takes_a_count_written_as_a_whole_float(tmp_path):
    cfg = load_config(str(_write_config(tmp_path, {"n_triples": 6.0})))
    assert cfg.n_triples == 6 and type(cfg.n_triples) is int
    # a Python caller passes an int: a float count would reach range()
    for key in ("n_triples", "n_pairs", "n_exponent_triples"):
        with pytest.raises(ValueError, match=f"{key} must be a positive "
                                             f"integer, got 6.0"):
            default_config(**{key: 6.0})


@pytest.mark.parametrize("tolerances", ({"unitarty": 1e-30},
                                        {**DEFAULT_TOLERANCES, "cocyle": 1.0}))
def test_config_rejects_unknown_tolerance_names(tolerances, tmp_path, capsys):
    # a misspelled name would leave its check at the default: the battery
    # checks at DEFAULT_TOLERANCES, and a config names no tolerance at all
    _assert_rejects_a_fixed_key({"tolerances": tolerances}, "tolerances",
                                tmp_path, capsys)
    assert "unitarty" not in DEFAULT_TOLERANCES
    assert "cocyle" not in DEFAULT_TOLERANCES


NON_FINITE_REPS = {
    "nan_gamma": {"kind": "bargmann3d", "gamma": math.nan},
    "inf_lambda": {"kind": "nonabelian2d", "lambda": math.inf},
    "nan_s": {"kind": "schrodinger2d", "s": math.nan},
    "nan_m": {"kind": "position1d", "m": math.nan},
    "inf_f": {"kind": "position1d", "f": -math.inf},
}


def _descriptor(doc: dict) -> RepDescriptor:
    """The RepDescriptor of a rep document, as rep_to_dict writes one."""
    return RepDescriptor(**{representations._REP_KEYS[key]: value
                            for key, value in doc.items()})


@pytest.mark.parametrize("rep", NON_FINITE_REPS.values(), ids=NON_FINITE_REPS)
def test_config_rejects_non_finite_rep_labels(rep, tmp_path):
    with pytest.raises(ValueError, match="must be a finite number"):
        _descriptor(rep)
    # a config names no rep, at any label
    with pytest.raises(ValueError, match=re.escape(
            "unknown config keys: ['reps']")):
        load_config(str(_write_config(tmp_path, {"reps": [rep]})))


# a label that the kind's preset does not read, away from its default
IGNORED_LABELS = (("schrodinger2d", "lambda", 0.9), ("bargmann3d", "s", 0.5),
                  ("bargmann3d", "lambda", 0.9), ("position1d", "gamma", 7),
                  ("position1d", "s", 2), ("nonabelian2d", "hbar", 2))
# each rep document, with what RepDescriptor says of it from Python (None:
# it is refused at the config's reps key alone)
REJECTED_REPS = {
    "misspelt_key": ({"kind": "bargmann3d", "gammma": 2}, None),
    "string": ("bargmann3d", None),
    **{f"{kind}_{key}": ({"kind": kind, key: value},
                         f"{kind} does not read the label '{key}'")
       for kind, key, value in IGNORED_LABELS}}


@pytest.mark.parametrize("rep, message", REJECTED_REPS.values(),
                         ids=REJECTED_REPS)
def test_config_rejects_a_rep_document_rep_to_dict_does_not_write(rep,
                                                                  message,
                                                                  tmp_path,
                                                                  capsys):
    # a config names no rep, so no label of one can run at its default or
    # be reported as if it had been tested; a descriptor built from Python
    # must keep the labels its kind does not read at their defaults
    _assert_rejects_a_fixed_key({"reps": [rep]}, "reps", tmp_path, capsys)
    if message is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            _descriptor(rep)


# what config_from_dict converts: (document, field, value it loads as); the
# repr tells an int from a float
CONVERSIONS = {
    "int_scale": ({"scale": 1}, "scale", 1.0),
    "whole_float_count": ({"n_triples": 6.0}, "n_triples", 6),
}


@pytest.mark.parametrize("doc, key, loaded", CONVERSIONS.values(),
                         ids=CONVERSIONS)
def test_config_from_dict_converts_json_forms_only(doc, key, loaded):
    cfg = config_from_dict(doc)
    assert repr(getattr(cfg, key)) == repr(loaded)
    # the document of the loaded config loads as the same config
    back = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert back == cfg
    assert repr(getattr(back, key)) == repr(loaded)


def test_dropping_the_last_rep_keeps_every_other_entry(monkeypatch):
    # a check's seed depends on its family and its place in the family
    # alone, so an entry keeps its bytes whatever reps follow its own
    reps = harness.SuiteConfig.reps
    full = {c["check"]: c for c in run_suite(default_config(**TINY))["checks"]}
    for n in (3, 2):
        monkeypatch.setattr(harness.SuiteConfig, "reps", reps[:n])
        kept = {c["check"]: c
                for c in run_suite(default_config(**TINY))["checks"]}
        gone = {rep.kind for rep in reps[n:]}
        assert set(kept) == {name for name, c in full.items()
                             if c["rep"] not in gone}
        for name, entry in kept.items():
            assert report_json(entry) == report_json(full[name]), name


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 18: a check's seed hangs on its place in its family, so "
    "reordering reps or dropping one moves other entries; seeds from check "
    "names land after item 9"))
def test_an_entry_depends_on_its_own_check_alone(monkeypatch):
    # with a seed that is one function of the suite seed and the check's
    # name, no two checks share a stream, and an entry keeps its bytes
    # whatever other reps the battery holds, and in whatever order
    full = {c["check"]: report_json(c)
            for c in run_suite(default_config(**TINY))["checks"]}
    seeds = [json.loads(entry)["seed"] for entry in full.values()]
    assert len(full) == 4 + 2 * 2 + 1 + 6 + 4 * 3 + 2 * 4
    assert len(set(seeds)) == len(seeds)
    reps = harness.SuiteConfig.reps
    variants = [reps[::-1]] + [reps[:k] + reps[k + 1:]
                               for k in range(len(reps))]
    for variant in variants:
        monkeypatch.setattr(harness.SuiteConfig, "reps", variant)
        kept = {c["check"]: report_json(c)
                for c in run_suite(default_config(**TINY))["checks"]}
        gone = {f"{prefix}_{rep.kind}" for rep in set(reps) - set(variant)
                for prefix in ("unitarity", "time_zero", "multiplier",
                               "time_multiplier", "heisenberg",
                               "initial_conditions")}
        assert set(kept) == set(full) - gone
        for name, entry in kept.items():
            assert entry == full[name], name


# reps at labels other than the battery's, each a set the battery must pass
# at: position1d breaks the Heisenberg law for P by 2|f|, so its entry is
# the documented exception exactly when f is not 0
OTHER_LABELS = {
    "mixed_signs": (RepDescriptor("schrodinger2d", gamma=2.0, s=-1.3),
                    RepDescriptor("nonabelian2d", gamma=0.7, lam=-1.5, s=2.2),
                    RepDescriptor("bargmann3d", gamma=1.7),
                    RepDescriptor("position1d", m=2.0, hbar=0.5,
                                  force_f=-0.3, V0=0.25)),
    "negative_gamma_force_free": (
        RepDescriptor("schrodinger2d", gamma=-0.8, s=0.3),
        RepDescriptor("nonabelian2d", gamma=-1.6, lam=4.0, s=-0.9),
        RepDescriptor("bargmann3d", gamma=-2.5),
        RepDescriptor("position1d", m=0.7, hbar=1.4, force_f=0.0, V0=-1.0)),
    "wide_labels": (RepDescriptor("schrodinger2d", gamma=0.25, s=5.0),
                    RepDescriptor("nonabelian2d", gamma=3.5, lam=-0.2),
                    RepDescriptor("bargmann3d", gamma=0.3),
                    RepDescriptor("position1d", m=0.4, hbar=3.0,
                                  force_f=2.5, V0=3.0)),
}


@pytest.mark.parametrize("reps", OTHER_LABELS.values(), ids=OTHER_LABELS)
def test_the_battery_holds_at_other_labels(reps, monkeypatch):
    # a config cannot choose the labels, so the battery's formulas are
    # checked away from its own here
    monkeypatch.setattr(harness.SuiteConfig, "reps", reps)
    report = run_suite(default_config(**TINY))
    assert report["suite_pass"] is True
    assert report["n_checks"] == 35
    [entry] = [c for c in report["checks"]
               if c["check"] == "heisenberg_position1d"]
    force = reps[-1].force_f
    assert entry["max_residual"] == pytest.approx(2 * abs(force), rel=1e-15)
    assert entry["documented_exception"] is (force != 0)
    failing = [c["check"] for c in report["checks"] if not c["pass"]]
    assert failing == ["heisenberg_position1d"] * (force != 0)


@pytest.mark.parametrize("key, value", FIXED_KEYS.items(), ids=FIXED_KEYS)
def test_config_rejects_a_key_of_the_fixed_battery(key, value, tmp_path,
                                                   capsys, monkeypatch):
    # the reps, times, taus, tolerances and documented exception are what
    # the verdict means, not settings: a config that names one is an input
    # error, even at the battery's own value
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("ran"))
    _assert_rejects_a_fixed_key({"seed": 7, key: value}, key, tmp_path,
                                capsys)


def test_tolerances_are_read_only():
    with pytest.raises(TypeError):
        DEFAULT_TOLERANCES["group"] = 1.0
    # a config holds no copy of them, and its document names none
    cfg = default_config()
    assert not hasattr(cfg, "tolerances")
    assert "tolerances" not in config_to_dict(cfg)


def test_config_dict_round_trip():
    cfg = default_config(seed=99, **TINY)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ValueError):
        config_from_dict({"n_tripels": 5})


def test_load_config_json_format(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"seed": 42, "n_triples": 6}))
    assert load_config(str(path)).seed == 42


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    # key = value lines, whose values are JSON, are not a JSON document;
    # nor is a file that is not UTF-8
    for data in (b"seed 7\n", b"seed = nope\n",
                 b"# comment\n\nseed = 7\nt_samples = [0.5, 1.0]\n",
                 b"\xff\xfe{}"):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: "
                                             f"cannot read as JSON"):
            load_config(str(path))


# a JSON document that is not an object, each as the top level of a file
NOT_AN_OBJECT = {"array": [["seed", 7]], "number": 7, "string": "seed = 7",
                 "null": None}


@pytest.mark.parametrize("doc", NOT_AN_OBJECT.values(), ids=NOT_AN_OBJECT)
def test_cli_rejects_a_config_that_is_not_a_json_object(doc, tmp_path,
                                                       capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("ran"))
    path = _write_config(tmp_path, doc)
    assert main(["verify-all", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: the top level must be a JSON "
                            f"object of config fields\n")


# every file the CLI reads, as the arguments that the file name follows
READERS = {
    "verify_all_config": ["verify-all", "--config"],
    "multiplier_pair": ["multiplier", "--rep", "bargmann3d", "--pair"],
    "action_pair": ["action", "--gamma", "1.0", "--t", "0.5", "--pair"],
}


@pytest.mark.parametrize("argv", READERS.values(), ids=READERS)
def test_cli_rejects_a_document_nested_too_deeply_to_read(argv, tmp_path,
                                                         capsys):
    # json.load recurses once per level: a RecursionError is an input
    # error of the file that holds the document, not a failed check
    path = tmp_path / "deep.json"
    path.write_text('{"reps": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: cannot read as JSON: nested "
                            f"too deeply\n")


def test_suite_report_shape_and_documented_exception(capsys):
    report = run_suite(default_config(**TINY))
    assert report["schema"] == 1
    assert report["suite_pass"] is True
    assert report["n_failed"] == 0
    assert report["n_documented_exceptions"] == 1
    assert report["seed"] == 12345
    assert report["n_checks"] == len(report["checks"])
    assert report["config"]["n_triples"] == 6

    names = [c["check"] for c in report["checks"]]
    assert names == sorted(names)
    expected = {
        "group_axioms_dim1", "group_axioms_dim2", "group_axioms_dim3",
        "algebra_dim1", "algebra_dim2", "algebra_dim3",
        "cocycle_xi0_dim3", "cocycle_xi1_dim2", "cocycle_xi2_dim2",
        "cocycle_xi_eta_dim1", "cocycle_xi_t_dim2_t0.5",
        "cocycle_xi_t_dim3_t1.7", "infinitesimal_exponents",
        "unitarity_schrodinger2d", "time_zero_bargmann3d",
        "multiplier_nonabelian2d", "time_multiplier_schrodinger2d",
        "heisenberg_position1d", "initial_conditions_position1d",
    }
    assert expected <= set(names)

    for entry in report["checks"]:
        assert set(entry) == {"check", "rep", "seed", "n_cases",
                              "max_residual", "pass", "details",
                              "documented_exception"}

    by_name = {c["check"]: c for c in report["checks"]}
    diverging = by_name["heisenberg_position1d"]
    assert diverging["pass"] is False
    assert diverging["documented_exception"] is True
    # P breaks the law at K = i/hbar by 2|f|, f = 0.5: the sign of its force
    # term (ROADMAP item 8)
    assert diverging["max_residual"] == 1.0
    assert diverging["details"] == {
        "per_generator": {"H": {"residual": 0.0}, "P": {"residual": 1.0},
                          "N": {"residual": 0.0}},
        "time_independent": {"H": True, "P": False, "N": False}}
    passing = [c for c in report["checks"] if c["check"] != "heisenberg_position1d"]
    assert all(c["pass"] for c in passing)

    mult = by_name["multiplier_bargmann3d"]["details"]
    assert set(mult) == {"max_constancy_spread", "max_modulus_error",
                         "max_matched_exponent_residual",
                         "max_exponent_cocycle_residual",
                         "n_exponent_triples"}
    assert mult["n_exponent_triples"] == 1
    tm = by_name["time_multiplier_bargmann3d"]["details"]
    # TINY's 3 time cases are all pure boosts: no general pair ran
    assert tm["n_pure_boost"] == 3
    assert tm["general_max"] == 0.0
    assert tm["pure_boost_max"] < 1e-9

    # complex values render as [re, im] so the output is plain JSON
    assert main(["multiplier", "--rep", "schrodinger2d"]) == 0
    omega = json.loads(capsys.readouterr().out)["omega"]
    assert len(omega) == 2 and all(isinstance(x, float) for x in omega)
    assert abs(math.hypot(*omega) - 1.0) < 1e-12


# the multiplier triples' scalar products raise on the overflowed elements
# of this config
OVERFLOWING = dict(scale=1e160, n_triples=3, n_pairs=2, n_time_cases=2,
                   n_unitarity_cases=1, n_time_zero_cases=1,
                   n_exponent_triples=1)


def test_a_check_that_raises_fails_alone_and_the_suite_reports(tmp_path,
                                                               capsys):
    report = run_suite(default_config(**OVERFLOWING))
    errors = {c["check"]: c for c in report["checks"]
              if "error" in c["details"]}
    assert set(errors) == {f"multiplier_{kind}"
                           for kind in representations.MOMENTUM_KINDS}
    for entry in errors.values():
        assert entry["details"] == {
            "error": "ValueError: eta, v and u must be finite"}
        assert entry["n_cases"] == 0 and math.isnan(entry["max_residual"])
        assert entry["pass"] is False
        assert entry["documented_exception"] is False
    assert report["n_checks"] == 35 and report["suite_pass"] is False
    # the CLI prints the report, as standard JSON, and exits 1: checks failed
    path = _write_config(tmp_path, OVERFLOWING)
    assert main(["verify-all", "--config", str(path)]) == 1
    doc = _strict_json(capsys.readouterr().out)
    assert doc["n_failed"] == report["n_failed"]


def test_suite_is_deterministic():
    a = run_suite(default_config(**TINY))
    b = run_suite(default_config(**TINY))
    a.pop("generated_at")
    b.pop("generated_at")
    assert report_json(a) == report_json(b)
    json.loads(report_json(a))


# 25 time cases cross the 20 pure boosts, and at a chunk size of 3 every
# sweep spans several chunks
CHUNKED = dict(seed=5, n_triples=30, n_pairs=10, n_time_cases=25,
               n_unitarity_cases=10, n_time_zero_cases=10,
               n_exponent_triples=7)


@pytest.mark.parametrize("family", harness.FAMILIES,
                         ids=[family.name for family in harness.FAMILIES])
def test_reports_do_not_depend_on_the_chunk_size(family, monkeypatch):
    # a case takes the same numbers of its streams at any chunk size
    cfg = default_config(**CHUNKED)
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 512)
    whole = report_json(family(cfg))
    monkeypatch.setattr(harness, "_SWEEP_CHUNK", 3)
    assert report_json(family(cfg)) == whole


def test_cli_verify_all(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, config_to_dict(default_config(
        seed=777, **TINY)))

    code = main(["verify-all", "--config", str(cfg_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["suite_pass"] is True
    assert report["seed"] == 777

    # --seed beats the config's seed
    code = main(["verify-all", "--config", str(cfg_path), "--seed", "888"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 888


def test_cli_cocycle(capsys):
    code = main(["cocycle", "xi1", "--triples", "50", "--lam", "0.8",
                 "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["name"] == "xi1"
    assert doc["params"]["lambda"] == 0.8
    assert doc["n_triples"] == 50
    assert doc["max_residual"] < 1e-10
    assert doc["pass"] is True


def test_cli_infexp(capsys):
    code = main(["infexp", "xi0", "--x", "b1", "--y", "d1",
                 "--gamma", "1.5"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["value"] - 1.5) < 1e-6
    assert doc["converged"] is True


CLI_REJECTED_INPUTS = {
    # a21 is not a basis name: it is -a12, not a direction of its own
    "infexp_a21": (["infexp", "xi0", "--x", "a21", "--y", "b1"],
                   "unknown basis element 'a21' for dim 3: expected one of "
                   "a12, a13, a23, b1, b2, b3, d1, d2, d3, f"),
    "infexp_a12_in_dim_1": (["infexp", "xi0", "--x", "a12", "--y", "b1",
                             "--dim", "1"], "expected one of b1, d1, f"),
    "infexp_b3_in_dim_2": (["infexp", "xi1", "--x", "d1", "--y", "b3"],
                           "unknown basis element 'b3' for dim 2"),
    # an exponent parameter the exponent does not read
    "cocycle_xi0_lam": (["cocycle", "xi0", "--lam", "3"],
                        "xi0 does not read the parameter 'lam'"),
    "cocycle_xi_t_S": (["cocycle", "xi_t", "--S", "2"],
                       "xi_t does not read the parameter 'S'"),
    "cocycle_xi_eta_t": (["cocycle", "xi_eta", "--t", "0.5"],
                         "xi_eta does not read the parameter 't'"),
    "infexp_xi1_gamma": (["infexp", "xi1", "--x", "d1", "--y", "d2",
                          "--gamma", "7"],
                         "xi1 does not read the parameter 'gamma'"),
}


@pytest.mark.parametrize("argv, message", CLI_REJECTED_INPUTS.values(),
                         ids=CLI_REJECTED_INPUTS)
def test_cli_rejects_a_non_basis_name_or_an_unread_parameter(argv, message,
                                                             capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_cli_multiplier_with_pair_file(tmp_path, capsys):
    pair = {"r": element_to_dict(identity(2)),
            "s": element_to_dict(identity(2))}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    code = main(["multiplier", "--rep", "schrodinger2d",
                 "--pair", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(doc["omega"][0] - 1.0) < 1e-12
    assert abs(doc["omega"][1]) < 1e-12
    assert doc["pass"] is True


def test_cli_rejects_a_non_finite_pair_file(tmp_path, capsys):
    pair = {"r": element_to_dict(identity(2)),
            "s": element_to_dict(identity(2))}
    pair["s"]["v"][1] = math.nan
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))  # a JSON NaN literal
    assert main(["multiplier", "--rep", "schrodinger2d",
                 "--pair", str(path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["action", "--gamma", "1.0", "--t", "1.0",
                 "--pair", str(path)]) == 2


def _element_without_u():
    d = element_to_dict(identity(2))
    del d["u"]
    return d


def _element_with(key, value):
    d = element_to_dict(identity(2))
    if isinstance(d[key], list):
        d[key] = [value, *d[key][1:]]
    else:
        d[key] = value
    return {"r": element_to_dict(identity(2)), "s": d}


MALFORMED_PAIRS = {
    "missing_s": {"r": element_to_dict(identity(2))},
    "missing_u": {"r": element_to_dict(identity(2)),
                  "s": _element_without_u()},
    "list_document": [element_to_dict(identity(2))] * 2,
    "list_element": {"r": element_to_dict(identity(2)), "s": [0.0] * 8},
    # a number is a JSON number: not a string, not a boolean
    "fractional_dim": _element_with("dim", 2.9),
    "bool_dim": {x: {**element_to_dict(identity(1)), "dim": True}
                 for x in "rs"},
    "string_W": _element_with("W", "1"),
    "bool_W": _element_with("W", True),
    "string_eta": _element_with("eta", "0.5"),
    "bool_eta": _element_with("eta", False),
    "string_v": _element_with("v", "0"),
    "bool_u": _element_with("u", False),
    "list_in_W": _element_with("W", [1.0, 0.0]),
}


@pytest.mark.parametrize("doc", MALFORMED_PAIRS.values(), ids=MALFORMED_PAIRS)
@pytest.mark.parametrize("argv", (["multiplier", "--rep", "schrodinger2d"],
                                  ["action", "--gamma", "1.0", "--t", "1.0"]),
                         ids=("multiplier", "action"))
def test_cli_rejects_a_malformed_pair_file(doc, argv, tmp_path, capsys):
    # exit 2 is a usage error; 1 would claim that a check failed
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--pair", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


PAIR_ARGV = {"multiplier": ["multiplier", "--rep", "schrodinger2d"],
             "action": ["action", "--gamma", "1.0", "--t", "1.0"]}
UNREAD_KEYS = {
    "element": ({"r": {**element_to_dict(identity(2)), "x": 1},
                 "s": element_to_dict(identity(2))},
                "unknown element keys: ['x']"),
    "pair": ({"r": element_to_dict(identity(2)),
              "s": element_to_dict(identity(2)), "x": 1},
             "the elements r and s and no other key"),
}


@pytest.mark.parametrize("doc, message", UNREAD_KEYS.values(),
                         ids=UNREAD_KEYS)
@pytest.mark.parametrize("argv", PAIR_ARGV.values(), ids=PAIR_ARGV)
def test_cli_rejects_a_pair_with_a_key_it_does_not_read(doc, message, argv,
                                                       tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--pair", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_cli_takes_a_whole_float_dim_as_a_config_takes_a_count(tmp_path,
                                                               capsys):
    outputs = []
    for dim in (2, 2.0):
        r = {**element_to_dict(identity(2)), "dim": dim, "v": [0.3, -0.2]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"r": r, "s": r}))
        assert main(PAIR_ARGV["action"] + ["--pair", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", PAIR_ARGV.values(), ids=PAIR_ARGV)
def test_cli_fails_closed_on_a_pair_that_overflows(argv, tmp_path, capsys):
    # finite entries whose products overflow: no RuntimeWarning (pyproject
    # makes one an error), and no verdict but a failure
    big = {"dim": 2, "W": [1.0, 0.0, 0.0, 1.0], "eta": 1e308,
           "v": [1e308, 1e308], "u": [0.0, 0.0]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"r": big, "s": big}))
    code = main(argv + ["--pair", str(path)])
    out, err = capsys.readouterr()
    if argv[0] == "action":
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite" in err
    else:
        # standard JSON: each NaN is the string "NaN", not a bare token
        doc = _strict_json(out)
        assert code == 1 and doc["pass"] is False
        assert doc["omega"] == ["NaN", "NaN"]
        assert doc["constancy_spread"] == doc["modulus_error"] == "NaN"
        assert math.isnan(float(doc["matched_exponent"]["residual"]))


def _strict_json(text: str):
    """The JSON document of text, which must be standard JSON: a bare NaN,
    Infinity or -Infinity token is an error."""
    def reject(token):
        raise ValueError(f"not standard JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_report_json_writes_standard_json():
    doc = {"nan": math.nan, "inf": [math.inf, -math.inf], "z": 1.5 + 2j,
           "x": np.float64(0.25)}
    text = report_json(doc)
    back = _strict_json(text)
    assert back == {"nan": "NaN", "inf": ["Infinity", "-Infinity"],
                    "z": [1.5, 2.0], "x": 0.25}
    # float() reads each string back
    assert math.isnan(float(back["nan"]))
    assert list(map(float, back["inf"])) == [math.inf, -math.inf]


def test_report_json_raises_on_a_non_finite_value_it_misses(monkeypatch):
    monkeypatch.setattr(harness, "_json_safe", lambda obj: obj)
    with pytest.raises(ValueError):
        report_json({"x": math.nan})


def test_the_benchmark_gate_fails_a_parsed_nan_residual():
    # the gate holds a string residual, as it holds a NaN, not finite
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    try:
        import gate
    finally:
        sys.path.pop(0)
    cfg = default_config(**TINY)
    report = run_suite(cfg)
    doc = _strict_json(report_json(report))
    assert gate.check_report(doc, cfg, DEFAULT_TOLERANCES,
                             representations.MOMENTUM_KINDS).failed == 0
    entry = next(c for c in report["checks"]
                 if c["check"] == "heisenberg_bargmann3d")
    entry["details"]["per_generator"]["H"]["residual"] = math.nan
    doc = _strict_json(report_json(report))
    result = gate.check_report(doc, cfg, DEFAULT_TOLERANCES,
                               representations.MOMENTUM_KINDS)
    assert result.failed == 1
    assert result.problems == [
        "heisenberg_bargmann3d: per_generator.H is 'NaN'"]


HUGE = 10 ** 400  # a JSON integer beyond every float
HUGE_INPUTS = {
    "scale": (["verify-all", "--config"], {"scale": HUGE}),
    "seed": (["verify-all", "--config"], {"seed": HUGE}),
    "n_pairs": (["verify-all", "--config"], {"n_pairs": HUGE}),
    "tolerance": (["verify-all", "--config"], {"tolerances": {"group": HUGE}}),
    "t_samples": (["verify-all", "--config"], {"t_samples": [0.5, HUGE]}),
    "tau_sequence": (["verify-all", "--config"],
                     {"tau_sequence": [0.1, 0.05, HUGE]}),
    "rep_gamma": (["verify-all", "--config"],
                  {"reps": [{"kind": "bargmann3d", "gamma": HUGE}]}),
    "multiplier_eta": (["multiplier", "--rep", "schrodinger2d", "--pair"],
                       _element_with("eta", HUGE)),
    "action_eta": (["action", "--gamma", "1.0", "--t", "1.0", "--pair"],
                   _element_with("eta", HUGE)),
}


@pytest.mark.parametrize("argv, doc", HUGE_INPUTS.values(), ids=HUGE_INPUTS)
def test_cli_rejects_an_integer_beyond_every_float(argv, doc, tmp_path,
                                                    capsys):
    # a usage error on one line, not an OverflowError traceback
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_multiplier_random_pair(capsys):
    code = main(["multiplier", "--rep", "bargmann3d", "--seed", "5",
                 "--t", "0.9"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["matched_exponent"]["residual"] < 1e-9


def test_cli_action(tmp_path, capsys):
    va, vb = np.array([0.4, -0.1]), np.array([0.3, 0.8])
    r = GalileiElement(2, np.eye(2), 0.0, va, np.zeros(2))
    s = GalileiElement(2, np.eye(2), 0.0, vb, np.zeros(2))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"r": element_to_dict(r),
                                "s": element_to_dict(s)}))
    code = main(["action", "--gamma", "1.3", "--t", "0.7",
                 "--pair", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    want = -1.3 * float(va @ vb) * 0.7
    assert abs(doc["value"] - want) < 1e-12
    assert abs(doc["multiplier"][0] - np.cos(want)) < 1e-12
    assert abs(doc["multiplier"][1] - np.sin(want)) < 1e-12


CLI_FLOAT_FLAGS = {
    "cocycle": (["cocycle", "xi1", "--triples", "5"],
                ("--scale", "--tolerance", "--gamma", "--lam", "--S", "--a1",
                 "--a2", "--t")),
    "multiplier": (["multiplier", "--rep", "schrodinger2d"], ("--t",)),
    "infexp": (["infexp", "xi0", "--x", "b1", "--y", "d1"], ("--gamma",)),
    "action": (["action", "--gamma", "1.0", "--t", "1.0"], ("--gamma", "--t")),
}
# the exponent of cocycle that reads each parameter flag: another exponent
# rejects the flag away from its default, finite or not
COCYCLE_READERS = {"--gamma": "xi0", "--S": "xi2", "--a1": "xi_eta",
                   "--a2": "xi_eta", "--t": "xi_t"}


@pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, flags) in CLI_FLOAT_FLAGS.items()
    for flag in flags])
def test_cli_rejects_a_non_finite_float_flag(command, flag, value, tmp_path,
                                             capsys):
    # with a valid pair and finite values each command exits 0
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"r": element_to_dict(identity(2)),
                                "s": element_to_dict(identity(2))}))
    argv = CLI_FLOAT_FLAGS[command][0] + ["--pair", str(path)] * (
        command == "action")
    if command == "cocycle":
        argv[1] = COCYCLE_READERS.get(flag, argv[1])
    assert main(argv + [f"{flag}=0.5"]) == 0
    capsys.readouterr()
    assert main(argv + [f"{flag}={value}"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ("0", "-3", "-0.0"))
@pytest.mark.parametrize("flag", ("--scale", "--tolerance"))
def test_cli_cocycle_rejects_a_scale_or_tolerance_that_is_not_positive(
        flag, value, capsys):
    # as a config's scale and tolerances must be: a scale of 0 sweeps
    # identity elements and would pass on residual 0, and a negative one
    # would cap the rotation angles below 0 and fail xi2 spuriously
    argv = ["cocycle", "xi2", "--triples", "5"]
    assert main(argv + [f"{flag}=0.5"]) == 0
    capsys.readouterr()
    assert main(argv + [f"{flag}={value}"]) == 2
    assert "positive" in capsys.readouterr().err


def test_cli_heisenberg(capsys):
    code = main(["heisenberg", "--rep", "schrodinger2d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["check"] == "heisenberg_schrodinger2d"
    assert doc["pass"] is True and doc["documented_exception"] is False
    names = ("H", "P1", "P2", "M", "N1", "N2")
    assert doc["details"]["per_generator"] == {
        name: {"residual": 0.0} for name in names}
    assert doc["max_residual"] == 0.0

    # position1d breaks the law for P, but the default config expects it to
    code = main(["heisenberg", "--rep", "position1d"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["pass"] is False and doc["documented_exception"] is True
    residuals = {name: record["residual"] for name, record
                 in doc["details"]["per_generator"].items()}
    assert residuals == {"H": 0.0, "P": 1.0, "N": 0.0}


def test_cli_heisenberg_prints_the_suite_entry(capsys):
    report = json.loads(report_json(run_suite(default_config())))
    entries = {c["check"]: c for c in report["checks"]}
    for rep in default_config().reps:
        code = main(["heisenberg", "--rep", rep.kind])
        entry = entries[f"heisenberg_{rep.kind}"]
        assert json.loads(capsys.readouterr().out) == entry
        assert code == (0 if entry["pass"] or entry["documented_exception"]
                        else 1)


# the cocycle flag of each parameter that a cocycle entry's details list
COCYCLE_FLAGS = {"gamma": "--gamma", "lambda": "--lam", "S": "--S",
                 "a1": "--a1", "a2": "--a2", "t": "--t"}


@pytest.mark.parametrize("scale", (1.0, 0.01))
def test_cli_cocycle_replays_every_cocycle_entry(scale, capsys):
    # README: galiray cocycle NAME --dim D --triples n --seed <entry seed>
    # --scale X, with the flags of details.params, prints the entry's
    # max_residual
    report = run_suite(default_config(scale=scale, **TINY))
    entries = [c for c in report["checks"] if c["check"].startswith("cocycle_")]
    assert len(entries) == 8
    for entry in entries:
        name, dim = re.fullmatch(r"cocycle_(\w+?)_dim(\d)(_t.*)?",
                                 entry["check"]).group(1, 2)
        argv = ["cocycle", name, "--dim", dim, "--triples",
                str(entry["n_cases"]), "--seed", str(entry["seed"]),
                "--scale", repr(scale)]
        for key, value in entry["details"]["params"].items():
            argv += [COCYCLE_FLAGS[key], repr(value)]
        assert main(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_residual"] == entry["max_residual"], entry["check"]
        assert doc["params"] == entry["details"]["params"]


def test_a_negated_hamiltonian_fails_the_cli_heisenberg(monkeypatch, capsys):
    # -H obeys the law at K = -i, not at the convention's K = i: each boost
    # N_i reads d/dt N_i - i [-H, N_i] = -2i p_i, so its residual is 2
    real = representations._momentum_generator
    monkeypatch.setattr(
        representations, "_momentum_generator",
        lambda rep, name: real(rep, name).scale(-1.0) if name == "H"
        else real(rep, name))
    assert main(["heisenberg", "--rep", "bargmann3d"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is False and doc["max_residual"] == 2.0
    residuals = {name: record["residual"] for name, record
                 in doc["details"]["per_generator"].items()}
    assert residuals == {name: 2.0 if name.startswith("N") else 0.0
                         for name in residuals}


def test_cli_error_paths(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["multiplier", "--rep", "position1d"]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.cfg"
    bad.write_text("seed 7\n")
    assert main(["verify-all", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err

    assert main(["action", "--gamma", "1.0", "--t", "1.0",
                 "--pair", str(tmp_path / "missing.json")]) == 2


def test_in_process_main_leaves_the_collector_alone(tmp_path, capsys):
    path = _write_config(tmp_path, TINY)
    before = gc.get_freeze_count()
    assert main(["verify-all", "--config", str(path)]) == 0
    assert main(["verify-all", "--config", str(tmp_path / "missing")]) == 2
    assert main(["frobnicate"]) == 2
    assert gc.get_freeze_count() == before


def _console_script():
    """The `galiray` console script: the function pyproject.toml names."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, name = re.search(r'^galiray = "([\w.]+):(\w+)"$', text,
                             re.M).groups()
    return getattr(importlib.import_module(module), name)()


def _python_m():
    """`python -m galiray.cli`, in process: the module's __main__ block."""
    with warnings.catch_warnings():
        # this process has imported galiray.cli; runpy runs a fresh copy
        warnings.filterwarnings("ignore", "'galiray.cli' found in sys.modules",
                                RuntimeWarning)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("galiray.cli", run_name="__main__")
    return exited.value.code


@pytest.mark.parametrize("process_entry", [_console_script, _python_m],
                         ids=["console_script", "python_m"])
@pytest.mark.parametrize("overrides, code", [(TINY, 0), (OVERFLOWING, 1),
                                             (None, 2)],
                         ids=["pass", "fail", "input_error"])
def test_the_process_entry_freezes_the_collector_once_after_its_output(
        process_entry, overrides, code, tmp_path, monkeypatch, capsys):
    path = (_write_config(tmp_path, overrides) if overrides
            else tmp_path / "missing.json")
    monkeypatch.setattr(sys, "argv",
                        ["galiray", "verify-all", "--config", str(path)])
    # each freeze records what the process had written by then
    frozen = []
    monkeypatch.setattr(gc, "freeze",
                        lambda: frozen.append(capsys.readouterr()))
    assert process_entry() == code
    assert len(frozen) == 1
    out, err = frozen[0]
    assert capsys.readouterr() == ("", "")  # nothing after the freeze
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert _strict_json(out)["suite_pass"] is (code == 0) and err == ""


def _without_timestamp(text: bytes) -> bytes:
    return b"".join(line for line in text.splitlines(keepends=True)
                    if b'"generated_at":' not in line)


@pytest.mark.parametrize("overrides", [TINY, OVERFLOWING],
                         ids=["pass", "fail"])
def test_a_verify_all_process_prints_the_in_process_report(overrides,
                                                           tmp_path):
    path = _write_config(tmp_path, overrides)
    env = dict(os.environ)
    # the child imports the galiray under test
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "galiray.cli", "verify-all",
                           "--config", str(path)], capture_output=True,
                          env=env, timeout=120)
    report = run_suite(default_config(**overrides))
    assert done.returncode == (0 if report["suite_pass"] else 1)
    assert done.stderr == b""
    assert _without_timestamp(done.stdout) == _without_timestamp(
        (report_json(report) + "\n").encode())
