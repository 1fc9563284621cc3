import argparse
import hashlib
import importlib.util
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from riccati_mdp import SimulationConfig, SystemModel, cli, montecarlo, rate_over_set
from riccati_mdp.models import scalar_study_model

SCALAR_MODEL = {
    "A": [[1.4142135623730951]],
    "C": [[1.0]],
    "Q": [[1.0]],
    "R": [[1.0]],
    "P0": [[1.0]],
}
PLANAR_MODEL = {
    "A": [[1.2, 0.5], [0.0, 0.8]],
    "C": [[1.0, 0.0]],
    "Q": [[1.0, 0.0], [0.0, 1.0]],
    "R": [[1.0]],
    "P0": [[1.0, 0.0], [0.0, 1.0]],
}


EXPONENT_BLOCK = {"predicate": "ballc:37.585786437626905",
                  "gamma_grid": [0.55, 0.65, 0.75],
                  "n_samples": 100, "burn_in": 10, "seed": 0}
SIMULATE_BLOCK = {"gamma": 0.7, "horizon": 10}
INVARIANT_BLOCK = {"gamma": 0.7, "n_samples": 10, "burn_in": 10}
REPO = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """Environment in which a child interpreter imports the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def write_config(tmp_path, name="config.json", model=SCALAR_MODEL, **blocks):
    payload = {"model": model, **blocks}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidate:
    def test_good_model_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "overall" in out and "FAIL" not in out

    def test_inadmissible_model_exits_two(self, tmp_path, capsys):
        bad = {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "C": [[1.0, 0.0]],
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0]],
            "P0": [[1.0, 0.0], [0.0, 1.0]],
        }
        cfg = write_config(tmp_path, model=bad)
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_directory_exits_two(self, tmp_path, capsys):
        assert cli.main(["validate", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(tmp_path) in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000],
                             ids=["not-utf8", "too-deep"])
    def test_unreadable_json_exits_two(self, tmp_path, capsys, data):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert f"config file {path} is not valid JSON" in capsys.readouterr().err

    def test_malformed_model_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"A": [[1.0]]})
        assert cli.main(["validate", "--config", cfg]) == 2
        assert 'missing "C"' in capsys.readouterr().err

    def test_indefinite_q_prints_the_report(self, tmp_path, capsys):
        model = {**SCALAR_MODEL, "A": [[1.2]], "Q": [[-1.0]]}
        cfg = write_config(tmp_path, model=model)
        assert cli.main(["validate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] Q positive definite" in captured.out
        assert "overall: FAIL" in captured.out
        assert captured.err == ""


class TestConfigFields:
    @pytest.mark.parametrize("command, block, key, value", [
        ("exponent", EXPONENT_BLOCK, "gamma_grid", 0.5),
        ("exponent", EXPONENT_BLOCK, "n_samples", [10]),
        ("exponent", EXPONENT_BLOCK, "seed", [1, 2]),
        ("simulate", SIMULATE_BLOCK, "gamma", None),
        ("simulate", SIMULATE_BLOCK, "gamma", True),
        ("simulate", SIMULATE_BLOCK, "horizon", 10.9),
        ("simulate", SIMULATE_BLOCK, "seed", 1.9),
        ("invariant", INVARIANT_BLOCK, "n_samples", True),
        ("invariant", INVARIANT_BLOCK, "burn_in", 10.5),
        ("exponent", EXPONENT_BLOCK, "gamma_grid", [0.55, True, 0.75]),
        ("exponent", EXPONENT_BLOCK, "seed", False),
        ("rate", {"predicate": "ballc:5.0"}, "k_cap", 22.5),
        ("rate", {"predicate": "ballc:5.0"}, "k_cap", True),
        ("simulate", SIMULATE_BLOCK, "gamma", "0.7"),
        ("simulate", SIMULATE_BLOCK, "horizon", "10"),
        ("simulate", SIMULATE_BLOCK, "seed", "3"),
        ("simulate", SIMULATE_BLOCK, "seed", -1),
        ("rate", {}, "predicate", 5.0),
        ("validate", SCALAR_MODEL, "A", [["1.4142135623730951"]]),
        ("validate", SCALAR_MODEL, "Q", [[True]]),
        ("validate", PLANAR_MODEL, "A", [[1.2, True], [0.0, 0.8]]),
    ], ids=["grid-number", "n_samples-list", "seed-list", "gamma-null", "gamma-bool",
            "horizon-fraction", "seed-fraction", "n_samples-bool", "burn_in-fraction",
            "grid-bool", "seed-bool", "k_cap-fraction", "k_cap-bool", "gamma-text",
            "horizon-text", "seed-text", "seed-negative", "predicate-number",
            "A-text", "Q-bool", "A-mixed-row"])
    def test_wrong_type_exits_two(self, tmp_path, capsys, command, block, key, value):
        # "validate" reads only the model block, so its cases edit that block.
        name = "model" if command == "validate" else command
        cfg = write_config(tmp_path, **{name: {**block, key: value}})
        assert cli.main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f'"{key}"' in err

    @pytest.mark.parametrize("payload, key, allowed", [
        ({"rate": {"predicate": "ballc:5.0", "kcap": 3}}, "kcap", "k_cap"),
        ({"model": {**SCALAR_MODEL, "B": [[1.0]]}}, "B", "P0"),
        ({"ratee": {"predicate": "ballc:5.0"}}, "ratee", "rate"),
        ({"validate": {}}, "validate", "model"),
    ], ids=["kcap", "model-key", "ratee", "validate-block"])
    def test_unknown_key_exits_two(self, tmp_path, capsys, payload, key, allowed):
        blocks = {"model": SCALAR_MODEL, "rate": {"predicate": "ballc:5.0"}, **payload}
        cfg = write_config(tmp_path, **blocks)
        assert cli.main(["rate", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f'unknown key "{key}"' in captured.err and f'"{allowed}"' in captured.err

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"model"'])
    def test_non_object_config_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert cli.main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be a JSON object" in err

    @pytest.mark.parametrize("command", ["simulate", "invariant", "exponent",
                                         "reproduce-scalar"])
    def test_negative_seed_option_exits_two(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, simulate=SIMULATE_BLOCK, invariant=INVARIANT_BLOCK,
                           exponent=EXPONENT_BLOCK)
        out = tmp_path / "out"
        config = [] if command == "reproduce-scalar" else ["--config", cfg]
        assert cli.main([command, *config, "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and '"--seed"' in err
        assert not out.exists()


# Any JSON value, including the ones a reader must refuse: null, booleans,
# text, nested lists, objects, an integer beyond float range, inf and NaN.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
VALID_BLOCKS = {"model": SCALAR_MODEL, "simulate": SIMULATE_BLOCK,
                "invariant": INVARIANT_BLOCK, "rate": {"predicate": "ballc:5.0"},
                "exponent": EXPONENT_BLOCK}


class TestConfigReader:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_json_reads_or_raises_config_error(self, data):
        name = data.draw(st.sampled_from(sorted(cli._TABLES)))
        key = data.draw(st.sampled_from(sorted(cli._TABLES[name]) + ["other"]))
        value = data.draw(JSON_VALUES)
        config = data.draw(st.sampled_from([
            {**VALID_BLOCKS, name: {**VALID_BLOCKS[name], key: value}},
            {**VALID_BLOCKS, name: value},
            value,
        ]))
        seed = data.draw(st.none() | st.integers())
        try:
            if name == "model":
                assert isinstance(cli._model_from_config(config, check=False), SystemModel)
            else:
                assert set(cli._read(config, name, seed)) == set(cli._TABLES[name])
        except cli.ConfigError:
            pass

    def test_seed_for_a_block_without_one_is_a_config_error(self):
        # A rate block (k_cap 0) with seed 0 once read back a "seed" its
        # table does not have.
        config = {**VALID_BLOCKS, "rate": {"predicate": "ballc:5.0", "k_cap": 0}}
        assert set(cli._read(config, "rate")) == set(cli._TABLES["rate"])
        with pytest.raises(cli.ConfigError, match='"rate" block reads no "seed"'):
            cli._read(config, "rate", 0)

    def test_valid_blocks_read(self):
        # Otherwise every example above would stop at the same bad field.
        assert cli._model_from_config(VALID_BLOCKS).dim_state == 1
        for name in ("simulate", "invariant", "rate", "exponent"):
            assert set(cli._read(VALID_BLOCKS, name)) == set(cli._TABLES[name])


class TestSimulate:
    def test_writes_trajectory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"gamma": 0.7, "horizon": 25, "seed": 3})
        out = tmp_path / "artifacts"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,gamma_t,p_0_0"
        assert len(lines) == 27  # header + P_0..P_25

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = write_config(tmp_path, simulate={"gamma": 0.7, "horizon": 30, "seed": 5})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_seed_override_changes_path(self, tmp_path):
        cfg = write_config(tmp_path, simulate={"gamma": 0.7, "horizon": 30, "seed": 5})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", cfg, "--out", str(out1)])
        cli.main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "6"])
        assert (out1 / "trajectory.csv").read_text() != (out2 / "trajectory.csv").read_text()

    def test_missing_gamma_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"horizon": 10})
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_bad_gamma_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulate={"gamma": 1.7, "horizon": 10})
        assert cli.main(["simulate", "--config", cfg]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_exits_three(self, tmp_path, capsys):
        # With (almost) no arrivals the planar path grows like 1.44^t and
        # overflows near step 1950: a numeric failure, not a config problem.
        # The overflow warns in the matrix product.
        cfg = write_config(tmp_path, model=PLANAR_MODEL,
                           simulate={"gamma": 1e-9, "horizon": 2000, "seed": 1})
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite at step" in err and "config error" not in err
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scalar_overflow_exits_three(self, tmp_path, capsys):
        # 1e307 * 2.25^3 = 1.14e308 is finite, and 2.25 times that is not:
        # step 4 is named.  The product in f0 overflows there and warns.
        model = {**SCALAR_MODEL, "A": [[1.5]], "P0": [[1e307]]}
        cfg = write_config(tmp_path, model=model, simulate={"gamma": 1e-9, "horizon": 4})
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite at step 4" in err and "config error" not in err
        assert not (out / "trajectory.csv").exists()


class TestInvariant:
    def test_writes_samples(self, tmp_path, capsys):
        # Integral floats read as integers.
        cfg = write_config(
            tmp_path, invariant={"gamma": 0.7, "n_samples": 40.0, "burn_in": 30, "seed": 1.0})
        out = tmp_path / "inv"
        assert cli.main(["invariant", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "chain_id,p_0_0"
        assert len(lines) == 41

    def test_planar_header_has_four_entries(self, tmp_path):
        cfg = write_config(
            tmp_path, model=PLANAR_MODEL,
            invariant={"gamma": 0.7, "n_samples": 10, "burn_in": 20, "seed": 1})
        out = tmp_path / "inv"
        assert cli.main(["invariant", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "samples.csv").read_text().splitlines()[0]
        assert header == "chain_id,p_0_0,p_0_1,p_1_0,p_1_1"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_chains_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, model=PLANAR_MODEL,
            invariant={"gamma": 1e-9, "n_samples": 50, "burn_in": 2000, "seed": 1})
        out = tmp_path / "inv"
        assert cli.main(["invariant", "--config", cfg, "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "samples.csv").exists()


class TestRate:
    def test_scalar_uses_enumeration(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rate={"predicate": "ballc:37.585786437626905"})
        assert cli.main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponent"] == 4
        assert payload["minimizer"] == "0^4"
        assert payload["method"] == "enumeration"

    def test_planar_uses_enumeration(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model=PLANAR_MODEL, rate={"predicate": "ballc:6.0"})
        assert cli.main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "enumeration"
        assert isinstance(payload["exponent"], int)

    def test_event_holding_at_p_star(self, tmp_path, capsys):
        # P* is already in the set: exponent 0 and the empty word.
        cfg = write_config(tmp_path, model=PLANAR_MODEL, rate={"predicate": "norm-above:0"})
        assert cli.main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["exponent"], payload["k_gamma"], payload["minimizer"]) == (0, 0, "")

    def test_out_writes_json_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rate={"predicate": "ballc:5.0"})
        out = tmp_path / "r"
        assert cli.main(["rate", "--config", cfg, "--out", str(out)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads((out / "rate.json").read_text())
        assert file_payload == stdout_payload

    def test_event_beyond_cap_reports_inf(self, tmp_path, capsys):
        # Radius 1e12 needs 39 doublings, far past the configured cap.
        cfg = write_config(tmp_path, rate={"predicate": "ballc:1e12", "k_cap": 8})
        assert cli.main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponent"] == "inf"

    def test_deep_event_resolved_under_default_cap(self, tmp_path, capsys):
        # Distance 2^15 * 3.41 needs 15 open-loop steps; the default cap of
        # 22 covers it.
        cfg = write_config(tmp_path, rate={"predicate": "ballc:111000"})
        assert cli.main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponent"] == 15
        assert payload["minimizer"] == "0^15"

    def test_default_k_cap_matches_rate_over_set(self, tmp_path, capsys):
        # Scalar open-loop distance after k steps is (2^k - 1)(2 + sqrt 2).
        # Without "k_cap" an event first reached at the default cap resolves
        # and one reached a step later does not.
        default = inspect.signature(rate_over_set).parameters["k_cap"].default

        def dist(k):
            return (2.0 ** k - 1.0) * (2.0 + math.sqrt(2.0))

        for k, expected in ((default, default), (default + 1, "inf")):
            radius = (dist(k - 1) + dist(k)) / 2.0
            cfg = write_config(tmp_path, rate={"predicate": f"ballc:{radius!r}"})
            assert cli.main(["rate", "--config", cfg]) == 0
            assert json.loads(capsys.readouterr().out)["exponent"] == expected

    def test_linalg_failure_exits_three(self, tmp_path, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, yet it is a numeric failure.
        def diverge(model):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "solve_dare", diverge)
        cfg = write_config(tmp_path, model=PLANAR_MODEL, rate={"predicate": "ballc:20"})
        assert cli.main(["rate", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "numeric error: Eigenvalues did not converge" in err
        assert "config error" not in err

    def test_bad_predicate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rate={"predicate": "ballc:0"})
        assert cli.main(["rate", "--config", cfg]) == 2
        assert "predicate" in capsys.readouterr().err


class TestExponent:
    def test_writes_fit_artifacts(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            exponent={"predicate": "ballc:37.585786437626905",
                      "gamma_grid": [0.55, 0.65, 0.75],
                      "n_samples": 800, "burn_in": 50, "seed": 3})
        out = tmp_path / "exp"
        assert cli.main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        probs = (out / "probs.csv").read_text().splitlines()
        assert probs[0] == "gamma_bar,p_hat,hits,n_samples,censored"
        assert len(probs) == 4
        fit = (out / "fit.csv").read_text().splitlines()
        assert fit[0].startswith("slope,intercept,stderr")
        slope_line, drift_line = capsys.readouterr().out.splitlines()
        assert slope_line.startswith("slope")
        assert drift_line.startswith("burn-in drift at gamma_bar 0.55: p_hat ")
        assert " after 25 steps, " in drift_line and " after 50; " in drift_line

    def test_prints_a_failed_drift_and_exits_zero(self, tmp_path, capsys):
        # Every chain hits after 4 steps and none after 2 at gamma_bar 0.01.
        cfg = write_config(
            tmp_path,
            exponent={"predicate": "ballc:20", "gamma_grid": [0.01, 0.02, 0.03],
                      "n_samples": 10, "burn_in": 4, "seed": 0})
        out = tmp_path / "exp"
        assert cli.main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "burn-in drift at gamma_bar 0.01: p_hat 0 after 2 steps, 1 after 4; "
            "NOT within 2 standard errors")
        assert (out / "fit.csv").read_text().splitlines()[1].endswith(",false")

    def test_bad_grid_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            exponent={"predicate": "ballc:5", "gamma_grid": [0.5, 0.6],
                      "n_samples": 100, "burn_in": 10, "seed": 0})
        assert cli.main(["exponent", "--config", cfg]) == 2

    def test_all_censored_exits_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            exponent={"predicate": "ballc:40", "gamma_grid": [0.9, 0.92, 0.94],
                      "n_samples": 50, "burn_in": 40, "seed": 5})
        assert cli.main(["exponent", "--config", cfg]) == 3
        assert "numeric error" in capsys.readouterr().err


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_chains_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, model=PLANAR_MODEL,
            exponent={"predicate": "ballc:20", "gamma_grid": [1e-9, 2e-9, 3e-9],
                      "n_samples": 50, "burn_in": 2000, "seed": 1})
        assert cli.main(["exponent", "--config", cfg]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestReproduceScalar:
    def test_cdf_reuses_fit_samples(self, tmp_path, monkeypatch):
        calls = []
        real = montecarlo.sample_invariant

        def counting(m, cfg):
            calls.append(cfg)
            return real(m, cfg)

        monkeypatch.setattr(montecarlo, "sample_invariant", counting)
        out = tmp_path / "study"
        assert cli.main(["reproduce-scalar", "--out", str(out)]) == 0
        # Gridpoint 0 runs outside sample_invariant, so that its drift check
        # can read its chains at half the burn-in; every other gridpoint is
        # drawn once through it.
        assert len(calls) == len(cli.STUDY_GRID) - 1
        monkeypatch.undo()

        rows = np.loadtxt(out / "cdf.csv", delimiter=",", skiprows=1)
        for j, gamma in enumerate(cli.STUDY_GRID):
            cfg = SimulationConfig(gamma_bar=gamma, n_samples=cli.STUDY_N_SAMPLES,
                                   burn_in=cli.STUDY_BURN_IN, seed=(cli.STUDY_SEED, j))
            fresh = np.sort(real(scalar_study_model(), cfg).scalar_values())
            block = rows[rows[:, 0] == gamma]
            assert np.array_equal(block[:, 1], fresh)
            assert np.array_equal(block[:, 2], np.arange(1, fresh.size + 1) / fresh.size)

    def test_study_bytes_pinned(self, tmp_path):
        # probs.csv and cdf.csv at the default seed 2024; fit.csv and
        # summary.json go through a LAPACK least-squares fit and are not pinned.
        out = tmp_path / "study"
        assert cli.main(["reproduce-scalar", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("probs.csv", "cdf.csv")}
        assert digests == {
            "probs.csv": "bea0ed819355f744eb86679f1e52c8473dc31ff5ba2841e2acecc74ab3c80413",
            "cdf.csv": "9ef755abf57557b09367201c1c46d58387d1c565cf60ee90465a946cfa7e63f5",
        }

    def test_study_drift_pinned(self, tmp_path, capsys):
        # The drift check reads gridpoint 0's chains at B // 2; at the
        # default seed 2024 413 of 10 000 hit after 50 steps, 427 after 100.
        out = tmp_path / "study"
        assert cli.main(["reproduce-scalar", "--out", str(out)]) == 0
        header, row = (out / "fit.csv").read_text().splitlines()[:2]
        fit = dict(zip(header.split(","), row.split(",")))
        assert float(fit["drift_p_hat_half"]) == 0.0413
        assert fit["drift_within_2se"] == "true"
        assert capsys.readouterr().out.splitlines()[-1] == (
            "burn-in drift at gamma_bar 0.55: p_hat 0.0413 after 50 steps, "
            "0.0427 after 100; within 2 standard errors")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_chains_exit_three(self, tmp_path, monkeypatch, capsys):
        # The largest start SymMatrix accepts (half the float maximum)
        # overflows on the first step of every chain.
        monkeypatch.setattr(cli, "scalar_study_model", lambda: SystemModel(
            A=math.sqrt(2.0), C=1.0, Q=1.0, R=1.0, P0=np.finfo(float).max / 2))
        assert cli.main(["reproduce-scalar", "--out", str(tmp_path / "s")]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestArtifactBytes:
    """Every CSV artifact is byte-identical to the frozen per-value writer
    run on the rows the command computed."""

    @staticmethod
    def capture(monkeypatch, name):
        """Record what cli.<name> returns while the command runs."""
        seen = []
        real = getattr(cli, name)

        def recording(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(cli, name, recording)
        return seen

    @staticmethod
    def fit_rows(fit):
        probs = [[g, p, h, fit.n_samples, c]
                 for g, p, h, c in zip(fit.gamma_grid, fit.probs, fit.hits, fit.censored)]
        d = fit.burn_in_drift
        row = [fit.slope, fit.intercept, fit.stderr, fit.points_used, fit.n_samples,
               fit.burn_in, d["gamma_bar"], d["p_at_burn_in"], d["p_at_half_burn_in"],
               d["within_2se"]]
        return probs, [row]

    def same(self, tmp_path, artifact, header, rows):
        oracles.write_csv_per_value(tmp_path / "want.csv", header, rows)
        assert artifact.read_bytes() == (tmp_path / "want.csv").read_bytes()

    # A planar model whose covariances have negative off-diagonal entries.
    PLANAR_NEGATIVE = {**PLANAR_MODEL, "A": [[1.2, -0.5], [0.0, 0.8]]}

    @pytest.mark.parametrize("model", [PLANAR_MODEL, PLANAR_NEGATIVE])
    def test_simulate(self, tmp_path, monkeypatch, model):
        seen = self.capture(monkeypatch, "simulate_rre")
        cfg = write_config(tmp_path, model=model,
                           simulate={"gamma": 0.6, "horizon": 40, "seed": 2})
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        traj = seen[0]
        rows = [[t, traj.arrivals[t] if t < len(traj.arrivals) else ""]
                + [float(v) for v in p.a.ravel()] for t, p in enumerate(traj.path)]
        if model is self.PLANAR_NEGATIVE:
            assert min(min(r[2:]) for r in rows) < 0
        self.same(tmp_path, out / "trajectory.csv",
                  ["t", "gamma_t", "p_0_0", "p_0_1", "p_1_0", "p_1_1"], rows)

    @pytest.mark.parametrize("model", [PLANAR_MODEL, PLANAR_NEGATIVE])
    def test_invariant(self, tmp_path, monkeypatch, model):
        seen = self.capture(monkeypatch, "sample_invariant")
        cfg = write_config(tmp_path, model=model,
                           invariant={"gamma": 0.7, "n_samples": 300, "burn_in": 30, "seed": 4})
        out = tmp_path / "inv"
        assert cli.main(["invariant", "--config", cfg, "--out", str(out)]) == 0
        dist = seen[0]
        rows = [[i] + [float(v) for v in dist.samples[i].ravel()] for i in range(dist.n)]
        self.same(tmp_path, out / "samples.csv",
                  ["chain_id", "p_0_0", "p_0_1", "p_1_0", "p_1_1"], rows)

    def test_exponent(self, tmp_path, monkeypatch):
        # gamma_bar 0.95 expects 800 * 0.05^4 = 0.005 hits: a censored row.
        seen = self.capture(monkeypatch, "decay_exponent_fit")
        cfg = write_config(tmp_path, exponent={
            "predicate": "ballc:37.585786437626905", "gamma_grid": [0.55, 0.65, 0.75, 0.95],
            "n_samples": 800, "burn_in": 50, "seed": 3})
        out = tmp_path / "exp"
        assert cli.main(["exponent", "--config", cfg, "--out", str(out)]) == 0
        probs, fit_row = self.fit_rows(seen[0])
        assert [row[-1] for row in probs] == [False, False, False, True]
        self.same(tmp_path, out / "probs.csv", cli._PROBS_HEADER, probs)
        self.same(tmp_path, out / "fit.csv", cli._FIT_HEADER, fit_row)

    def test_reproduce_scalar(self, tmp_path, monkeypatch):
        seen = self.capture(monkeypatch, "decay_exponent_fit")
        out = tmp_path / "study"
        assert cli.main(["reproduce-scalar", "--out", str(out)]) == 0
        fit = seen[0]
        probs, fit_row = self.fit_rows(fit)
        self.same(tmp_path, out / "probs.csv", cli._PROBS_HEADER, probs)
        self.same(tmp_path, out / "fit.csv", cli._FIT_HEADER, fit_row)
        rows = []
        for gamma, dist in zip(cli.STUDY_GRID, fit.distributions):
            values = sorted(dist.scalar_values().tolist())
            n = len(values)
            rows += [[gamma, v, i / n] for i, v in enumerate(values, start=1)]
        self.same(tmp_path, out / "cdf.csv", ["gamma_bar", "x", "cdf"], rows)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "riccati_mdp.cli", "validate", "--config", cfg],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "overall" in proc.stdout

    def test_runs_without_scipy(self):
        # A None entry in sys.modules makes every import of scipy fail.
        code = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None",
            "from riccati_mdp import (EventPredicate, SimulationConfig, "
            "rate_over_set, sample_invariant)",
            "from riccati_mdp.models import planar_model",
            "m = planar_model()",
            "assert rate_over_set(m, EventPredicate.ball_complement(20.0)).exponent == 3",
            "cfg = SimulationConfig(gamma_bar=0.7, n_samples=50, burn_in=20, seed=1)",
            "assert sample_invariant(m, cfg).non_finite == 0",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr

    def test_parser_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        fresh = cli.build_parser

        def counting():
            built.append(1)
            return fresh()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            cfg = write_config(tmp_path)
            for _ in range(3):
                assert cli.main(["validate", "--config", cfg]) == 0
            with pytest.raises(SystemExit):
                cli.main(["rate"])
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    @pytest.mark.parametrize("argv", [["rate"], [], ["nope"], ["simulate", "--seed", "x"]])
    def test_usage_errors_match_a_fresh_parser(self, argv, capsys):
        # The shared parser exits and reports as a parser built per call does.
        results = []
        for parse in (cli.main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            results.append((exc.value.code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 2

    def test_each_subcommand_registers_only_what_it_reads(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {name: {a.dest for a in p._actions} - {"help"}
                 for name, p in sub.choices.items()}
        assert dests == {
            "simulate": {"config", "out", "seed"},
            "invariant": {"config", "out", "seed"},
            "exponent": {"config", "out", "seed"},
            "rate": {"config", "out"},
            "validate": {"config"},
            "reproduce-scalar": {"out", "seed", "full"},
        }

    @pytest.mark.parametrize("command, extra", [
        ("rate", ["--verify"]),
        ("rate", ["--seed", "1"]),
        ("validate", ["--seed", "1"]),
        ("validate", ["--out", "{tmp}/out"]),
    ], ids=["rate-verify", "rate-seed", "validate-seed", "validate-out"])
    def test_unread_options_are_usage_errors(self, tmp_path, capsys, command, extra):
        cfg = write_config(tmp_path, rate={"predicate": "ballc:5.0"})
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", cfg] + [a.format(tmp=tmp_path) for a in extra])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "invariant", "rate", "exponent",
                     "reproduce-scalar", "validate"):
            assert name in out


def _readme_block(lang: str) -> str:
    text = (REPO / "README.md").read_text()
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


class TestReadmeExamples:
    def test_usage_lines_parse(self):
        # Every documented command line parses, so the README names no
        # option the parser does not register.
        text = (REPO / "README.md").read_text()
        lines = re.findall(r"^ +riccati-mdp (.+)$", text, re.M)
        parser = cli.build_parser()
        commands = {parser.parse_args(shlex.split(line)).command for line in lines}
        assert commands == {"simulate", "invariant", "rate", "exponent",
                            "reproduce-scalar", "validate"}
    def test_quick_start_prints_its_comments(self, capsys):
        exec(compile(_readme_block("python"), "README.md", "exec"), {})
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "4"                      # iota
        assert lines[1] == "4 0^4"                  # rate_over_set
        assert lines[3].split()[0] == "4"           # law.event_exponent(hit)

    def test_config_validates_and_rates(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_readme_block("json"))
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["rate", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["exponent"] == 4

    def test_config_runs_every_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(_readme_block("json"))
        artifacts = {"simulate": "trajectory.csv", "invariant": "samples.csv",
                     "rate": "rate.json", "exponent": "fit.csv"}
        for command, artifact in artifacts.items():
            out = tmp_path / command
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
            assert (out / artifact).exists()


class TestBenchTargets:
    def test_traced_names_resolve(self, monkeypatch):
        # bench/spans.py wraps these by name, so a missing one breaks a
        # traced benchmark run.  The file is loaded, not installed.
        path = REPO / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, spans)
        spec.loader.exec_module(spans)
        assert spans.TARGETS
        for prefix, module, attr_path, _counters in spans.TARGETS:
            owner = importlib.import_module(module)
            for part in attr_path.split("."):
                owner = getattr(owner, part)
            assert callable(owner), prefix
