import hashlib
import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

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

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_model_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model={"A": [[1.0]]})
        assert cli.main(["validate", "--config", cfg]) == 2


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

    def test_overflow_exits_three(self, tmp_path, capsys):
        # With (almost) no arrivals the planar path grows like 1.44^t and
        # overflows near step 1950: a numeric failure, not a config problem.
        cfg = write_config(tmp_path, model=PLANAR_MODEL,
                           simulate={"gamma": 1e-9, "horizon": 2000, "seed": 1})
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite at step" in err and "config error" not in err
        assert not (out / "trajectory.csv").exists()


class TestInvariant:
    def test_writes_samples(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, invariant={"gamma": 0.7, "n_samples": 40, "burn_in": 30, "seed": 1})
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
    def test_scalar_fast_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rate={"predicate": "ballc:37.585786437626905"})
        assert cli.main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponent"] == 4
        assert payload["minimizer"] == "0^4"
        assert payload["method"] == "orbit-fast-path"

    def test_verify_cross_checks(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rate={"predicate": "ballc:37.585786437626905"})
        assert cli.main(["rate", "--config", cfg, "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["exponent"] == 4

    def test_verify_rejected_off_the_fast_path(self, tmp_path, capsys):
        # The enumeration path has nothing to cross-check against, so the
        # flag is a configuration error rather than an unchecked "verified".
        cfg = write_config(tmp_path, model=PLANAR_MODEL, rate={"predicate": "ballc:6.0"})
        assert cli.main(["rate", "--config", cfg, "--verify"]) == 2
        captured = capsys.readouterr()
        assert "orbit fast path" in captured.err
        assert captured.out == ""

    def test_planar_uses_enumeration(self, tmp_path, capsys):
        cfg = write_config(tmp_path, model=PLANAR_MODEL, rate={"predicate": "ballc:6.0"})
        assert cli.main(["rate", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "enumeration"
        assert isinstance(payload["exponent"], int)

    def test_out_writes_json_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rate={"predicate": "ballc:5.0"})
        out = tmp_path / "r"
        assert cli.main(["rate", "--config", cfg, "--out", str(out)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads((out / "rate.json").read_text())
        assert file_payload == stdout_payload

    def test_event_beyond_cap_reports_inf(self, tmp_path, capsys):
        # Radius 1e12 needs 39 doublings, far past the configured cap; both
        # the fast path and the enumeration agree on the inf marker.
        cfg = write_config(tmp_path, rate={"predicate": "ballc:1e12", "k_cap": 8})
        assert cli.main(["rate", "--config", cfg, "--verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exponent"] == "inf"

    def test_deep_event_resolved_under_default_cap(self, tmp_path, capsys):
        # Distance 2^15 * 3.41 needs 15 open-loop steps; the default cap of
        # 22 covers it on the fast path.
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
        assert "slope" in capsys.readouterr().out

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
        # Gridpoint 0 and its doubled burn-in share one draw outside
        # sample_invariant; every other gridpoint is drawn once.
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
            "probs.csv": "921a75557ebbdcd3bf16f980c6bb3cd960e96e7dc12c277e1b550a2a5f9b67a1",
            "cdf.csv": "07a5ee1a661d1c8ff5f4463c665e67cf29d0ce3979a78ee7478ddaef2b33d660",
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_chains_exit_three(self, tmp_path, monkeypatch, capsys):
        # The largest start SymMatrix accepts (half the float maximum)
        # overflows on the first step of every chain.
        monkeypatch.setattr(cli, "scalar_study_model", lambda: SystemModel(
            A=math.sqrt(2.0), C=1.0, Q=1.0, R=1.0, P0=np.finfo(float).max / 2))
        assert cli.main(["reproduce-scalar", "--out", str(tmp_path / "s")]) == 3
        assert "non-finite" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "riccati_mdp.cli", "validate", "--config", cfg],
            capture_output=True, text=True)
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
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ("simulate", "invariant", "rate", "exponent",
                     "reproduce-scalar", "validate"):
            assert name in out
