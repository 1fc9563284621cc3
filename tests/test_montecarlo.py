import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riccati_mdp import (
    EventPredicate,
    SimulationConfig,
    SymMatrix,
    decay_exponent_fit,
    event_probability,
    exceedance_sup,
    lyapunov_step,
    prohorov_distance_scalar,
    riccati_step,
    sample_invariant,
    simulate_rre,
    spectral_norm,
    tail_bound,
)

import oracles
from riccati_mdp import operators
from riccati_mdp.models import planar_model
from riccati_mdp.montecarlo import (
    _arrival_bits,
    _sample_with_doubled_burn_in,
    _word_threshold,
)


class TestSimulationConfig:
    def test_rejects_bad_gamma(self):
        for g in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                SimulationConfig(gamma_bar=g)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            SimulationConfig(gamma_bar=0.5, n_samples=0)
        with pytest.raises(ValueError):
            SimulationConfig(gamma_bar=0.5, burn_in=-1)
        with pytest.raises(ValueError):
            SimulationConfig(gamma_bar=0.5, horizon=-2)

    def test_seed_tuple_forms(self):
        assert SimulationConfig(gamma_bar=0.5, seed=7).seed_tuple() == (7,)
        assert SimulationConfig(gamma_bar=0.5, seed=(2, 3)).seed_tuple() == (2, 3)


class TestSimulate:
    def test_forced_all_arrivals_converges(self, scalar_model, scalar_pstar):
        cfg = SimulationConfig(gamma_bar=0.5, horizon=40)
        traj = simulate_rre(scalar_model, cfg, arrivals=[1] * 40)
        final = traj.path[-1]
        assert spectral_norm(final - scalar_pstar) <= 1e-9

    def test_forced_no_arrivals_is_open_loop(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.5, horizon=5)
        traj = simulate_rre(scalar_model, cfg, arrivals=[0] * 5)
        x = scalar_model.P0
        for step in traj.path[1:]:
            x = lyapunov_step(scalar_model, x)
            assert step == x

    def test_forced_mixed_word(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.5, horizon=3)
        traj = simulate_rre(scalar_model, cfg, arrivals=[0, 1, 0])
        x = lyapunov_step(scalar_model,
                          riccati_step(scalar_model,
                                       lyapunov_step(scalar_model, scalar_model.P0)))
        assert traj.path[-1] == x
        assert traj.arrivals == (0, 1, 0)

    def test_forced_arrivals_validated(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.5, horizon=3)
        with pytest.raises(ValueError):
            simulate_rre(scalar_model, cfg, arrivals=[0, 1])
        with pytest.raises(ValueError):
            simulate_rre(scalar_model, cfg, arrivals=[0, 1, 2])

    def test_seeded_runs_repeat(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.6, horizon=30, seed=12)
        a = simulate_rre(scalar_model, cfg)
        b = simulate_rre(scalar_model, cfg)
        assert a.path == b.path and a.arrivals == b.arrivals

    def test_arrival_frequency_tracks_gamma(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.8, horizon=4000, seed=1)
        traj = simulate_rre(scalar_model, cfg)
        freq = sum(traj.arrivals) / len(traj.arrivals)
        assert freq == pytest.approx(0.8, abs=0.03)

    def test_custom_start(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.5, horizon=1, p0=SymMatrix(9.0))
        traj = simulate_rre(scalar_model, cfg, arrivals=[0])
        assert traj.path[0].item() == 9.0
        assert traj.path[1].item() == pytest.approx(oracles.f0_scalar(9.0), rel=1e-12)


class TestSampleInvariant:
    def test_deterministic_across_calls(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=200, burn_in=40, seed=2)
        a = sample_invariant(scalar_model, cfg)
        b = sample_invariant(scalar_model, cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self, scalar_model):
        cfg1 = SimulationConfig(gamma_bar=0.7, n_samples=200, burn_in=40, seed=2)
        cfg2 = SimulationConfig(gamma_bar=0.7, n_samples=200, burn_in=40, seed=3)
        a = sample_invariant(scalar_model, cfg1)
        b = sample_invariant(scalar_model, cfg2)
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("model_name", ["scalar", "planar"])
    def test_samples_dominate_fixed_point(self, model_name, request):
        # Every invariant-law sample lies above P* in the semidefinite order;
        # after 100 burn-in steps the defect is far below the 1e-8 slack.
        model = request.getfixturevalue(
            {"scalar": "scalar_model", "planar": "planar"}[model_name])
        from riccati_mdp import loewner_leq, solve_dare
        ps = solve_dare(model).p_star
        cfg = SimulationConfig(gamma_bar=0.6, n_samples=500, burn_in=100, seed=5)
        d = sample_invariant(model, cfg)
        for s in d.samples:
            assert loewner_leq(ps, SymMatrix(s), tol=1e-8)

    def test_scalar_values_shape(self, scalar_model):
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=50, burn_in=10, seed=0)
        d = sample_invariant(scalar_model, cfg)
        vals = d.scalar_values()
        assert vals.shape == (50,)
        assert d.n == 50 and d.dim == 1

    def test_scalar_values_requires_dim_one(self, planar):
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=10, burn_in=5, seed=0)
        d = sample_invariant(planar, cfg)
        with pytest.raises(ValueError):
            d.scalar_values()


class TestArrivalStreams:
    def test_chunked_draw_matches_one_block(self):
        # 20 000 chains x 7 steps = 140 000 draws span three 64K draw chunks.
        key = np.random.SeedSequence((11, 2)).generate_state(2, np.uint64)
        block = np.random.Generator(np.random.Philox(key=key)).random((20_000, 7))
        assert np.array_equal(_arrival_bits((11, 2), 0.5, 20_000, 7), block < 0.5)

    @pytest.mark.parametrize("gamma", [
        0.5, 0.75, 1.0, 1e-9, 1.0 - 2.0**-53,
        float(np.nextafter(0.6, 0.0)), float(np.nextafter(0.6, 1.0))])
    def test_raw_word_threshold_equals_uniforms(self, gamma):
        # 300 chains x 250 steps = 75 000 draws cross the first 64K chunk.
        key = np.random.SeedSequence((4, 1)).generate_state(2, np.uint64)
        block = np.random.Generator(np.random.Philox(key=key)).random((300, 250))
        assert np.array_equal(_arrival_bits((4, 1), gamma, 300, 250), block < gamma)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_word_threshold_is_exact(self, gamma):
        # Words below T are exactly those whose uniform (w >> 11) * 2^-53
        # lies below gamma: the top 53 bits of T - 1 map under it, of T not.
        t = _word_threshold(gamma)
        assert t % 2**11 == 0 and 0 < t < 2**64
        j = t >> 11
        assert (j - 1) * 2.0**-53 < gamma <= j * 2.0**-53

    @pytest.mark.parametrize("n", [6, 7])
    def test_doubled_rows_are_the_reshaped_block(self, n):
        # Row i of the (n, 2B) block is rows 2i and 2i + 1 of the (2n, B) one.
        tall = _arrival_bits((8, 0), 0.6, 2 * n, 9)
        assert np.array_equal(tall.reshape(n, 18), _arrival_bits((8, 0), 0.6, n, 18))

    @pytest.mark.parametrize("model_name", ["scalar", "planar"])
    def test_chain_i_reads_row_i_whatever_the_count(self, model_name, request):
        model = request.getfixturevalue(
            {"scalar": "scalar_model", "planar": "planar"}[model_name])
        big = SimulationConfig(gamma_bar=0.7, n_samples=500, burn_in=60, seed=21)
        small = SimulationConfig(gamma_bar=0.7, n_samples=120, burn_in=60, seed=21)
        assert np.array_equal(sample_invariant(model, big).samples[:120],
                              sample_invariant(model, small).samples)

    def test_planar_chain_bytes_pinned(self, planar):
        # The study's pins in test_cli.py cover N = 1; these cover the N = 2
        # chains, through the sampler and through the exceedance scan.
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=300, burn_in=60, seed=(5, 2))
        sample = sample_invariant(planar, cfg).samples
        rep = exceedance_sup(planar, 0.7, (5.0, 20.0, 100.0), horizon=80, n_chains=400,
                             seed=(7, 1))
        assert hashlib.sha256(sample.tobytes()).hexdigest() == (
            "a543e02ef351d472202b5059468b27e00f375b2adad7a38955f5290fc519d6d9")
        assert hashlib.sha256(repr((rep.sup_frequency, rep.argmax_t)).encode()).hexdigest() == (
            "1327786fa1c6b3d50eb18c6083d7351d217bad474efae6d9137babb81690528f")

    def test_purpose_streams_share_no_words_with_chains(self):
        def first_words(*key):
            return set(operators._stream(*key).bit_generator.random_raw(4).tolist())

        chains = set()
        for s in range(40):
            chains |= first_words((s,))
            for j in range(40):
                chains |= first_words((s, j))
        for purpose in (operators._CALIBRATION, operators._SCREEN):
            assert not first_words((0,), purpose) & chains

    def test_one_function_keys_random_streams(self):
        # Every random draw of the package reads `operators._stream`.
        builders = {"default_rng", "SeedSequence", "Philox", "Generator", "RandomState"}
        found = set()
        for path in sorted(Path(operators.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call):
                        name = ast.unparse(node.func)
                        if name.startswith("np.random.") or name.split(".")[-1] in builders:
                            found.add((path.name, getattr(top, "name", None)))
        assert found == {("operators.py", "_stream")}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFinite:
    """Planar chains that never observe overflow to inf and then NaN."""

    @pytest.fixture(scope="class")
    def blown_up(self, planar):
        cfg = SimulationConfig(gamma_bar=1e-9, n_samples=50, burn_in=2000, seed=0)
        return sample_invariant(planar, cfg)

    def test_distribution_counts_non_finite_chains(self, blown_up, scalar_model):
        assert blown_up.non_finite == 50
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=50, burn_in=20, seed=0)
        assert sample_invariant(scalar_model, cfg).non_finite == 0

    def test_event_probability_raises(self, blown_up, planar_pstar):
        with pytest.raises(RuntimeError, match="50 of 50 chains went non-finite"):
            event_probability(blown_up, EventPredicate.ball_complement(1.0), planar_pstar)

    def test_decay_exponent_fit_raises(self, planar):
        with pytest.raises(RuntimeError, match="non-finite"):
            decay_exponent_fit(planar, EventPredicate.ball_complement(20.0),
                               [1e-9, 2e-9, 3e-9], 50, 2000, 0)

    def test_exceedance_sup_raises(self, planar):
        with pytest.raises(RuntimeError, match="non-finite"):
            exceedance_sup(planar, 1e-9, [20.0], horizon=2000, n_chains=50, seed=0)


class TestEventProbability:
    def test_matches_manual_count(self, scalar_model, scalar_pstar):
        cfg = SimulationConfig(gamma_bar=0.6, n_samples=400, burn_in=50, seed=9)
        d = sample_invariant(scalar_model, cfg)
        pred = EventPredicate.ball_complement(3.0)
        frac, hits = event_probability(d, pred, scalar_pstar)
        manual = sum(1 for v in d.scalar_values()
                     if abs(v - scalar_pstar.item()) >= 3.0)
        assert hits == manual
        assert frac == pytest.approx(manual / 400.0, abs=1e-15)


class TestDecayFit:
    def test_scalar_study_small_run(self, scalar_model, scalar_pstar):
        # Exact exponent is 4; a light run stays in a generous band.
        m1 = 40.0 - scalar_pstar.item()
        pred = EventPredicate.ball_complement(m1)
        fit = decay_exponent_fit(scalar_model, pred, [0.55, 0.65, 0.75], 3000, 60, 2024)
        assert fit.points_used == 3
        assert not any(fit.censored)
        assert 2.5 <= fit.slope <= 5.5
        assert fit.stderr > 0.0
        assert fit.burn_in_drift is not None and fit.burn_in_drift["within_2se"]

    def test_probs_increase_with_loss_rate(self, scalar_model, scalar_pstar):
        # Lower arrival rate, more open-loop stretches, more escape mass.
        m1 = 40.0 - scalar_pstar.item()
        pred = EventPredicate.ball_complement(m1)
        fit = decay_exponent_fit(scalar_model, pred, [0.5, 0.7, 0.9], 3000, 60, 7,
                                 check_burn_in=False)
        assert fit.probs[0] > fit.probs[1] > fit.probs[2]

    def test_all_censored_raises(self, scalar_model, scalar_pstar):
        m1 = 40.0 - scalar_pstar.item() + 2.4142
        pred = EventPredicate.ball_complement(m1)
        with pytest.raises(RuntimeError):
            decay_exponent_fit(scalar_model, pred, [0.9, 0.92, 0.94], 50, 40, 5)

    def test_grid_validation(self, scalar_model):
        pred = EventPredicate.ball_complement(1.0)
        with pytest.raises(ValueError):
            decay_exponent_fit(scalar_model, pred, [0.5, 0.6], 10, 5, 0)
        with pytest.raises(ValueError):
            decay_exponent_fit(scalar_model, pred, [0.5, 0.6, 1.0], 10, 5, 0)
        with pytest.raises(ValueError):
            decay_exponent_fit(scalar_model, pred, [0.5, 0.6, 0.6], 10, 5, 0)

    @pytest.mark.parametrize("n", [301, 300])
    @pytest.mark.parametrize("model_name", ["scalar", "planar"])
    @pytest.mark.parametrize("explicit_p0", [False, True])
    def test_drift_shares_gridpoint_zero_draw(self, model_name, n, explicit_p0, request):
        model = request.getfixturevalue(
            {"scalar": "scalar_model", "planar": "planar"}[model_name])
        p_star = request.getfixturevalue(
            {"scalar": "scalar_pstar", "planar": "planar_pstar"}[model_name])
        p0 = model.P0 * 3.0 if explicit_p0 else None
        burn = 30
        cfg = SimulationConfig(gamma_bar=0.55, n_samples=n, burn_in=burn,
                               seed=(17, 0), p0=p0)
        doubled_cfg = SimulationConfig(gamma_bar=0.55, n_samples=n, burn_in=2 * burn,
                                       seed=(17, 0), p0=p0)
        fresh, fresh_doubled = sample_invariant(model, cfg), sample_invariant(model, doubled_cfg)
        shared, doubled = _sample_with_doubled_burn_in(model, cfg)
        assert np.array_equal(shared.samples, fresh.samples)
        assert np.array_equal(doubled.samples, fresh_doubled.samples)
        assert (doubled.burn_in, doubled.seed) == (2 * burn, (17, 0))

        pred = EventPredicate.ball_complement(
            {"scalar": 30.0, "planar": 15.0}[model_name])
        grid = [0.55, 0.6, 0.65]
        fit = decay_exponent_fit(model, pred, grid, n, burn, 17, p0=p0)
        plain = decay_exponent_fit(model, pred, grid, n, burn, 17, p0=p0,
                                   check_burn_in=False)
        for a, b in zip(fit.distributions, plain.distributions):
            assert np.array_equal(a.samples, b.samples)
        assert fit.probs == plain.probs
        p2, _ = event_probability(fresh_doubled, pred, p_star)
        assert fit.burn_in_drift["p_at_doubled_burn_in"] == p2
        assert fit.burn_in_drift["p_at_burn_in"] == fit.probs[0]

    def test_to_dict_round_trips_to_json(self, scalar_model, scalar_pstar):
        import json
        m1 = 40.0 - scalar_pstar.item()
        pred = EventPredicate.ball_complement(m1)
        fit = decay_exponent_fit(scalar_model, pred, [0.55, 0.65, 0.75], 500, 40, 3,
                                 check_burn_in=False)
        parsed = json.loads(json.dumps(fit.to_dict()))
        assert parsed["slope"] == fit.slope
        assert parsed["points_used"] == 3


class TestProhorov:
    def test_matches_slow_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            vals = rng.exponential(rng.uniform(0.05, 2.0),
                                   size=int(rng.integers(1, 60)))
            target = float(rng.uniform(-1.0, 1.0))
            samples = vals.reshape(-1, 1, 1)
            samples.flags.writeable = False
            from riccati_mdp.montecarlo import EmpiricalDistribution
            d = EmpiricalDistribution(samples=samples, gamma_bar=0.5,
                                      burn_in=0, seed=(0,))
            fast = prohorov_distance_scalar(d, target)
            slow = oracles.prohorov_dirac_slow(vals, target)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_point_mass_at_target_is_zero(self):
        from riccati_mdp.montecarlo import EmpiricalDistribution
        samples = np.full((10, 1, 1), 3.0)
        samples.flags.writeable = False
        d = EmpiricalDistribution(samples=samples, gamma_bar=0.5, burn_in=0, seed=(0,))
        assert prohorov_distance_scalar(d, 3.0) == 0.0

    def test_small_case_by_hand(self):
        # Deviations {0, 0, 1}: eps = 1/3 is the first level where the
        # fraction beyond eps (one of three) drops to eps.
        from riccati_mdp.montecarlo import EmpiricalDistribution
        samples = np.array([2.0, 2.0, 3.0]).reshape(-1, 1, 1)
        samples.flags.writeable = False
        d = EmpiricalDistribution(samples=samples, gamma_bar=0.5, burn_in=0, seed=(0,))
        assert prohorov_distance_scalar(d, 2.0) == pytest.approx(1.0 / 3.0)


class TestTailBound:
    def test_scalar_known_value(self, scalar_model):
        # kappa = 6, P0 = 1: envelope 7 * 2^k - 1 reaches 50 at k = 3, and
        # with one-dimensional windows the sum collapses to r^3/((1-r) r)
        # with r = 0.3.
        tb = tail_bound(scalar_model, gamma_bar=0.7, threshold=50.0)
        assert tb.applicable and not tb.vacuous
        assert tb.k_of_m == 3
        assert tb.bound == pytest.approx(0.3 ** 3 / (0.3 * 0.7), rel=1e-9)
        assert tb.alpha == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert tb.kappa == pytest.approx(6.0, rel=1e-3)

    def test_k_grows_with_threshold(self, scalar_model):
        ks = [tail_bound(scalar_model, 0.7, thr).k_of_m for thr in (50.0, 100.0, 200.0)]
        assert ks == sorted(ks)
        assert len(set(ks)) == 3

    def test_stable_model_not_applicable(self):
        from riccati_mdp import SystemModel
        m = SystemModel(A=0.5, C=1.0, Q=1.0, R=1.0, P0=1.0)
        tb = tail_bound(m, gamma_bar=0.7, threshold=50.0)
        assert not tb.applicable
        assert tb.bound is None and tb.k_of_m is None

    def test_vacuous_flag(self, scalar_model):
        tb = tail_bound(scalar_model, gamma_bar=0.05, threshold=50.0)
        assert tb.applicable and tb.vacuous
        assert tb.bound >= 1.0

    def test_kappa_override(self, scalar_model):
        a = tail_bound(scalar_model, 0.7, 50.0, kappa=6.0)
        b = tail_bound(scalar_model, 0.7, 50.0)
        assert a.k_of_m == b.k_of_m

    def test_validation(self, scalar_model):
        with pytest.raises(ValueError):
            tail_bound(scalar_model, 0.0, 50.0)
        with pytest.raises(ValueError):
            tail_bound(scalar_model, 1.0, 50.0)
        with pytest.raises(ValueError):
            tail_bound(scalar_model, 0.7, 0.0)
        # A kappa at or below zero would shrink the bound below the
        # calibrated one (0.0116 against 0.129 here), which is unsound.
        for kappa in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa"):
                tail_bound(scalar_model, 0.7, 50.0, kappa=kappa)

    def test_kappa_calibrated_once_per_model(self, monkeypatch):
        calls = []
        n_step = operators._steps
        monkeypatch.setattr(operators, "_steps",
                            lambda *args: calls.append(args) or n_step(*args))
        model = planar_model()  # a fresh model, so no earlier call is cached
        thresholds = (20.0, 100.0, 1000.0)
        got = [tail_bound(model, 0.7, thresholds[0]).to_dict()]
        one_calibration = len(calls)
        assert one_calibration and all(args[0] is model for args in calls)
        got += [tail_bound(model, 0.7, thr).to_dict() for thr in thresholds[1:]]
        assert len(calls) == one_calibration
        kappa = operators.uniform_bound_kappa.__wrapped__(model)
        assert got == [tail_bound(model, 0.7, thr, kappa=kappa).to_dict()
                       for thr in thresholds]

    def test_to_dict_serializes(self, scalar_model):
        import json
        tb = tail_bound(scalar_model, 0.7, 50.0)
        assert json.loads(json.dumps(tb.to_dict()))["k_of_m"] == 3


class TestExceedance:
    def test_frequencies_monotone_in_threshold(self, scalar_model):
        rep = exceedance_sup(scalar_model, gamma_bar=0.6,
                             thresholds=[10.0, 50.0, 200.0],
                             horizon=200, n_chains=300, seed=6)
        assert rep.sup_frequency[0] >= rep.sup_frequency[1] >= rep.sup_frequency[2]
        assert all(0.0 <= f <= 1.0 for f in rep.sup_frequency)
        assert all(0 <= t <= 200 for t in rep.argmax_t)

    def test_deterministic(self, scalar_model):
        a = exceedance_sup(scalar_model, 0.6, [50.0], 100, 100, seed=6)
        b = exceedance_sup(scalar_model, 0.6, [50.0], 100, 100, seed=6)
        assert a.sup_frequency == b.sup_frequency

    @pytest.mark.parametrize("kwargs", [
        {"gamma_bar": 1.5}, {"gamma_bar": 0.0}, {"gamma_bar": -1.0},
        {"gamma_bar": math.nan}, {"n_chains": 0}, {"horizon": -1},
        {"thresholds": []}, {"thresholds": [50.0, math.nan]},
    ], ids=["gamma-above-one", "gamma-zero", "gamma-negative", "gamma-nan",
            "no-chains", "negative-horizon", "no-thresholds", "nan-threshold"])
    def test_rejects_bad_inputs(self, scalar_model, kwargs):
        args = {"gamma_bar": 0.6, "thresholds": [50.0], "horizon": 20,
                "n_chains": 10, "seed": 6, **kwargs}
        with pytest.raises(ValueError):
            exceedance_sup(scalar_model, **args)


# A start of the wrong shape for the planar model, and a symmetric 2x2 with
# eigenvalues -3 and 5.
_BAD_P0 = {"1x1": SymMatrix(2.0), "non-PSD": SymMatrix([[1.0, 4.0], [4.0, 1.0]])}


class TestStartingCovarianceChecked:
    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_sample_invariant(self, planar, bad):
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=10, burn_in=5, p0=_BAD_P0[bad])
        with pytest.raises(ValueError, match="P0"):
            sample_invariant(planar, cfg)

    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_simulate_rre(self, planar, bad):
        cfg = SimulationConfig(gamma_bar=0.7, horizon=5, p0=_BAD_P0[bad])
        with pytest.raises(ValueError, match="P0"):
            simulate_rre(planar, cfg)

    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_exceedance_sup(self, planar, bad):
        with pytest.raises(ValueError, match="P0"):
            exceedance_sup(planar, 0.7, [20.0], horizon=5, n_chains=10, seed=1,
                           p0=_BAD_P0[bad])

    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_tail_bound(self, planar, bad):
        with pytest.raises(ValueError, match="P0"):
            tail_bound(planar, 0.7, 20.0, p0=_BAD_P0[bad], kappa=10.0)
