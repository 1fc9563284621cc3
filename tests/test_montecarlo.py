import ast
import hashlib
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccati_mdp import (
    EventPredicate,
    SimulationConfig,
    SymMatrix,
    SystemModel,
    decay_exponent_fit,
    event_probability,
    exceedance_sup,
    lyapunov_step,
    prohorov_distance_scalar,
    riccati_step,
    sample_invariant,
    simulate_rre,
    solve_dare,
    spectral_norm,
    tail_bound,
)

import oracles
from riccati_mdp import montecarlo, operators
from riccati_mdp.montecarlo import (
    EmpiricalDistribution,
    _arrival_bits,
    _burn_in_drift,
    _run_chains,
    _word_threshold,
)


def test_monte_carlo_api_takes_only_these_parameters():
    # Every chain starts at its model's P0, the tail bound's kappa is the
    # model's exact N-step ceiling and the DARE tolerance is fixed, so none
    # of them is an option.
    got = {f.__name__: list(inspect.signature(f).parameters)
           for f in (SimulationConfig, simulate_rre, sample_invariant, decay_exponent_fit,
                     tail_bound, exceedance_sup, solve_dare)}
    assert got == {
        "SimulationConfig": ["gamma_bar", "n_samples", "burn_in", "horizon", "seed"],
        "simulate_rre": ["m", "cfg"],
        "sample_invariant": ["m", "cfg"],
        "decay_exponent_fit": ["m", "pred", "gamma_grid", "n_samples", "burn_in", "seed"],
        "tail_bound": ["m", "gamma_bar", "threshold"],
        "exceedance_sup": ["m", "gamma_bar", "thresholds", "horizon", "n_chains", "seed"],
        "solve_dare": ["m"],
    }


def _start_at(m, p0) -> SystemModel:
    """m with the starting covariance p0: a chain always starts at its model's P0."""
    return SystemModel(**{**m.to_dict(), "P0": p0})


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

    @pytest.mark.parametrize("name", ["n_samples", "burn_in", "horizon"])
    def test_rejects_fractional_counts(self, name):
        # numpy would fail later with a TypeError deep inside the sampler.
        with pytest.raises(ValueError, match=name):
            SimulationConfig(gamma_bar=0.5, **{name: 2.5})

    def test_seed_tuple_forms(self):
        assert SimulationConfig(gamma_bar=0.5, seed=7).seed_tuple() == (7,)
        assert SimulationConfig(gamma_bar=0.5, seed=(2, 3)).seed_tuple() == (2, 3)


class TestSimulate:
    def test_forced_all_arrivals_converges(self, scalar_model, scalar_pstar):
        # gamma_bar = 1 sets every arrival bit.
        cfg = SimulationConfig(gamma_bar=1.0, horizon=40, seed=3)
        traj = simulate_rre(scalar_model, cfg)
        assert traj.arrivals == (1,) * 40
        assert spectral_norm(traj.path[-1] - scalar_pstar) <= 1e-9

    def test_forced_no_arrivals_is_open_loop(self, scalar_model):
        # gamma_bar = 1e-12 sets a bit only for a lane of 0 (h = 0) whose tie
        # word is below ~2^32 of 2^64.
        cfg = SimulationConfig(gamma_bar=1e-12, horizon=5, seed=0)
        traj = simulate_rre(scalar_model, cfg)
        assert traj.arrivals == (0,) * 5
        x = scalar_model.P0
        for step in traj.path[1:]:
            x = lyapunov_step(scalar_model, x)
            assert step == x

    def test_forced_mixed_word(self, scalar_model):
        # Seed 0 draws the word (0, 1, 0) at gamma_bar = 0.5.
        cfg = SimulationConfig(gamma_bar=0.5, horizon=3, seed=0)
        traj = simulate_rre(scalar_model, cfg)
        x = lyapunov_step(scalar_model,
                          riccati_step(scalar_model,
                                       lyapunov_step(scalar_model, scalar_model.P0)))
        assert traj.path[-1] == x
        assert traj.arrivals == (0, 1, 0)

    def test_seeded_path_follows_its_arrivals(self, scalar_model, planar):
        # Each step is f1 where the path's own bit is set and f0 where not,
        # bit for bit; seed 4 gives both bits within 12 steps on each model.
        for model in (scalar_model, planar):
            traj = simulate_rre(model, SimulationConfig(gamma_bar=0.5, horizon=12, seed=4))
            assert len(traj) == 13 and set(traj.arrivals) == {0, 1}
            assert traj.path[0] == model.P0
            for x, bit, y in zip(traj.path, traj.arrivals, traj.path[1:]):
                assert y == (riccati_step if bit else lyapunov_step)(model, x)

    def test_open_loop_near_float_max_does_not_warn(self, scalar_model):
        # 1e307 * 2.25^3 = 1.14e308 is finite, so steps 1-3 neither overflow
        # nor warn, although (a c x)^2 is out of range on each of them; only
        # a chain that takes f1 squares it.  Step 4 overflows f0 itself.
        model = SystemModel(**{**scalar_model.to_dict(), "A": 1.5, "P0": 1e307})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = simulate_rre(model, SimulationConfig(gamma_bar=1e-9, horizon=3, seed=0))
        assert traj.arrivals == (0, 0, 0)
        assert [x.item() for x in traj.path] == pytest.approx(
            [1e307 * 2.25**t for t in range(4)], rel=1e-12)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(RuntimeError, match="non-finite at step 4"):
                simulate_rre(model, SimulationConfig(gamma_bar=1e-9, horizon=4, seed=0))

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
        cfg = SimulationConfig(gamma_bar=0.5, horizon=2, seed=4)
        traj = simulate_rre(_start_at(scalar_model, 9.0), cfg)
        assert traj.path[0].item() == 9.0
        x = 9.0
        for bit, p in zip(traj.arrivals, traj.path[1:]):
            x = (oracles.f1_scalar if bit else oracles.f0_scalar)(x)
            assert p.item() == pytest.approx(x, rel=1e-12)


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
        from riccati_mdp import loewner_leq
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


# (n, steps) shapes of 75 300 and 140 007 lanes: each crosses a draw chunk,
# and neither fills its last word.
_LANE_SHAPES = ((300, 251), (20_001, 7))


class TestArrivalStreams:
    def test_chunked_draw_matches_one_block(self, monkeypatch):
        # 256 gamma_bar = 140.5, so half the ties arrive; the bits must not
        # depend on the chunk size, down to one word per chunk.
        gamma = 140.5 / 256
        want = oracles.lane_arrival_bits((11, 2), gamma, 20_001, 7)
        for chunk in (8, 24, 1000, montecarlo._DRAW_CHUNK):
            monkeypatch.setattr(montecarlo, "_DRAW_CHUNK", chunk)
            assert np.array_equal(_arrival_bits((11, 2), gamma, 20_001, 7), want)

    @pytest.mark.parametrize("gamma", [
        0.5, 0.75, 1.0, 1e-9, 1.0 - 2.0**-53,
        float(np.nextafter(0.6, 0.0)), float(np.nextafter(0.6, 1.0)), (140 + 2.0**-20) / 256])
    def test_raw_word_threshold_equals_uniforms(self, gamma):
        # The package's lanes and thresholded tie words against the oracle's
        # shifted lanes and exact-fraction tie uniforms: at 0.5 and 0.75
        # (256 gamma_bar an integer) a tie never arrives, 1e-9 arrives only
        # through ties (h = 0), 1 - 2^-53 nearly always does on a tie, and
        # (140 + 2^-20) / 256 sits just above the integer 140.
        for n, steps in _LANE_SHAPES:
            assert np.array_equal(_arrival_bits((4, 1), gamma, n, steps),
                                  oracles.lane_arrival_bits((4, 1), gamma, n, steps))

    def test_words_read_are_one_per_eight_lanes_and_one_per_tie(self, monkeypatch):
        # After the draw each stream's next word is the one just past
        # ceil(n steps / 8) block words and past one tie word per tie, a lane
        # equal to h = floor(0.6 * 256) = 153.
        streams = {}

        def recording(seed_tuple, *purpose):
            streams[purpose] = operators._stream(seed_tuple, *purpose)
            return streams[purpose]

        monkeypatch.setattr(montecarlo, "_stream", recording)
        n, steps = _LANE_SHAPES[0]
        _arrival_bits((8, 3), 0.6, n, steps)
        n_words = -(-n * steps // 8)
        n_ties = oracles.arrival_lanes((8, 3), n * steps).count(153)
        assert set(streams) == {(), (operators._TIES,)} and n_ties > 0
        block = oracles.philox_stream((8, 3)).bit_generator.random_raw(n_words + 1)
        ties = oracles.philox_stream((8, 3), oracles.TIE_PURPOSE).bit_generator.random_raw(
            n_ties + 1)
        assert streams[()].bit_generator.random_raw() == block[-1]
        assert streams[(operators._TIES,)].bit_generator.random_raw() == ties[-1]

    @pytest.mark.parametrize("gamma", [1e-3, 0.1, 140.5 / 256, 0.6, 0.95, 0.999])
    def test_arrival_frequency_is_gamma(self, gamma):
        # 10^6 bits at a fixed seed, within 4 binomial standard errors; below
        # 1/256 every arrival comes through a tie.
        bits = _arrival_bits((5,), gamma, 1000, 1000)
        assert abs(bits.mean() - gamma) <= 4.0 * math.sqrt(gamma * (1.0 - gamma) / bits.size)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_word_threshold_is_exact(self, gamma):
        # Words below T are exactly those whose uniform (w >> 11) * 2^-53
        # lies below gamma: the top 53 bits of T - 1 map under it, of T not.
        t = _word_threshold(gamma)
        assert t % 2**11 == 0 and 0 < t < 2**64
        j = t >> 11
        assert (j - 1) * 2.0**-53 < gamma <= j * 2.0**-53

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
            "2af67d0715a9d360dad27c733ec47afb55a57333764ea62c4a6186d65de82258")
        assert hashlib.sha256(repr((rep.sup_frequency, rep.argmax_t)).encode()).hexdigest() == (
            "e6af5780f7e0033d4151e926f2e136e0cf2ae050796377c05e0757ad94889351")

    def test_purpose_streams_share_no_words_with_chains(self):
        def first_words(*key):
            return set(operators._stream(*key).bit_generator.random_raw(4).tolist())

        # Chains read the seed tuples' own streams, their ties the _TIES
        # streams of the same tuples, and the screen one stream at seed (0,).
        seeds = [(s,) for s in range(40)] + [(s, j) for s in range(40) for j in range(40)]
        chains, ties = set(), set()
        for seed in seeds:
            chains |= first_words(seed)
            ties |= first_words(seed, operators._TIES)
        screen = first_words((0,), operators._SCREEN)
        assert not screen & chains and not screen & ties and not chains & ties

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
        # Lower arrival rate, more open-loop stretches, more escape mass.  The
        # exact hit rate is (1 - gamma_bar)^4, so with 3000 chains every point
        # expects at least 3000 * 0.3^4 = 24 hits and none is censored.
        m1 = 40.0 - scalar_pstar.item()
        pred = EventPredicate.ball_complement(m1)
        fit = decay_exponent_fit(scalar_model, pred, [0.5, 0.6, 0.7], 3000, 60, 7)
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
    @pytest.mark.parametrize("tripled_p0", [False, True])
    def test_drift_shares_gridpoint_zero_draw(self, model_name, n, tripled_p0, request):
        model = request.getfixturevalue(
            {"scalar": "scalar_model", "planar": "planar"}[model_name])
        p_star = request.getfixturevalue(
            {"scalar": "scalar_pstar", "planar": "planar_pstar"}[model_name])
        if tripled_p0:
            model = _start_at(model, model.P0 * 3.0)
        burn = 31
        cfg = SimulationConfig(gamma_bar=0.55, n_samples=n, burn_in=burn, seed=(17, 0))
        half, full = _run_chains(model, cfg)
        assert np.array_equal(full.samples, sample_invariant(model, cfg).samples)
        # The half sample is those chains stepped on the first B // 2 columns
        # of the seed's (n, B) block.
        bits = _arrival_bits((17, 0), 0.55, n, burn)
        expected = np.repeat(model.P0.a[None], n, axis=0)
        for t in range(burn // 2):
            expected = operators.step(model, expected, bits[:, t])
        assert np.array_equal(half.samples, expected)
        assert (half.burn_in, half.seed) == (burn // 2, (17, 0))

        pred = EventPredicate.ball_complement(
            {"scalar": 30.0, "planar": 15.0}[model_name])
        grid = [0.55, 0.6, 0.65]
        fit = decay_exponent_fit(model, pred, grid, n, burn, 17)
        for j, (g, dist) in enumerate(zip(grid, fit.distributions)):
            plain = sample_invariant(model, SimulationConfig(
                gamma_bar=g, n_samples=n, burn_in=burn, seed=(17, j)))
            assert np.array_equal(dist.samples, plain.samples)
            assert fit.probs[j] == event_probability(plain, pred, p_star)[0]
        p_half, _ = event_probability(half, pred, p_star)
        assert fit.burn_in_drift["p_at_half_burn_in"] == p_half
        assert fit.burn_in_drift["p_at_burn_in"] == fit.probs[0]

    def test_every_gridpoint_steps_its_chains_once(self, scalar_model, monkeypatch):
        # Every gridpoint, gridpoint 0 and its drift check included, draws
        # one (n, B) block and makes n B chain-steps.
        draws, chain_steps = [], []
        real_bits, real_step = montecarlo._arrival_bits, montecarlo.step

        def counting_bits(seed_tuple, gamma_bar, n, steps):
            draws.append((seed_tuple, n, steps))
            chain_steps.append(0)
            return real_bits(seed_tuple, gamma_bar, n, steps)

        def counting_step(m, p, bits):
            chain_steps[-1] += p.shape[0]
            return real_step(m, p, bits)

        monkeypatch.setattr(montecarlo, "_arrival_bits", counting_bits)
        monkeypatch.setattr(montecarlo, "step", counting_step)
        n, burn = 40, 7
        decay_exponent_fit(scalar_model, EventPredicate.ball_complement(1.0),
                           [0.5, 0.6, 0.7], n, burn, 3)
        assert draws == [((3, 0), n, burn), ((3, 1), n, burn), ((3, 2), n, burn)]
        assert chain_steps == [n * burn] * 3

    @pytest.mark.parametrize("burn, within", [(6, False), (100, True)])
    def test_drift_flags_a_short_burn_in(self, scalar_model, scalar_pstar, burn, within):
        # From P0 = 1e3 six steps leave gridpoint 0 far from its invariant
        # law: 0.0915 of the chains hit after 3 steps, 0.0405 after 6.
        model = _start_at(scalar_model, 1e3)
        pred = EventPredicate.ball_complement(40.0 - scalar_pstar.item())
        fit = decay_exponent_fit(model, pred, (0.55, 0.6, 0.65), 2000, burn, 1)
        assert fit.burn_in_drift["within_2se"] is within

    @pytest.mark.parametrize("p_half, within", [(0.0, True), (1.0, False)])
    def test_drift_of_degenerate_fractions(self, scalar_pstar, p_half, within):
        # Fractions of 0 and 1 have no spread, so only equal ones agree.
        pred = EventPredicate.ball_complement(20.0)
        value = scalar_pstar.item() + 100.0 * p_half
        half = EmpiricalDistribution(samples=np.full((10, 1, 1), value), gamma_bar=0.5,
                                     burn_in=2, seed=(0,))
        drift = _burn_in_drift(pred, 0.0, half, scalar_pstar)
        assert (drift["p_at_half_burn_in"], drift["combined_se"]) == (p_half, 0.0)
        assert drift["within_2se"] is within

    def test_to_dict_round_trips_to_json(self, scalar_model, scalar_pstar):
        import json
        m1 = 40.0 - scalar_pstar.item()
        pred = EventPredicate.ball_complement(m1)
        fit = decay_exponent_fit(scalar_model, pred, [0.55, 0.65, 0.75], 500, 40, 3)
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

    def test_equals_the_breakpoint_loop(self):
        # Same float operations as the loop, so the results are equal, not
        # close: continuous samples, heavy ties, samples on the target, and
        # the study's sample size.
        from riccati_mdp.montecarlo import EmpiricalDistribution
        rng = np.random.default_rng(9)
        cases = [(rng.exponential(1.0, size=int(rng.integers(1, 80))), float(rng.uniform(-1, 2)))
                 for _ in range(150)]
        cases += [(rng.integers(0, 5, size=int(rng.integers(1, 60))) / 4.0, 0.5)
                  for _ in range(100)]
        cases += [(np.full(7, 2.0), 2.0), (np.array([2.0]), 3.5),
                  (2.0 + rng.exponential(0.05, size=10_000), 2.0 + 2.0 ** 0.5)]
        for vals, target in cases:
            samples = vals.astype(float).reshape(-1, 1, 1)
            samples.flags.writeable = False
            d = EmpiricalDistribution(samples=samples, gamma_bar=0.5, burn_in=0, seed=(0,))
            assert prohorov_distance_scalar(d, target) == oracles.prohorov_breakpoint_loop(
                vals, target)

    def test_empty_sample_raises(self):
        from riccati_mdp.montecarlo import EmpiricalDistribution
        samples = np.zeros((0, 1, 1))
        samples.flags.writeable = False
        d = EmpiricalDistribution(samples=samples, gamma_bar=0.5, burn_in=0, seed=(0,))
        with pytest.raises(ValueError, match="empty"):
            prohorov_distance_scalar(d, 1.0)

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

    def test_non_finite_chains_raise(self):
        # Scored as deviations, the inf and NaN chains would give 0.75.
        from riccati_mdp.montecarlo import EmpiricalDistribution
        samples = np.array([1.0, 2.0, math.inf, math.nan]).reshape(-1, 1, 1)
        samples.flags.writeable = False
        d = EmpiricalDistribution(samples=samples, gamma_bar=0.5, burn_in=0, seed=(0,))
        assert d.non_finite == 2
        with pytest.raises(RuntimeError, match="2 of 4 chains went non-finite"):
            prohorov_distance_scalar(d, 2.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_non_finite_target_raises(self, target):
        # A NaN target would give inf, above the distance's maximum of 1.
        from riccati_mdp.montecarlo import EmpiricalDistribution
        samples = np.array([2.0, 2.0, 3.0]).reshape(-1, 1, 1)
        samples.flags.writeable = False
        d = EmpiricalDistribution(samples=samples, gamma_bar=0.5, burn_in=0, seed=(0,))
        with pytest.raises(ValueError, match="target"):
            prohorov_distance_scalar(d, target)


class TestTailBound:
    def test_scalar_known_value(self, scalar_model):
        # kappa = a^2 r / c^2 + q = 3, P0 = 1: envelope 4 * 2^k - 1 reaches 50
        # at k = 4, and with one-dimensional windows the sum collapses to
        # r^4/((1-r) r) with r = 0.3.
        tb = tail_bound(scalar_model, gamma_bar=0.7, threshold=50.0)
        assert tb.applicable and not tb.vacuous
        assert tb.k_of_m == 4
        assert tb.bound == pytest.approx(0.3 ** 4 / (0.3 * 0.7), rel=1e-9)
        assert tb.alpha == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert tb.kappa == pytest.approx(3.0, rel=1e-12)

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

    def test_validation(self, scalar_model):
        with pytest.raises(ValueError):
            tail_bound(scalar_model, 0.0, 50.0)
        with pytest.raises(ValueError):
            tail_bound(scalar_model, 1.0, 50.0)
        # An infinite threshold would report the step where the envelope
        # overflows (k_of_m 1022 here) instead of an error.
        for threshold in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="threshold"):
                tail_bound(scalar_model, 0.7, threshold)

    def test_unobservable_model_raises(self):
        # ||A|| = 2 makes the bound applicable, but the second state is never
        # seen, so no N-step ceiling exists.
        m = SystemModel(A=2.0 * np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]],
                        P0=np.eye(2))
        with pytest.raises(ValueError, match="observable"):
            tail_bound(m, 0.7, 50.0)

    def test_to_dict_serializes(self, scalar_model):
        import json
        tb = tail_bound(scalar_model, 0.7, 50.0)
        assert json.loads(json.dumps(tb.to_dict()))["k_of_m"] == 4

    @pytest.mark.parametrize("model_name, gamma", [("scalar", 1e-20), ("planar", 1e-9)])
    def test_decay_rounding_to_one_is_vacuous(self, model_name, gamma, request):
        # r = (1 - gamma^N)^(1/N) rounds to 1, so 1 / (1 - r) would divide by zero.
        model = request.getfixturevalue(
            {"scalar": "scalar_model", "planar": "planar"}[model_name])
        tb = tail_bound(model, gamma, 50.0)
        assert tb.applicable and tb.vacuous
        assert tb.bound == math.inf

    def test_envelope_near_one_is_reached(self):
        # ||A|| = 1 + 1e-7 needs about 2.6e7 open-loop steps to reach 1e9,
        # far past what a step-by-step count would try.
        m = SystemModel(A=1.0000001, C=1.0, Q=1.0, R=1.0, P0=1.0)
        tb = tail_bound(m, 0.7, 1e9)
        a2 = tb.alpha ** 2

        def envelope(k):
            return tb.kappa1 * a2**k + (a2**k - 1.0) / (a2 - 1.0)

        assert 2.6e7 < tb.k_of_m < 2.7e7
        assert envelope(tb.k_of_m - 1) < 1e9 <= envelope(tb.k_of_m)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 2), excess=st.floats(-5.0, 0.5),
           log_threshold=st.floats(-1.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_steps_match_the_envelope_loop(self, n, excess, log_threshold, seed):
        # ||A|| = 1 + 10^excess; the closed form must give the loop's count
        # wherever the loop decides within its cap.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        m = SystemModel(A=a / np.linalg.norm(a, 2) * (1.0 + 10.0**excess),
                        C=rng.standard_normal((1, n)), Q=np.eye(n) * rng.uniform(0.1, 3.0),
                        R=[[1.0]], P0=np.eye(n) * rng.uniform(0.1, 100.0))
        assume(np.linalg.norm(m.A, 2) > 1.0)
        threshold = 10.0**log_threshold
        tb = tail_bound(m, 0.7, threshold)
        loop = oracles.envelope_steps_loop(tb.kappa1, spectral_norm(m.Q), tb.alpha**2,
                                           threshold)
        assume(loop is not None)
        assert tb.k_of_m == loop


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

    @pytest.mark.parametrize("which", ["scalar", "planar"])
    def test_matches_threshold_at_a_time_scan(self, scalar_model, planar, which):
        # Thresholds hit by every chain at step 0, by some chains later, and
        # by none, so both tie rules (first step, step 0) are exercised.
        m = scalar_model if which == "scalar" else planar
        thresholds = (0.0, 7.0, 15.0, 30.0, 1e9)
        rep = exceedance_sup(m, 0.5, thresholds, horizon=60, n_chains=400, seed=9)
        bits = _arrival_bits((9,), 0.5, 400, 60)
        want = oracles.exceedance_scan_loop(
            lambda p, b: oracles.step_broadcast(m, p, b), m.P0.a[None], bits, thresholds)
        assert (rep.sup_frequency, rep.argmax_t) == want
        assert 0.0 < min(rep.sup_frequency[1:-1]) and max(rep.sup_frequency[1:-1]) < 1.0

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


# A start of the wrong shape for the planar model, which the model itself
# rejects, and a symmetric 2x2 with eigenvalues -3 and 5, which each entry
# point rejects before it steps.
_BAD_P0 = {"1x1": SymMatrix(2.0), "non-PSD": SymMatrix([[1.0, 4.0], [4.0, 1.0]])}


class TestStartingCovarianceChecked:
    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_sample_invariant(self, planar, bad):
        cfg = SimulationConfig(gamma_bar=0.7, n_samples=10, burn_in=5)
        with pytest.raises(ValueError, match="P0"):
            sample_invariant(_start_at(planar, _BAD_P0[bad]), cfg)

    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_simulate_rre(self, planar, bad):
        cfg = SimulationConfig(gamma_bar=0.7, horizon=5)
        with pytest.raises(ValueError, match="P0"):
            simulate_rre(_start_at(planar, _BAD_P0[bad]), cfg)

    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_exceedance_sup(self, planar, bad):
        with pytest.raises(ValueError, match="P0"):
            exceedance_sup(_start_at(planar, _BAD_P0[bad]), 0.7, [20.0], horizon=5,
                           n_chains=10, seed=1)

    @pytest.mark.parametrize("bad", sorted(_BAD_P0))
    def test_tail_bound(self, planar, bad):
        # The start is checked before the N-step ceiling is computed.
        with pytest.raises(ValueError, match="P0"):
            tail_bound(_start_at(planar, _BAD_P0[bad]), 0.7, 20.0)
