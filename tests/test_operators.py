import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_mdp import (
    GammaString,
    SystemModel,
    SymMatrix,
    eval_string,
    loewner_leq,
    lyapunov_step,
    random_psd,
    riccati_step,
    solve_dare,
    spectral_norm,
    uniform_bound_kappa,
    validate_system,
)
from riccati_mdp.models import planar_model, scalar_study_model
from riccati_mdp.operators import step

import oracles


def _models():
    return [scalar_study_model(), planar_model()]


def _f1_power(m, x, t):
    """f1^t(X): the value of the word of t ones."""
    return eval_string(m, GammaString((1,) * t, x)).value


class TestSteps:
    def test_scalar_open_loop_closed_form(self, scalar_model):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = float(rng.uniform(0.0, 100.0))
            got = lyapunov_step(scalar_model, SymMatrix(x)).item()
            assert got == pytest.approx(oracles.f0_scalar(x), rel=1e-12)

    def test_scalar_measurement_closed_form(self, scalar_model):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = float(rng.uniform(0.0, 100.0))
            got = riccati_step(scalar_model, SymMatrix(x)).item()
            assert got == pytest.approx(oracles.f1_scalar(x), rel=1e-12)

    def test_rejects_indefinite_input(self, scalar_model):
        with pytest.raises(ValueError):
            riccati_step(scalar_model, SymMatrix(-1.0))
        with pytest.raises(ValueError):
            lyapunov_step(scalar_model, SymMatrix(-1.0))

    def test_dimension_mismatch(self, planar):
        with pytest.raises(ValueError):
            riccati_step(planar, SymMatrix.identity(3))

    def test_planar_step_is_symmetric_psd(self, planar):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = random_psd(rng, 2, scale=float(10.0 ** rng.uniform(0, 3)))
            y = riccati_step(planar, x)
            assert np.array_equal(y.a, y.a.T)
            assert np.linalg.eigvalsh(y.a).min() >= -1e-9 * (1 + spectral_norm(y))


def _random_model(rng, n, outputs):
    """Admissible-shaped model with PD noise; stability is not required."""
    g, h = rng.standard_normal((n, n)), rng.standard_normal((outputs, outputs))
    return SystemModel(A=rng.standard_normal((n, n)) * rng.uniform(0.3, 1.5),
                       C=rng.standard_normal((outputs, n)),
                       Q=g @ g.T + 0.1 * np.eye(n), R=h @ h.T + 0.5 * np.eye(outputs),
                       P0=np.eye(n))


class TestBatchedKernel:
    """operators.step against the oracle maps and the single-matrix steps.

    Output dimension 1 takes the rank-one branch (and the closed forms at
    N = 1); output dimension 2 takes the solve branch.  Errors are measured
    against the size of f0(P), which bounds the cancellation in f1.
    """

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), outputs=st.integers(1, 2),
           k=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle_and_single_matrix_steps(self, n, outputs, k, seed):
        rng = np.random.default_rng(seed)
        m = _random_model(rng, n, outputs)
        stack = np.stack([random_psd(rng, n, float(10.0 ** rng.uniform(-2, 3))).a
                          for _ in range(k)])
        bits = rng.random(k) < 0.5
        got = step(m, stack, bits)

        f0, f1 = oracles.make_batched_maps(m.A, m.C, m.Q.a, m.R.a)
        open_loop = f0(stack)
        want = np.where(bits[:, None, None], f1(stack), open_loop)
        scale = 1.0 + np.abs(open_loop).max(axis=(1, 2))
        assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-10 * scale)
        assert np.array_equal(got, np.transpose(got, (0, 2, 1)))

        for p, b, g, s in zip(stack, bits, got, scale):
            single = (riccati_step if b else lyapunov_step)(m, SymMatrix(p))
            assert np.abs(single.a - g).max() <= 1e-10 * s


class TestFlatKernel:
    """operators.step equals the broadcast kernel it replaced, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3), outputs=st.integers(1, 2),
           k=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_equals_broadcast_kernel(self, n, outputs, k, seed):
        rng = np.random.default_rng(seed)
        m = _random_model(rng, n, outputs)
        stack = np.stack([random_psd(rng, n, float(10.0 ** rng.uniform(-3, 4))).a
                          for _ in range(k)])
        # Three steps, so the kernel also runs on its own outputs.
        for _ in range(3):
            bits = rng.random(k) < rng.uniform()
            got = step(m, stack, bits)
            assert np.array_equal(got, oracles.step_broadcast(m, stack, bits))
            stack = got

    # Fixed cases past the drawn ranges: N = 4, and long chains of large
    # stacks.  A random C (unlike the planar model's [1, 0]) exposes any
    # change in how the products with c are accumulated.
    @pytest.mark.parametrize("n, outputs, k, steps", [
        (4, 1, 300, 3), (4, 2, 300, 3), (2, 1, 2000, 20), (3, 1, 2000, 20),
        (2, 2, 2000, 20), (3, 2, 2000, 20)])
    def test_fixed_cases(self, n, outputs, k, steps):
        rng = np.random.default_rng(1000 * n + 100 * outputs + steps)
        m = _random_model(rng, n, outputs)
        g = rng.standard_normal((k, n, n))
        stack = g @ np.transpose(g, (0, 2, 1)) * 10.0 ** rng.uniform(-3, 4, (k, 1, 1))
        stack = (stack + np.transpose(stack, (0, 2, 1))) / 2.0
        for _ in range(steps):
            bits = rng.random(k) < 0.5
            got = step(m, stack, bits)
            assert np.array_equal(got, oracles.step_broadcast(m, stack, bits))
            stack = got


class TestPowerProperty:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), outputs=st.integers(1, 2),
           t=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_repeated_oracle_f1(self, n, outputs, t, seed):
        rng = np.random.default_rng(seed)
        m = _random_model(rng, n, outputs)
        x = random_psd(rng, n, float(10.0 ** rng.uniform(-2, 3)))
        f0, f1 = oracles.make_batched_maps(m.A, m.C, m.Q.a, m.R.a)
        # Relative to the largest f0 image on the way, which bounds the
        # cancellation in f1 (the worst of 4 000 random draws was 2e-13).
        want, scale = x.a[None], np.abs(x.a).max()
        for _ in range(t):
            scale = max(scale, np.abs(f0(want)).max())
            want = f1(want)
        got = _f1_power(m, x, t).a
        assert np.abs(got - want[0]).max() <= 1e-12 * scale


class TestDare:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unobservable_model_is_a_numeric_failure(self):
        # The first state is unstable and unobserved, so f1^k(Q) grows as 4^k.
        m = SystemModel(A=np.diag([2.0, 1.0]), C=[[0.0, 1.0]],
                        Q=np.eye(2), R=1.0, P0=np.eye(2))
        assert not validate_system(m).passed
        with pytest.raises(RuntimeError, match="non-finite"):
            solve_dare(m)

    def test_scalar_fixed_point_value(self, scalar_pstar):
        assert scalar_pstar.item() == pytest.approx(oracles.P_STAR_SCALAR, abs=1e-11)

    def test_residual_and_iterations(self, scalar_model):
        sol = solve_dare(scalar_model)
        assert sol.residual <= 1e-10 * (1.0 + spectral_norm(sol.p_star))
        assert 0 < sol.iterations < 1000

    def test_stable_scalar_against_bisection(self):
        from riccati_mdp import SystemModel
        m = SystemModel(A=0.5, C=1.0, Q=1.0, R=1.0, P0=1.0)
        got = solve_dare(m).p_star.item()
        ref = oracles.dare_fixed_point_scalar_bisect(0.5, 1.0, 1.0, 1.0)
        assert got == pytest.approx(ref, abs=1e-9)
        # Same point in closed form: positive root of p^2 - 0.25 p - 1 = 0.
        assert got == pytest.approx((0.25 + math.sqrt(0.25 ** 2 + 4.0)) / 2.0, abs=1e-11)

    def test_planar_fixed_point(self, planar, planar_pstar):
        stepped = riccati_step(planar, planar_pstar)
        assert spectral_norm(stepped - planar_pstar) <= 1e-10 * (1 + spectral_norm(planar_pstar))
        assert np.linalg.eigvalsh(planar_pstar.a).min() > 0.0

    def test_deterministic(self, planar):
        a = solve_dare(planar)
        b = solve_dare(planar)
        assert a.p_star == b.p_star and a.iterations == b.iterations

    def test_equals_unscreened_solve(self):
        # The stop test decided from entry bounds changes no bit of the
        # fixed point, the iteration count or the residual.
        models = _models()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n, outputs = 1 + seed % 3, 1 + seed // 3 % 2
            g, h = rng.standard_normal((n, n)), rng.standard_normal((outputs, outputs))
            models.append(SystemModel(
                A=rng.standard_normal((n, n)) * rng.uniform(0.3, 1.5),
                C=rng.standard_normal((outputs, n)), Q=g @ g.T + 0.1 * np.eye(n),
                R=h @ h.T + 0.5 * np.eye(outputs), P0=np.eye(n)))
        for m in models:
            if validate_system(m).passed:
                sol = solve_dare(m)
                p_star, iterations, residual = oracles.solve_dare_unscreened(m)
                assert np.array_equal(sol.p_star.a, p_star)
                assert (sol.iterations, sol.residual) == (iterations, residual)


class TestOrderProperties:
    """Monotonicity and domination of the two update maps on random inputs."""

    @pytest.mark.parametrize("model", _models(), ids=["scalar", "planar"])
    def test_monotone_and_dominated(self, model):
        rng = np.random.default_rng(11)
        n = model.dim_state
        for _ in range(500):
            x = random_psd(rng, n, scale=float(10.0 ** rng.uniform(-1, 3)))
            w = random_psd(rng, n, scale=float(10.0 ** rng.uniform(-1, 2)))
            y = x + w
            assert loewner_leq(riccati_step(model, x), riccati_step(model, y))
            assert loewner_leq(lyapunov_step(model, x), lyapunov_step(model, y))
            assert loewner_leq(riccati_step(model, x), lyapunov_step(model, x))

    @pytest.mark.parametrize("model", _models(), ids=["scalar", "planar"])
    def test_concavity_along_segments(self, model):
        # The measurement update is concave on PSD matrices:
        # f1((x+y)/2) >= (f1(x)+f1(y))/2.
        rng = np.random.default_rng(13)
        n = model.dim_state
        for _ in range(200):
            x = random_psd(rng, n, scale=float(10.0 ** rng.uniform(-1, 2)))
            y = random_psd(rng, n, scale=float(10.0 ** rng.uniform(-1, 2)))
            mid = (x + y) * 0.5
            avg = (riccati_step(model, x) + riccati_step(model, y)) * 0.5
            assert loewner_leq(avg, riccati_step(model, mid))


class TestContraction:
    def test_scalar_one_step_ratio_near_fixed_point(self, scalar_model, scalar_pstar):
        # |f1'(p*)| = 3 - 2 sqrt(2) ~ 0.172; at distance < 0.5 the worst
        # observed one-step ratio is ~0.38, so 0.45 leaves real margin.
        rng = np.random.default_rng(2)
        ps = scalar_pstar.item()
        for _ in range(100):
            x = ps + float(rng.uniform(-0.5, 0.5))
            if x < 0:
                continue
            d0 = abs(x - ps)
            if d0 < 1e-12:
                continue
            d1 = abs(riccati_step(scalar_model, SymMatrix(x)).item() - ps)
            assert d1 <= 0.45 * d0

    @pytest.mark.parametrize("model", _models(), ids=["scalar", "planar"])
    def test_iterates_converge_from_random_starts(self, model):
        ps = solve_dare(model).p_star
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = random_psd(rng, model.dim_state, scale=float(10.0 ** rng.uniform(0, 3)))
            d0 = spectral_norm(x - ps)
            cur = _f1_power(model, x, 40)
            assert spectral_norm(cur - ps) <= 1e-9 * (1.0 + d0)


class TestUniformBound:
    @pytest.mark.parametrize("model", _models(), ids=["scalar", "planar"])
    def test_kappa_bounds_the_n_step_map(self, model):
        # The guarantee is N-step (N = state dimension): one measurement per
        # state coordinate.  One step is not enough for the planar model,
        # where f1 along ker(C) directions is unbounded.
        kappa = uniform_bound_kappa(model)
        assert math.isfinite(kappa) and kappa > 0.0
        n = model.dim_state
        rng = np.random.default_rng(23)
        bound = SymMatrix.identity(n) * kappa
        for _ in range(200):
            x = random_psd(rng, n, scale=float(10.0 ** rng.uniform(0, 6)))
            assert loewner_leq(_f1_power(model, x, n), bound)
        for s in (1e5, 1e8, 1e12):
            probe = SymMatrix.identity(n) * s
            assert loewner_leq(_f1_power(model, probe, n), bound)

    def test_planar_one_step_has_no_uniform_bound(self, planar):
        # Concrete witness: X = s * e2 e2^T lies in ker(C), so the update
        # applies no correction and f1(X) = s * (A e2)(A e2)^T + Q.
        e2 = np.array([[0.0, 0.0], [0.0, 1.0]])
        norms = [spectral_norm(riccati_step(planar, SymMatrix(s * e2)))
                 for s in (1e2, 1e4, 1e6)]
        assert norms[2] > 1e2 * norms[1] * 0.5
        ae2 = planar.A @ np.array([0.0, 1.0])
        growth = float(ae2 @ ae2)
        assert norms[2] / 1e6 == pytest.approx(growth, rel=1e-3)

    def test_deterministic(self, scalar_model):
        # Past the per-model cache, so the calibration itself runs twice.
        calibrate = uniform_bound_kappa.__wrapped__
        assert calibrate(scalar_model) == calibrate(scalar_model)


class TestRandomPsd:
    def test_outputs_are_psd_and_vary(self):
        rng = np.random.default_rng(0)
        vals = [random_psd(rng, 1).item() for _ in range(10)]
        assert len(set(vals)) > 1
        assert all(v >= 0.0 for v in vals)
        for _ in range(50):
            x = random_psd(rng, 3, scale=2.0)
            assert np.linalg.eigvalsh(x.a).min() >= 0.0
