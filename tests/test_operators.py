import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    tail_bound,
    uniform_bound_kappa,
    validate_system,
)
from riccati_mdp.models import planar_model, scalar_study_model
from riccati_mdp.operators import _ceiling, _random_psd_array, step

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


def _same_bits(got, want):
    """Bit for bit, -0 and +0 apart, with any NaN equal to any NaN."""
    nan = np.isnan(want)
    got_bits, want_bits = got.view(np.uint64), want.view(np.uint64)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(got_bits[~nan],
                                                                 want_bits[~nan])


_SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan,
                     1e155, 1e170, 1e185, 1e200])


class TestMaskedSelect:
    """A chain without an arrival gets exactly f0, whatever its correction holds."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 3), outputs=st.integers(1, 2), k=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_broadcast_kernel_on_special_entries(self, n, outputs, k, seed):
        rng = np.random.default_rng(seed)
        m = _random_model(rng, n, outputs)
        g = rng.standard_normal((k, n, n))
        stack = g @ np.transpose(g, (0, 2, 1)) * 10.0 ** rng.uniform(-3, 4, (k, 1, 1))
        hit = rng.random((k, n, n)) < 0.25
        stack[hit] = rng.choice(_SPECIAL, hit.sum())
        stack = np.triu(stack) + np.transpose(np.triu(stack, 1), (0, 2, 1))
        # A strided column of an (n, steps) arrival block, as the chains read it.
        block = rng.random((k, 7)) < rng.uniform()
        bits = block[:, rng.integers(7)]
        try:
            want = oracles.step_broadcast(m, stack, bits)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="singular"):
                step(m, stack, bits)
            return
        assert _same_bits(step(m, stack, bits), want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_correction_leaves_f0(self):
        # P = inf * v v^T with v = (1, -1) and A v of one sign per row: every
        # term of A P A^T is +inf, so f0 is +inf, while P c^T with c = (1, 1)
        # is inf - inf = NaN, and so are u, s and the whole correction.
        # Masking u (0 / NaN) or multiplying the correction by the bits
        # (0 * NaN) would turn f0 into NaN.
        m = SystemModel(A=[[1.0, -0.5], [0.5, -1.0]], C=[[1.0, 1.0]], Q=np.eye(2),
                        R=1.0, P0=np.eye(2))
        p = np.array([[[math.inf, -math.inf], [-math.inf, math.inf]]] * 2)
        bits = np.array([False, True])
        got = step(m, p, bits)
        assert np.all(got[0] == math.inf) and np.isnan(got[1]).all()
        assert _same_bits(got, oracles.step_broadcast(m, p, bits))


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
        assert uniform_bound_kappa(scalar_model) == uniform_bound_kappa(scalar_model)

    def test_bounds_the_n_step_map_where_probes_stop_short(self):
        # ||A|| = 1.972, and f1^2(s I) keeps growing far past s = 1e4: its
        # norm is 207.37 at s = 1e8, against lambda_max(T) = 207.48.
        m = SystemModel(A=[[0.2, 0.1], [1.0, -1.7]], C=[[-0.2, 0.4]], Q=np.eye(2),
                        R=[[1.0]], P0=np.eye(2))
        kappa = uniform_bound_kappa(m)
        for s in (1e8, 1e10):
            assert kappa >= spectral_norm(_f1_power(m, SymMatrix.identity(2) * s, 2))
        assert tail_bound(m, 0.7, 1e3).applicable

    def test_unobservable_model_raises(self):
        # The second state never reaches the output, so f1^N(s I) grows with s.
        m = SystemModel(A=2.0 * np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]],
                        P0=np.eye(2))
        with pytest.raises(ValueError, match="observable"):
            uniform_bound_kappa(m)


class TestCeiling:
    """The closed-form N-step ceiling T = lim_{s -> inf} f1^N(s I)."""

    @pytest.mark.parametrize("a, c, q, r", [(math.sqrt(2.0), 1.0, 1.0, 1.0),
                                            (0.5, 2.0, 0.3, 1.5),
                                            (-3.0, 0.1, 2.0, 0.2),
                                            (1.1, -4.0, 1e-3, 7.0)])
    def test_scalar_closed_form(self, a, c, q, r):
        m = SystemModel(A=a, C=c, Q=q, R=r, P0=1.0)
        assert _ceiling(m).item() == pytest.approx(a * a * r / (c * c) + q, rel=1e-12)

    def test_planar_entries(self, planar):
        np.testing.assert_allclose(_ceiling(planar), [[6.8116, 5.45856], [5.45856, 7.276096]],
                                   rtol=1e-12)
        assert uniform_bound_kappa(planar) == pytest.approx(12.50735, rel=1e-6)

    @pytest.mark.parametrize("model", _models(), ids=["scalar", "planar"])
    def test_is_the_limit_of_the_n_step_map(self, model):
        # T - f1^N(s I) shrinks like 1/s: on planar it is 1.1e-5 * ||T|| at
        # s = 1e6 and 1.1e-7 * ||T|| at s = 1e8, hence rtol 2e-7 there.
        n = model.dim_state
        got = _f1_power(model, SymMatrix.identity(n) * 1e8, n).a
        np.testing.assert_allclose(got, _ceiling(model), rtol=2e-7)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 3), outputs=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_bounds_the_n_step_map(self, n, outputs, seed):
        rng = np.random.default_rng(seed)
        m = _random_model(rng, n, outputs)
        assume(validate_system(m).passed)
        t = _ceiling(m)
        xs = _random_psd_array(rng, n, 10.0 ** rng.uniform(-2.0, 6.0, 500))
        for _ in range(n):
            xs = step(m, xs, np.ones(len(xs), dtype=bool))
        # The slack covers rounding in the kernel's cancelling f1 and in T's
        # solves against a badly conditioned O^T S^-1 O; the worst gap seen
        # over 3 000 random models x 500 X was 4.1e-10 * (1 + ||T||).
        gap = np.linalg.eigvalsh(t - xs).min()
        assert gap >= -1e-8 * (1.0 + spectral_norm(SymMatrix(t)))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: the scalar f1 computes a^2 x + q - (a c x)^2 / (c^2 x + r), "
        "which cancels two large terms and rises above T = 3 near x = 1e10"))
    def test_scalar_kernel_stays_below_ceiling_at_large_states(self, scalar_model):
        # This is why the property above stops at scale 1e6.  Today the peak
        # over [1e10, 2e10] is 3.0000153.
        t = _ceiling(scalar_model).item()
        xs = np.linspace(1e10, 2e10, 100_001)[:, None, None]
        got = step(scalar_model, xs, np.ones(len(xs), dtype=bool))
        assert got.max() <= t + 1e-8 * (1.0 + t)


class TestRandomPsd:
    def test_outputs_are_psd_and_vary(self):
        rng = np.random.default_rng(0)
        vals = [random_psd(rng, 1).item() for _ in range(10)]
        assert len(set(vals)) > 1
        assert all(v >= 0.0 for v in vals)
        for _ in range(50):
            x = random_psd(rng, 3, scale=2.0)
            assert np.linalg.eigvalsh(x.a).min() >= 0.0

    @pytest.mark.parametrize("scale", [-3.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_scale(self, scale):
        # Scale -3.0 would give a negative-definite draw (eigenvalues -0.648
        # and -0.033 from seed 0).
        with pytest.raises(ValueError, match="scale"):
            random_psd(np.random.default_rng(0), 2, scale)

    def test_zero_scale_is_the_zero_matrix(self):
        assert random_psd(np.random.default_rng(0), 2, 0.0) == SymMatrix.zeros(2)

    def test_draws_pinned(self):
        # The scale check moves no bit of a draw at a valid scale.
        rng = np.random.default_rng(5)
        draws = [random_psd(rng, n, float(10.0 ** rng.uniform(-2, 3))).a
                 for n in (1, 2, 3, 4) for _ in range(50)]
        digest = hashlib.sha256(np.concatenate([d.ravel() for d in draws]).tobytes())
        assert digest.hexdigest() == (
            "709d6b134f761e3d510396291825e477496045ee6d701439465797e75b5bc1c1")
