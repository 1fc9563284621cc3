import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccati_mdp import (
    Atom,
    EventPredicate,
    FiniteDimDistribution,
    GammaString,
    SymMatrix,
    SystemModel,
    finite_dim_exact,
    iota,
    iota_plus,
    is_class_A,
    loewner_leq,
    lyapunov_step,
    poly_probability,
    rate_over_set,
    riccati_step,
    solve_dare,
    spectral_norm,
    validate_system,
)

import oracles
from riccati_mdp import rate
from riccati_mdp.operators import _entry
from riccati_mdp.rate import DEFAULT_K_CAP

SQRT2 = oracles.SQRT2

# Distances of the open-loop orbit from the scalar fixed point:
# ||f0^k(p*) - p*|| = (2^k - 1)(2 + sqrt(2)).
ORBIT_DIST = [(2.0 ** k - 1.0) * (2.0 + SQRT2) for k in range(8)]


class TestEventPredicate:
    def test_ball_complement_matches(self, scalar_model, scalar_pstar):
        pred = EventPredicate.ball_complement(3.0)
        assert not pred.matches(scalar_pstar, scalar_pstar)
        far = SymMatrix(scalar_pstar.item() + 3.0)
        assert pred.matches(far, scalar_pstar)
        near = SymMatrix(scalar_pstar.item() + 2.999)
        assert not pred.matches(near, scalar_pstar)

    def test_open_variant_is_strict(self):
        # Exact-float boundary: center 2, point 5, radius 3.
        center = SymMatrix(2.0)
        closed = EventPredicate.ball_complement(3.0, center=center)
        opened = EventPredicate.ball_complement(3.0, center=center, open_=True)
        boundary = SymMatrix(5.0)
        assert closed.matches(boundary)
        assert not opened.matches(boundary)
        assert opened.matches(SymMatrix(5.0 + 1e-9))

    def test_explicit_center(self):
        pred = EventPredicate.ball_complement(1.0, center=SymMatrix(10.0))
        assert pred.matches(SymMatrix(11.0))
        assert not pred.matches(SymMatrix(10.5))

    def test_norm_above(self):
        pred = EventPredicate.norm_above(5.0)
        assert pred.matches(SymMatrix(5.5))
        assert not pred.matches(SymMatrix(5.0))
        assert pred.matches(SymMatrix(np.diag([1.0, 6.0])))

    def test_custom(self):
        pred = EventPredicate.custom(lambda x: x.a.trace() > 4.0)
        assert pred.matches(SymMatrix(np.diag([2.0, 2.5])))
        assert not pred.matches(SymMatrix.identity(2))

    def test_spec_round_trip(self):
        for text in ("ballc:2.5", "ballc-open:0.125", "norm-above:40"):
            pred = EventPredicate.from_spec(text)
            again = EventPredicate.from_spec(pred.to_spec())
            assert again.kind == pred.kind
            assert again.threshold == pred.threshold

    def test_from_spec_rejects_garbage(self):
        for bad in ("ballc", "ballc:-1", "ballc:0", "norm-above:xyz", "frobnicate:3"):
            with pytest.raises(ValueError):
                EventPredicate.from_spec(bad)

    # `matches` is `batch` on a batch of one, so both are checked against
    # distances from the oracle's own norm.
    def test_batch_agrees_with_matches(self, scalar_pstar):
        pred = EventPredicate.ball_complement(3.0)
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.0, 10.0, size=200).reshape(-1, 1, 1)
        flags = pred.batch(vals, scalar_pstar)
        want = oracles.spectral_norms(vals - scalar_pstar.a) >= 3.0
        assert np.array_equal(flags, want)
        for v, f in zip(vals, want):
            assert f == pred.matches(SymMatrix(v), scalar_pstar)

    def test_batch_matrix_values(self, planar_pstar):
        pred = EventPredicate.ball_complement(2.0)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((100, 2, 2))
        vals = g @ np.swapaxes(g, -1, -2)
        flags = pred.batch(vals, planar_pstar)
        want = oracles.spectral_norms(vals - planar_pstar.a) >= 2.0
        assert np.array_equal(flags, want)
        for v, f in zip(vals, want):
            assert f == pred.matches(SymMatrix(v), planar_pstar)

    @pytest.mark.parametrize("spec", ["norm-above:1", "ballc:1", "ballc-open:1"])
    def test_non_finite_matrix_raises(self, spec):
        # A NaN on the diagonal once gave a finite norm (0.0 and sqrt(2)),
        # so norm-above:1 scored the first stack as a miss.
        pred = EventPredicate.from_spec(spec)
        center = SymMatrix.identity(2)
        for bad in ([[math.nan, 0.0], [0.0, 2.0]], [[math.nan, 1.0], [1.0, 2.0]]):
            with pytest.raises(RuntimeError, match="non-finite"):
                pred.batch(np.array([np.eye(2), bad]), center)

    def test_custom_spec_is_opaque_label(self):
        # Custom predicates serialize as a bare label; they cannot round-trip.
        assert EventPredicate.custom(lambda x: True).to_spec() == "custom"
        with pytest.raises(ValueError):
            EventPredicate.from_spec("custom")


class TestIota:
    def test_orbit_landmarks(self, scalar_model):
        eps = 1e-9
        for k in (1, 2, 3, 4):
            assert iota(scalar_model, ORBIT_DIST[k] - eps) == k
            assert iota(scalar_model, ORBIT_DIST[k] + eps) == k + 1
            assert iota_plus(scalar_model, ORBIT_DIST[k] - eps) == k
            assert iota_plus(scalar_model, ORBIT_DIST[k] + eps) == k + 1

    def test_study_radius_gives_four(self, scalar_model, scalar_pstar):
        m1 = 40.0 - scalar_pstar.item()
        assert iota(scalar_model, m1) == 4
        assert iota_plus(scalar_model, m1) == 4

    def test_adjacency_property(self, scalar_model, planar):
        rng = np.random.default_rng(6)
        for model in (scalar_model, planar):
            for _ in range(250):
                radius = float(10.0 ** rng.uniform(-1.0, 3.0))
                lo = iota(model, radius, cap=60)
                hi = iota_plus(model, radius, cap=60)
                assert lo <= hi <= lo + 1

    def test_cap_returns_inf(self, scalar_model):
        assert iota(scalar_model, 1e6, cap=3) == math.inf

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_orbit_overflow_is_a_numeric_failure(self, scalar_model, planar):
        # Both orbits overflow (near step 2 000 and 1 900) before any
        # distance reaches 1.7e308.
        for model in (scalar_model, planar):
            with pytest.raises(RuntimeError, match="non-finite"):
                iota(model, 1.7e308, cap=3000)

    def test_rejects_bad_radius(self, scalar_model):
        with pytest.raises(ValueError):
            iota(scalar_model, 0.0)
        with pytest.raises(ValueError):
            iota_plus(scalar_model, -1.0)


class TestClassA:
    def test_scalar_is_analytic_yes(self, scalar_model):
        report = is_class_A(scalar_model)
        assert report.passed and report.scalar_proof
        assert report.trials_run == 0

    def test_planar_screen_finds_counterexample(self, planar):
        report = is_class_A(planar)
        assert not report.scalar_proof and report.trials_run == 200
        assert not report.passed
        x = report.counterexample
        assert x is not None
        # The witness must genuinely violate f1(X) <= X, not just trip the
        # tolerance: its downward defect is a strictly negative eigenvalue.
        defect = np.linalg.eigvalsh((x - riccati_step(planar, x)).a).min()
        assert defect < -1e-6

    def test_counterexample_dominates_open_loop_image(self, planar, planar_pstar):
        report = is_class_A(planar)
        base = lyapunov_step(planar, planar_pstar)
        assert loewner_leq(base, report.counterexample)

    def test_equals_one_trial_loop(self):
        # Verdict and first counterexample equal those of the frozen loop on
        # random N = 2 and N = 3 models, passing and failing ones alike.  No
        # random N = 3 model here passes, so 1.3 I with C = I (f1 acts on
        # the eigenvalues of X, which stay above those of P*) stands in.
        models = [SystemModel(A=1.3 * np.eye(3), C=np.eye(3), Q=np.eye(3), R=np.eye(3),
                              P0=np.eye(3))]
        for seed in range(30):
            for n in (2, 3):
                models.append(_random_model(np.random.default_rng(seed), n, 1 + seed % 2))
        verdicts = set()
        for m in models:
            if validate_system(m).passed:
                p_star = solve_dare(m).p_star
                report = is_class_A(m, p_star=p_star)
                want = oracles.class_a_screen_loop(m, p_star.a)
                assert report.passed == (want is None)
                if want is not None:
                    assert np.array_equal(report.counterexample.a, want)
                verdicts.add((m.dim_state, report.passed))
        assert verdicts == {(2, True), (2, False), (3, True), (3, False)}


class TestRateOverSet:
    def test_study_event(self, scalar_model, scalar_pstar):
        m1 = 40.0 - scalar_pstar.item()
        sol = rate_over_set(scalar_model, EventPredicate.ball_complement(m1))
        assert sol.exponent == 4
        assert sol.minimizer.to_text() == "0^4"
        assert sol.k_gamma == 4
        assert 0 < sol.strings_examined < 200

    def test_matches_brute_force_scalar(self, scalar_model):
        rng = np.random.default_rng(88)
        for _ in range(25):
            radius = math.exp(rng.uniform(math.log(1.0), math.log(3000.0)))
            sol = rate_over_set(scalar_model, EventPredicate.ball_complement(radius),
                                k_cap=12)
            if math.isfinite(sol.k_gamma):
                ref = oracles.min_zeros_scalar(radius, min(int(sol.k_gamma) + 3, 15))
                assert sol.exponent == ref

    @pytest.mark.parametrize("open_, scan", [(False, iota), (True, iota_plus)])
    def test_equals_orbit_scan_on_scalar_bands(self, scalar_model, scalar_pstar, open_, scan):
        # A radius between the orbit distances d_{k-1} and d_k is entered at
        # step k, by 0^k and by no word with fewer drops, for every k up to
        # the cap; a step past the cap both paths report inf.
        def radius(k):
            return ((2.0 ** (k - 1) - 1.0) + (2.0 ** k - 1.0)) * (2.0 + SQRT2) / 2.0

        for k in range(1, DEFAULT_K_CAP + 2):
            pred = EventPredicate.ball_complement(radius(k), open_=open_)
            sol = rate_over_set(scalar_model, pred, p_star=scalar_pstar)
            orbit = scan(scalar_model, radius(k), cap=DEFAULT_K_CAP, p_star=scalar_pstar)
            if k <= DEFAULT_K_CAP:
                assert sol.exponent == orbit == sol.k_gamma == k
                assert sol.minimizer.bits == (0,) * k
            else:
                assert sol.exponent == orbit == math.inf
                assert sol.minimizer is None

    def test_witness_attains_the_event(self, planar, planar_pstar):
        pred = EventPredicate.ball_complement(6.0)
        sol = rate_over_set(planar, pred)
        assert math.isfinite(sol.exponent)
        from riccati_mdp import eval_string
        val = eval_string(planar, sol.minimizer).value
        assert pred.matches(val, planar_pstar)
        assert sol.minimizer.bits.count(0) == sol.exponent

    def test_witness_is_smallest_of_tied_words(self, scalar_model):
        # The words (1,0), (1,0,1) and (1,0,1,1) share one value (a trailing
        # 1 fixes P*) and one drop; the orbit enters the far set at step 4.
        near = oracles.F1_OF_F0_SCALAR
        far = oracles.F0_ORBIT_SCALAR[3] - 1e-6
        pred = EventPredicate.custom(
            lambda x: abs(x.item() - near) <= 1e-6 or x.item() >= far)
        sol = rate_over_set(scalar_model, pred)
        assert (sol.exponent, sol.k_gamma) == (1, 4)
        assert sol.minimizer.bits == (1, 0)

    def test_drop_counts_are_not_merged(self):
        # With A = 0.05 the orbit distances d_k saturate: d_4 - d_3 is about
        # 2e-11, below the 1e-9 rounding grid, so 0^4 and 0^3,1 share a grid
        # cell.  Only 0^4 reaches a radius between d_3 and d_4, so nodes
        # with different drop counts must stay apart.
        m = SystemModel(A=0.05, C=1.0, Q=1.0, R=1.0, P0=1.0)
        p_star = solve_dare(m).p_star
        orbit = [p_star]
        for _ in range(4):
            orbit.append(lyapunov_step(m, orbit[-1]))
        d3, d4 = (spectral_norm(x - p_star) for x in orbit[3:])
        assert 0.0 < d4 - d3 < 1e-9
        sol = rate_over_set(m, EventPredicate.ball_complement((d3 + d4) / 2.0))
        assert (sol.exponent, sol.minimizer.to_text()) == (4, "0^4")

    def test_unreachable_event_is_inf(self, scalar_model):
        sol = rate_over_set(scalar_model, EventPredicate.custom(lambda x: False),
                            k_cap=6)
        assert sol.exponent == math.inf
        assert sol.minimizer is None
        assert sol.k_gamma == math.inf

    def test_k_cap_limit(self, scalar_model):
        with pytest.raises(ValueError):
            rate_over_set(scalar_model, EventPredicate.ball_complement(1.0), k_cap=27)

    def test_norm_event(self, scalar_model, scalar_pstar):
        # ||x|| > 40 is the same event as distance >= 40 - p* up to the
        # boundary, and the minimizing word is again four open-loop steps.
        sol = rate_over_set(scalar_model, EventPredicate.norm_above(40.0))
        assert sol.exponent == 4
        assert sol.minimizer.to_text() == "0^4"


def _random_model(rng, n, outputs):
    """Model with PD noise and Gaussian A, C; admissibility is checked by the caller."""
    g, h = rng.standard_normal((n, n)), rng.standard_normal((outputs, outputs))
    return SystemModel(A=rng.standard_normal((n, n)) * rng.uniform(0.3, 1.5),
                       C=rng.standard_normal((outputs, n)),
                       Q=g @ g.T + 0.1 * np.eye(n), R=h @ h.T + 0.5 * np.eye(outputs),
                       P0=np.eye(n))


class TestRateAgainstBruteForce:
    """rate_over_set against every word of the unmerged value tree.

    Up to length k_Gamma (the walk's search space) exponent and witness must
    match for every admissible model.  The cut at k_Gamma rests on the
    one-sided geometry that `is_class_A` screens for: on models that pass the
    screen no word of length k_Gamma + 1 or k_Gamma + 2 may do better, while
    on models that fail it a longer word with fewer drops can hit (about 2%
    of these random models), so there the deeper check is not asserted.
    """

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), outputs=st.integers(1, 2), k=st.integers(1, 5),
           frac=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_matches_unmerged_tree(self, n, outputs, k, frac, seed):
        m = _random_model(np.random.default_rng(seed), n, outputs)
        assume(validate_system(m).passed)
        p_star = solve_dare(m).p_star.a
        f0, f1 = oracles.make_batched_maps(m.A, m.C, m.Q.a, m.R.a)
        orbit = [p_star]
        for _ in range(k):
            orbit.append(f0(orbit[-1]))
        dists = oracles.spectral_norms(np.stack(orbit) - p_star)
        # The radius sits inside the band where the orbit enters at step k;
        # the band must span many rounding-grid cells to be resolvable.
        assume(dists[k] - dists[k - 1] > 1e-6 * dists[k])
        radius = dists[k - 1] + frac * (dists[k] - dists[k - 1])

        sol = rate_over_set(m, EventPredicate.ball_complement(radius))
        assert sol.k_gamma == k
        levels = oracles.value_tree(f0, f1, p_star, k + 2)
        hit = lambda vals: oracles.spectral_norms(vals - p_star) >= radius
        got = (sol.exponent, sol.minimizer.bits)
        assert got == oracles.lightest_hitting_word(levels[:k + 1], hit)
        if is_class_A(m).passed:
            assert got == oracles.lightest_hitting_word(levels, hit)


def _orbit(m, p_star, k):
    """P*, f0(P*), ..., f0^k(P*) as one stack, from the oracle maps."""
    f0, _f1 = oracles.make_batched_maps(m.A, m.C, m.Q.a, m.R.a)
    orbit = [p_star[None]]
    for _ in range(k):
        orbit.append(f0(orbit[-1]))
    return np.concatenate(orbit)


def _unpruned(m, pred, p_star, k_cap=DEFAULT_K_CAP):
    return oracles.rate_walk_unpruned(m, lambda v: pred.batch(v, p_star), p_star.a, k_cap)


def _answer(sol):
    return (sol.exponent, None if sol.minimizer is None else sol.minimizer.bits, sol.k_gamma)


class TestReachPruning:
    """The walk pruned by the open-loop reach bound against the frozen unpruned walk.

    Exponent, witness and k_Gamma must be those of the unpruned walk, which
    generates every child the pruned walk generates and more.
    """

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), outputs=st.integers(1, 2), k=st.integers(1, 6),
           frac=st.floats(0.1, 0.9), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["ballc", "ballc-open", "norm-above", "custom"]))
    def test_equals_unpruned_walk(self, n, outputs, k, frac, seed, kind):
        m = _random_model(np.random.default_rng(seed), n, outputs)
        assume(validate_system(m).passed)
        p_star = solve_dare(m).p_star
        orbit = _orbit(m, p_star.a, k)
        # Band of the orbit's entry step k, in the predicate's own measure.
        size = oracles.spectral_norms(orbit if kind == "norm-above" else orbit - p_star.a)
        assume(size[k] - size[k - 1] > 1e-6 * size[k])
        level = float(size[k - 1] + frac * (size[k] - size[k - 1]))
        if kind == "custom":
            pred = EventPredicate.custom(lambda x: spectral_norm(x - p_star) >= level)
        else:
            pred = EventPredicate.from_spec(f"{kind}:{level!r}")
        sol = rate_over_set(m, pred, p_star=p_star)
        want = _unpruned(m, pred, p_star)
        assert _answer(sol) == want[:3]
        assert sol.strings_examined <= want[3]
        if kind == "custom":
            assert sol.strings_examined == want[3]

    @pytest.mark.parametrize("k", range(6, 14))
    def test_planar_node_count_pinned(self, planar, planar_pstar, k):
        # On the bench's planar radii only the open-loop word survives each
        # level: k + 2 orbit points and root, then two children per level.
        size = oracles.spectral_norms(_orbit(planar, planar_pstar.a, k) - planar_pstar.a)
        for frac in (0.1, 0.5, 0.9):
            pred = EventPredicate.ball_complement(size[k - 1] + frac * (size[k] - size[k - 1]))
            sol = rate_over_set(planar, pred, p_star=planar_pstar)
            assert (sol.exponent, sol.minimizer.to_text(), sol.k_gamma) == (k, f"0^{k}", k)
            assert sol.strings_examined == 3 * k + 2
            want = _unpruned(planar, pred, planar_pstar)
            assert _answer(sol) == want[:3] and want[3] == k + 2 ** (k + 1)

    def test_ball_inside_center_spectrum_is_unpruned(self, planar, planar_pstar):
        # A hit can then lie below the center, which the bound does not see.
        # Past it, the bound prunes around an explicit center too.
        center = SymMatrix(10.0 * np.eye(2))
        for radius in (9.0, 10.0, 12.0):
            pred = EventPredicate.ball_complement(radius, center=center)
            assert (rate._reach_floor(planar, pred, planar_pstar, 8) is None) == (radius <= 10.0)
            sol = rate_over_set(planar, pred, p_star=planar_pstar)
            want = _unpruned(planar, pred, planar_pstar)
            assert _answer(sol) == want[:3] and sol.k_gamma == 3
            assert (sol.strings_examined == want[3]) == (radius <= 10.0)

    def test_small_balls_walk_unpruned(self):
        # Default center: a radius at or below lambda_max(P*) prunes nothing.
        cases = 0
        for seed in range(40):
            m = _random_model(np.random.default_rng(seed), 2 + seed % 2, 1 + seed // 2 % 2)
            if not validate_system(m).passed:
                continue
            p_star = solve_dare(m).p_star
            size = oracles.spectral_norms(_orbit(m, p_star.a, 6) - p_star.a)
            top = np.linalg.eigvalsh(p_star.a)[-1]
            for k in range(2, 7):
                radius = (size[k - 1] + size[k]) / 2.0
                if radius <= top:
                    pred = EventPredicate.ball_complement(radius)
                    sol = rate_over_set(m, pred, p_star=p_star)
                    want = _unpruned(m, pred, p_star)
                    assert _answer(sol) == want[:3] and sol.strings_examined == want[3]
                    cases += 1
        assert cases >= 5

    def test_entry_at_steps_0_and_1(self, planar, planar_pstar, scalar_model, scalar_pstar):
        # P* in the set, or entering at step 1, leaves no level to prune.
        for m, p_star in ((planar, planar_pstar), (scalar_model, scalar_pstar)):
            size = oracles.spectral_norms(_orbit(m, p_star.a, 1))
            top = size[0]
            preds = [EventPredicate.norm_above(0.0),
                     EventPredicate.from_spec("norm-above:0"),
                     EventPredicate.norm_above((size[0] + size[1]) / 2.0)]
            # Explicit centers with ||P* - c|| >= M > lambda_max(c).
            for scale in (0.0, 0.1):
                center = SymMatrix(scale * np.eye(m.dim_state))
                preds.append(EventPredicate.ball_complement(top / 2.0, center=center))
            for pred in preds:
                sol = rate_over_set(m, pred, p_star=p_star)
                want = _unpruned(m, pred, p_star)
                assert _answer(sol) == want[:3] and sol.strings_examined == want[3]
            assert [rate_over_set(m, p, p_star=p_star).k_gamma for p in preds] == [0, 0, 1, 0, 0]
            assert rate_over_set(m, preds[0], p_star=p_star).minimizer.bits == ()
            assert rate._reach_floor(m, preds[0], p_star, 0) is None

    @pytest.mark.filterwarnings("error")
    def test_non_finite_bound_never_prunes(self):
        # A^4 overflows, so ||A^l||^2 is inf from l = 2 on and NaN (inf * 0)
        # from l = 4 on: only l = 1 may prune.
        big = SystemModel(A=np.diag([1e100, 0.5]), C=np.eye(2), Q=np.eye(2),
                          R=np.eye(2), P0=np.eye(2))
        pred = EventPredicate.norm_above(10.0)
        floor = rate._reach_floor(big, pred, SymMatrix(np.eye(2)), 6)
        assert np.isfinite(floor[0]) and (floor[1:] == -np.inf).all()
        # ||f0^l(0)|| overflows from l = 2 on while ||A^l||^2 does not.
        heavy = SystemModel(A=np.diag([1e5, 0.5]), C=np.eye(2), Q=1e300 * np.eye(2),
                            R=np.eye(2), P0=np.eye(2))
        floor = rate._reach_floor(heavy, EventPredicate.norm_above(1e308),
                                  SymMatrix(np.eye(2)), 6)
        assert np.isfinite(floor[0]) and (floor[1:] == -np.inf).all()
        # The shift in other coordinates: float powers from l = 3 on are
        # round-off (about 1e-16), far below REACH_MARGIN * ||A||^(2 l).
        basis = np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.4], [0.3, 0.2, 1.0]])
        near = SystemModel(A=basis @ np.eye(3, k=1) @ np.linalg.inv(basis),
                           C=[[1.0, 1.0, 1.0]], Q=np.eye(3), R=1.0, P0=np.eye(3))
        floor = rate._reach_floor(near, pred, SymMatrix(np.eye(3)), 6)
        assert np.isfinite(floor[:2]).all() and (floor[2:] == -np.inf).all()
        # A = 0 sends every X to Q in one step: ||A^l|| = 0 from l = 1 on.
        zero = SystemModel(A=0.0, C=1.0, Q=1.0, R=1.0, P0=1.0)
        assert (rate._reach_floor(zero, pred, SymMatrix(1.0), 6) == -np.inf).all()
        # The 3 x 3 shift is nilpotent: ||A^l|| = 0 from l = 3 on, and its
        # orbit moves for two steps.
        nil = SystemModel(A=np.eye(3, k=1), C=[[1.0, 1.0, 1.0]], Q=np.eye(3),
                          R=1.0, P0=np.eye(3))
        assert validate_system(nil).passed
        p_star = solve_dare(nil).p_star
        floor = rate._reach_floor(nil, pred, p_star, 6)
        assert np.isfinite(floor[:2]).all() and (floor[2:] == -np.inf).all()
        orbit = _orbit(nil, p_star.a, 2)
        ball = oracles.spectral_norms(orbit - p_star.a)
        size = oracles.spectral_norms(orbit)
        for k in (1, 2):
            for pred in (EventPredicate.ball_complement((ball[k - 1] + ball[k]) / 2.0),
                         EventPredicate.norm_above((size[k - 1] + size[k]) / 2.0)):
                sol = rate_over_set(nil, pred, p_star=p_star)
                want = _unpruned(nil, pred, p_star)
                assert _answer(sol) == want[:3] and sol.strings_examined <= want[3]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("radius, message", [
        # f0 multiplies by 1e40, so the orbit overflows at step 8 ...
        (1e300, "the open-loop orbit went non-finite at step 8"),
        # ... and f1 squares about 1e180 near the orbit's entry at step 5.
        (1e200, "a word-tree level went non-finite"),
    ])
    def test_overflow_model_raises_as_before(self, radius, message):
        m = SystemModel(A=1e20, C=1.0, Q=1.0, R=1.0, P0=1.0)
        pred = EventPredicate.ball_complement(radius)
        with pytest.raises(RuntimeError) as want:
            _unpruned(m, pred, m.P0)
        with pytest.raises(RuntimeError) as got:
            rate_over_set(m, pred, p_star=m.P0)
        assert str(got.value) == str(want.value) == message


class TestLawSupport:
    """The support of the law at time L from P*: every value a word of length <= L reaches."""

    def test_scalar_depth_two(self, scalar_model, scalar_pstar):
        # Words of length 2 from the fixed point produce exactly four
        # distinct values: p*, f0(p*), f1(f0(p*)), f0(f0(p*)).
        law = finite_dim_exact(scalar_model, scalar_pstar, [2])
        vals = sorted(law.values[:, -1, 0, 0].tolist())
        expected = sorted([
            oracles.P_STAR_SCALAR,
            oracles.F0_ORBIT_SCALAR[0],
            oracles.F1_OF_F0_SCALAR,
            oracles.F0_ORBIT_SCALAR[1],
        ])
        assert len(vals) == 4
        for got, ref in zip(vals, expected):
            assert got == pytest.approx(ref, abs=1e-9)

    def test_growth_collapses_trailing_measurements(self, scalar_model, scalar_pstar):
        # A word ending in a measurement fixes the fixed point, so the
        # distinct values at length L are the 0-terminated words of length
        # <= L plus the empty word: 2^L of them.
        sizes = [len(finite_dim_exact(scalar_model, scalar_pstar, [L]).values)
                 for L in range(7)]
        assert sizes == [2 ** L for L in range(7)]

    def test_every_member_dominates_fixed_point(self, planar, planar_pstar):
        for v in finite_dim_exact(planar, planar_pstar, [4]).values[:, -1]:
            assert loewner_leq(planar_pstar, v, tol=1e-8)


class TestFiniteDim:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_level_overflow_is_a_numeric_failure(self):
        # Admissible, but f0 multiplies by 1e40: level 8 overflows.
        m = SystemModel(A=1e20, C=1.0, Q=1.0, R=1.0, P0=1.0)
        assert validate_system(m).passed
        with pytest.raises(RuntimeError, match="non-finite"):
            finite_dim_exact(m, m.P0, [20])

    def test_two_step_atoms(self, scalar_model, scalar_pstar):
        dist = finite_dim_exact(scalar_model, scalar_pstar, [2])
        atoms = {round(a.values[0].item(), 9): a.multiplicity for a in dist.atoms}
        p = oracles.P_STAR_SCALAR
        expected = {
            round(p, 9): {0: 1},
            round(oracles.F1_OF_F0_SCALAR, 9): {1: 1},
            round(oracles.f0_scalar(p), 9): {1: 1},
            round(oracles.f0_scalar(oracles.f0_scalar(p)), 9): {2: 1},
        }
        assert atoms == expected

    def test_joint_two_times(self, scalar_model, scalar_pstar):
        dist = finite_dim_exact(scalar_model, scalar_pstar, [1, 2])
        got = {
            (round(a.values[0].item(), 6), round(a.values[1].item(), 6)):
                a.multiplicity
            for a in dist.atoms
        }
        p = oracles.P_STAR_SCALAR
        f0p = oracles.f0_scalar(p)
        expected = {
            (round(p, 6), round(p, 6)): {0: 1},
            (round(p, 6), round(f0p, 6)): {1: 1},
            (round(f0p, 6), round(oracles.f1_scalar(f0p), 6)): {1: 1},
            (round(f0p, 6), round(oracles.f0_scalar(f0p), 6)): {2: 1},
        }
        assert got == expected

    def test_path_count_is_exhaustive(self, scalar_model, scalar_pstar):
        for t in (1, 4, 9):
            dist = finite_dim_exact(scalar_model, scalar_pstar, [t])
            total_paths = sum(c for a in dist.atoms for c in a.multiplicity.values())
            assert total_paths == 2 ** t

    def test_total_probability_is_one(self, scalar_model, planar, scalar_pstar, planar_pstar):
        for model, start in ((scalar_model, scalar_pstar), (planar, planar_pstar)):
            dist = finite_dim_exact(model, start, [7])
            for g in (0.05, 0.5, 0.8, 0.99):
                assert dist.total_probability(g) == pytest.approx(1.0, abs=1e-12)

    def test_event_probability_matches_path_enumeration(self, scalar_model, scalar_pstar):
        dist = finite_dim_exact(scalar_model, scalar_pstar, [6])
        for thr in (5.0, 11.0, 25.0):
            for g in (0.3, 0.8, 0.95):
                lib = dist.event_probability(lambda vals: vals[-1].item() >= thr, g)
                ref = oracles.finite_time_event_prob_scalar(6, g, lambda x: x >= thr)
                assert lib == pytest.approx(ref, abs=1e-13)

    def test_event_exponent(self, scalar_model, scalar_pstar):
        dist = finite_dim_exact(scalar_model, scalar_pstar, [12])
        m1 = 40.0 - scalar_pstar.item()
        exponent = dist.event_exponent(
            lambda vals: abs(vals[-1].item() - scalar_pstar.item()) >= m1)
        assert exponent == 4

    @pytest.mark.parametrize("times", [(1,), (4,), (10,), (3, 7), (6, 10)])
    def test_planar_event_probability_matches_word_sum(self, planar, times):
        # Word index i at level t takes bit j (LSB first) as the arrival at
        # time j, so its state at an earlier time s is entry i mod 2^s there.
        f0, f1 = oracles.make_batched_maps(oracles.A_PLANAR, oracles.C_PLANAR,
                                           oracles.Q_PLANAR, oracles.R_PLANAR)
        levels = oracles.value_tree(f0, f1, planar.P0.a, times[-1])
        idx = np.arange(2 ** times[-1])
        drops = times[-1] - oracles.popcounts(len(idx))
        first = oracles.spectral_norms(levels[times[0]])[idx % 2 ** times[0]]
        last = oracles.spectral_norms(levels[times[-1]])
        dist = finite_dim_exact(planar, planar.P0, times)
        for thr in (4.0, 12.0, 40.0):
            # No value sits on a threshold, so round-off cannot flip a test.
            assert np.min(np.abs(np.concatenate([first, last]) - thr)) > 1e-6 * thr
            ref_hit = (first > thr) & (last > thr)
            event = lambda vals, thr=thr: min(spectral_norm(v) for v in vals) > thr
            for g in (0.3, 0.8, 0.95):
                ref = float(np.sum(ref_hit * (1 - g) ** drops * g ** (times[-1] - drops)))
                assert dist.event_probability(event, g) == pytest.approx(ref, abs=1e-12)

    def test_atoms_partition_all_paths(self, scalar_model, scalar_pstar):
        # Both update maps are injective here, so the 2^10 paths stay
        # distinguishable: one atom per path, each holding a single count.
        dist = finite_dim_exact(scalar_model, scalar_pstar, [10])
        assert len(dist.atoms) == 2 ** 10
        for atom in dist.atoms:
            assert sum(atom.multiplicity.values()) == 1
            assert 0 <= atom.ell <= 10

    def test_starting_point_respected(self, scalar_model):
        dist = finite_dim_exact(scalar_model, SymMatrix(1.0), [1])
        vals = sorted(a.values[0].item() for a in dist.atoms)
        assert vals == pytest.approx([2.0, 3.0], rel=1e-12)

    def test_horizon_cap(self, scalar_model, scalar_pstar):
        with pytest.raises(ValueError):
            finite_dim_exact(scalar_model, scalar_pstar, [23])

    def test_times_validation(self, scalar_model, scalar_pstar):
        with pytest.raises(ValueError):
            finite_dim_exact(scalar_model, scalar_pstar, [])
        with pytest.raises(ValueError):
            finite_dim_exact(scalar_model, scalar_pstar, [3, 3])
        with pytest.raises(ValueError):
            finite_dim_exact(scalar_model, scalar_pstar, [2, 1])
        with pytest.raises(ValueError):
            finite_dim_exact(scalar_model, scalar_pstar, [-1])

    def test_time_zero_records_the_start(self, scalar_model, scalar_pstar):
        dist = finite_dim_exact(scalar_model, scalar_pstar, [0])
        assert len(dist.atoms) == 1
        assert dist.atoms[0].values[0] == scalar_pstar
        assert dist.atoms[0].multiplicity == {0: 1}


@pytest.fixture
def constructions(monkeypatch):
    """Counts SymMatrix constructions while a test runs."""
    built = []
    original = SymMatrix.__init__

    def counting(self, values):
        built.append(1)
        original(self, values)

    monkeypatch.setattr(SymMatrix, "__init__", counting)
    return built


def _criterion_5_law(scalar_model, scalar_pstar):
    law = finite_dim_exact(scalar_model, scalar_pstar, [12])
    center = scalar_pstar.item()
    m1 = 40.0 - center
    event = lambda vals: abs(vals[-1].item() - center) >= m1
    return law, event, np.abs(law.values[:, -1, 0, 0] - center) >= m1


class TestLawArrays:
    def test_planar_law_builds_no_matrices(self, planar, constructions):
        _entry(planar, planar.P0, "P0")
        at_entry = len(constructions)
        law = finite_dim_exact(planar, planar.P0, (5, 12))
        in_law = len(constructions) - at_entry
        assert in_law == at_entry
        assert len(law.atoms) == 4096
        assert len(constructions) - at_entry == in_law

    def test_array_shapes(self, planar):
        law = finite_dim_exact(planar, planar.P0, (5, 12))
        assert law.values.shape == (4096, 2, 2, 2)
        assert law.counts.shape == (4096, 13) and law.counts.dtype == np.int64
        assert int(law.counts.sum()) == 2 ** 12
        assert not law.values.flags.writeable and not law.counts.flags.writeable

    def test_atom_is_built_from_its_rows(self, planar):
        law = finite_dim_exact(planar, planar.P0, (5, 12))
        for i in (0, 1, 2047, 4095, -1):
            want = Atom(values=tuple(SymMatrix(v) for v in law.values[i]),
                        horizon=12,
                        multiplicity={p: int(c) for p, c in enumerate(law.counts[i]) if c})
            assert law.atoms[i] == want
        assert law.atoms[2:4] == (law.atoms[2], law.atoms[3])
        assert list(law.atoms)[-1] == law.atoms[-1]
        with pytest.raises(IndexError):
            law.atoms[4096]

    def test_mask_and_callable_agree_on_criterion_5(self, scalar_model, scalar_pstar):
        law, event, mask = _criterion_5_law(scalar_model, scalar_pstar)
        assert mask.any() and not mask.all()
        assert law.event_multiplicities(mask) == law.event_multiplicities(event)
        assert law.event_exponent(mask) == law.event_exponent(event) == 4
        for g in (1.0 - 1e-3, 1.0 - 1e-5):
            assert law.event_probability(mask, g) == law.event_probability(event, g)

    @pytest.mark.parametrize("thr", [4.0, 6.0, 12.0])
    def test_mask_and_callable_agree_on_planar(self, planar, thr):
        law = finite_dim_exact(planar, planar.P0, (5, 12))
        pred = EventPredicate.norm_above(thr)
        mask = pred.batch(law.values[:, 0]) & pred.batch(law.values[:, 1])
        event = lambda vals: all(pred.matches(v) for v in vals)
        assert mask.any() and not mask.all()
        assert law.event_multiplicities(mask) == law.event_multiplicities(event)
        assert law.event_probability(mask, 0.7) == law.event_probability(event, 0.7)

    def test_callable_events_build_atoms_once(self, scalar_model, scalar_pstar, constructions):
        law, event, _ = _criterion_5_law(scalar_model, scalar_pstar)
        before = len(constructions)
        first = law.event_probability(event, 1.0 - 1e-3)
        built = len(constructions) - before
        assert built == law.values.shape[0] * law.values.shape[1]
        assert law.event_probability(event, 1.0 - 1e-5) < first
        assert law.atoms[0] is law.atoms[0]
        assert len(constructions) - before == built

    def test_bad_masks_rejected(self, scalar_model, scalar_pstar):
        law = finite_dim_exact(scalar_model, scalar_pstar, [3])
        for bad in (np.ones(7, dtype=bool), np.ones(8, dtype=int), np.ones((8, 1), dtype=bool)):
            with pytest.raises(ValueError, match="mask"):
                law.event_multiplicities(bad)

    def test_constructor_checks_shapes(self):
        values, counts = np.zeros((3, 1, 2, 2)), np.ones((3, 3), dtype=np.int64)
        law = FiniteDimDistribution(times=(2,), horizon=2, values=values, counts=counts)
        assert len(law.atoms) == 3
        values[0, 0, 0, 0], counts[0, 0] = 5.0, 7
        assert law.values[0, 0, 0, 0] == 0.0 and law.counts[0, 0] == 1
        with pytest.raises(ValueError, match="counts"):
            FiniteDimDistribution(times=(2,), horizon=3, values=values, counts=counts)
        with pytest.raises(ValueError, match="values"):
            FiniteDimDistribution(times=(1, 2), horizon=2, values=values, counts=counts)


class TestPolyHelpers:
    def test_poly_probability(self):
        mult = {1: 3, 2: 1}
        g = 0.75
        ref = 3 * (1 - g) * g + (1 - g) ** 2
        assert poly_probability(mult, g, 2) == pytest.approx(ref, rel=1e-15)

    def test_atom_ell_is_min_power(self, scalar_pstar):
        atom = Atom(values=(scalar_pstar,), horizon=5, multiplicity={3: 2, 2: 1, 5: 4})
        assert atom.ell == 2

    def test_impossible_event_has_inf_exponent(self, scalar_model, scalar_pstar):
        dist = finite_dim_exact(scalar_model, scalar_pstar, [3])
        assert dist.event_exponent(lambda vals: False) == math.inf
        assert dist.event_probability(lambda vals: False, 0.7) == 0.0
