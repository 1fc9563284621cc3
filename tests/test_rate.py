import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccati_mdp import (
    Atom,
    EventPredicate,
    GammaString,
    SymMatrix,
    SystemModel,
    finite_dim_exact,
    iota,
    iota_plus,
    is_class_A,
    loewner_leq,
    lsc_check,
    lyapunov_step,
    poly_probability,
    rate_over_set,
    rate_point,
    riccati_step,
    solve_dare,
    spectral_norm,
    validate_system,
)

import oracles

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
        report = is_class_A(planar, trials=300, seed=11)
        assert not report.scalar_proof
        assert not report.passed
        x = report.counterexample
        assert x is not None
        # The witness must genuinely violate f1(X) <= X, not just trip the
        # tolerance: its downward defect is a strictly negative eigenvalue.
        defect = np.linalg.eigvalsh((x - riccati_step(planar, x)).a).min()
        assert defect < -1e-6

    def test_counterexample_dominates_open_loop_image(self, planar, planar_pstar):
        report = is_class_A(planar, trials=300, seed=11)
        base = lyapunov_step(planar, planar_pstar)
        assert loewner_leq(base, report.counterexample)


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


class TestRatePoint:
    def test_orbit_points(self, scalar_model, scalar_pstar):
        x = scalar_pstar
        for k in range(4):
            assert rate_point(scalar_model, x, 1e-6).exponent == k
            x = lyapunov_step(scalar_model, x)

    def test_off_support_is_inf(self, scalar_model, scalar_pstar):
        x = SymMatrix(scalar_pstar.item() + 0.37)
        assert rate_point(scalar_model, x, 1e-6, k_cap=8).exponent == math.inf

    def test_non_orbit_ball_is_capped(self, scalar_model, scalar_pstar):
        # The enumeration cut needs the pure open-loop orbit to enter the
        # ball; a value reachable only through mixed words comes back as the
        # inf cap marker rather than a wrong finite number.
        x = riccati_step(scalar_model,
                         lyapunov_step(scalar_model, lyapunov_step(scalar_model, scalar_pstar)))
        sol = rate_point(scalar_model, x, 1e-8)
        assert sol.exponent == math.inf
        assert sol.minimizer is None

    def test_lsc_along_shrinking_balls(self, scalar_model, scalar_pstar):
        x = lyapunov_step(scalar_model, lyapunov_step(scalar_model, scalar_pstar))
        report = lsc_check(scalar_model, x, [1e-2, 1e-4, 1e-6, 1e-8])
        assert report.passed and not report.inconclusive
        assert report.exponents[-1] == 2

    def test_lsc_inconclusive_off_support(self, scalar_model, scalar_pstar):
        x = SymMatrix(scalar_pstar.item() + 0.37)
        report = lsc_check(scalar_model, x, [1e-2, 1e-4], k_cap=6)
        assert report.inconclusive and not report.passed

    def test_lsc_rejects_non_decreasing_tols(self, scalar_model, scalar_pstar):
        with pytest.raises(ValueError):
            lsc_check(scalar_model, scalar_pstar, [1e-4, 1e-2])


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
