import json
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_mdp import (
    SymMatrix,
    SystemModel,
    as_sym,
    loewner_leq,
    observability_rank,
    spectral_norm,
    validate_system,
)
from riccati_mdp.linalg import norms, norms_exceed, step_exceeds


class TestSymMatrix:
    def test_symmetrizes_on_construction(self):
        s = SymMatrix([[1.0, 2.0], [0.0, 3.0]])
        assert s.a[0, 1] == s.a[1, 0] == 1.0
        assert s.a[0, 0] == 1.0 and s.a[1, 1] == 3.0

    def test_scalar_input_becomes_1x1(self):
        s = SymMatrix(2.5)
        assert s.dim == 1
        assert s.item() == 2.5

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMatrix([[math.nan]])
        with pytest.raises(ValueError):
            SymMatrix([[1.0, math.inf], [math.inf, 1.0]])

    def test_symmetrization_does_not_overflow(self):
        # Finite entries up to the float maximum stay finite.
        top = np.finfo(float).max
        assert SymMatrix([[1e308]]).item() == 1e308
        assert np.array_equal(SymMatrix([[1.0, top], [top, 1.0]]).a, [[1.0, top], [top, 1.0]])
        assert SymMatrix([[1.0, top], [0.5 * top, 1.0]]).a[0, 1] == 0.75 * top
        # Exactly symmetric finite inputs are stored bit for bit.
        big = top / 2
        rng = np.random.default_rng(3)
        for x in [np.array([[big]]), np.array([[1.0, -big], [-big, 5e-324]])] + [
                g + g.T for g in rng.standard_normal((20, 3, 3)) * 1e150]:
            assert np.array_equal(SymMatrix(x).a, x)

    def test_backing_array_is_read_only(self):
        s = SymMatrix.identity(2)
        with pytest.raises((ValueError, RuntimeError)):
            s.a[0, 0] = 5.0

    def test_item_requires_1x1(self):
        with pytest.raises(ValueError):
            SymMatrix.identity(2).item()

    def test_arithmetic(self):
        x = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
        y = SymMatrix.identity(2)
        assert (x + y).a[0, 0] == 2.0
        assert (x - y).a[1, 1] == 1.0
        assert (x * 3.0).a[0, 1] == 1.5
        assert (2.0 * x).a[0, 1] == 1.0

    def test_eq_and_hash(self):
        x = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
        y = SymMatrix([[1.0, 0.5], [0.5, 2.0]])
        assert x == y and hash(x) == hash(y)
        assert x != SymMatrix.identity(2)

    def test_as_sym_passthrough_and_coercion(self):
        x = SymMatrix.identity(2)
        assert as_sym(x) is x
        assert as_sym(3.0).item() == 3.0
        assert as_sym(np.eye(3)) == SymMatrix.identity(3)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(SymMatrix(np.diag([3.0, -5.0]))) == 5.0

    def test_matches_numpy_two_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            g = rng.standard_normal((n, n))
            x = SymMatrix(g + g.T)
            assert spectral_norm(x) == pytest.approx(np.linalg.norm(x.a, 2), rel=1e-12)


class TestNonFiniteNorms:
    # eigvalsh skips a NaN on the diagonal: these gave 0.0 and sqrt(2).
    @pytest.mark.parametrize("bad", [[[math.nan, 0.0], [0.0, 2.0]],
                                     [[math.nan, 1.0], [1.0, 2.0]],
                                     [[math.inf, 0.0], [0.0, 1.0]]])
    def test_row_with_non_finite_entry_gets_nan(self, bad):
        got = norms(np.array([bad, np.diag([3.0, -5.0])]))
        assert math.isnan(got[0]) and got[1] == 5.0
        assert not norms_exceed(np.array([bad]), [1.0]).any()

    def test_scalar_rows(self):
        got = norms(np.array([math.inf, -2.0, math.nan]).reshape(3, 1, 1))
        assert math.isnan(got[0]) and got[1] == 2.0 and math.isnan(got[2])


class TestNormsExceed:
    """The screened threshold test equals comparing `norms` directly."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), k=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
           diagonal=st.booleans(), bad=st.sampled_from([None, math.inf, -math.inf, math.nan]))
    def test_equals_direct_comparison(self, n, k, seed, diagonal, bad):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((k, n, n))
        if diagonal:
            # The lower bound is then the norm itself.
            g *= np.eye(n)
        p = (g + np.transpose(g, (0, 2, 1))) * 10.0 ** rng.uniform(-6, 6, (k, 1, 1))
        if bad is not None:
            i, j = rng.integers(0, n, 2)
            rows = rng.random(k) < 0.3
            p[rows, i, j] = p[rows, j, i] = bad
        exact = norms(p)
        assert np.array_equal(np.isnan(exact), ~np.isfinite(p).all(axis=(1, 2)))
        eps = np.finfo(float).eps
        centers = exact[np.isfinite(exact)][:4].tolist() + [1.0, 0.0]
        thresholds = [c * (1.0 + sign * j * eps)
                      for c in centers for j in (0, 1, 2, 4) for sign in (1, -1)]
        for strict in (True, False):
            want = [exact > t if strict else exact >= t for t in thresholds]
            assert np.array_equal(norms_exceed(p, thresholds, strict), np.array(want))


class TestStepExceeds:
    """The screened stop test of `solve_dare` equals comparing `norms` directly."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), diagonal=st.booleans(),
           ratio=st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0, 1e3]),
           ulps=st.integers(-4, 4))
    def test_equals_direct_comparison(self, n, seed, diagonal, ratio, ulps):
        rng = np.random.default_rng(seed)
        g, h = rng.standard_normal((2, n, n))
        if diagonal:
            # The entry bounds are then the norm itself.
            g *= np.eye(n)
        x = (h + h.T)[None] * 10.0 ** rng.uniform(-3, 6)
        tol = 10.0 ** rng.uniform(-14, -1)
        delta = (g + g.T)[None]
        # Scale delta so its norm sits `ulps` steps from the cut, times ratio.
        cut = tol * (1.0 + norms(x)[0])
        delta *= ratio * cut / norms(delta)[0] * (1.0 + ulps * np.finfo(float).eps)
        want = bool(norms(delta)[0] > tol * (1.0 + norms(x)[0]))
        assert step_exceeds(delta, x, tol) is want


class TestLoewnerOrder:
    def test_reflexive_at_zero_tol(self):
        x = SymMatrix([[2.0, 1.0], [1.0, 3.0]])
        assert loewner_leq(x, x, tol=0.0)

    def test_diagonal_order(self):
        assert loewner_leq(SymMatrix(np.diag([1.0, 2.0])), SymMatrix(np.diag([1.5, 2.0])))
        assert not loewner_leq(SymMatrix(np.diag([1.5, 2.0])), SymMatrix(np.diag([1.0, 2.0])))

    def test_clear_violation(self):
        assert not loewner_leq(SymMatrix.identity(2) * 2.0, SymMatrix.identity(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loewner_leq(SymMatrix.identity(2), SymMatrix.identity(3))

    def test_tolerance_scales_with_operand_norms(self):
        # Slack is tol * (1 + ||X|| + ||Y||), so a 1e-5 dip at scale 1e6
        # passes at the default 1e-9 but fails with tol forced to 0.
        x = SymMatrix.identity(2) * 1e6
        y = x - SymMatrix.identity(2) * 1e-5
        assert loewner_leq(x, y)
        assert not loewner_leq(x, y, tol=0.0)

    def test_random_psd_bumps(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(1, 4))
            g = rng.standard_normal((n, n))
            x = SymMatrix(g + g.T)
            h = rng.standard_normal((n, n))
            w = SymMatrix(h @ h.T)
            assert loewner_leq(x, x + w)
            bump = 1e-3 * (1.0 + spectral_norm(x))
            assert not loewner_leq(x + SymMatrix.identity(n) * bump, x)


class TestSystemModel:
    def test_scalar_entries_accepted(self):
        m = SystemModel(A=1.5, C=1.0, Q=1.0, R=1.0, P0=1.0)
        assert m.dim_state == 1 and m.dim_obs == 1
        assert m.A[0, 0] == 1.5

    def test_shape_errors_name_the_field(self):
        with pytest.raises(ValueError, match="A"):
            SystemModel(A=[[1.0, 2.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], P0=[[1.0]])
        with pytest.raises(ValueError, match="C"):
            SystemModel(A=[[1.0]], C=[[1.0, 2.0]], Q=[[1.0]], R=[[1.0]], P0=[[1.0]])
        with pytest.raises(ValueError, match="Q"):
            SystemModel(A=[[1.0]], C=[[1.0]], Q=np.eye(2), R=[[1.0]], P0=[[1.0]])
        with pytest.raises(ValueError, match="A"):
            SystemModel(A=[[math.nan]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], P0=[[1.0]])

    @pytest.mark.parametrize("field, value", [
        ("A", [[1.2, True], [0.0, 0.8]]),
        ("A", [["1.2", 0.5], [0.0, 0.8]]),
        ("Q", [[True, 0.0], [0.0, 1.0]]),
        ("Q", np.eye(2, dtype=bool)),
        ("P0", [[1.0, 0.0], [0.0, None]]),
        ("C", [[1.0, 10**400]]),
        ("R", [[1.0], [0.0, 1.0]]),
    ], ids=["mixed-bool-row", "text", "bool", "bool-array", "null", "huge-int", "ragged"])
    def test_non_number_entries_name_the_field(self, field, value):
        fields = {"A": [[1.2, 0.5], [0.0, 0.8]], "C": [[1.0, 0.0]], "Q": np.eye(2),
                  "R": [[1.0]], "P0": np.eye(2), field: value}
        with pytest.raises(ValueError, match=f'"{field}" entries must be finite numbers'):
            SystemModel(**fields)

    def test_immutable(self, scalar_model):
        with pytest.raises(AttributeError):
            scalar_model.A = np.eye(1)

    def test_to_dict_is_json_serializable(self, scalar_model):
        text = json.dumps(scalar_model.to_dict())
        assert "A" in json.loads(text)


class TestValidation:
    def test_scalar_model_passes(self, scalar_model):
        report = validate_system(scalar_model)
        assert report.passed
        assert not report.failures()

    def test_planar_model_passes(self, planar):
        assert validate_system(planar).passed

    def test_unobservable_pair_fails_observability_only(self):
        # C kills the second coordinate and A never mixes it back in.
        m = SystemModel(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]], P0=np.eye(2))
        report = validate_system(m)
        assert not report.passed
        names = [c.name for c in report.failures()]
        assert any("observ" in n for n in names)
        assert all("observ" in n for n in names)
        assert "FAIL" in str(report)
        assert "overall" in str(report)

    def test_singular_q_fails(self):
        m = SystemModel(A=[[1.2, 0.5], [0.0, 0.8]], C=[[1.0, 0.0]],
                        Q=np.diag([1.0, 0.0]), R=[[1.0]], P0=np.eye(2))
        assert not validate_system(m).passed

    def test_zero_r_fails(self):
        m = SystemModel(A=[[1.5]], C=[[1.0]], Q=[[1.0]], R=[[0.0]], P0=[[1.0]])
        assert not validate_system(m).passed

    def test_indefinite_p0_fails(self):
        m = SystemModel(A=[[1.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], P0=[[-0.5]])
        assert not validate_system(m).passed

    def test_indefinite_q_is_a_failed_row(self):
        # A Q that is not even PSD is reported like any other failure.
        m = SystemModel(A=1.2, C=1.0, Q=-1.0, R=1.0, P0=1.0)
        report = validate_system(m)
        assert [c.name for c in report.failures()] == ["Q positive definite"]
        assert "[FAIL] Q positive definite" in str(report)

    def test_ranks(self, planar):
        assert observability_rank(planar) == 2
        bad = SystemModel(A=np.eye(2), C=[[1.0, 0.0]], Q=np.eye(2), R=[[1.0]], P0=np.eye(2))
        assert observability_rank(bad) == 1
