import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_mdp import (
    GammaString,
    SymMatrix,
    SystemModel,
    eval_string,
    format_run_length,
    invariant_upper_scale,
    loewner_leq,
    parse_run_length,
    pi_count,
    random_psd,
    spectral_norm,
    string_upper_bound,
    support_set,
    value_key,
)

import oracles
from riccati_mdp.strings import _group_rows


class TestRunLength:
    def test_parse_basic(self):
        assert parse_run_length("0,1^3,0^2") == (0, 1, 1, 1, 0, 0)
        assert parse_run_length("1") == (1,)
        assert parse_run_length("") == ()

    def test_format_basic(self):
        assert format_run_length((0, 1, 1, 1, 0, 0)) == "0,1^3,0^2"
        assert format_run_length((1,)) == "1"
        assert format_run_length(()) == ""

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=rng.integers(0, 20)))
            assert parse_run_length(format_run_length(bits)) == bits

    def test_rejects_garbage(self):
        for bad in ("2", "0,,1", "0,1^0", "01", "1^-2", "a"):
            with pytest.raises(ValueError):
                parse_run_length(bad)


class TestGammaString:
    def test_validates_bits(self):
        with pytest.raises(ValueError):
            GammaString(bits=(0, 2), initial=SymMatrix(1.0))

    def test_pi_counts_zeros(self):
        r = GammaString(bits=(0, 1, 1, 0, 0), initial=SymMatrix(1.0))
        assert pi_count(r) == 3
        assert len(r) == 5

    def test_text_round_trip(self):
        r = GammaString.from_text("0^2,1,0", SymMatrix(2.0))
        assert r.bits == (0, 0, 1, 0)
        assert r.to_text() == "0^2,1,0"


class TestEvalString:
    def test_matches_scalar_closed_forms(self, scalar_model):
        rng = np.random.default_rng(3)
        for _ in range(500):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=rng.integers(0, 12)))
            start = float(rng.uniform(0.0, 50.0))
            r = GammaString(bits=bits, initial=SymMatrix(start))
            got = eval_string(scalar_model, r).value.item()
            ref = oracles.eval_word_scalar(bits, start)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_innermost_bit_applies_first(self, scalar_model):
        # (0, 1) means f0(f1(x)): from x = 1, f1 gives 2 and f0 gives 5.
        r = GammaString(bits=(0, 1), initial=SymMatrix(1.0))
        assert eval_string(scalar_model, r).value.item() == pytest.approx(5.0, rel=1e-12)
        r = GammaString(bits=(1, 0), initial=SymMatrix(1.0))
        # f1(f0(x)) = f1(3) = 10/4.
        assert eval_string(scalar_model, r).value.item() == pytest.approx(2.5, rel=1e-12)

    def test_trailing_ones_are_noop_at_fixed_point(self, planar, planar_pstar):
        rng = np.random.default_rng(5)
        for _ in range(100):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=rng.integers(0, 8)))
            ones = int(rng.integers(1, 4))
            plain = GammaString(bits=bits, initial=planar_pstar)
            padded = GammaString(bits=bits + (1,) * ones, initial=planar_pstar)
            a = eval_string(planar, plain).value
            b = eval_string(planar, padded).value
            assert spectral_norm(a - b) <= 1e-9 * (1.0 + spectral_norm(a))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_a_numeric_failure(self):
        # Admissible, but f0 multiplies by 1e40: eight open-loop steps overflow.
        m = SystemModel(A=1e20, C=1.0, Q=1.0, R=1.0, P0=1.0)
        with pytest.raises(RuntimeError, match="non-finite"):
            eval_string(m, GammaString.from_text("0^20", m.P0))

    def test_value_includes_metadata(self, scalar_model):
        r = GammaString(bits=(0, 0), initial=SymMatrix(1.0))
        sv = eval_string(scalar_model, r)
        assert sv.source == r
        assert sv.pi == 2


class TestValueKey:
    def test_nearby_values_collide(self):
        x = SymMatrix(1.0)
        y = SymMatrix(1.0 + 1e-12)
        assert value_key(x) == value_key(y)

    def test_distant_values_differ(self):
        assert value_key(SymMatrix(1.0)) != value_key(SymMatrix(1.001))

    def test_scales_with_magnitude(self):
        x = SymMatrix(1e6)
        y = SymMatrix(1e6 * (1.0 + 1e-12))
        assert value_key(x) == value_key(y)


def _assert_groups_match_reference(keys):
    first, inverse = _group_rows(keys)
    ref_first, ref_inverse = oracles.first_occurrence_groups(keys)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(inverse, ref_inverse)


class TestGroupRows:
    @pytest.mark.parametrize("keys", [
        [[7, -3, 2]],                              # a single row
        [[4, 4]] * 9,                              # all rows equal
        [[i, -i, i % 3] for i in range(12)],       # all rows distinct
        [[1, 2], [0, 5], [1, 2], [0, 5], [1, 3]],  # duplicates, interleaved
        [[0, 8, 8], [1, 8, 8], [0, 8, 8]],         # a prefix column splits equal keys
    ])
    def test_cases(self, keys):
        _assert_groups_match_reference(np.array(keys, dtype=np.int64))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_unique_reference(self, data):
        # Narrow entry ranges force duplicates; the widest makes them rare.
        width = data.draw(st.integers(1, 5), label="key columns")
        span = data.draw(st.sampled_from([0, 1, 3, 2**62]), label="entry span")
        rows = data.draw(st.lists(
            st.lists(st.integers(-span, span), min_size=width, max_size=width),
            min_size=1, max_size=40), label="rows")
        # Forced duplicates: copies of drawn rows, then a shuffle.
        copies = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=20),
                           label="copies")
        rows = rows + [rows[i] for i in copies]
        rows = [rows[i] for i in data.draw(st.permutations(range(len(rows))),
                                           label="order")]
        # Prefix columns, as the word tree's drop counts and recorded keys.
        prefix_width = data.draw(st.integers(0, 3), label="prefix columns")
        prefix = data.draw(st.lists(
            st.lists(st.integers(0, 2), min_size=prefix_width, max_size=prefix_width),
            min_size=len(rows), max_size=len(rows)), label="prefix")
        keys = np.array([p + r for p, r in zip(prefix, rows)], dtype=np.int64)
        _assert_groups_match_reference(keys)


class TestSupportSet:
    def test_scalar_depth_two(self, scalar_model, scalar_pstar):
        # Words of length <= 2 from the fixed point produce exactly four
        # distinct values: p*, f0(p*), f1(f0(p*)), f0(f0(p*)).
        vals = sorted(v.item() for v in support_set(scalar_model, 2))
        expected = sorted([
            oracles.P_STAR_SCALAR,
            oracles.F0_ORBIT_SCALAR[0],
            oracles.F1_OF_F0_SCALAR,
            oracles.F0_ORBIT_SCALAR[1],
        ])
        assert len(vals) == 4
        for got, ref in zip(vals, expected):
            assert got == pytest.approx(ref, abs=1e-9)

    def test_growth_collapses_trailing_measurements(self, scalar_model):
        # A word ending in a measurement fixes the fixed point, so the
        # distinct values at depth <= L are the 0-terminated words plus the
        # empty word: 2^L of them, versus 2^(L+1) - 1 words enumerated.
        sizes = [len(support_set(scalar_model, L)) for L in range(7)]
        assert sizes == [2 ** L for L in range(7)]

    def test_every_member_dominates_fixed_point(self, planar, planar_pstar):
        for v in support_set(planar, 4):
            assert loewner_leq(planar_pstar, v, tol=1e-8)

    def test_depth_cap(self, scalar_model):
        with pytest.raises(ValueError):
            support_set(scalar_model, 23)


class TestUpperBounds:
    @pytest.mark.parametrize("model_name", ["scalar", "planar"])
    def test_invariant_scale_absorbs_measurement_step(self, model_name, request):
        model = request.getfixturevalue({"scalar": "scalar_model", "planar": "planar"}[model_name])
        b = invariant_upper_scale(model)
        n = model.dim_state
        from riccati_mdp import riccati_step
        cap = SymMatrix.identity(n) * b
        assert loewner_leq(riccati_step(model, cap), cap)

    def test_scalar_invariant_scale_value(self, scalar_model):
        # f1(b) <= b needs (3b+1)/(b+1) <= b, true from b = 1 + sqrt(3); the
        # doubling search from 1 lands on 4.
        assert invariant_upper_scale(scalar_model) == pytest.approx(4.0)

    def test_string_bound_dominates_value(self, planar, planar_pstar):
        rng = np.random.default_rng(9)
        for _ in range(200):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=rng.integers(0, 12)))
            r = GammaString(bits=bits, initial=planar_pstar)
            bound, scale = string_upper_bound(planar, r)
            val = eval_string(planar, r).value
            assert loewner_leq(val, bound, tol=1e-7)
            assert scale > 0.0

    def test_scalar_bound_closed_form(self, scalar_model, scalar_pstar):
        # With base scale 4 and pi = 3 zero bits, the envelope is
        # f0^3(4) = 2^3 * 4 + 7 = 39.
        r = GammaString.from_text("0,1^3,0^2", scalar_pstar)
        bound, scale = string_upper_bound(scalar_model, r)
        assert scale == pytest.approx(4.0)
        assert bound.item() == pytest.approx(39.0, rel=1e-12)

    def test_bound_depends_only_on_pi(self, scalar_model, scalar_pstar):
        a, _ = string_upper_bound(scalar_model, GammaString.from_text("0^2,1", scalar_pstar))
        b, _ = string_upper_bound(scalar_model, GammaString.from_text("1,0,1,0", scalar_pstar))
        assert a.item() == pytest.approx(b.item(), rel=1e-12)
