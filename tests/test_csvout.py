import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_mdp import csvout
from riccati_mdp.csvout import cells, write_csv


def python_cells(values) -> list:
    return [b"%.17g" % v for v in values]


def column_cells(values) -> list:
    """The cells the writer makes of a float column, padding removed."""
    return [bytes(row).replace(b"\0", b"") for row in cells(np.asarray(values, dtype=float))]


def powers_and_neighbours():
    """10^j for j in -5..16 and both float neighbours of each."""
    out = []
    for j in range(-5, 17):
        p = float(f"1e{j}")
        out += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    return out


def exact_ties(per_decade=25, seed=11):
    """Doubles whose exact value lies half-way between two 17-digit decimals,
    x = (2D + 1) / (2 * 10^k) with a 17-digit D, for every decade of the
    fast range.  x * 10^k = t 5^k / 2 for odd t, so x = t / 2^(k+1) is a
    double whenever t < 2^53."""
    rng = np.random.default_rng(seed)
    ties = []
    for k in range(3, 21):
        lo, hi = 2 * 10 ** 16 // 5 ** k + 1, 2 * 10 ** 17 // 5 ** k
        for t in rng.integers(lo, hi, per_decade).tolist():
            t |= 1
            x = Fraction(t, 2 ** (k + 1))
            scaled = x * 10 ** k
            if float(x) == x and 10 ** 16 <= scaled < 10 ** 17:
                assert scaled.denominator == 2
                ties.append(float(x))
    return ties


def table():
    values = powers_and_neighbours()
    values += [1e-4, 1e14, 9.9999999999999991e-05, 99999999999999.984]
    values += exact_ties()
    values += (np.arange(1, 10_001) / 10_000).tolist()
    values += [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1e-310,
               1.7976931348623157e308, 0.1, 0.55, 1.0 / 3.0, 2.0 ** 52, 2.0 ** 53 + 2.0]
    return values + [-v for v in values]


class TestFloatCells:
    def test_fixed_table_matches_python(self):
        values = table()
        assert column_cells(values) == python_cells(values)

    def test_ties_round_half_to_even(self):
        # Python rounds every tie to the even 17th digit; both parities occur.
        ties = exact_ties()
        got = column_cells(ties)
        assert got == python_cells(ties)
        last_digits = {int(Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))) % 2
                       for x in ties}
        assert last_digits == {0, 1}

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_match_python(self, values):
        # Repeated up to a column long enough for the integer path.
        values = values * (csvout._MIN_VECTOR // len(values) + 1)
        assert column_cells(values) == python_cells(values)

    def test_short_columns_match_python(self):
        values = table()[:csvout._MIN_VECTOR - 1]
        assert column_cells(values) == python_cells(values)

    def test_long_column_outside_the_fast_range(self):
        values = [0.0, -0.0, math.nan, -math.inf, 1e-300, -5e-324, 1e200, 1e14] * csvout._MIN_VECTOR
        assert column_cells(values) == python_cells(values)

    def test_powers_of_ten_sit_on_or_above_their_power(self):
        # The decade test compares |x| with the double nearest 10^k, which
        # is right only when no such double lies below its power.
        for k in range(-4, 15):
            assert Fraction(float(f"1e{k}")) >= Fraction(10) ** k

    def test_no_double_rounds_up_into_the_next_decade(self):
        # The largest double below 10^j is more than half a unit of the 17th
        # digit away from it, so 17-digit rounding never carries.
        for j in range(-3, 15):
            p = float(f"1e{j}")
            below = p if Fraction(p) < Fraction(10) ** j else np.nextafter(p, 0.0)
            assert Fraction(10) ** j - Fraction(below) > Fraction(10) ** (j - 17) / 2

    def test_decade_estimate_from_the_binary_exponent(self):
        # floor(n log10 2) = (n * 78913) >> 18 for every n the fast range needs.
        for n in range(-14, 48):
            exact = len(str(2 ** n)) - 1 if n >= 0 else len(str(5 ** -n)) - 1 + n
            assert (n * 78913) >> 18 == exact

    def test_chunks_join_into_one_column(self):
        values = np.linspace(-3.0, 7.0, 3 * csvout._CHUNK + 17)
        values[::97] = 0.0
        assert column_cells(values) == python_cells(values.tolist())


class TestWriteCsv:
    def test_columns_of_each_kind(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["i", "x", "ok", "tag", "const"], [[
            cells(np.arange(3)), cells([0.5, -2.0, 1e300]), cells([True, False, True]),
            cells(np.array([b"a", b"", b"bc"])), cells(0.1),
        ]])
        assert path.read_bytes() == (
            b"i,x,ok,tag,const\n"
            b"0,0.5,true,a,0.10000000000000001\n"
            b"1,-2,false,,0.10000000000000001\n"
            b"2,1.0000000000000001e+300,true,bc,0.10000000000000001\n")

    def test_blocks_follow_each_other(self, tmp_path):
        path = tmp_path / "t.csv"
        n = csvout._CHUNK + 5
        x = np.arange(n) / 7.0
        write_csv(path, ["g", "x"], [[cells(g), cells(x)] for g in (0.25, 0.5)])
        want = b"g,x\n" + b"".join(b"%.17g,%.17g\n" % (g, v) for g in (0.25, 0.5)
                                   for v in x.tolist())
        assert path.read_bytes() == want

    @pytest.mark.parametrize("column", [np.zeros(0), np.zeros(0, dtype=int)])
    def test_empty_block_writes_the_header_only(self, tmp_path, column):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[cells(column)]])
        assert path.read_bytes() == b"x\n"
