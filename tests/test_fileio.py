"""The CSV writers emit every cell as exactly ``"%.17g" % value``.

Each expected file is computed here, row by row with Python's ``%``
operator, and compared byte for byte with what the package wrote.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankdist import fileio
from rankdist.core import GroupedShares, RankModelError, StabilityReport


def reference(header, *columns) -> bytes:
    """The table as ``"%.17g" %`` formats it, one cell at a time."""
    lines = [",".join(header)]
    lines.extend(",".join("%.17g" % v for v in row)
                 for row in zip(*(np.asarray(c).tolist() for c in columns)))
    return ("\n".join(lines) + "\n").encode("ascii")


def assert_table_bytes(tmp_path, *columns):
    """``_write_table`` writes ``columns`` exactly as the reference does."""
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "t.csv"
    fileio._write_table(path, header, *columns)
    assert path.read_bytes() == reference(header, *columns)


def signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def neighbours(values, steps=2):
    """Each value and its ``steps`` nearest doubles on either side."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        current = out[0]
        for _ in range(steps):
            current = np.nextafter(current, direction)
            out.append(current)
    return np.concatenate(out)


class TestWriteTableCells:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_float64_columns(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 40))
        floats = st.floats(allow_nan=True, allow_infinity=True,
                           allow_subnormal=True, width=64)
        a = data.draw(st.lists(floats, min_size=n, max_size=n))
        b = data.draw(st.lists(floats, min_size=n, max_size=n))
        assert_table_bytes(tmp_path_factory.mktemp("cells"),
                           np.array(a, dtype=np.float64),
                           np.array(b, dtype=np.float64))

    def test_special_values(self, tmp_path):
        values = signed([0.0, 5e-324, 1e-310, sys.float_info.min,
                         sys.float_info.max, np.inf, 1.0])
        values = np.append(values, np.nan)
        assert_table_bytes(tmp_path, values)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        # 1e-10 and 1e17 bound the values a fast formatter may treat
        # alike; exponents -5/-4 and 16/17 switch %g between positional
        # and exponent notation.
        powers = [float(f"1e{k}") for k in range(-20, 21)]
        assert_table_bytes(tmp_path, signed(neighbours(powers)))

    def test_seventeenth_digit_ties_round_half_even(self, tmp_path):
        # N + 0.25 and N + 0.75 need 18 digits for N in [2^50, 2^51), so
        # each is an exact tie at 17 digits: ...4.25 -> ...4.2, ...3.75
        # -> ...3.8.
        rng = np.random.default_rng(20160115)
        whole = np.concatenate([[2.0 ** 50, 2.0 ** 51 - 1],
                                rng.integers(2 ** 50, 2 ** 51, 5000)])
        ties = np.concatenate([whole + 0.25, whole + 0.75])
        assert "%.17g" % (2.0 ** 50 + 0.25) == "1125899906842624.2"
        assert_table_bytes(tmp_path, signed(ties))

    def test_values_rounding_up_into_the_next_decade(self, tmp_path):
        # Each of these doubles lies below 10^k, yet its 17 digits round
        # up to exactly 1e<k>.
        exponents = [-305, -243, -176, -175, -174, -79, -78, -73, -70, -14,
                     98, 129, 153, 220]
        values = [float(f"1e{k}") for k in exponents]
        for k, value in zip(exponents, values):
            assert Fraction(value) < Fraction(10) ** k
            assert "%.17g" % value == f"1e{k:+03d}"
        assert_table_bytes(tmp_path, signed(neighbours(values)))

    def test_log_uniform_values(self, tmp_path):
        rng = np.random.default_rng(7)
        values = 10.0 ** rng.uniform(-14, 18, 100_000)
        assert_table_bytes(tmp_path, values * rng.choice([-1.0, 1.0],
                                                         values.size))

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
        assert_table_bytes(tmp_path, bits.view(np.float64))

    def test_integer_column_next_to_float_column(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(1000) * 1e-3
        assert_table_bytes(tmp_path, np.arange(1, values.size + 1), values)

    @pytest.mark.parametrize("rows", [0, 1, 150_001])
    def test_table_sizes(self, tmp_path, rows):
        values = np.linspace(-1.0, 1.0, rows) ** 3
        assert_table_bytes(tmp_path, np.arange(rows), values)


class TestWriteTableShape:
    @pytest.mark.parametrize("columns", [
        ([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), ([1.0], [[1.0]]),
        ([1.0],),
    ], ids=["second_short", "first_short", "two_dimensional", "too_few"])
    def test_columns_must_match_the_header(self, tmp_path, columns):
        with pytest.raises(RankModelError, match="one 1-D column per header"):
            fileio._write_table(tmp_path / "t.csv", ("a", "b"), *columns)
        assert not (tmp_path / "t.csv").exists()


class TestPublicWriters:
    SHARES = np.sort(np.random.default_rng(5).pareto(1.2, 20_000) + 1)[::-1]
    SHARES = SHARES / SHARES.sum()

    def test_alpha_csv(self, tmp_path):
        alpha = self.SHARES - self.SHARES.mean()
        fileio.write_alpha_csv(tmp_path / "a.csv", alpha)
        assert (tmp_path / "a.csv").read_bytes() == reference(
            ("rank", "alpha"), range(1, alpha.size + 1), alpha)

    def test_fit_csv(self, tmp_path):
        fileio.write_fit_csv(tmp_path / "f.csv", self.SHARES)
        assert (tmp_path / "f.csv").read_bytes() == reference(
            ("rank", "share"), range(1, self.SHARES.size + 1), self.SHARES)

    def test_loglog_csv(self, tmp_path):
        shares = self.SHARES.copy()
        shares[-100:] = 0.0
        fileio.write_loglog_csv(tmp_path / "l.csv", shares)
        kept = shares[shares > 0].copy()
        ranks = np.arange(1, kept.size + 1)
        assert (tmp_path / "l.csv").read_bytes() == reference(
            ("log10_rank", "log10_share"), np.log10(ranks), np.log10(kept))

    def test_grouped_csv(self, tmp_path):
        brackets = ((0, 0.01), (0.01, 1), (1, 10), (10, 100))
        shares = [0.1, 0.2, 0.3, 0.4]
        fileio.write_grouped_csv(tmp_path / "g.csv",
                                 GroupedShares(brackets=brackets,
                                               shares=shares))
        assert (tmp_path / "g.csv").read_bytes() == reference(
            ("lo_pct", "hi_pct", "share"), [b[0] for b in brackets],
            [b[1] for b in brackets], shares)

    def test_divergence_json_rejects_stable_report(self, tmp_path):
        with pytest.raises(RankModelError, match="stable report"):
            fileio.write_divergence_json(tmp_path / "d.json",
                                         StabilityReport())
        assert not (tmp_path / "d.json").exists()

    def test_path_csv(self, tmp_path):
        brackets = ((0, 0.01), (0.01, 1), (1, 100))
        times = np.arange(0, 51) * 0.1
        groups = np.random.default_rng(2).dirichlet([1, 2, 3], times.size)
        fileio.write_path_csv(tmp_path / "p.csv", times, groups, brackets)
        header = ("year", "top_0_0.01", "top_0.01_1", "top_1_100")
        assert (tmp_path / "p.csv").read_bytes() == reference(
            header, times, *groups.T)
