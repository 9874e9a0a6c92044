"""Unit tests for domain types, validation, and bracket arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rankdist as rd
from rankdist.core import as_brackets, as_integer, per_rank_values


class TestMakeRankedShares:
    def test_valid_three_ranks(self):
        s = rd.make_ranked_shares([0.5, 0.3, 0.2])
        assert s.n == 3
        np.testing.assert_allclose(s.shares, [0.5, 0.3, 0.2])

    def test_not_descending(self):
        with pytest.raises(rd.NotDescendingError):
            rd.make_ranked_shares([0.3, 0.5, 0.2])

    def test_uniform_ties_allowed(self):
        s = rd.make_ranked_shares([0.25, 0.25, 0.25, 0.25])
        assert s.n == 4

    def test_nonpositive_rejected(self):
        with pytest.raises(rd.NonPositiveShareError):
            rd.make_ranked_shares([0.6, 0.4, 0.0])

    def test_renormalizes_small_deviation(self):
        s = rd.make_ranked_shares([0.5, 0.3, 0.2 + 5e-7])
        assert s.shares.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_deviation_rejected(self):
        with pytest.raises(rd.BadNormalizationError):
            rd.make_ranked_shares([0.5, 0.3, 0.21])

    def test_identity_on_valid_input(self):
        values = np.array([0.4, 0.35, 0.25])
        s = rd.make_ranked_shares(values)
        np.testing.assert_array_equal(s.shares, values)

    @pytest.mark.parametrize("values, message", [
        ([], "nonempty 1-D"),
        ([[0.6, 0.4]], "nonempty 1-D"),
        ([0.6, np.nan], "non-finite"),
    ], ids=["empty", "2d", "nan"])
    def test_bad_vector_rejected(self, values, message):
        with pytest.raises(rd.RankModelError, match=message):
            rd.make_ranked_shares(values)


class TestAsInteger:
    @pytest.mark.parametrize("value", [10_000, 1e4, np.int64(10_000)],
                             ids=["int", "integral_float", "numpy_int"])
    def test_integral_value_accepted(self, value):
        n = as_integer(value, "n", 2)
        assert n == 10_000 and type(n) is int


class TestRankParameters:
    def test_kappa_recomputed(self):
        p = rd.make_rank_parameters([-0.02, 0.005, 0.015], [0.3, 0.3])
        np.testing.assert_allclose(p.kappa, [0.04, 0.03])

    def test_sum_zero_enforced_by_constructor(self):
        with pytest.raises(rd.BadAlphaSumError):
            rd.make_rank_parameters([0.01, 0.01, 0.01], [0.3, 0.3])

    def test_positive_sigma_required(self):
        with pytest.raises(rd.NonPositiveSigmaError):
            rd.make_rank_parameters([-0.01, 0.01], [0.0])


class TestFrozenFieldsLeaveCallerArraysAlone:
    """A domain type's array field is read-only, but the float64 array the
    caller passed in stays writable."""

    @pytest.mark.parametrize("size, make, field", [
        (1, lambda a: rd.TrendSpec(brackets=((0, 1),), growth=a), "growth"),
        (1, lambda a: rd.TaxSchedule(brackets=((0, 1),), rate=a), "rate"),
        (2, lambda a: rd.GroupedShares(brackets=((0, 50), (50, 100)),
                                       shares=a), "shares"),
        (2, lambda a: rd.VolatilityTable(brackets=((0, 50), (50, 100)),
                                         sigma_low=a, sigma_high=a),
         "sigma_high"),
        (4, lambda a: rd.RankedShares(shares=a), "shares"),
        (4, lambda a: rd.RankParameters(alpha=a, sigma=np.ones(3)),
         "alpha"),
        (4, lambda a: rd.SimulationPath(
            times=[1.0], group_shares=[[1.0]],
            final_shares=rd.RankedShares(shares=np.full(5, 0.2)),
            rank_gap_averages=a), "rank_gap_averages"),
    ], ids=["trend", "tax", "grouped", "volatility", "ranked", "params",
            "path"])
    def test_caller_array_stays_writable(self, size, make, field):
        values = np.full(size, 1.0 / size)
        frozen = getattr(make(values), field)
        assert np.shares_memory(frozen, values)
        with pytest.raises(ValueError, match="read-only"):
            frozen[0] = 1.0
        values[0] = 0.75
        assert frozen[0] == 0.75


class TestBracketToRanks:
    def test_top_hundredth_percent_of_a_million(self):
        assert rd.bracket_to_ranks((0, 0.01), 10**6) == (1, 100)

    def test_whole_population(self):
        assert rd.bracket_to_ranks((0, 100), 5) == (1, 5)

    def test_half_to_one_percent_of_a_million(self):
        assert rd.bracket_to_ranks((0.5, 1), 10**6) == (5001, 10000)

    def test_non_integer_boundary(self):
        with pytest.raises(rd.NonIntegerBoundaryError):
            rd.bracket_to_ranks((0, 0.03), 1000)

    @pytest.mark.parametrize("bracket", [(5, 5), (20, 10), (-1, 10),
                                         (10, 101)],
                             ids=["empty", "reversed", "below_0", "above_100"])
    def test_invalid_bracket_rejected(self, bracket):
        with pytest.raises(rd.RankModelError, match="invalid bracket"):
            rd.bracket_to_ranks(bracket, 1000)

    @pytest.mark.parametrize("bracket", [(20, 10), (5, 5), (10, 101)],
                             ids=["reversed", "empty", "above_100"])
    def test_invalid_bracket_same_class_as_in_a_table(self, bracket):
        # One rule for a bracket alone and for a bracket in a table.
        with pytest.raises(rd.BracketGapError, match="invalid bracket"):
            rd.bracket_to_ranks(bracket, 1000)

    @pytest.mark.parametrize("bracket", [("0", "10"), (0, True), (np.nan, 10),
                                         (0, 10, 20), "ab"],
                             ids=["strings", "bool", "nan", "triple",
                                  "string"])
    def test_non_numeric_pair_rejected(self, bracket):
        with pytest.raises(rd.RankModelError):
            rd.bracket_to_ranks(bracket, 100)

    @pytest.mark.parametrize("n", [0, "x"], ids=["zero", "string"])
    def test_bad_size_rejected(self, n):
        with pytest.raises(rd.RankModelError, match="n must be an integer"):
            rd.bracket_to_ranks((0, 100), n)

    def test_partition_of_percent_space_partitions_ranks(self):
        brackets = [(0, 0.01), (0.01, 0.1), (0.1, 0.5), (0.5, 1), (1, 10),
                    (10, 100)]
        n = 10**4
        covered = []
        for b in brackets:
            lo, hi = rd.bracket_to_ranks(b, n)
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(1, n + 1))


class TestGroupShares:
    def test_uniform_proportionality(self):
        n = 1000
        s = rd.make_ranked_shares(np.full(n, 1.0 / n))
        g = rd.group_shares(s, [(0, 10), (10, 100)])
        np.testing.assert_allclose(g.shares, [0.10, 0.90])

    def test_halves(self):
        n = 100
        s = rd.make_ranked_shares(np.full(n, 1.0 / n))
        g = rd.group_shares(s, [(0, 50), (50, 100)])
        np.testing.assert_allclose(g.shares, [0.5, 0.5])

    def test_partition_sums_to_one(self):
        rng = np.random.default_rng(0)
        raw = np.sort(rng.random(10**4))[::-1]
        s = rd.make_ranked_shares(raw / raw.sum())
        g = rd.group_shares(s, [(0, 0.01), (0.01, 0.1), (0.1, 0.5), (0.5, 1),
                                (1, 10), (10, 100)])
        assert abs(g.shares.sum() - 1.0) < 1e-9

    def test_plain_vector_with_zeros_accepted(self):
        vec = np.array([0.7, 0.3, 0.0, 0.0])
        g = rd.group_shares(vec, [(0, 50), (50, 100)])
        np.testing.assert_allclose(g.shares, [1.0, 0.0])

    @pytest.mark.parametrize("shares", [np.ones((2, 2)) / 4, 1.0],
                             ids=["2d", "scalar"])
    def test_not_a_vector_rejected(self, shares):
        # A 2-D table is not read as a vector of its n = 4 cells.
        with pytest.raises(rd.RankModelError, match="1-D"):
            rd.group_shares(shares, ((0, 50), (50, 100)))

    def test_reversed_bracket_is_a_bracket_gap_error(self):
        with pytest.raises(rd.BracketGapError, match="invalid bracket"):
            rd.group_shares(np.full(100, 0.01), ((20, 10),))


class TestGroupedSharesValidation:
    def test_overlap_rejected(self):
        with pytest.raises(rd.BracketGapError):
            rd.GroupedShares(brackets=((0, 10), (5, 100)),
                             shares=np.array([0.5, 0.5]))

    def test_gap_rejected(self):
        with pytest.raises(rd.BracketGapError):
            rd.GroupedShares(brackets=((0, 10), (20, 100)),
                             shares=np.array([0.5, 0.5]))

    def test_bad_sum_rejected(self):
        with pytest.raises(rd.BadSumError):
            rd.GroupedShares(brackets=((0, 50), (50, 100)),
                             shares=np.array([0.6, 0.5]))


class TestTrendAndTaxTypes:
    def test_partial_coverage_allowed(self):
        spec = rd.TrendSpec(brackets=((0, 0.01),), growth=np.array([0.01]))
        assert spec.growth[0] == 0.01

    def test_negative_tax_rejected(self):
        with pytest.raises(rd.NegativeInputError):
            rd.TaxSchedule(brackets=((0, 1),), rate=np.array([-0.01]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [
        lambda v: rd.TrendSpec(brackets=((0, 1),), growth=np.array([v])),
        lambda v: rd.TaxSchedule(brackets=((0, 1),), rate=np.array([v])),
    ], ids=["trend", "tax"])
    def test_non_finite_rejected(self, make, bad):
        with pytest.raises(rd.RankModelError, match="non-finite"):
            make(bad)

    def test_empty_defaults(self):
        assert rd.TrendSpec().growth.size == 0
        assert rd.TaxSchedule().rate.size == 0


class TestBracketLists:
    """Every type that holds a bracket list checks it with one rule."""

    MAKERS = {
        "trend": lambda b: rd.TrendSpec(brackets=b, growth=np.zeros(len(b))),
        "tax": lambda b: rd.TaxSchedule(brackets=b, rate=np.zeros(len(b))),
        "grouped": lambda b: rd.GroupedShares(
            brackets=b, shares=np.full(len(b), 1 / len(b))),
        "volatility": lambda b: rd.VolatilityTable(
            brackets=b, sigma_low=np.full(len(b), 0.3),
            sigma_high=np.full(len(b), 0.4)),
        "sim_config": lambda b: rd.SimConfig(n=100, seed=1,
                                             report_brackets=b),
    }

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_valid_partition_accepted(self, make):
        make(((0, 10), (10, 100)))

    @pytest.mark.parametrize("end", ["0", True, float("nan")],
                             ids=["str", "bool", "nan"])
    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_bad_end_rejected(self, make, end):
        with pytest.raises(rd.RankModelError,
                           match=r"brackets\[0\]\[0\] must be a finite"):
            make(((end, 10), (10, 100)))

    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_bracket_not_a_pair_rejected(self, make):
        with pytest.raises(rd.RankModelError, match="must be a pair"):
            make(((0, 10, 20), (20, 100)))

    @pytest.mark.parametrize("brackets", [
        ((0, 10), (10, 10), (10, 100)), ((-5, 10), (10, 100)),
        ((0, 10), (10, 101)),
    ], ids=["empty", "below_0", "above_100"])
    @pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS.keys())
    def test_out_of_range_bracket_rejected(self, make, brackets):
        with pytest.raises(rd.BracketGapError, match="invalid bracket"):
            make(brackets)

    def test_sim_config_requires_partition(self):
        with pytest.raises(rd.BracketGapError, match="cover"):
            rd.SimConfig(n=100, seed=1, report_brackets=((0, 10),))

    def test_not_a_list_rejected(self):
        with pytest.raises(rd.RankModelError, match="list of"):
            as_brackets(5, "brackets", partition=False)


#: Two-entry columns numpy cannot convert to float64.
NOT_NUMBERS = {"strings": ["a", "b"], "objects": [{}, {}],
               "ragged": [[0.5], [0.5, 0.5]]}


class TestBracketTables:
    """Every bracket table holds one finite value per bracket in each of
    its columns."""

    #: Each table type, built from brackets and one column used for all
    #: of its value columns.
    TABLES = {
        "grouped": lambda b, c: rd.GroupedShares(brackets=b, shares=c),
        "volatility": lambda b, c: rd.VolatilityTable(
            brackets=b, sigma_low=c, sigma_high=c),
        "trend": lambda b, c: rd.TrendSpec(brackets=b, growth=c),
        "tax": lambda b, c: rd.TaxSchedule(brackets=b, rate=c),
    }
    #: A word of the message that names the column.
    NAMES = {"grouped": "shares", "volatility": "sigma", "trend": "growth",
             "tax": "rate"}
    HALVES = ((0, 50), (50, 100))

    @pytest.mark.parametrize("column", [[0.5], [0.5, 0.5, 0.5]],
                             ids=["short", "long"])
    @pytest.mark.parametrize("kind", TABLES)
    def test_length_mismatch_rejected(self, kind, column):
        with pytest.raises(rd.RankModelError, match=self.NAMES[kind]):
            self.TABLES[kind](self.HALVES, column)

    @pytest.mark.parametrize("brackets, column", [
        (HALVES, [[0.5], [0.5]]), (HALVES, [[0.5, 0.5]]), (((0, 100),), 1.0),
    ], ids=["column", "row", "scalar"])
    @pytest.mark.parametrize("kind", TABLES)
    def test_column_must_be_one_dimensional(self, kind, brackets, column):
        with pytest.raises(rd.RankModelError,
                           match=f"{self.NAMES[kind]}.* must hold one value "
                                 f"per bracket"):
            self.TABLES[kind](brackets, column)

    @pytest.mark.parametrize("column", NOT_NUMBERS.values(),
                             ids=NOT_NUMBERS.keys())
    @pytest.mark.parametrize("kind", TABLES)
    def test_column_of_non_numbers_rejected(self, kind, column):
        with pytest.raises(rd.RankModelError,
                           match=f"{self.NAMES[kind]}.* must hold numbers"):
            self.TABLES[kind](self.HALVES, column)


class TestVectorsOfNonNumbers:
    """A vector numpy cannot read as float64 raises RankModelError naming
    its field, as a table column does."""

    @pytest.mark.parametrize("values", NOT_NUMBERS.values(),
                             ids=NOT_NUMBERS.keys())
    @pytest.mark.parametrize("field, make", [
        ("shares", lambda v: rd.RankedShares(shares=v)),
        ("alpha", lambda v: rd.RankParameters(alpha=v, sigma=[1.0])),
        ("sigma", lambda v: rd.RankParameters(alpha=[0.1, 0.0, -0.1],
                                              sigma=v)),
        ("shares", lambda v: rd.group_shares(v, ((0, 100),))),
        ("alpha", rd.recenter),
    ], ids=["ranked_shares", "alpha", "sigma", "group_shares", "recenter"])
    def test_rejected_naming_the_field(self, field, make, values):
        with pytest.raises(rd.RankModelError,
                           match=f"{field} must hold numbers"):
            make(values)


class TestBracketArithmeticProperties:
    """Bracket arithmetic at n = k * 10^4 over random partitions whose cuts
    are multiples of 0.01%, so every cut lands on an integer rank."""

    @staticmethod
    @st.composite
    def partitions(draw):
        k = draw(st.integers(1, 5))
        cuts = draw(st.lists(st.integers(1, 9_999), max_size=12, unique=True))
        ends = [0] + sorted(cuts) + [10_000]
        brackets = tuple((lo / 100, hi / 100)
                         for lo, hi in zip(ends, ends[1:]))
        return k * 10_000, brackets

    @settings(max_examples=100, deadline=None)
    @given(case=partitions())
    def test_ranges_tile_the_population(self, case):
        n, brackets = case
        ranges = [rd.bracket_to_ranks(b, n) for b in brackets]
        assert ranges[0][0] == 1 and ranges[-1][1] == n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert lo == hi + 1
        assert all(lo <= hi for lo, hi in ranges)

    @settings(max_examples=100, deadline=None)
    @given(case=partitions(), data=st.data())
    def test_per_rank_values_repeat_each_bracket(self, case, data):
        n, brackets = case
        values = data.draw(st.lists(st.floats(-1e3, 1e3),
                                    min_size=len(brackets),
                                    max_size=len(brackets)))
        counts = [hi - lo + 1 for lo, hi in
                  (rd.bracket_to_ranks(b, n) for b in brackets)]
        np.testing.assert_array_equal(per_rank_values(brackets, values, n),
                                      np.repeat(values, counts))

    @settings(max_examples=100, deadline=None)
    @given(case=partitions())
    def test_uniform_shares_group_to_widths(self, case):
        n, brackets = case
        grouped = rd.group_shares(np.full(n, 1.0 / n), brackets)
        widths = np.array([hi - lo for lo, hi in brackets]) / 100
        np.testing.assert_allclose(grouped.shares, widths, rtol=0,
                                   atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=partitions(), data=st.data())
    def test_cut_off_the_rank_grid_rejected(self, case, data):
        n, brackets = case
        i = data.draw(st.integers(0, len(brackets) - 1))
        lo, hi = brackets[i]
        # Move the cut by a fraction of one rank (100 / n percent).
        shift = data.draw(st.floats(0.1, 0.9)) * 100 / n
        bad = (lo, hi - shift) if data.draw(st.booleans()) \
            else (lo + shift, hi)
        with pytest.raises(rd.NonIntegerBoundaryError):
            rd.bracket_to_ranks(bad, n)
