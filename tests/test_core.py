"""Unit tests for domain types, validation, and bracket arithmetic."""

import numpy as np
import pytest

import rankdist as rd


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
