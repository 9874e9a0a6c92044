"""Unit tests for trend/tax adjustments and the projection engine."""

import numpy as np
import pytest

import rankdist as rd
import rankdist.scenarios
import rankdist.stable
from rankdist.core import GroupedShares, TrendSpec, TaxSchedule, prefix_sum


def small_params(n=1000, seed=3):
    rng = np.random.default_rng(seed)
    raw = np.sort(rng.random(n) + 1e-3)[::-1]
    shares = rd.make_ranked_shares(raw / raw.sum())
    return rd.alpha_from_shares(shares, np.full(n - 1, 0.3))


class TestApplyTrend:
    def test_bracket_shift(self):
        params = small_params()
        trend = TrendSpec(brackets=((0, 1), (10, 100)),
                          growth=np.array([0.01, -0.005]))
        adjusted = rd.apply_trend(params, trend)
        np.testing.assert_allclose(adjusted.alpha[:10], params.alpha[:10] + 0.01)
        np.testing.assert_allclose(adjusted.alpha[10:100], params.alpha[10:100])
        np.testing.assert_allclose(adjusted.alpha[100:],
                                   params.alpha[100:] - 0.005)

    def test_empty_trend_identity(self):
        params = small_params()
        adjusted = rd.apply_trend(params, TrendSpec())
        np.testing.assert_array_equal(adjusted.alpha, params.alpha)

    def test_negated_trend_round_trip(self):
        params = small_params()
        trend = TrendSpec(brackets=((0, 1),), growth=np.array([0.02]))
        undo = TrendSpec(brackets=((0, 1),), growth=np.array([-0.02]))
        back = rd.apply_trend(rd.apply_trend(params, trend), undo)
        np.testing.assert_allclose(back.alpha, params.alpha, atol=1e-15)


class TestApplyTax:
    def test_progressive_tax(self):
        params = small_params()
        tax = rd.default_capital_tax()
        adjusted = rd.apply_tax(params, tax)
        # Top 0.5% of 1000 = ranks 1..5 taxed at 2%, next 0.5% at 1%.
        np.testing.assert_allclose(adjusted.alpha[:5], params.alpha[:5] - 0.02)
        np.testing.assert_allclose(adjusted.alpha[5:10],
                                   params.alpha[5:10] - 0.01)
        np.testing.assert_array_equal(adjusted.alpha[10:], params.alpha[10:])

    def test_zero_rate_identity(self):
        params = small_params()
        tax = TaxSchedule(brackets=((0, 1),), rate=np.array([0.0]))
        np.testing.assert_array_equal(rd.apply_tax(params, tax).alpha,
                                      params.alpha)


class TestRecenter:
    def test_subtracts_mean(self):
        np.testing.assert_allclose(rd.recenter([0.01, 0.01, -0.05]),
                                   [0.02, 0.02, -0.04])

    def test_idempotent_and_shift_invariant(self):
        rng = np.random.default_rng(7)
        alpha = rng.normal(size=20)
        once = rd.recenter(alpha)
        np.testing.assert_allclose(rd.recenter(once), once, atol=1e-15)
        np.testing.assert_allclose(rd.recenter(alpha + 3.7), once, atol=1e-13)


class TestPresetScenario:
    def test_scenario_one_empty(self):
        assert rd.preset_scenario(1).brackets == ()

    def test_scenario_values(self):
        s4 = rd.preset_scenario(4)
        assert s4.brackets == ((0.0, 0.01), (0.01, 0.1), (10.0, 100.0))
        np.testing.assert_array_equal(s4.growth, [0.03, 0.01, -0.015])

    def test_unknown_rejected(self):
        with pytest.raises(rd.UnknownScenarioError):
            rd.preset_scenario(5)

    def test_bool_rejected(self):
        with pytest.raises(rd.UnknownScenarioError,
                           match="must be an integer in 1..4, got True"):
            rd.preset_scenario(True)


class TestProject:
    BRACKETS = ((0, 1), (1, 10), (10, 100))

    def test_no_trend_reproduces_input(self):
        params = small_params()
        baseline = rd.shares_from_gaps(rd.stable_gaps(params))
        outcome = rd.project(params, self.BRACKETS)
        assert outcome.kind == "stable"
        np.testing.assert_allclose(outcome.shares, baseline.shares,
                                   rtol=1e-12)

    def test_divergent_outcome(self):
        # A strong enough top-bracket trend destabilizes the system.
        params = small_params()
        trend = TrendSpec(brackets=((0, 1),), growth=np.array([5.0]))
        outcome = rd.project(rd.apply_trend(params, trend), self.BRACKETS)
        assert outcome.kind == "divergent"
        m = outcome.report.m
        assert np.all(outcome.shares[m:] == 0.0)
        assert outcome.shares[:m].sum() == pytest.approx(1.0, abs=1e-12)
        assert outcome.grouped.shares.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("growth,kind", [(0.0, "stable"),
                                             (5.0, "divergent")])
    def test_adjusted_alpha_summed_once(self, monkeypatch, growth, kind):
        # The stability verdict and the stable forward solve share one
        # prefix sum of the adjusted alpha.
        trend = TrendSpec(brackets=((0, 1),), growth=np.array([growth]))
        params = rd.apply_trend(small_params(), trend)
        calls = []
        for module in (rankdist.scenarios, rankdist.stable):
            def counting(values, original=module.prefix_sum):
                if np.array_equal(np.asarray(values), params.alpha):
                    calls.append(values)
                return original(values)
            monkeypatch.setattr(module, "prefix_sum", counting)
        assert rd.project(params, self.BRACKETS).kind == kind
        assert len(calls) == 1

    def test_monotone_severity_of_presets(self):
        # Stronger top trends concentrate the projected top share.
        n = 10**4
        target = GroupedShares(
            brackets=((0, 0.01), (0.01, 0.1), (0.1, 0.5), (0.5, 1), (1, 10),
                      (10, 100)),
            shares=np.array([0.111, 0.108, 0.124, 0.072, 0.357, 0.228]))
        params = rd.calibrate(target, rd.default_volatility_table(), "low", n)
        tops = []
        for scenario_id in (1, 2, 3, 4):
            adjusted = rd.apply_trend(params, rd.preset_scenario(scenario_id))
            outcome = rd.project(adjusted, target.brackets)
            tops.append(outcome.grouped.shares[0])
        assert all(a <= b + 1e-12 for a, b in zip(tops, tops[1:]))
        assert tops[0] < tops[1]
        assert tops[-1] == pytest.approx(1.0)

    def test_rounding_tie_in_running_averages_is_group_unstable(self):
        # The exact running averages peak at rank 1, the rounded ones at 3;
        # the re-centred group's prefix sums (-8.5e-314, -2.5e-313) are too
        # small for finite gaps, so the group has no internal distribution.
        alpha = np.array([6.787481940000002e-298, 6.787481940000001e-298,
                          6.7874819400000025e-298])
        params = rd.RankParameters(alpha=alpha, sigma=np.ones(2))
        assert rd.check_stability(sums=prefix_sum(alpha)).m == 3
        with pytest.raises(rd.GroupUnstableError, match="finite gaps"):
            rd.project(params, ((0, 100),))
