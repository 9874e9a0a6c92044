"""Unit tests for volatility tables and the piecewise log-log fit."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rankdist as rd
from rankdist import calibration
from rankdist.core import GroupedShares, bracket_to_ranks, prefix_sum


TARGET_2012 = GroupedShares(
    brackets=((0, 0.01), (0.01, 0.1), (0.1, 0.5), (0.5, 1), (1, 10),
              (10, 100)),
    shares=np.array([0.111, 0.108, 0.124, 0.072, 0.357, 0.228]))


class TestDefaultVolatilityTable:
    def test_low_constant(self):
        table = rd.default_volatility_table()
        assert np.all(table.sigma_low == 0.283)

    def test_high_values(self):
        table = rd.default_volatility_table()
        np.testing.assert_array_equal(table.sigma_high,
                                      [0.286, 0.294, 0.316, 0.392, 1.662])
        assert table.brackets == ((0, 10), (10, 20), (20, 40), (40, 60),
                                  (60, 100))


class TestVolatilityFromComponents:
    def test_investment_only(self):
        table = rd.volatility_from_components(0.2, np.zeros(5))
        np.testing.assert_allclose(table.sigma_high, np.sqrt(2) * 0.2)
        np.testing.assert_allclose(table.sigma_low, np.sqrt(2) * 0.2)

    def test_zero_inputs(self):
        with pytest.raises(rd.NonPositiveSigmaError):
            rd.volatility_from_components(0.0, np.zeros(5))

    def test_backed_out_bottom_bracket(self):
        # The labor component that reproduces a combined 1.662.
        labor = np.array([0.0, 0.0, 0.0, 0.0, 1.1582])
        table = rd.volatility_from_components(0.2, labor)
        assert table.sigma_high[-1] == pytest.approx(1.662, abs=5e-4)

    def test_negative_rejected(self):
        with pytest.raises(rd.NegativeInputError):
            rd.volatility_from_components(-0.1, np.zeros(5))

    @pytest.mark.parametrize("labor", [np.zeros(4), np.zeros(6), 0.0],
                             ids=["short", "long", "scalar"])
    def test_one_labor_value_per_bracket(self, labor):
        with pytest.raises(rd.RankModelError):
            rd.volatility_from_components(0.2, labor)

    @pytest.mark.parametrize("investment, labor, message", [
        ("x", np.zeros(5), "investment_sd must be a finite number"),
        (True, np.zeros(5), "investment_sd must be a finite number"),
        (0.2, ["a"] * 5, "labor_rel_sd must hold numbers"),
    ], ids=["investment_string", "investment_bool", "labor_strings"])
    def test_non_numbers_rejected(self, investment, labor, message):
        with pytest.raises(rd.RankModelError, match=message):
            rd.volatility_from_components(investment, labor)


class TestExpandSigma:
    def test_low_variant_constant(self):
        sigma = rd.expand_sigma(rd.default_volatility_table(), 100, "low")
        assert sigma.shape == (99,)
        assert np.all(sigma == 0.283)

    def test_high_variant_bracket_lookup(self):
        sigma = rd.expand_sigma(rd.default_volatility_table(), 10, "high")
        # Gap k takes the bracket of its upper rank k.
        assert sigma[0] == 0.286   # rank 1 in (0, 10]%
        assert sigma[8] == 1.662   # rank 9 in (60, 100)%

    def test_piecewise_constant_boundaries(self):
        n = 1000
        sigma = rd.expand_sigma(rd.default_volatility_table(), n, "high")
        assert sigma[99] == 0.286    # gap 100: upper rank 100 = top 10%
        assert sigma[100] == 0.294   # gap 101 enters the next bracket


    def test_integral_float_size_accepted(self):
        table = rd.default_volatility_table()
        np.testing.assert_array_equal(rd.expand_sigma(table, 1e4, "low"),
                                      rd.expand_sigma(table, 10**4, "low"))

    def test_negative_size_rejected(self):
        with pytest.raises(rd.RankModelError, match="n must be an integer"):
            rd.expand_sigma(rd.default_volatility_table(), -10, "low")


class TestFitPiecewisePareto:
    def test_uniform_target_zero_slopes(self):
        target = GroupedShares(brackets=((0, 50), (50, 100)),
                               shares=np.array([0.5, 0.5]))
        shares, fit = rd.fit_piecewise_pareto(target, 1000, (10.0, 50.0))
        assert fit.slopes == (0.0, 0.0, 0.0)
        assert fit.fit_error == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(shares.shares, 1e-3)

    def test_recovers_single_pareto(self):
        # Aggregate an exact power law into brackets, then fit: all three
        # segments should recover the generating slope.
        n = 10000
        slope = -0.8
        k = np.arange(1, n + 1)
        raw = k ** slope
        full = raw / raw.sum()
        brackets = ((0, 0.1), (0.1, 1), (1, 10), (10, 100))
        target = rd.group_shares(rd.make_ranked_shares(full), brackets)
        shares, fit = rd.fit_piecewise_pareto(target, n, (0.1, 10.0))
        assert fit.fit_error < 1e-4
        for s in fit.slopes:
            assert s == pytest.approx(slope, abs=1e-3)

    @pytest.mark.parametrize("breakpoints, message", [
        (5, "breakpoints must be a pair"),
        (("a", "b"), r"breakpoints\[0\] must be a finite number"),
        ((0.01,), "breakpoints must be a pair"),
        (None, "breakpoints must be a pair"),
        ((10.0, 0.01), "must be interior percents in increasing order"),
    ], ids=["number", "strings", "one_entry", "none", "decreasing"])
    @pytest.mark.parametrize("fit", [
        lambda bp: rd.fit_piecewise_pareto(TARGET_2012, 10**4, bp),
        lambda bp: rd.calibrate(TARGET_2012, rd.default_volatility_table(),
                                "low", 10**4, bp),
    ], ids=["fit_piecewise_pareto", "calibrate"])
    def test_breakpoints_checked(self, fit, breakpoints, message):
        with pytest.raises(rd.RankModelError, match=message):
            fit(breakpoints)

    def test_infeasible_target(self):
        target = GroupedShares(brackets=((0, 50), (50, 100)),
                               shares=np.array([0.3, 0.7]))
        with pytest.raises(rd.InfeasibleTargetError):
            rd.fit_piecewise_pareto(target, 1000, (10.0, 50.0))

    def test_2012_target_small_n(self):
        # Same shape as the headline calibration but desk-sized.
        # The first segment degenerates to one gap at this scale, so the
        # achievable error is a little above the full-scale calibration's.
        shares, fit = rd.fit_piecewise_pareto(TARGET_2012, 10**4)
        assert fit.fit_error < 0.02
        assert all(s < 0 for s in fit.slopes)
        assert np.all(np.diff(shares.shares) < 0)
        grouped = rd.group_shares(shares, TARGET_2012.brackets)
        assert np.abs(grouped.shares - TARGET_2012.shares).sum() == \
            pytest.approx(fit.fit_error, rel=1e-9)

    @pytest.mark.parametrize("n, slopes, fit_error, nfev, restarts", [
        (10**6, (-0.8003283180980056, -0.7401718151535341,
                 -1.7386817812035487), 0.0008012179281869508, 301, 1),
        (10**5, (-1.0455787637379705, -0.7416938549309425,
                 -1.7370004215795634), 0.0014656670413771694, 4087, 8),
    ], ids=["n1e6", "n1e5"])
    def test_2012_target_large_n_pinned(self, monkeypatch, n, slopes,
                                        fit_error, nfev, restarts):
        # The headline fits, bit for bit: the Nelder-Mead path (every
        # restart, every evaluation) and the reported error must not move.
        results = []
        minimize = calibration.minimize

        def counting(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(calibration, "minimize", counting)
        _shares, fit = rd.fit_piecewise_pareto(TARGET_2012, n)
        assert fit.slopes == slopes
        assert fit.fit_error == fit_error
        assert len(results) == restarts
        assert sum(r.nfev for r in results) == nfev


class TestClosedFormBracketSums:
    """The fit's objective sums each bracket in closed form; it must agree
    with the bracket sums of the dense fill-in it stands for."""

    SLOPE = st.one_of(st.just(-1.0), st.floats(-4.0, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([10**4, 10**5, 10**6]),
           breakpoints=st.sampled_from([(0.01, 10.0), (0.1, 1.0),
                                        (0.5, 40.0)]),
           slopes=st.tuples(SLOPE, SLOPE, SLOPE))
    @example(n=10**6, breakpoints=(0.01, 10.0), slopes=(-1.0, -1.0, -1.0))
    @example(n=10**4, breakpoints=(0.5, 40.0), slopes=(1.0, 0.5, -1.0))
    @example(n=10**5, breakpoints=(0.1, 1.0), slopes=(-4.0, 1.0, -4.0))
    def test_matches_dense_fill_in(self, n, breakpoints, slopes):
        slopes = np.array(slopes)
        bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                                 for b in TARGET_2012.brackets])
        b1, b2 = calibration._knees(n, breakpoints)
        shares = calibration._shares_from_slopes(slopes, b1, b2, n)
        cums = np.concatenate([[0.0], prefix_sum(shares)])
        sums = calibration._bracket_sums_in_closed_form(bounds, b1, b2, n)
        np.testing.assert_allclose(sums(slopes), np.diff(cums[bounds]),
                                   rtol=0, atol=1e-13)

    def test_extreme_slopes_stay_finite(self):
        n = 10**6
        bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                                 for b in TARGET_2012.brackets])
        b1, b2 = calibration._knees(n, (0.01, 10.0))
        sums = calibration._bracket_sums_in_closed_form(bounds, b1, b2, n)
        for slopes in [(-300.0, 0.0, 0.0), (0.0, 0.0, 300.0),
                       (50.0, -80.0, 40.0)]:
            out = sums(np.array(slopes))
            assert np.all(np.isfinite(out))
            assert out.sum() == pytest.approx(1.0, abs=1e-12)


class TestMinimizeMatchesScipy:
    """``calibration.minimize`` takes the steps of scipy's Nelder-Mead with
    the fit's settings: the same best vertex, value and evaluation count."""

    COORD = st.one_of(st.just(0.0), st.floats(-3.0, 1.0))
    START = st.tuples(COORD, COORD, COORD)

    @staticmethod
    def check(objective, start):
        # Imported here, so that without scipy only these tests fail.
        from scipy.optimize import minimize as scipy_minimize

        ours = calibration.minimize(objective, start)
        ref = scipy_minimize(objective, start, method="Nelder-Mead",
                             options=dict(xatol=1e-8, fatol=1e-12,
                                          maxiter=3000))
        np.testing.assert_array_equal(ours.x, ref.x)
        assert ours.fun == ref.fun
        assert ours.nfev == ref.nfev

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([10**4, 10**5]),
           breakpoints=st.sampled_from([(0.01, 10.0), (0.1, 1.0),
                                        (0.5, 40.0)]),
           start=START)
    @example(n=10**5, breakpoints=(0.01, 10.0), start=(-0.9, -0.75, -1.5))
    @example(n=10**4, breakpoints=(0.1, 1.0), start=(0.0, 0.0, 0.0))
    def test_fit_objective(self, n, breakpoints, start):
        bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                                 for b in TARGET_2012.brackets])
        b1, b2 = calibration._knees(n, breakpoints)
        sums = calibration._bracket_sums_in_closed_form(bounds, b1, b2, n)
        self.check(lambda s: float(np.abs(sums(s) - TARGET_2012.shares).sum()),
                   start)

    @settings(max_examples=100, deadline=None)
    @given(start=START)
    @example(start=(0.0, 0.0, 0.0))
    def test_rounded_quadratic_with_ties(self, start):
        # Rounding flattens the bowl: whole simplices share one value.
        def objective(x):
            return round(float(np.sum((x - [0.5, -1.0, 0.0]) ** 2)), 2)

        self.check(objective, start)

    @settings(max_examples=100, deadline=None)
    @given(start=START)
    @example(start=(0.0, 0.0, 0.0))
    def test_rosenbrock(self, start):
        def objective(x):
            return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                + (1.0 - x[:-1]) ** 2))

        self.check(objective, start)


class TestCalibrate:
    def test_integral_float_size_accepted(self):
        table = rd.default_volatility_table()
        params = rd.calibrate(TARGET_2012, table, "low", n=10000.0)
        expected = rd.calibrate(TARGET_2012, table, "low", n=10**4)
        np.testing.assert_array_equal(params.alpha, expected.alpha)

    def test_string_size_rejected(self):
        with pytest.raises(rd.RankModelError, match="n must be an integer"):
            rd.fit_piecewise_pareto(TARGET_2012, "10000")

    def test_sigma_variant_checked_before_the_fit(self, monkeypatch):
        calls = []

        def counting(*args, original=calibration.minimize):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(calibration, "minimize", counting)
        with pytest.raises(rd.RankModelError,
                           match="unknown sigma variant 'mid'"):
            rd.calibrate(TARGET_2012, rd.default_volatility_table(), "mid",
                         10**4)
        assert calls == []

    def test_stable_by_construction(self):
        params = rd.calibrate(TARGET_2012, rd.default_volatility_table(),
                              "low", 10**4)
        report = rd.check_stability(sums=prefix_sum(params.alpha))
        assert report.stable

    def test_round_trip_fixed_point(self):
        params = rd.calibrate(TARGET_2012, rd.default_volatility_table(),
                              "high", 10**4)
        shares, fit = rd.fit_piecewise_pareto(TARGET_2012, 10**4)
        resolved = rd.shares_from_gaps(rd.stable_gaps(params))
        np.testing.assert_allclose(resolved.shares, shares.shares, rtol=1e-9)
