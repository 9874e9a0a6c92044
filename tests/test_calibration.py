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

    @pytest.mark.parametrize("labor, message", [
        (np.zeros(4), r"labor_rel_sd must hold one value per bracket \(5\)"),
        (np.zeros(6), r"labor_rel_sd must hold one value per bracket \(5\)"),
        (0.0, "labor_rel_sd must be a nonempty 1-D vector"),
        ([0.1, 0.1, np.nan, 0.1, 0.1], "labor_rel_sd contains non-finite"),
        ([0.1, 0.1, 0.1, 0.1, np.inf], "labor_rel_sd contains non-finite"),
    ], ids=["short", "long", "scalar", "nan", "inf"])
    def test_one_labor_value_per_bracket(self, labor, message):
        with pytest.raises(rd.RankModelError, match=message):
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
        # Knees that leave a fit segment with no gap at n = 10**4.
        ((0.1, 100 - 1e-13), r"breakpoints \(0\.1, 99\.9999999999999\) put "
                             r"the knees at ranks 10 and 10000 at n=10000; "
                             r"every fit segment needs a gap"),
        ((1e-300, 10.0), r"breakpoints \(1e-300, 10\.0\) put the knees at "
                         r"ranks 0 and 1000 at n=10000"),
        ((0.1, 99.99), r"breakpoints \(0\.1, 99\.99\) put the knees at "
                       r"ranks 10 and 9999 at n=10000"),
        # Legal knees, but the best fit found drops its bottom segment so
        # steeply (slope near -1e5) that the shares below the 40% knee
        # underflow to equal zeros: the fill-in is not descending, though
        # no fitted slope is nonnegative.
        ((0.01, 40.0), r"not strictly descending \(every fitted slope is "
                       r"negative, but the shares underflow to zero from "
                       r"rank 4031 on\)"),
    ], ids=["number", "strings", "one_entry", "none", "decreasing",
            "knee_at_rank_n", "knee_at_rank_0", "knee_at_rank_n_minus_1",
            "fit_fails"])
    @pytest.mark.parametrize("fit", [
        lambda bp: rd.fit_piecewise_pareto(TARGET_2012, 10**4, bp),
        lambda bp: rd.calibrate(TARGET_2012, rd.default_volatility_table(),
                                "low", 10**4, bp),
    ], ids=["fit_piecewise_pareto", "calibrate"])
    def test_breakpoints_checked(self, fit, breakpoints, message):
        with pytest.raises(rd.RankModelError, match=message):
            fit(breakpoints)

    NOT_DESCENDING = "fitted shares are not strictly descending "

    @pytest.mark.parametrize("slopes, message", [
        ((0.5, -1.0, -1.0),
         NOT_DESCENDING + r"\(a fitted slope is nonnegative\)"),
        ((-1.0, -0.0, -1.0),
         NOT_DESCENDING + r"\(a fitted slope is nonnegative\)"),
        # Slopes this shallow step each log share by less than half an ulp
        # of 1, so exp rounds neighbours to the same weight.
        ((-1e-13, -1e-13, -1e-13),
         NOT_DESCENDING + r"\(every fitted slope is negative, but the "
                          r"shares round to a tie at rank 506\)"),
        # A vertex holding a NaN is a fit that did not converge.
        ((np.nan, -1.0, -1.0), "piecewise log-log fit did not converge"),
    ], ids=["positive_slope", "negative_zero_slope", "rounding_tie",
            "not_converged"])
    def test_not_descending_names_the_cause(self, monkeypatch, slopes,
                                            message):
        monkeypatch.setattr(calibration, "minimize", lambda objective, starts:
                            calibration.SimplexResult(np.array(slopes), 0.5,
                                                      1, 1))
        with pytest.raises(rd.FitFailedError, match=message):
            rd.fit_piecewise_pareto(TARGET_2012, 10**4)

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

    @pytest.mark.parametrize("n, knees, slopes, fit_error, nfev, restarts", [
        (10**6, calibration.DEFAULT_BREAKPOINTS,
         (-0.8003283180980056, -0.7401718151535341, -1.7386817812035487),
         0.0008012179281869647, 301, 1),
        (10**5, calibration.DEFAULT_BREAKPOINTS,
         (-1.0455787637379705, -0.7416938549309425, -1.7370004215795634),
         0.0014656670413772943, 4087, 8),
        (10**4, (0.1, 10.0),
         (-1.0959620015643359, -0.7440325026684493, -1.7360973107534878),
         0.05949027597243228, 3710, 8),
    ], ids=["n1e6", "n1e5", "n1e4"])
    def test_2012_target_large_n_pinned(self, monkeypatch, n, knees, slopes,
                                        fit_error, nfev, restarts):
        # The headline fits, and the small system of the benchmark's Monte
        # Carlo set-up, bit for bit: the Nelder-Mead path (every restart,
        # every evaluation) and the reported error must not move.  The fit
        # makes one minimize call, which runs the whole ladder.
        results = []
        minimize = calibration.minimize

        def counting(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(calibration, "minimize", counting)
        _shares, fit = rd.fit_piecewise_pareto(TARGET_2012, n, knees)
        assert fit.slopes == slopes
        assert fit.fit_error == fit_error
        assert len(results) == 1
        assert results[0].restarts == restarts
        assert results[0].nfev == nfev


def reference_bracket_sums(bounds, b1, b2, n):
    """A frozen copy of the fit objective's closed-form bracket sums as they
    were first written (one numpy expression per interval end), kept to pin
    the current closure to the same bits."""
    head_terms_max = 32
    em_coeffs = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)
    knees = np.array([b1 + 1, b2 + 1])
    cuts = np.union1d(bounds, knees)
    first, last = cuts[:-1] + 1, cuts[1:]
    bracket = np.searchsorted(bounds, last) - 1
    piece = np.searchsorted(knees, first)
    n_brackets = bounds.size - 1
    log_knees = np.log(knees.astype(np.float64))
    log_n = np.log(float(n))

    count = np.minimum(last - first + 1, head_terms_max)
    head = np.repeat(np.arange(first.size), count)
    head_rank = first[head] + np.arange(count.sum()) - np.repeat(
        np.cumsum(count) - count, count)
    head_log = np.log(head_rank.astype(np.float64))
    head_piece, head_bracket = piece[head], bracket[head]

    tail = last - first + 1 > head_terms_max
    lo = (first[tail] + head_terms_max).astype(np.float64)
    hi = last[tail].astype(np.float64)
    log_lo, log_hi, span = np.log(lo), np.log(hi), np.log(hi / lo)
    tail_piece, tail_bracket = piece[tail], bracket[tail]

    def corrections(s, x, fx):
        total, falling = np.zeros_like(fx), s / x
        for k, coeff in enumerate(em_coeffs):
            total += coeff * falling
            falling = falling * (s - 2 * k - 1) * (s - 2 * k - 2) / (x * x)
        return fx * total

    def sums(slopes):
        s = np.asarray(slopes, dtype=np.float64)
        c1 = (s[0] - s[1]) * log_knees[0]
        c = np.array([0.0, c1, c1 + (s[1] - s[2]) * log_knees[1]])
        top = max(0.0, s[0] * log_knees[0], c[1] + s[1] * log_knees[1],
                  c[2] + s[2] * log_n)
        shift = c - top

        head_terms = np.exp(shift[head_piece] + s[head_piece] * head_log)
        out = np.bincount(head_bracket, head_terms, minlength=n_brackets)

        st, sh = s[tail_piece], shift[tail_piece]
        f_lo, f_hi = np.exp(sh + st * log_lo), np.exp(sh + st * log_hi)
        t = st + 1.0
        rate = np.abs(t)
        with np.errstate(invalid="ignore", divide="ignore"):
            shape = np.where(t == 0.0, span,
                             -np.expm1(-rate * span) / rate)
        integral = np.where(t > 0.0, f_hi * hi, f_lo * lo) * shape
        tails = (integral + 0.5 * (f_lo + f_hi)
                 + corrections(st, hi, f_hi) - corrections(st, lo, f_lo))
        out += np.bincount(tail_bracket, tails, minlength=n_brackets)
        return out / out.sum()

    return sums


def assert_same_bits(actual, desired):
    """Equal bit for bit, zeros' signs included; a NaN matches any NaN,
    since numpy's loops may set a NaN's sign bit either way."""
    nan = np.isnan(actual)
    np.testing.assert_array_equal(nan, np.isnan(desired))
    np.testing.assert_array_equal(actual[~nan].view(np.uint64),
                                  desired[~nan].view(np.uint64))


#: Slopes for batches of the closed form: its fit range, NaN, infinities and
#: the extremes of ``test_extreme_slopes_stay_finite``.
WILD_SLOPE = st.one_of(st.floats(-4.0, 1.0), st.sampled_from(
    [-1.0, np.nan, np.inf, -np.inf, -300.0, 0.0, 300.0, 50.0, -80.0, 40.0]))
EXTREMES = [(-300.0, 0.0, 0.0), (0.0, 0.0, 300.0), (50.0, -80.0, 40.0),
            (np.nan, -1.0, -1.0), (-1.0, np.inf, -1.0), (-1.0, -1.0, -np.inf),
            (-0.8, -1.0, -1.7), (-1.0, -1.0, -1.0)]


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
        np.testing.assert_allclose(sums(slopes[None])[0],
                                   np.diff(cums[bounds]), rtol=0, atol=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([10**4, 10**5, 10**6]),
           breakpoints=st.sampled_from([(0.01, 10.0), (0.1, 10.0),
                                        (0.1, 1.0), (0.5, 40.0)]),
           slopes=st.tuples(SLOPE, SLOPE, SLOPE))
    @example(n=10**5, breakpoints=(0.01, 10.0), slopes=(-1.0, -1.0, -1.0))
    @example(n=10**4, breakpoints=(0.1, 10.0), slopes=(-0.8, -1.0, -1.7))
    @example(n=10**6, breakpoints=(0.1, 1.0), slopes=(-2.5, -2.5, -0.3))
    @example(n=10**5, breakpoints=(0.5, 40.0), slopes=(-0.0, 0.0, -0.0))
    @example(n=10**6, breakpoints=(0.01, 10.0), slopes=(-300.0, 0.0, 0.0))
    @example(n=10**6, breakpoints=(0.01, 10.0), slopes=(0.0, 0.0, 300.0))
    @example(n=10**6, breakpoints=(0.01, 10.0), slopes=(50.0, -80.0, 40.0))
    def test_bitwise_equal_to_reference(self, n, breakpoints, slopes):
        # Same IEEE operations on each element, so the same bits: the
        # pinned fits follow from this for every slope Nelder-Mead tries.
        slopes = np.array(slopes)
        bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                                 for b in TARGET_2012.brackets])
        b1, b2 = calibration._knees(n, breakpoints)
        ours = calibration._bracket_sums_in_closed_form(bounds, b1, b2, n)
        ref = reference_bracket_sums(bounds, b1, b2, n)
        np.testing.assert_array_equal(ours(slopes[None])[0], ref(slopes))

    @settings(max_examples=100, deadline=None)
    @given(n=st.sampled_from([10**4, 10**5, 10**6]),
           breakpoints=st.sampled_from([(0.01, 10.0), (0.1, 10.0),
                                        (0.5, 40.0)]),
           batch=st.sampled_from([1, 3, 7, 8]).flatmap(
               lambda k: st.lists(st.tuples(*[WILD_SLOPE] * 3),
                                  min_size=k, max_size=k)))
    @example(n=10**6, breakpoints=(0.01, 10.0), batch=EXTREMES)
    @example(n=10**4, breakpoints=(0.1, 10.0), batch=EXTREMES[1:])
    @example(n=10**5, breakpoints=(0.01, 10.0), batch=EXTREMES[:3])
    @example(n=10**5, breakpoints=(0.5, 40.0), batch=EXTREMES[3:4])
    def test_batch_rows_bitwise_equal(self, n, breakpoints, batch):
        # Each row of a batch has the bits of that point summed alone, and
        # of the frozen reference, whatever else is in the batch.
        points = np.array(batch)
        bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                                 for b in TARGET_2012.brackets])
        b1, b2 = calibration._knees(n, breakpoints)
        sums = calibration._bracket_sums_in_closed_form(bounds, b1, b2, n)
        ref = reference_bracket_sums(bounds, b1, b2, n)
        # NaN and infinite slopes warn; the bits are what is checked here.
        with np.errstate(all="ignore"):
            rows = sums(points)
            assert rows.shape == (len(batch), bounds.size - 1)
            for row, point in zip(rows, points):
                assert_same_bits(row, sums(point[None])[0])
                assert_same_bits(row, ref(point))

    def test_extreme_slopes_stay_finite(self):
        n = 10**6
        bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                                 for b in TARGET_2012.brackets])
        b1, b2 = calibration._knees(n, (0.01, 10.0))
        sums = calibration._bracket_sums_in_closed_form(bounds, b1, b2, n)
        out = sums(np.array([(-300.0, 0.0, 0.0), (0.0, 0.0, 300.0),
                             (50.0, -80.0, 40.0)]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def batched(objective):
    """The point-at-a-time ``objective`` as :func:`calibration.minimize`
    calls it: on a ``(k, dim)`` array, returning k values."""
    return lambda points: [objective(point) for point in points]


COORD = st.one_of(st.just(0.0), st.floats(-3.0, 1.0))
START = st.tuples(COORD, COORD, COORD)


class TestMinimizeMatchesScipy:
    """``calibration.minimize`` from one start takes the steps of scipy's
    Nelder-Mead with the fit's settings: the same best vertex, value and
    evaluation count."""

    @staticmethod
    def check(objective, start):
        # Imported here, so that without scipy only these tests fail.
        from scipy.optimize import minimize as scipy_minimize

        ours = calibration.minimize(batched(objective), [start])
        ref = scipy_minimize(objective, start, method="Nelder-Mead",
                             options=dict(xatol=1e-8, fatol=1e-12,
                                          maxiter=3000))
        np.testing.assert_array_equal(ours.x, ref.x)
        assert ours.fun == ref.fun
        assert ours.nfev == ref.nfev
        assert ours.restarts == 1

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
        self.check(lambda s: float(np.abs(sums(s[None])[0]
                                          - TARGET_2012.shares).sum()),
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


class TestMinimizeLadder:
    """Searches run in lockstep give what each start gives alone, plus the
    ladder rule: the first start alone wins below 1e-3; otherwise all run,
    a later one replaces the best only if lower by more than 1e-15, and the
    first best below 1e-3 ends the ladder."""

    @staticmethod
    def expected(objective, starts):
        alone = [calibration.minimize(objective, [start]) for start in starts]
        assert all(result.restarts == 1 for result in alone)
        best = alone[0]
        if best.fun < 1e-3:
            return best, best.nfev, 1
        for result in alone[1:]:
            if result.fun < best.fun - 1e-15:
                best = result
            if best.fun < 1e-3:
                break
        return best, sum(result.nfev for result in alone), len(starts)

    def check(self, objective, starts):
        best, nfev, restarts = self.expected(objective, starts)
        calls = []

        def recording(points):
            calls.append(len(points))
            return objective(points)

        ours = calibration.minimize(recording, starts)
        np.testing.assert_array_equal(ours.x, best.x)
        assert ours.fun == best.fun
        assert ours.nfev == nfev == sum(calls)
        assert ours.restarts == restarts
        # The first simplex of every search after the first is one call.
        assert max(calls) == 4 * max(1, restarts - 1)

    BOWLS = ((0.5, -1.0, 0.0), (-2.0, 0.5, -1.0), (-0.5, 0.5, -2.5))

    @settings(max_examples=30, deadline=None)
    @given(starts=st.lists(START, min_size=1, max_size=8),
           floors=st.tuples(*[st.sampled_from([0.0, 5e-4, 2e-3, 0.3])] * 3))
    @example(starts=[BOWLS[0]] * 3, floors=(2e-3, 2e-3, 2e-3))
    # The second start's 5e-4 ends the ladder before the third's 0 is seen.
    @example(starts=list(BOWLS), floors=(0.3, 5e-4, 0.0))
    @example(starts=[(0.0, 0.0, 0.0), BOWLS[1], BOWLS[0]],
             floors=(2e-3, 5e-4, 0.3))
    def test_three_bowls(self, starts, floors):
        # Each start falls into one of three bowls; which one it reaches,
        # and the bowls' floors, decide where the ladder stops.
        def objective(x):
            return min(float(np.sum((x - bowl) ** 2)) + floor
                       for bowl, floor in zip(self.BOWLS, floors))

        self.check(batched(objective), starts)

    def test_fit_ladder(self):
        n = 10**4
        bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                                 for b in TARGET_2012.brackets])
        sums = calibration._bracket_sums_in_closed_form(
            bounds, *calibration._knees(n, (0.1, 10.0)), n)
        self.check(lambda points: np.abs(sums(points)
                                         - TARGET_2012.shares).sum(axis=1),
                   calibration._STARTS)


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
