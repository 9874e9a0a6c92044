"""The projection and inversion path writes each n-long intermediate into an
array it owns, and gives the same bits and the same rejections as the
expressions it replaced; the gap oracle works through each chunk in blocks
and gives the same bits as its whole-chunk expressions.

The ``reference_*`` functions are frozen copies of those expressions, each
allocating its temporaries afresh.  They are the test references: every
result must equal theirs bit for bit, and every rejection must be the same
exception with the same message and rank.
"""

import math
import tracemalloc

import numpy as np
import pytest

import rankdist as rd
from rankdist import core, fileio, simulate
from rankdist.core import (NonPositiveSigmaError, RankModelError,
                           StabilityReport, TaxSchedule, TiedSharesError,
                           TrendSpec, UnstableError, prefix_sum)
from rankdist.stable import gaps_from_prefix_sums


# ---------------------------------------------------------------------------
# Frozen references
# ---------------------------------------------------------------------------

def reference_prefix_sum(values):
    return np.cumsum(np.asarray(values, dtype=np.longdouble)).astype(
        np.float64)


def reference_float_vector(values, name):
    arr = core._as_float_array(values, name)
    if arr.ndim != 1 or arr.size == 0:
        raise RankModelError(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise RankModelError(f"{name} contains non-finite values")
    return arr


def reference_rank_parameters(alpha, sigma):
    """The checks of ``RankParameters``; returns (alpha, sigma)."""
    sigma = reference_float_vector(sigma, "sigma")
    alpha = reference_float_vector(alpha, "alpha")
    if sigma.size != alpha.size - 1:
        raise RankModelError("sigma must have length n - 1")
    if np.any(sigma <= 0):
        raise NonPositiveSigmaError("all sigma values must be positive")
    return alpha, sigma


def reference_stable_gaps(gaps):
    """The checks of ``StableGaps``; returns the gaps."""
    gaps = core._as_float_array(gaps, "gaps")
    if gaps.ndim != 1:
        raise RankModelError("gaps must be a 1-D vector")
    if np.any(~np.isfinite(gaps)) or np.any(gaps < 0):
        raise RankModelError("gaps must be finite and nonnegative")
    return gaps


def reference_gaps_from_prefix_sums(sums, sigma):
    sums = core._as_float_array(sums, "sums")
    if sums.size:
        low, high = sums.min(), sums.max()
        if not (low > -np.inf and high < np.inf):
            raise RankModelError("sums contains non-finite values")
        if high >= 0:
            raise UnstableError(int(np.argmax(sums >= 0)) + 1)
    sigma = core._as_float_array(sigma, "sigma")
    if sigma.size != sums.size:
        raise RankModelError("sigma and prefix sums differ in length")
    if sigma.size and not (sigma.min() > 0 and sigma.max() < np.inf):
        raise NonPositiveSigmaError("all sigma values must be finite and "
                                    "positive")
    return reference_stable_gaps(sigma ** 2 / (-4.0 * sums))


def reference_shares_from_gaps(gaps):
    logs = np.concatenate([[0.0], -reference_prefix_sum(gaps)])
    weights = np.exp(logs)
    return reference_float_vector(weights / weights.sum(), "shares")


def reference_alpha_from_shares(values, sigma):
    """Inversion of the share vector ``values``; returns alpha."""
    sigma = core._as_float_array(sigma, "sigma")
    if sigma.size != values.size - 1:
        raise RankModelError("sigma must have length n - 1")
    gaps = np.log1p((values[:-1] - values[1:]) / values[1:])
    if np.any(gaps <= 0):
        raise TiedSharesError(int(np.argmax(gaps <= 0)) + 1)
    sums = -(sigma ** 2) / (4.0 * gaps)
    return reference_rank_parameters(
        np.diff(sums, prepend=0.0, append=0.0), sigma)[0]


def reference_check_stability(sums):
    sums = reference_float_vector(sums, "sums")
    bad = sums[:-1] >= 0
    if not np.any(bad):
        return StabilityReport()
    first = int(np.argmax(bad)) + 1
    A = sums / np.arange(1, sums.size + 1)
    m = int(np.argmax(A)) + 1
    unique = int(np.count_nonzero(A == A[m - 1])) == 1
    return StabilityReport(first_violation=first, m=m, A_m=float(A[m - 1]),
                           unique_max=unique)


def reference_top_group(alpha, sigma, m):
    group = alpha[:m] - alpha[:m].mean()
    with np.errstate(over="ignore"):
        gaps = reference_gaps_from_prefix_sums(
            reference_prefix_sum(group)[:-1], sigma[:m - 1])
    shares = reference_shares_from_gaps(gaps).copy()
    for _ in range(5):
        residual = 1.0 - math.fsum(shares)
        if residual == 0.0:
            break
        shares[0] += residual
    return shares


def reference_project(alpha, sigma):
    """Returns (limit shares, stability report)."""
    sums = reference_prefix_sum(alpha)
    report = reference_check_stability(sums)
    if report.stable:
        shares = reference_shares_from_gaps(
            reference_gaps_from_prefix_sums(sums[:-1], sigma))
    else:
        shares = np.zeros(alpha.size)
        shares[:report.m] = reference_top_group(alpha, sigma, report.m)
    return shares, report


def reference_gap_oracle(kappa, sigma, dt, horizon, burn_in, seed):
    """``simulate_gap_oracle``'s whole-chunk loop, arguments taken as valid;
    it reads ``_ORACLE_CHUNK_STEPS`` and ``_philox`` from the module."""
    steps = int(round(horizon / dt))
    skip = int(round(burn_in / dt))
    if sigma == 0.0:
        return 0.0
    total = 0.0
    y_last = 0.0
    run_min = 0.0
    chunk_steps = simulate._ORACLE_CHUNK_STEPS
    for chunk, start in enumerate(range(0, steps, chunk_steps)):
        m = min(chunk_steps, steps - start)
        rng = simulate._philox(seed, chunk)
        z = rng.standard_normal(m)
        u = rng.random(m)
        incr = -kappa * dt + sigma * np.sqrt(dt) * z
        y = y_last + np.cumsum(incr)
        lows = y - 0.5 * (
            incr + np.sqrt(incr * incr - 2.0 * sigma * sigma * dt * np.log(u)))
        lows[0] = min(lows[0], run_min)
        mins = np.minimum.accumulate(lows)
        x = y - np.minimum(0.0, mins)
        total += float(x[max(skip - start, 0):].sum())
        y_last = float(y[-1])
        run_min = float(mins[-1])
    return total / (steps - skip)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    # array_equal reads -0.0 == 0.0; the sign of a zero must match too.
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def random_params(n, seed):
    rng = np.random.default_rng(seed)
    shares = np.sort(rng.random(n) + 1e-3)[::-1]
    sigma = rng.uniform(0.05, 1.0, n - 1)
    return rd.RankedShares(shares=shares / shares.sum()), sigma


@pytest.fixture(scope="module")
def calibrated():
    """The packaged 2012 target filled in at n = 10**4, with the 'high'
    volatilities, whose steps make sigma vary with rank."""
    target = fileio.read_grouped_shares(fileio.DATA_DIR / "wealth2012.csv")
    shares, _fit = rd.fit_piecewise_pareto(target, 10**4)
    sigma = rd.expand_sigma(rd.default_volatility_table(), 10**4, "high")
    return shares, sigma


INPUTS = [("random", 2, 1), ("random", 3, 2), ("random", 10**4, 3),
          ("calibrated", 10**4, None)]
INPUT_IDS = ["random_n2", "random_n3", "random_n1e4", "calibrated_n1e4"]


@pytest.fixture(params=INPUTS, ids=INPUT_IDS)
def shares_sigma(request):
    kind, n, seed = request.param
    if kind == "calibrated":
        return request.getfixturevalue("calibrated")
    return random_params(n, seed)


def adjustments(n):
    """(trend, tax) pairs for an n-rank system: none, a mild and a
    divergent trend on the top rank, the presets and the default tax where
    their brackets land on ranks, and a tax on the top rank."""
    top = (0.0, 100.0 / n)
    trends = [TrendSpec(), TrendSpec(brackets=(top,), growth=[0.004]),
              TrendSpec(brackets=(top,), growth=[5.0])]
    taxes = [TaxSchedule(), TaxSchedule(brackets=(top,), rate=[0.02])]
    if n == 10**4:
        trends += [rd.preset_scenario(k) for k in (2, 3, 4)]
        taxes.append(rd.default_capital_tax())
    return [(trend, tax) for trend in trends for tax in taxes]


# ---------------------------------------------------------------------------
# Bit for bit
# ---------------------------------------------------------------------------

class TestPrefixSumBits:
    @pytest.mark.parametrize("n", [2, 3, 10**4])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_random_vectors(self, n, dtype):
        rng = np.random.default_rng(n)
        values = (rng.standard_normal(n)
                  * 10.0 ** rng.integers(-8, 8, n)).astype(dtype)
        before = values.copy()
        assert_same_bits(prefix_sum(values), reference_prefix_sum(before))
        # The caller's array, long double or not, is never written.
        assert values.dtype == dtype
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("values", [
        [0.1, 0.2, 0.3],
        0.7,
        np.array(0.7),
        np.arange(12.0).reshape(3, 4) / 7,
        np.asfortranarray(np.arange(12.0).reshape(3, 4) / 7),
        np.arange(12.0)[::3],
        np.zeros(0),
        [],
        [True, False, True],
        np.arange(5, dtype=np.int64),
    ], ids=["list", "scalar", "zero_dim", "two_dim", "fortran_order",
            "strided", "empty", "empty_list", "bools", "integers"])
    def test_edge_inputs(self, values):
        assert_same_bits(prefix_sum(values), reference_prefix_sum(values))

    def test_read_only_input(self):
        values = np.linspace(-1.0, 1.0, 101) / 3
        values.setflags(write=False)
        assert_same_bits(prefix_sum(values), reference_prefix_sum(values))
        frozen = rd.RankParameters(alpha=values, sigma=np.ones(100)).alpha
        assert_same_bits(prefix_sum(frozen), reference_prefix_sum(values))


class TestForwardAndInverseBits:
    def test_alpha_from_shares(self, shares_sigma):
        shares, sigma = shares_sigma
        before = shares.shares.copy(), sigma.copy()
        params = rd.alpha_from_shares(shares, sigma)
        assert_same_bits(params.alpha,
                         reference_alpha_from_shares(shares.shares, sigma))
        assert np.array_equal(shares.shares, before[0])
        assert np.array_equal(sigma, before[1])

    def test_forward_solve(self, shares_sigma):
        params = rd.alpha_from_shares(*shares_sigma)
        sums = prefix_sum(params.alpha)[:-1]
        before = sums.copy(), params.sigma.copy()
        gaps = gaps_from_prefix_sums(sums, params.sigma)
        reference = reference_gaps_from_prefix_sums(before[0], before[1])
        assert_same_bits(gaps.gaps, reference)
        assert_same_bits(rd.shares_from_gaps(gaps).shares,
                         reference_shares_from_gaps(reference))
        assert_same_bits(rd.stable_gaps(params).gaps, reference)
        assert np.array_equal(sums, before[0])
        assert np.array_equal(params.sigma, before[1])

    def test_adjust_and_project(self, shares_sigma):
        params = rd.alpha_from_shares(*shares_sigma)
        alpha, sigma = params.alpha.copy(), params.sigma.copy()
        n = params.n
        kinds = set()
        for trend, tax in adjustments(n):
            trended = rd.apply_trend(params, trend)
            expected = alpha + core.per_rank_values(trend.brackets,
                                                    trend.growth, n)
            assert_same_bits(trended.alpha, expected)
            adjusted = rd.apply_tax(trended, tax)
            expected = expected - core.per_rank_values(tax.brackets,
                                                       tax.rate, n)
            assert_same_bits(adjusted.alpha, expected)
            sums = prefix_sum(adjusted.alpha)
            assert rd.check_stability(sums=sums) == \
                reference_check_stability(sums)

            outcome = rd.project(adjusted, ((0.0, 100.0),))
            shares, report = reference_project(expected, sigma)
            assert outcome.report == report
            assert_same_bits(outcome.shares, shares)
            kinds.add(outcome.kind)
        assert kinds == {"stable", "divergent"}
        assert np.array_equal(params.alpha, alpha)
        assert np.array_equal(params.sigma, sigma)


class TestGapOracleBits:
    """Blocks and chunks, with the burn-in ending anywhere, against the
    whole-chunk loop; ``_ORACLE_BLOCK`` must not select bits."""

    BLOCK = simulate._ORACLE_BLOCK

    @pytest.mark.parametrize("chunk, block, steps, skip, sigma", [
        # Three chunks of 10^6 and a partial fourth; the burn-in ends
        # inside the second chunk, inside a block.
        (None, None, 3_500_000, 1_234_567, 0.3),
        # Chunks of 1,000 steps, each one block or blocks of 64 or 7 steps;
        # the burn-in ends inside the third chunk and inside a block.
        (1000, None, 5500, 2345, 0.3),
        (1000, 64, 5500, 2345, 0.3),
        (1000, 7, 5500, 2345, 0.3),
        (None, 1000, 123_457, 45_678, 0.3),
        (None, None, 1, 0, 0.3),
        (None, None, BLOCK, 0, 0.3),
        (None, None, BLOCK + 1, 1, 0.3),
        (None, None, 5000, 100, 0.0),
    ], ids=["three_chunks_and_part", "chunk_1000", "chunk_1000_block_64",
            "chunk_1000_block_7", "block_1000", "one_step", "one_block",
            "one_block_and_one_step", "sigma_zero"])
    def test_same_bits_as_whole_chunks(self, monkeypatch, chunk, block,
                                       steps, skip, sigma):
        if chunk is not None:
            monkeypatch.setattr(simulate, "_ORACLE_CHUNK_STEPS", chunk)
        if block is not None:
            monkeypatch.setattr(simulate, "_ORACLE_BLOCK", block)
        dt = 1e-3
        args = dict(kappa=0.2, sigma=sigma, dt=dt, horizon=steps * dt,
                    burn_in=skip * dt, seed=42)
        assert int(round(args["horizon"] / dt)) == steps
        assert int(round(args["burn_in"] / dt)) == skip
        got = rd.simulate_gap_oracle(**args)
        assert got == reference_gap_oracle(**args)
        assert (got == 0.0) == (sigma == 0.0)


# ---------------------------------------------------------------------------
# The same rejections
# ---------------------------------------------------------------------------

def outcome(function, value):
    """What ``function(value)`` gives: ("ok", result) or the exception's
    type, message and rank.  Both sides make the same RuntimeWarnings on
    these inputs, so they are silenced here."""
    try:
        with np.errstate(all="ignore"):
            return "ok", function(value)
    except RankModelError as exc:
        return type(exc), str(exc), getattr(exc, "rank", None)


def assert_same_outcome(function, reference, value):
    actual, expected = outcome(function, value), outcome(reference, value)
    if actual[0] == expected[0] == "ok":
        if isinstance(expected[1], np.ndarray):
            assert_same_bits(actual[1], expected[1])
        else:
            assert actual[1] == expected[1]
    else:
        assert actual == expected


N = 7
ALPHA = rd.alpha_from_shares(*random_params(N, 5)).alpha
SIGMA = np.linspace(0.2, 0.5, N - 1)
SUMS = prefix_sum(ALPHA)
SHARES = random_params(N, 5)[0].shares
GAPS = np.linspace(0.3, 0.1, N - 1)

#: field: (current, reference, valid input, bad values to plant).
NON_FINITE = (np.nan, np.inf, -np.inf)
NOT_POSITIVE = NON_FINITE + (0.0, -0.3)
FIELDS = {
    "alpha": (lambda a: rd.RankParameters(alpha=a, sigma=SIGMA).alpha,
              lambda a: reference_rank_parameters(a, SIGMA)[0],
              ALPHA, NON_FINITE),
    "alpha_kappa": (rd.kappa_from_alpha,
                    lambda a: -2.0 * reference_prefix_sum(
                        reference_float_vector(a, "alpha"))[:-1],
                    ALPHA, NON_FINITE),
    "sigma": (lambda s: rd.RankParameters(alpha=ALPHA, sigma=s).sigma,
              lambda s: reference_rank_parameters(ALPHA, s)[1],
              SIGMA, NOT_POSITIVE),
    "sigma_forward": (lambda s: gaps_from_prefix_sums(SUMS[:-1], s).gaps,
                      lambda s: reference_gaps_from_prefix_sums(SUMS[:-1], s),
                      SIGMA, NOT_POSITIVE),
    "sigma_inversion": (
        lambda s: rd.alpha_from_shares(rd.RankedShares(SHARES), s).alpha,
        lambda s: reference_alpha_from_shares(SHARES, s),
        SIGMA, NOT_POSITIVE),
    "shares": (lambda x: rd.RankedShares(shares=x).shares,
               lambda x: reference_float_vector(x, "shares"),
               SHARES, NON_FINITE),
    "gaps": (lambda g: rd.StableGaps(gaps=g).gaps, reference_stable_gaps,
             GAPS, NON_FINITE + (-0.1,)),
    "sums_stability": (lambda s: rd.check_stability(sums=s),
                       reference_check_stability, SUMS, NON_FINITE),
    "sums_forward": (lambda s: gaps_from_prefix_sums(s, SIGMA).gaps,
                     lambda s: reference_gaps_from_prefix_sums(s, SIGMA),
                     SUMS[:-1], NON_FINITE),
}
PLANTED = [(field, where, bad) for field, spec in FIELDS.items()
           for where in ("first", "middle", "last") for bad in spec[3]]


class TestSameRejections:
    @pytest.mark.parametrize("field, where, bad", PLANTED,
                             ids=[f"{f}-{w}-{b}" for f, w, b in PLANTED])
    def test_planted_value(self, field, where, bad):
        function, reference, valid, _bad = FIELDS[field]
        values = valid.copy()
        values[{"first": 0, "middle": values.size // 2,
                "last": -1}[where]] = bad
        assert_same_outcome(function, reference, values)

    @pytest.mark.parametrize("field", FIELDS)
    def test_valid_input(self, field):
        function, reference, valid, _bad = FIELDS[field]
        assert outcome(function, valid)[0] == "ok"
        assert_same_outcome(function, reference, valid)

    @pytest.mark.parametrize("sums", [
        [-1.0], [0.0], [3.0], [-1.0, -2.0], [-1.0, 0.0], [-1.0, 5.0],
        [0.0, -1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0, 3.0],
        [-1.0, 0.0, -3.0], [0.0, 0.0, 0.0]])
    def test_stability_of_few_sums(self, sums):
        assert_same_outcome(lambda s: rd.check_stability(sums=s),
                            reference_check_stability, np.array(sums))

    @pytest.mark.parametrize("shares", [
        [0.4, 0.2, 0.2, 0.2, 0.0],
        [0.5, 0.25, 0.25, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.6, 0.4, 0.0, 0.0],
        [0.0, 1.0],
        [0.3, 0.7],
        [0.5, 0.3, 0.2, 0.0],
        [1.0],
    ], ids=["zero_after_tie", "nan_gap_after_tie", "tie_then_nan_gaps",
            "nan_gap_no_tie", "rising_from_zero", "rising",
            "infinite_last_gap", "one_rank"])
    def test_inversion_of_zero_or_tied_shares(self, shares):
        # A zero share makes the gap above it infinite and every gap below
        # it NaN (0/0); a NaN gap does not count as a tie.
        shares = rd.RankedShares(shares=np.array(shares))
        sigma = np.full(shares.n - 1, 0.3)
        assert_same_outcome(lambda s: rd.alpha_from_shares(shares, s).alpha,
                            lambda s: reference_alpha_from_shares(
                                shares.shares, s), sigma)


# ---------------------------------------------------------------------------
# Working set
# ---------------------------------------------------------------------------

def peak_above_inputs(run):
    """Bytes traced at the peak of ``run()`` above what was live before it
    (the inputs, built beforehand, are not counted; the result is)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    del result
    return peak - base


class TestWorkingSet:
    """Peak memory of one pass, in units of one n-long float64 array
    (F = 8n bytes); a long double takes L bytes (16 on x86-64, so Ln = 2F).

    Budgets, from the arrays the design keeps live at its peak:

    * stable cell: inside the forward solve's prefix sum, the gaps (F), the
      long-double running sums (Ln) and their float64 rounding (F); the
      prefix sums of alpha are dropped once the gaps exist, and the shares
      do not exist yet.  2F + Ln.
    * divergent cell: the prefix sum of alpha (Ln, then its F rounding);
      afterwards only that F beside the running averages (F), then beside
      the limit shares (F); the top group is m-long.  F + Ln.
    * trend then tax: each per-rank adjustment becomes the adjusted alpha,
      and the trended alpha is live while the tax is applied.  2F.
    * inversion: the gaps (F) and sigma squared (F); then the gaps, turned
      into -S in place, and alpha (F).  2F.

    0.1F of slack covers objects of bracket size.  The expressions these
    replaced peaked at 6F, 4F, 3.13F and 4F.
    """

    n = 10**5
    F = 8 * n
    L = np.dtype(np.longdouble).itemsize
    SLACK = 0.1 * F

    @pytest.fixture(scope="class")
    def params(self):
        ranks = np.arange(1.0, self.n + 1)
        shares = rd.RankedShares(shares=ranks ** -1.5 / np.sum(ranks ** -1.5))
        return rd.alpha_from_shares(shares, np.full(self.n - 1, 0.283))

    def test_stable_cell(self, params):
        peak = peak_above_inputs(lambda: rd.project(params, ((0, 1),
                                                             (1, 100))))
        assert peak <= 2 * self.F + self.L * self.n + self.SLACK

    def test_divergent_cell(self, params):
        trended = rd.apply_trend(params, TrendSpec(brackets=((0, 0.1),),
                                                   growth=[5.0]))
        outcome = rd.project(trended, ((0, 1), (1, 100)))
        assert outcome.kind == "divergent" and outcome.report.m > 1
        peak = peak_above_inputs(lambda: rd.project(trended, ((0, 1),
                                                              (1, 100))))
        assert peak <= self.F + self.L * self.n + self.SLACK

    def test_trend_then_tax(self, params):
        trend, tax = rd.preset_scenario(4), rd.default_capital_tax()
        peak = peak_above_inputs(
            lambda: rd.apply_tax(rd.apply_trend(params, trend), tax))
        assert peak <= 2 * self.F + self.SLACK

    def test_inversion(self, params):
        shares = rd.shares_from_gaps(rd.stable_gaps(params))
        sigma = params.sigma
        peak = peak_above_inputs(lambda: rd.alpha_from_shares(shares, sigma))
        assert peak <= 2 * self.F + self.SLACK


class TestGapOracleWorkingSet:
    """Peak memory of one 10^6-step chunk of the gap oracle, in units of one
    chunk-long float64 array (F = 8 MB) and of one block (B = 256 KiB).

    Budget, from the arrays the design keeps live: the normals turned into
    increments and the path turned into the reflected value are chunk-long
    (2F); the block of uniforms turned into the running minimum and the
    scratch block are 2B.  Up to 2B more covers block-sized temporaries.
    The whole-chunk expressions this replaced held eight chunk-long arrays
    (8.1F).
    """

    F = 8 * simulate._ORACLE_CHUNK_STEPS
    B = 8 * simulate._ORACLE_BLOCK

    def test_one_chunk(self):
        args = dict(kappa=0.5, sigma=0.3, dt=1e-3, burn_in=0.0, seed=1)
        # A first call imports modules (about 0.7 MiB), which a short run
        # keeps out of the measurement.
        rd.simulate_gap_oracle(horizon=1.0, **args)
        horizon = simulate._ORACLE_CHUNK_STEPS * args["dt"]
        peak = peak_above_inputs(
            lambda: rd.simulate_gap_oracle(horizon=horizon, **args))
        assert peak <= 2 * self.F + 4 * self.B
