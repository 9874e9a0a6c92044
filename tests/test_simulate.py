"""Unit tests for the Monte Carlo simulators."""

import threading

import numpy as np
import pytest

import rankdist as rd
from rankdist import simulate
from rankdist.core import bracket_to_ranks, prefix_sum


class TestGapOracle:
    def test_matches_closed_form(self):
        avg = rd.simulate_gap_oracle(kappa=0.1, sigma=0.2, dt=1e-3,
                                     horizon=5000.0, burn_in=500.0, seed=11)
        assert avg == pytest.approx(0.2, rel=0.05)

    def test_exact_at_every_step_size(self):
        # The within-step minimum is drawn from the Brownian-bridge law, so
        # at the grid points the chain has the reflected process's exact
        # law whatever dt is: the stationary mean sigma**2 / (2 kappa) holds
        # with no step-size bias up to kappa * dt = 0.5.  At this horizon the
        # relative error of one run has sd 0.49-0.67% (64 other seeds per
        # dt), so a mean over 16 seeds has standard error 0.12-0.17%, and
        # the 0.7% gate is 4 of them.  Taking the running minimum over the
        # grid points alone reads -39% at dt = 0.1 and -83% at dt = 1.
        kappa, sigma, horizon = 0.5, 0.4, 4e4
        exact = sigma ** 2 / (2.0 * kappa)
        for dt in (0.1, 0.25, 0.5, 1.0):
            runs = [rd.simulate_gap_oracle(kappa, sigma, dt=dt,
                                           horizon=horizon,
                                           burn_in=0.05 * horizon, seed=seed)
                    for seed in range(16)]
            assert abs(np.mean(runs) / exact - 1.0) < 0.007, dt

    def test_zero_sigma_decays_to_boundary(self):
        avg = rd.simulate_gap_oracle(kappa=0.5, sigma=0.0, dt=1e-3,
                                     horizon=100.0, burn_in=10.0, seed=1)
        assert avg == 0.0

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(rd.NonPositiveKappaError):
            rd.simulate_gap_oracle(kappa=0.0, sigma=0.2, dt=1e-3,
                                   horizon=10.0, burn_in=1.0, seed=1)

    @pytest.mark.parametrize("override", [
        {"kappa": float("nan")}, {"kappa": float("inf")},
        {"sigma": float("nan")}, {"dt": float("inf")},
        {"horizon": float("nan")}, {"burn_in": -float("inf")},
        {"seed": -1}, {"seed": 2 ** 64}, {"seed": 1.5},
        {"sigma": -0.2}, {"burn_in": 10.0}, {"dt": 0.0}, {"burn_in": -5.0},
        {"dt": 5e-324, "horizon": 1e300},
    ], ids=["kappa_nan", "kappa_inf", "sigma_nan", "dt_inf", "horizon_nan",
            "burn_in_neg_inf", "seed_negative", "seed_2_64",
            "seed_not_integral", "sigma_negative", "burn_in_past_horizon",
            "dt_zero", "burn_in_negative", "infinite_steps"])
    def test_bad_argument_rejected(self, override):
        kwargs = {**dict(kappa=0.5, sigma=0.2, dt=1e-3, horizon=10.0,
                         burn_in=1.0, seed=1), **override}
        with pytest.raises(rd.RankModelError):
            rd.simulate_gap_oracle(**kwargs)

    def test_zero_steps_named(self):
        # dt longer than the horizon rounds to no step at all: the error
        # names horizon / dt, not the burn-in.
        with pytest.raises(rd.RankModelError,
                           match="horizon / dt must round to a finite "
                                 "number of steps, at least 1"):
            rd.simulate_gap_oracle(kappa=0.5, sigma=0.2, dt=100.0,
                                   horizon=10.0, burn_in=0.0, seed=1)

    def test_deterministic_across_chunking(self, monkeypatch):
        # 5,500 steps in chunks of 1,000, the last one partial; the burn-in
        # of 2,345 steps ends inside the third chunk.
        monkeypatch.setattr(simulate, "_ORACLE_CHUNK_STEPS", 1000)
        kappa, sigma, dt, seed = 0.2, 0.3, 1e-3, 42
        got = rd.simulate_gap_oracle(kappa=kappa, sigma=sigma, dt=dt,
                                     horizon=5.5, burn_in=2.345, seed=seed)
        # The same chain in one pass over the concatenated chunk draws.
        z, u = [], []
        for chunk, size in enumerate([1000] * 5 + [500]):
            rng = simulate._philox(seed, chunk)
            z.append(rng.standard_normal(size))
            u.append(rng.random(size))
        z, u = np.concatenate(z), np.concatenate(u)
        y = np.cumsum(-kappa * dt + sigma * np.sqrt(dt) * z)
        y_prev = np.concatenate([[0.0], y[:-1]])
        d = y - y_prev
        bridge_min = y_prev + 0.5 * (
            d - np.sqrt(d * d - 2.0 * sigma * sigma * dt * np.log(u)))
        x = y - np.minimum(0.0, np.minimum.accumulate(
            np.minimum(bridge_min, 0.0)))
        assert got == pytest.approx(x[2345:].mean(), rel=1e-12)


def tiny_system(n=50, seed=5):
    rng = np.random.default_rng(seed)
    raw = np.sort(rng.random(n) + 0.1)[::-1]
    shares = rd.make_ranked_shares(raw / raw.sum())
    params = rd.alpha_from_shares(shares, np.full(n - 1, 0.3))
    return params, shares


def gibrat_system(n):
    """Constant alpha below the top rank and the bottom rank's balancing
    drift, started from its stable distribution."""
    alpha = np.full(n, -0.1)
    alpha[-1] = 0.1 * (n - 1)
    params = rd.RankParameters(alpha=alpha, sigma=np.full(n - 1, 0.3))
    return params, rd.shares_from_gaps(rd.stable_gaps(params))


class TestSimulateRanked:
    BRACKETS = ((0.0, 10.0), (10.0, 100.0))

    def config(self, n, **overrides):
        base = dict(n=n, dt=0.05, horizon=5.0, seed=9, record_every=1.0,
                    report_brackets=self.BRACKETS)
        base.update(overrides)
        return rd.SimConfig(**base)

    @pytest.mark.parametrize("override, message", [
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -0.1}, "dt must be positive"),
        ({"horizon": 0.5}, "need horizon >= record_every > 0"),
        ({"record_every": 0.0}, "need horizon >= record_every > 0"),
        ({"drift_clip": 0.0}, "drift_clip must be positive"),
        ({"drift_clip": -1.0}, "drift_clip must be positive"),
        ({"dt": None}, "dt must be a finite number, got None"),
        ({"horizon": None}, "horizon must be a finite number, got None"),
        ({"record_every": None},
         "record_every must be a finite number, got None"),
        ({"dt": 1.0, "horizon": 0.4, "record_every": 0.4},
         "horizon / dt must round to a finite number of steps"),
        ({"dt": 5e-324, "horizon": 1e300},
         "horizon / dt must round to a finite number of steps"),
    ], ids=["dt_zero", "dt_negative", "horizon_below_record_every",
            "record_every_zero", "drift_clip_zero", "drift_clip_negative",
            "dt_none", "horizon_none", "record_every_none", "zero_steps",
            "infinite_steps"])
    def test_bad_config_rejected(self, override, message):
        with pytest.raises(rd.RankModelError, match=message):
            self.config(50, **override)

    def test_no_dynamics_constant_shares(self):
        n = 50
        _params, shares = tiny_system(n)
        frozen = rd.RankParameters(alpha=np.zeros(n),
                                   sigma=np.full(n - 1, 1e-9))
        path = rd.simulate_ranked(frozen, self.config(n), shares)
        expected = rd.group_shares(shares, self.BRACKETS).shares
        for row in path.group_shares:
            np.testing.assert_allclose(row, expected, atol=1e-6)

    def test_rows_sum_to_one(self):
        n = 50
        params, shares = tiny_system(n)
        path = rd.simulate_ranked(params, self.config(n), shares)
        np.testing.assert_allclose(path.group_shares.sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_deterministic_same_seed(self):
        n = 50
        params, shares = tiny_system(n)
        p1 = rd.simulate_ranked(params, self.config(n), shares)
        p2 = rd.simulate_ranked(params, self.config(n), shares)
        np.testing.assert_array_equal(p1.group_shares, p2.group_shares)
        np.testing.assert_array_equal(p1.final_shares.shares,
                                      p2.final_shares.shares)

    def test_different_seed_differs(self):
        n = 50
        params, shares = tiny_system(n)
        p1 = rd.simulate_ranked(params, self.config(n), shares)
        p2 = rd.simulate_ranked(params, self.config(n, seed=10), shares)
        assert not np.array_equal(p1.group_shares, p2.group_shares)

    def test_uniform_drift_invariance(self):
        n = 50
        params, shares = tiny_system(n)
        shifted = rd.RankParameters(alpha=params.alpha + 0.5,
                                    sigma=params.sigma)
        p1 = rd.simulate_ranked(params, self.config(n), shares)
        p2 = rd.simulate_ranked(shifted, self.config(n), shares)
        np.testing.assert_allclose(p2.group_shares, p1.group_shares,
                                   atol=1e-9)

    def test_drift_clip_caps_extremes(self):
        n = 50
        params, shares = tiny_system(n)
        spiky = rd.RankParameters(
            alpha=np.concatenate([params.alpha[:-1], [1e6]]),
            sigma=params.sigma)
        path = rd.simulate_ranked(spiky, self.config(n, drift_clip=1.0),
                                  shares)
        assert np.all(np.isfinite(path.final_shares.shares))

    def test_size_mismatch_rejected(self):
        params, shares = tiny_system(50)
        with pytest.raises(rd.RankModelError):
            rd.simulate_ranked(params, self.config(60), shares)

    @pytest.mark.parametrize("last", [0.0, -0.1], ids=["zero", "negative"])
    def test_nonpositive_initial_share_rejected(self, last):
        # The log-wealth of a zero share is -inf; of a negative one, NaN.
        params, _shares = gibrat_system(10)
        initial = rd.RankedShares(shares=np.append(np.full(9, 1 / 9), last))
        with pytest.raises(rd.RankModelError,
                           match="initial shares must be positive"):
            rd.simulate_ranked(params, self.config(10), initial)

    def test_gap_averages_track_theory_gibrat(self):
        # Small pure-power-law system over a long horizon: time-averaged
        # simulated gaps should approach the closed form.
        n = 10
        params, shares = gibrat_system(n)
        predicted = rd.stable_gaps(params)
        config = rd.SimConfig(n=n, dt=0.01, horizon=2000.0, seed=2,
                              record_every=100.0,
                              report_brackets=((0.0, 100.0),))
        path = rd.simulate_ranked(params, config, shares)
        report = rd.gap_average_report(path, predicted)
        assert report["median"] < 0.10


def particle_indexed_reference(params, config, initial):
    """The ranked simulator as it was before its state was kept in rank
    order: a stable argsort of the particle-indexed log-wealths every step,
    then a scatter of the update back to particle order."""
    n = config.n
    alpha = params.alpha
    if config.drift_clip is not None:
        alpha = np.clip(alpha, -config.drift_clip, config.drift_clip)
    delta = np.append(params.sigma, params.sigma[-1]) / np.sqrt(2.0)
    steps = int(round(config.horizon / config.dt))
    record_stride = max(int(round(config.record_every / config.dt)), 1)
    sqrt_dt = np.sqrt(config.dt)
    rank_bounds = [bracket_to_ranks(b, n) for b in config.report_brackets]
    log_wealth = np.log(initial.shares).copy()
    times, recorded = [], []
    gap_sums = np.zeros(n - 1)

    def record(sorted_lw, time):
        weights = np.exp(sorted_lw - sorted_lw[0])
        shares = weights / weights.sum()
        cums = np.concatenate([[0.0], prefix_sum(shares)])
        recorded.append([cums[hi] - cums[lo - 1] for lo, hi in rank_bounds])
        times.append(time)
        return shares

    for step in range(steps):
        order = np.argsort(-log_wealth, kind="stable")
        sorted_lw = log_wealth[order]
        gap_sums += -np.diff(sorted_lw)
        if step > 0 and step % record_stride == 0:
            record(sorted_lw, step * config.dt)
        shocks = simulate._philox(config.seed, step).standard_normal(n)
        log_wealth[order] = sorted_lw + alpha * config.dt \
            + delta * sqrt_dt * shocks[order]

    final = record(np.sort(log_wealth)[::-1], steps * config.dt)
    return np.asarray(times), np.asarray(recorded), final, gap_sums / steps


class ZeroShocks:
    """Stands in for a Philox generator: every shock is zero."""

    def standard_normal(self, n):
        return np.zeros(n)


class LatticeShocks:
    """Shocks of -1, 0 or +1, drawn from the wrapped generator."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, n):
        return self.rng.integers(-1, 2, n).astype(float)


class TestRankOrderedStateMatchesReference:
    """The rank-ordered simulator gives the reference's output bit for bit,
    ties (broken by particle id) included."""

    BRACKETS = ((0.0, 10.0), (10.0, 100.0))

    def assert_same_bits(self, params, config, initial):
        path = rd.simulate_ranked(params, config, initial)
        times, group, final, gaps = particle_indexed_reference(
            params, config, initial)
        np.testing.assert_array_equal(path.times, times)
        np.testing.assert_array_equal(path.group_shares, group)
        np.testing.assert_array_equal(path.final_shares.shares, final)
        np.testing.assert_array_equal(path.rank_gap_averages, gaps)

    def count_lexsorts(self, monkeypatch):
        calls = []
        lexsort = np.lexsort

        def counted(keys):
            calls.append(1)
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counted)
        return calls

    @pytest.mark.parametrize("drift_clip", [None, 0.5],
                             ids=["unclipped", "clipped"])
    def test_small_system(self, drift_clip):
        n = 200
        params, shares = tiny_system(n)
        assert np.abs(params.alpha).max() > 0.5  # the clip bites
        config = rd.SimConfig(n=n, dt=0.05, horizon=20.0, seed=9,
                              record_every=1.0, report_brackets=self.BRACKETS,
                              drift_clip=drift_clip)
        self.assert_same_bits(params, config, shares)

    def test_uniform_start_ties_every_rank(self, monkeypatch):
        n = 200
        params, _shares = tiny_system(n)
        uniform = rd.RankedShares(shares=np.full(n, 1.0 / n))
        config = rd.SimConfig(n=n, dt=0.05, horizon=5.0, seed=4,
                              report_brackets=self.BRACKETS)
        calls = self.count_lexsorts(monkeypatch)
        self.assert_same_bits(params, config, uniform)
        assert len(calls) == 1  # step 0 only: normal shocks break the ties

    def test_ties_recur_without_shocks(self, monkeypatch):
        # Zero drift and zero shocks: the tied initial shares stay tied, so
        # every step takes the fallback.
        n = 60
        raw = np.repeat([3.0, 2.0, 2.0, 1.0], n // 4)
        shares = rd.RankedShares(shares=raw / raw.sum())
        params = rd.RankParameters(alpha=np.zeros(n),
                                   sigma=np.full(n - 1, 0.3))
        monkeypatch.setattr(simulate, "_philox", lambda seed, step:
                            ZeroShocks())
        config = rd.SimConfig(n=n, dt=0.1, horizon=3.0, seed=1,
                              report_brackets=self.BRACKETS)
        calls = self.count_lexsorts(monkeypatch)
        self.assert_same_bits(params, config, shares)
        assert len(calls) == 30

    def test_ties_recur_in_shuffled_order(self, monkeypatch):
        # From a uniform start, drifts of +-0.25 by rank and shocks of -1, 0
        # or +1 times an exact 0.25 keep every log-wealth on an exact
        # lattice.  Ties form and break all run long, between particles
        # whose ids are no longer in rank order, and which tied particle
        # takes which rank's drift is the particle-id rule.
        n = 80
        uniform = rd.RankedShares(shares=np.full(n, 1.0 / n))
        params = rd.RankParameters(alpha=np.resize([0.25, -0.25], n),
                                   sigma=np.full(n - 1, 0.25 * np.sqrt(2.0)))
        philox = simulate._philox
        monkeypatch.setattr(simulate, "_philox", lambda seed, step:
                            LatticeShocks(philox(seed, step)))
        config = rd.SimConfig(n=n, dt=1.0, horizon=200.0, seed=6,
                              report_brackets=self.BRACKETS)
        calls = self.count_lexsorts(monkeypatch)
        self.assert_same_bits(params, config, uniform)
        assert len(calls) == 200  # 80 particles on a lattice: always ties


class TestWorkerDraw:
    """From n = ``_WORKER_DRAW_MIN_N`` up, each step's shocks are drawn on
    one worker thread while the step before re-ranks; below it, in the
    calling thread."""

    def config(self, n, **overrides):
        return rd.SimConfig(**{**dict(n=n, dt=0.05, horizon=2.0, seed=3,
                                      record_every=0.5,
                                      report_brackets=((0.0, 100.0),)),
                               **overrides})

    def draw_threads(self, monkeypatch):
        """Patch ``_philox`` to log the thread each draw runs on and the
        number of threads alive at the time."""
        threads = []
        philox = simulate._philox

        def logged(seed, step):
            threads.append((threading.get_ident(), threading.active_count()))
            return philox(seed, step)

        monkeypatch.setattr(simulate, "_philox", logged)
        return threads

    @pytest.mark.parametrize("drift_clip", [None, 0.5],
                             ids=["unclipped", "clipped"])
    def test_same_bits_as_reference(self, drift_clip, monkeypatch):
        n = -(-simulate._WORKER_DRAW_MIN_N // 100) * 100  # 10% is a rank
        params, initial = gibrat_system(n)
        config = self.config(n, drift_clip=drift_clip, report_brackets=(
            (0.0, 1.0), (1.0, 10.0), (10.0, 100.0)))
        threads = self.draw_threads(monkeypatch)
        path = rd.simulate_ranked(params, config, initial)
        assert len(threads) == config.steps
        assert len({ident for ident, _count in threads}) == 1
        assert threads[0][0] != threading.get_ident()  # all on the worker
        times, group, final, gaps = particle_indexed_reference(
            params, config, initial)
        np.testing.assert_array_equal(path.times, times)
        np.testing.assert_array_equal(path.group_shares, group)
        np.testing.assert_array_equal(path.final_shares.shares, final)
        np.testing.assert_array_equal(path.rank_gap_averages, gaps)

    def test_below_crossover_no_worker(self, monkeypatch):
        n = simulate._WORKER_DRAW_MIN_N - 1
        params, initial = gibrat_system(n)
        config = self.config(n)
        threads = self.draw_threads(monkeypatch)
        before = threading.active_count()
        rd.simulate_ranked(params, config, initial)
        assert threads == [(threading.get_ident(), before)] * config.steps

    @pytest.mark.parametrize("offset", [0, -1],
                             ids=["worker", "inline"])
    def test_draw_error_reaches_caller(self, offset, monkeypatch):
        n = simulate._WORKER_DRAW_MIN_N + offset
        params, initial = gibrat_system(n)
        philox = simulate._philox
        failed = []

        def fails_at_step_7(seed, step):
            if step == 7:
                failed.append(threading.get_ident())
                raise RuntimeError("draw failed at step 7")
            return philox(seed, step)

        monkeypatch.setattr(simulate, "_philox", fails_at_step_7)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="draw failed at step 7"):
            rd.simulate_ranked(params, self.config(n), initial)
        assert (failed[0] == threading.get_ident()) == (offset < 0)
        assert len(threading.enumerate()) == len(before)

    def test_loop_error_joins_worker(self, monkeypatch):
        # The first record raises while the next step's draw is pending on
        # the worker; the worker is joined before the error propagates.
        n = simulate._WORKER_DRAW_MIN_N
        params, initial = gibrat_system(n)
        threads = self.draw_threads(monkeypatch)

        def fails(_values):
            raise RuntimeError("record failed")

        monkeypatch.setattr(simulate, "prefix_sum", fails)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="record failed"):
            rd.simulate_ranked(params, self.config(n), initial)
        assert threads[-1][0] != threading.get_ident()
        assert len(threading.enumerate()) == len(before)


class TestSimulationPathArrays:
    """A path converts its arrays to float64 and freezes them, as every
    other public type does."""

    def path(self, **overrides):
        return rd.SimulationPath(**{**dict(
            times=[1.0, 2.0], group_shares=[[0.25, 0.75], [0.5, 0.5]],
            final_shares=rd.RankedShares(shares=np.full(4, 0.25)),
            rank_gap_averages=[0.5, 0.25, np.inf]), **overrides})

    def test_lists_converted_and_frozen(self):
        path = self.path()
        for name in ("times", "group_shares", "rank_gap_averages"):
            values = getattr(path, name)
            assert values.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 5

    @pytest.mark.parametrize("overrides, message", [
        (dict(group_shares=[0.5, 0.5]), "2-D"),
        (dict(group_shares=[[["x"]]]), "group_shares must hold numbers"),
        (dict(times=[[1.0, 2.0]]), "one entry per recorded row"),
        (dict(times="ab"), "times must hold numbers"),
        (dict(rank_gap_averages=[[0.5, 0.25, 0.1]]), "n - 1 entries"),
        (dict(rank_gap_averages=0.5), "n - 1 entries"),
        (dict(final_shares=[0.25] * 4), "final_shares must be a RankedShares"),
    ], ids=["one_d_shares", "shares_not_numbers", "two_d_times",
            "times_not_numbers", "two_d_gaps", "scalar_gap",
            "final_shares_not_ranked"])
    def test_misshapen_rejected(self, overrides, message):
        with pytest.raises(rd.RankModelError, match=message):
            self.path(**overrides)


class TestGapAverageReport:
    def test_exact_match_zero_errors(self):
        predicted = rd.StableGaps(gaps=np.array([0.5, 0.25, 0.125]))
        path = rd.SimulationPath(
            times=np.array([1.0]),
            group_shares=np.array([[1.0]]),
            final_shares=rd.RankedShares(shares=np.full(4, 0.25)),
            rank_gap_averages=predicted.gaps.copy())
        report = rd.gap_average_report(path, predicted)
        assert report["max"] == 0.0

    @pytest.mark.parametrize("row", [[0.5, 0.4], [np.nan, np.nan],
                                     [np.nan, 1.0]],
                             ids=["short", "all_nan", "one_nan"])
    def test_group_shares_must_sum_to_one(self, row):
        with pytest.raises(rd.RankModelError, match="sum to 1"):
            rd.SimulationPath(
                times=np.array([1.0]),
                group_shares=np.array([row]),
                final_shares=rd.RankedShares(shares=np.full(4, 0.25)),
                rank_gap_averages=np.full(3, 0.5))

    @pytest.mark.parametrize("times, gaps, message", [
        ([1.0, 2.0, 3.0], [0.5, 0.25, 0.1], "one entry per recorded row"),
        ([1.0], [0.5], "n - 1 entries"),
    ], ids=["three_times_one_row", "one_gap_four_ranks"])
    def test_path_shape_checked(self, times, gaps, message):
        with pytest.raises(rd.RankModelError, match=message):
            rd.SimulationPath(
                times=np.array(times),
                group_shares=np.array([[1.0]]),
                final_shares=rd.RankedShares(shares=np.full(4, 0.25)),
                rank_gap_averages=np.array(gaps))

    def test_zero_predicted_gap_rejected(self):
        # Dividing by it would give an infinite relative error.
        predicted = rd.StableGaps(gaps=np.array([0.5, 0.0, 0.125]))
        path = rd.SimulationPath(
            times=np.array([1.0]),
            group_shares=np.array([[1.0]]),
            final_shares=rd.RankedShares(shares=np.full(4, 0.25)),
            rank_gap_averages=np.array([0.5, 0.1, 0.125]))
        with pytest.raises(rd.RankModelError,
                           match="predicted gaps must be positive"):
            rd.gap_average_report(path, predicted)

    def test_no_gap_rejected(self):
        # One rank has no gap, and the quantiles of nothing are undefined.
        path = rd.SimulationPath(
            times=np.array([1.0]),
            group_shares=np.array([[1.0]]),
            final_shares=rd.RankedShares(shares=np.ones(1)),
            rank_gap_averages=np.zeros(0))
        with pytest.raises(rd.RankModelError, match="no gap to compare"):
            rd.gap_average_report(path, rd.StableGaps(gaps=np.zeros(0)))

    def test_predicted_must_be_stable_gaps(self):
        path = rd.SimulationPath(
            times=np.array([1.0]),
            group_shares=np.array([[1.0]]),
            final_shares=rd.RankedShares(shares=np.full(2, 0.5)),
            rank_gap_averages=np.array([0.1]))
        with pytest.raises(rd.RankModelError,
                           match="predicted must be a StableGaps"):
            rd.gap_average_report(path, [0.1])

    def test_dimension_mismatch(self):
        predicted = rd.StableGaps(gaps=np.array([0.5, 0.25]))
        path = rd.SimulationPath(
            times=np.array([1.0]),
            group_shares=np.array([[1.0]]),
            final_shares=rd.RankedShares(shares=np.full(4, 0.25)),
            rank_gap_averages=np.array([0.5, 0.25, 0.1]))
        with pytest.raises(rd.RankModelError):
            rd.gap_average_report(path, predicted)
