"""Unit tests for the Monte Carlo simulators."""

import numpy as np
import pytest

import rankdist as rd
from rankdist import simulate


class TestGapOracle:
    def test_matches_closed_form(self):
        avg = rd.simulate_gap_oracle(kappa=0.1, sigma=0.2, dt=1e-3,
                                     horizon=5000.0, burn_in=500.0, seed=11)
        assert avg == pytest.approx(0.2, rel=0.05)

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
        {"sigma": -0.2}, {"burn_in": 10.0},
    ], ids=["kappa_nan", "kappa_inf", "sigma_nan", "dt_inf", "horizon_nan",
            "burn_in_neg_inf", "seed_negative", "seed_2_64",
            "seed_not_integral", "sigma_negative", "burn_in_past_horizon"])
    def test_bad_argument_rejected(self, override):
        kwargs = {**dict(kappa=0.5, sigma=0.2, dt=1e-3, horizon=10.0,
                         burn_in=1.0, seed=1), **override}
        with pytest.raises(rd.RankModelError):
            rd.simulate_gap_oracle(**kwargs)

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
    ], ids=["dt_zero", "dt_negative", "horizon_below_record_every",
            "record_every_zero", "drift_clip_zero", "drift_clip_negative"])
    def test_bad_config_rejected(self, override, message):
        with pytest.raises(rd.RankModelError, match=message):
            self.config(50, **override)

    def test_no_dynamics_constant_shares(self):
        n = 50
        _params, shares = tiny_system(n)
        frozen = rd.RankParameters(n=n, alpha=np.zeros(n),
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
        shifted = rd.RankParameters(n=n, alpha=params.alpha + 0.5,
                                    sigma=params.sigma)
        p1 = rd.simulate_ranked(params, self.config(n), shares)
        p2 = rd.simulate_ranked(shifted, self.config(n), shares)
        np.testing.assert_allclose(p2.group_shares, p1.group_shares,
                                   atol=1e-9)

    def test_drift_clip_caps_extremes(self):
        n = 50
        params, shares = tiny_system(n)
        spiky = rd.RankParameters(
            n=n, alpha=np.concatenate([params.alpha[:-1], [1e6]]),
            sigma=params.sigma)
        path = rd.simulate_ranked(spiky, self.config(n, drift_clip=1.0),
                                  shares)
        assert np.all(np.isfinite(path.final_shares.shares))

    def test_size_mismatch_rejected(self):
        params, shares = tiny_system(50)
        with pytest.raises(rd.RankModelError):
            rd.simulate_ranked(params, self.config(60), shares)

    def test_gap_averages_track_theory_gibrat(self):
        # Small pure-power-law system over a long horizon: time-averaged
        # simulated gaps should approach the closed form.
        n = 10
        alpha = np.full(n, -0.1)
        alpha[-1] = 0.1 * (n - 1)
        params = rd.RankParameters(n=n, alpha=alpha,
                                   sigma=np.full(n - 1, 0.3))
        predicted = rd.stable_gaps(params)
        shares = rd.shares_from_gaps(predicted)
        config = rd.SimConfig(n=n, dt=0.01, horizon=2000.0, seed=2,
                              record_every=100.0,
                              report_brackets=((0.0, 100.0),))
        path = rd.simulate_ranked(params, config, shares)
        report = rd.gap_average_report(path, predicted)
        assert report["median"] < 0.10


class TestGapAverageReport:
    def test_exact_match_zero_errors(self):
        predicted = rd.StableGaps(n=4, gaps=np.array([0.5, 0.25, 0.125]))
        path = rd.SimulationPath(
            times=np.array([1.0]),
            group_shares=np.array([[1.0]]),
            final_shares=rd.RankedShares(n=4, shares=np.full(4, 0.25)),
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
                final_shares=rd.RankedShares(n=4, shares=np.full(4, 0.25)),
                rank_gap_averages=np.full(3, 0.5))

    def test_dimension_mismatch(self):
        predicted = rd.StableGaps(n=3, gaps=np.array([0.5, 0.25]))
        path = rd.SimulationPath(
            times=np.array([1.0]),
            group_shares=np.array([[1.0]]),
            final_shares=rd.RankedShares(n=4, shares=np.full(4, 0.25)),
            rank_gap_averages=np.array([0.5, 0.25, 0.1]))
        with pytest.raises(rd.RankModelError):
            rd.gap_average_report(path, predicted)
