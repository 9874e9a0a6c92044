"""Monte Carlo validation layer.

Two simulators:

* :func:`simulate_gap_oracle` integrates a single reflected
  Ornstein-Uhlenbeck-free gap process (drift -kappa, reflection at 0) and
  returns its time average, which should converge to sigma**2 / (2 kappa).
  The reflection uses the exact Brownian-bridge-extremum transition rather
  than simple truncation, so the discretization bias is negligible even at
  moderate step sizes.
* :func:`simulate_ranked` evolves n log-wealths with rank-assigned drifts
  and idiosyncratic shocks, re-ranking every step, and records grouped
  shares plus time-averaged adjacent log gaps.

Randomness is counter-based: every step draws from a Philox generator keyed
by (seed, step), so results are byte-identical regardless of how the work is
scheduled across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    NonPositiveKappaError,
    RankedShares,
    RankModelError,
    RankParameters,
    bracket_to_ranks,
    prefix_sum,
)
from .stable import StableGaps

__all__ = [
    "SimConfig",
    "SimulationPath",
    "simulate_gap_oracle",
    "simulate_ranked",
    "gap_average_report",
]


@dataclass(frozen=True)
class SimConfig:
    """Settings for the ranked-particle simulator.

    ``seed`` keys the Philox streams, so it must fit an unsigned 64-bit word.

    ``drift_clip`` caps |alpha| (per year) before stepping.  Calibrated
    bottom-boundary growth rates reach thousands per year — they proxy for
    continuous-time local-time reflection, and feeding them into a discrete
    Euler step at dt ~ 0.01-0.1 makes the step explode.  Clipping keeps the
    discrete dynamics faithful everywhere the rates are moderate.
    """

    n: int
    dt: float
    horizon: float
    seed: int
    record_every: float
    report_brackets: Tuple[Tuple[float, float], ...]
    drift_clip: Optional[float] = None

    def __post_init__(self):
        if self.n < 2:
            raise RankModelError("simulation needs at least 2 particles")
        if not (self.dt > 0):
            raise RankModelError("dt must be positive")
        if not (self.horizon >= self.record_every > 0):
            raise RankModelError("need horizon >= record_every > 0")
        if not (0 <= self.seed < 2 ** 64):
            raise RankModelError(f"seed must be in [0, 2**64), got "
                                 f"{self.seed}")
        if self.drift_clip is not None and self.drift_clip <= 0:
            raise RankModelError("drift_clip must be positive")
        object.__setattr__(self, "report_brackets",
                           tuple((float(lo), float(hi))
                                 for lo, hi in self.report_brackets))


@dataclass(frozen=True)
class SimulationPath:
    """Recorded output of a ranked-particle run."""

    times: np.ndarray
    group_shares: np.ndarray       # [time, bracket]
    final_shares: RankedShares
    rank_gap_averages: np.ndarray  # length n - 1

    def __post_init__(self):
        sums = self.group_shares.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise RankModelError("recorded group shares must sum to 1")


def _philox(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, step], dtype=np.uint64)))


#: Steps drawn per Philox stream in the gap oracle.  Not a buffer size: a
#: chunk's stream is keyed by (seed, chunk index), so this constant selects
#: which random numbers a run sees, and changing it changes every result of
#: a run longer than one chunk.
_ORACLE_CHUNK_STEPS = 1_000_000


def simulate_gap_oracle(kappa: float, sigma: float, dt: float, horizon: float,
                        burn_in: float, seed: int) -> float:
    """Time-averaged value of a reflected drifting Brownian motion.

    The free path Y accumulates increments -kappa*dt + sigma*sqrt(dt)*Z; the
    reflected value is X_t = Y_t - min(0, running within-step minimum of Y),
    where the within-step minimum is drawn exactly from the Brownian-bridge
    law given the step endpoints.  Returns the mean of X after ``burn_in``
    years; the continuous-time limit is sigma**2 / (2 kappa).
    """
    if kappa <= 0:
        raise NonPositiveKappaError("kappa must be positive")
    if sigma < 0:
        raise RankModelError("sigma must be nonnegative")
    steps = int(round(horizon / dt))
    skip = int(round(burn_in / dt))
    if steps <= skip:
        raise RankModelError("horizon must exceed burn_in")
    if sigma == 0.0:
        return 0.0

    total = 0.0
    count = 0
    y_last = 0.0
    run_min = 0.0
    done = 0
    chunk_index = 0
    while done < steps:
        m = min(_ORACLE_CHUNK_STEPS, steps - done)
        rng = _philox(seed, chunk_index)
        z = rng.standard_normal(m)
        u = rng.random(m)
        incr = -kappa * dt + sigma * np.sqrt(dt) * z
        y = y_last + np.cumsum(incr)
        y_prev = np.concatenate([[y_last], y[:-1]])
        # Exact within-step minimum of the Brownian bridge from y_prev to y.
        d = y - y_prev
        bridge_min = y_prev + 0.5 * (
            d - np.sqrt(d * d - 2.0 * sigma * sigma * dt * np.log(u)))
        mins = np.minimum.accumulate(np.minimum(bridge_min, run_min))
        x = y - np.minimum(0.0, mins)
        lo = max(skip - done, 0)
        if lo < m:
            total += float(x[lo:].sum())
            count += m - lo
        y_last = float(y[-1])
        run_min = float(mins[-1])
        done += m
        chunk_index += 1
    return total / count


def simulate_ranked(params: RankParameters, config: SimConfig,
                    initial: RankedShares) -> SimulationPath:
    """Evolve n ranked particles and record grouped shares over time.

    Each step assigns drift alpha_k and shock scale delta_k by the particle's
    current rank (stable sort, ties broken by particle id), then advances all
    log-wealths by alpha_k*dt + delta_k*sqrt(dt)*Z.  Shares are recovered by
    exponentiating with max-subtraction, so only relative (economy-cancelled)
    growth matters.  Adjacent log gaps are accumulated every step; their time
    averages over the whole run are returned for comparison against the
    closed form.
    """
    n = config.n
    if params.n != n or initial.n != n:
        raise RankModelError("params, config, and initial sizes must agree")
    alpha = params.alpha
    if config.drift_clip is not None:
        alpha = np.clip(alpha, -config.drift_clip, config.drift_clip)
    # Per-particle shock scale delta_k = sigma_k / sqrt(2), consistent with
    # sigma_k**2 = delta_k**2 + delta_{k+1}**2 for locally constant delta.
    delta = np.empty(n)
    delta[:n - 1] = params.sigma / np.sqrt(2.0)
    delta[n - 1] = params.sigma[n - 2] / np.sqrt(2.0)

    steps = int(round(config.horizon / config.dt))
    record_stride = max(int(round(config.record_every / config.dt)), 1)
    sqrt_dt = np.sqrt(config.dt)
    rank_bounds = [bracket_to_ranks(b, n) for b in config.report_brackets]

    log_wealth = np.log(initial.shares).copy()
    times = []
    recorded = []
    gap_sums = np.zeros(n - 1)

    def record(sorted_lw: np.ndarray, time: float) -> None:
        weights = np.exp(sorted_lw - sorted_lw[0])
        shares = weights / weights.sum()
        cums = np.concatenate([[0.0], prefix_sum(shares)])
        recorded.append([cums[hi] - cums[lo - 1] for lo, hi in rank_bounds])
        times.append(time)

    # One sort per step: ranks are read off, the pre-update state is
    # recorded/accumulated, then the update is applied in rank order.
    for step in range(steps):
        order = np.argsort(-log_wealth, kind="stable")
        sorted_lw = log_wealth[order]
        gap_sums += -np.diff(sorted_lw)
        if step > 0 and step % record_stride == 0:
            record(sorted_lw, step * config.dt)
        shocks = _philox(config.seed, step).standard_normal(n)
        log_wealth[order] = sorted_lw + alpha * config.dt \
            + delta * sqrt_dt * shocks[order]

    sorted_lw = np.sort(log_wealth)[::-1]
    record(sorted_lw, steps * config.dt)
    weights = np.exp(sorted_lw - sorted_lw[0])
    final = RankedShares(n=n, shares=weights / weights.sum())
    return SimulationPath(times=np.asarray(times),
                          group_shares=np.asarray(recorded),
                          final_shares=final,
                          rank_gap_averages=gap_sums / steps)


def gap_average_report(path: SimulationPath, predicted: StableGaps) -> dict:
    """Per-rank relative errors of simulated vs predicted log gaps."""
    empirical = path.rank_gap_averages
    if empirical.size != predicted.gaps.size:
        raise RankModelError("simulated and predicted gap lengths differ")
    rel = np.abs(empirical - predicted.gaps) / predicted.gaps
    return {
        "relative_errors": rel,
        "median": float(np.median(rel)),
        "q90": float(np.quantile(rel, 0.9)),
        "max": float(rel.max()),
    }
