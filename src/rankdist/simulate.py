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

Randomness is counter-based: every step of the ranked simulator draws from
a Philox generator keyed by (seed, step), and every chunk of the oracle from
one keyed by (seed, chunk), so results are byte-identical regardless of how
the work is scheduled across threads.  From ``_WORKER_DRAW_MIN_N`` up,
:func:`simulate_ranked` draws step s + 1's shocks on one worker thread while
step s re-ranks, records and updates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    NonPositiveKappaError,
    RankedShares,
    RankModelError,
    RankParameters,
    _as_float_array,
    _freeze,
    as_brackets,
    as_finite,
    as_integer,
    as_rank_count,
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


@dataclass(frozen=True, kw_only=True)
class SimConfig:
    """Settings for the ranked-particle simulator, passed by keyword.

    ``n`` is the one size stated rather than read off an array: a config
    holds none, so :func:`simulate_ranked` checks it against its inputs.
    The benchmark (``perfbench/run.py`` and its tracer) builds configs with
    ``n=`` and reads ``config.n``, so it stays a field.

    ``seed`` keys the Philox streams, so it must fit an unsigned 64-bit word,
    and ``report_brackets`` must partition [0, 100) with each boundary on a
    whole rank at ``n`` (:attr:`rank_bounds`).  Construction converts
    each value and raises :class:`RankModelError` on a wrong type, a
    non-finite value or one out of range; only ``drift_clip`` may be None,
    and ``horizon / dt`` must round to at least one step (:attr:`steps`).

    ``drift_clip`` caps |alpha| (per year) before stepping.  Calibrated
    bottom-boundary growth rates grow in proportion to n (see the README's
    simulator notes); they proxy for continuous-time local-time reflection,
    and feeding them into a discrete Euler step at dt ~ 0.01-0.1 makes the
    step explode.  Clipping drops the excess drift, which moves the limit
    (n = 10**5, scenario 1, clip 2: top 0.01% 9.11% where the closed form
    gives 11.10%).
    """

    n: int
    dt: float = 0.1
    horizon: float = 100.0
    seed: int
    record_every: float = 1.0
    report_brackets: Tuple[Tuple[float, float], ...]
    drift_clip: Optional[float] = None

    def __post_init__(self):
        _freeze(self, n=as_rank_count(self.n),
                seed=as_integer(self.seed, "seed", 0, 2 ** 64))
        for name in ("dt", "horizon", "record_every"):
            _freeze(self, **{name: as_finite(getattr(self, name), name)})
        if not (self.dt > 0):
            raise RankModelError("dt must be positive")
        if not (self.horizon >= self.record_every > 0):
            raise RankModelError("need horizon >= record_every > 0")
        self.steps  # raises unless horizon / dt rounds to one step or more
        if self.drift_clip is not None:
            _freeze(self, drift_clip=as_finite(self.drift_clip, "drift_clip"))
            if self.drift_clip <= 0:
                raise RankModelError("drift_clip must be positive")
        _freeze(self, report_brackets=as_brackets(
            self.report_brackets, "report_brackets", partition=True))
        self.rank_bounds  # raises unless each bracket holds whole ranks

    @property
    def steps(self) -> int:
        """The number of Euler steps: horizon / dt, rounded."""
        return _step_count(self.horizon, self.dt, "horizon", least=1)

    @property
    def rank_bounds(self) -> Tuple[Tuple[int, int], ...]:
        """Each report bracket's ranks, as :func:`bracket_to_ranks` maps it."""
        return tuple(bracket_to_ranks(b, self.n) for b in self.report_brackets)


def _step_count(span: float, dt: float, name: str, least: int = 0) -> int:
    """``span / dt`` rounded to a whole number of steps of a positive ``dt``
    (the one rounding rule of both simulators); a quotient too large for a
    float, or one that rounds below ``least``, raises
    :class:`RankModelError`."""
    steps = span / dt
    if not np.isfinite(steps) or round(steps) < least:
        raise RankModelError(f"{name} / dt must round to a finite number of "
                             f"steps, at least {least}, got {span!r} / "
                             f"{dt!r}")
    return int(round(steps))


@dataclass(frozen=True)
class SimulationPath:
    """Recorded output of a ranked-particle run, as frozen float64 arrays;
    a run that overflows records infinite gap averages."""

    times: np.ndarray
    group_shares: np.ndarray       # [time, bracket]
    final_shares: RankedShares
    rank_gap_averages: np.ndarray  # length n - 1

    def __post_init__(self):
        if not isinstance(self.final_shares, RankedShares):
            raise RankModelError("final_shares must be a RankedShares")
        times = _as_float_array(self.times, "times")
        group = _as_float_array(self.group_shares, "group_shares")
        gaps = _as_float_array(self.rank_gap_averages, "rank_gap_averages")
        if group.ndim != 2:
            raise RankModelError("group_shares must be 2-D [time, bracket]")
        if not np.all(np.abs(group.sum(axis=1) - 1.0) <= 1e-9):
            raise RankModelError("recorded group shares must sum to 1")
        if times.shape != group.shape[:1]:
            raise RankModelError("times must hold one entry per recorded row")
        if gaps.shape != (self.final_shares.n - 1,):
            raise RankModelError("rank_gap_averages must have n - 1 entries")
        _freeze(self, times=times, group_shares=group,
                rank_gap_averages=gaps)


def _philox(seed: int, step: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, step], dtype=np.uint64)))


#: Steps drawn per Philox stream in the gap oracle.  Not a buffer size: a
#: chunk's stream is keyed by (seed, chunk index), so this constant selects
#: which random numbers a run sees, and changing it changes every result of
#: a run longer than one chunk.
_ORACLE_CHUNK_STEPS = 1_000_000

#: Steps per block of the gap oracle's passes over a chunk (256 KiB of
#: float64, so a block's arrays stay in L2 from one operation to the next).
#: The blocks only schedule the work: the output bits do not depend on this.
_ORACLE_BLOCK = 1 << 15


def simulate_gap_oracle(kappa: float, sigma: float, dt: float, horizon: float,
                        burn_in: float, seed: int) -> float:
    """Time-averaged value of a reflected drifting Brownian motion.

    The free path Y accumulates increments -kappa*dt + sigma*sqrt(dt)*Z; the
    reflected value is X_t = Y_t - min(0, running within-step minimum of Y),
    where the within-step minimum is drawn exactly from the Brownian-bridge
    law given the step endpoints.  Returns the mean of X after ``burn_in``
    years; the continuous-time limit is sigma**2 / (2 kappa).  Non-finite
    arguments, a ``dt`` that is not positive, a negative ``burn_in``, a
    ``horizon / dt`` that rounds to no step or is too large for a float, a
    seed outside [0, 2**64) and a run that overflows float64 raise
    :class:`RankModelError`.

    Each chunk of ``_ORACLE_CHUNK_STEPS`` steps draws its normals, then its
    uniforms, from the (seed, chunk) Philox stream, one block at a time on
    the calling thread, and turns each block of normals into increments and
    the path, then each block of uniforms into bridge minima and the
    reflected value.  The running sum and minimum carry between blocks as
    scalars and the reflected values are summed once per chunk, so the bits
    are those of whole-chunk expressions, whatever ``_ORACLE_BLOCK`` is.  A
    chunk holds two chunk-long arrays.
    """
    for name, value in dict(kappa=kappa, sigma=sigma, dt=dt, horizon=horizon,
                            burn_in=burn_in).items():
        as_finite(value, name)
    seed = as_integer(seed, "seed", 0, 2 ** 64)
    if kappa <= 0:
        raise NonPositiveKappaError("kappa must be positive")
    if sigma < 0:
        raise RankModelError("sigma must be nonnegative")
    if dt <= 0:
        raise RankModelError("dt must be positive")
    if burn_in < 0:
        raise RankModelError("burn_in must be nonnegative")
    steps = _step_count(horizon, dt, "horizon", least=1)
    skip = _step_count(burn_in, dt, "burn_in")
    if steps <= skip:
        raise RankModelError("horizon must exceed burn_in")
    if sigma == 0.0:
        return 0.0

    # incr: the normals, turned into increments in place.  y: the chunk's
    # running sum of increments, then the path Y, then X.  low: a block of
    # uniforms, turned into bridge minima and then their running minimum.
    size = min(steps, _ORACLE_CHUNK_STEPS)
    block = min(size, _ORACLE_BLOCK)
    incr, y = np.empty(size), np.empty(size)
    low, scratch = np.empty(block), np.empty(block)
    total = 0.0
    y_last = 0.0
    run_min = 0.0
    # Overflow turns the path or its minimum into inf or NaN for good, so
    # the warnings are silenced and the average is checked instead.
    with np.errstate(all="ignore"):
        drift = -kappa * dt
        scale = sigma * np.sqrt(dt)
        spread = 2.0 * sigma * sigma * dt
        for chunk, start in enumerate(range(0, steps, _ORACLE_CHUNK_STEPS)):
            m = min(_ORACLE_CHUNK_STEPS, steps - start)
            blocks = [(a, min(a + _ORACLE_BLOCK, m))
                      for a in range(0, m, _ORACLE_BLOCK)]
            rng = _philox(seed, chunk)
            run_sum = -0.0  # the chunk's sum so far; -0.0 + v is v exactly
            for a, b in blocks:
                dy = incr[a:b]
                rng.standard_normal(out=dy)
                np.multiply(dy, scale, out=dy)
                np.add(dy, drift, out=dy)
                first = dy[0]
                dy[0] = run_sum + first
                np.cumsum(dy, out=y[a:b])
                dy[0] = first
                run_sum = y[b - 1]
            for a, b in blocks:
                dy, path = incr[a:b], y[a:b]
                lows, tmp = low[:b - a], scratch[:b - a]
                rng.random(out=lows)
                np.add(path, y_last, out=path)
                # Exact within-step minimum of the Brownian bridge that ends
                # at y after the increment dy, from the uniform u:
                # y - 0.5 * (dy + sqrt(dy * dy - spread * log(u))).
                np.log(lows, out=lows)
                np.multiply(lows, spread, out=lows)
                np.multiply(dy, dy, out=tmp)
                np.subtract(tmp, lows, out=lows)
                np.sqrt(lows, out=lows)
                np.add(dy, lows, out=lows)
                np.multiply(lows, 0.5, out=lows)
                np.subtract(path, lows, out=lows)
                lows[0] = min(lows[0], run_min)
                np.minimum.accumulate(lows, out=lows)
                run_min = float(lows[-1])
                np.minimum(0.0, lows, out=tmp)
                np.subtract(path, tmp, out=path)
            total += float(y[max(skip - start, 0):m].sum())
            y_last += float(run_sum)
    average = total / (steps - skip)
    if not np.isfinite(average):
        raise RankModelError(
            f"the gap oracle overflows float64 at kappa={kappa!r}, "
            f"sigma={sigma!r}, dt={dt!r}")
    return average


#: The smallest n whose shocks are drawn one step ahead on a worker thread.
#: The draw releases the GIL, so it runs alongside the next re-ranking; but
#: handing it to the worker and back costs about 0.1 ms per step, which a
#: draw of under about 5,000 normals does not win back.  Time per step with
#: the worker over time inline (2-core Xeon VM, Python 3.11, numpy 2.4;
#: median of paired ratios over 7 and 11 alternating runs, bits equal at
#: every n; 10^4 and 10^5 are the benchmark's monte_carlo systems):
#:
#:     n        10    1,000  2,000    4,100  6,000    8,192       10^4  10^5
#:     ratio 3.2-3.4 1.7-2.1  1.25  1.0-1.1   0.99  0.86-0.88  0.82-0.87  0.70
#:
#: The rule reads only n; 8,192 is the first power of two past the noise.
_WORKER_DRAW_MIN_N = 8192


def simulate_ranked(params: RankParameters, config: SimConfig,
                    initial: RankedShares) -> SimulationPath:
    """Evolve n ranked particles and record grouped shares over time.

    Each step assigns drift alpha_k and shock scale delta_k by the particle's
    current rank (stable sort, ties broken by particle id), then advances all
    log-wealths by alpha_k*dt + delta_k*sqrt(dt)*Z, where Z is drawn from the
    (seed, step) Philox stream in particle-id order.  Shares are recovered by
    exponentiating with max-subtraction, so only relative (economy-cancelled)
    growth matters.  Adjacent log gaps are accumulated every step; their time
    averages over the whole run are returned for comparison against the
    closed form.

    The state is kept in rank order: the log-wealths as of the last ranking,
    plus the particle id at each rank.  One step moves most particles only a
    few ranks, so the state stays nearly sorted and re-ranking it is an
    unstable argsort of almost-ordered keys.  Without ties the ranking
    permutation is unique, so this gives the same ranks, shocks and output
    bits as a stable sort of the particle-indexed vector.  When the keys are
    not strictly descending (an exact tie, or a NaN) the step falls back to a
    lexsort by (log-wealth descending, particle id), which is the stable rule
    itself.

    From n = ``_WORKER_DRAW_MIN_N`` up, step s + 1's shocks are drawn on
    one worker thread while step s re-ranks, records and updates; numpy
    releases the GIL in both the argsort and the Philox draw, so on two
    cores they overlap.  Each draw is still ``_philox(seed, step)`` read
    through the module, so the output bits do not depend on where it ran.
    Below the crossover no thread starts.  The worker is joined before the
    call returns or raises, and a draw's exception reaches the caller.
    """
    n = config.n
    if params.n != n or initial.n != n:
        raise RankModelError("params, config, and initial sizes must agree")
    if np.any(initial.shares <= 0):
        raise RankModelError("initial shares must be positive")
    alpha = params.alpha
    if config.drift_clip is not None:
        alpha = np.clip(alpha, -config.drift_clip, config.drift_clip)
    # Per-particle shock scale delta_k = sigma_k / sqrt(2), consistent with
    # sigma_k**2 = delta_k**2 + delta_{k+1}**2 for locally constant delta.
    delta = np.append(params.sigma, params.sigma[-1]) / np.sqrt(2.0)

    steps = config.steps
    record_stride = max(_step_count(config.record_every, config.dt,
                                    "record_every"), 1)
    drift_step = alpha * config.dt
    shock_step = delta * np.sqrt(config.dt)
    rank_bounds = config.rank_bounds

    sorted_lw = np.log(initial.shares)
    ids = np.arange(n)
    times = []
    recorded = []
    gap_sums = np.zeros(n - 1)

    def record(sorted_lw: np.ndarray, time: float) -> np.ndarray:
        weights = np.exp(sorted_lw - sorted_lw[0])
        shares = weights / weights.sum()
        cums = np.concatenate([[0.0], prefix_sum(shares)])
        recorded.append([cums[hi] - cums[lo - 1] for lo, hi in rank_bounds])
        times.append(time)
        return shares

    def draw(step: int) -> np.ndarray:
        return _philox(config.seed, step).standard_normal(n)

    # One sort per step: ranks are read off, the pre-update state is
    # recorded/accumulated, then the update is applied in rank order.  From
    # the crossover up, a step's shocks are the result of the draw pending
    # on the worker since the step before; below it, no worker thread
    # starts and the step draws its own.  The ``with`` joins the worker on
    # return or on any exception.
    ahead = n >= _WORKER_DRAW_MIN_N
    with ThreadPoolExecutor(max_workers=1) as pool:
        if ahead:
            pending = pool.submit(draw, 0)
        for step in range(steps):
            order = np.argsort(-sorted_lw)
            keys = sorted_lw[order]
            if not np.all(keys[:-1] > keys[1:]):
                order = np.lexsort((ids, -sorted_lw))
                keys = sorted_lw[order]
            sorted_lw = keys
            ids = ids[order]
            gap_sums -= np.diff(sorted_lw)
            if step > 0 and step % record_stride == 0:
                record(sorted_lw, step * config.dt)
            shocks = pending.result() if ahead else draw(step)
            if ahead and step + 1 < steps:
                pending = pool.submit(draw, step + 1)
            sorted_lw = sorted_lw + drift_step + shock_step * shocks[ids]

    final = RankedShares(shares=record(np.sort(sorted_lw)[::-1],
                                       steps * config.dt))
    return SimulationPath(times=times, group_shares=recorded,
                          final_shares=final,
                          rank_gap_averages=gap_sums / steps)


def gap_average_report(path: SimulationPath, predicted: StableGaps) -> dict:
    """Per-rank relative errors of simulated vs predicted positive gaps."""
    if not isinstance(path, SimulationPath):
        raise RankModelError("path must be a SimulationPath")
    if not isinstance(predicted, StableGaps):
        raise RankModelError("predicted must be a StableGaps")
    empirical = path.rank_gap_averages
    if empirical.size != predicted.gaps.size:
        raise RankModelError("simulated and predicted gap lengths differ")
    if empirical.size == 0:
        raise RankModelError("no gap to compare")
    if np.any(predicted.gaps <= 0):
        raise RankModelError("predicted gaps must be positive")
    rel = np.abs(empirical - predicted.gaps) / predicted.gaps
    return {
        "relative_errors": rel,
        "median": float(np.median(rel)),
        "q90": float(np.quantile(rel, 0.9)),
        "max": float(rel.max()),
    }
