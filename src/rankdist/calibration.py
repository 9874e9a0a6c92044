"""Calibration from grouped wealth-shares data.

Two ingredients turn bracket-level data into full rank-level parameters:

1. A piecewise three-segment log-log ("Pareto-like") fill-in that chooses a
   full descending share vector whose bracket sums best match the grouped
   targets, with segment knees at configurable percent ranks.
2. Per-gap volatility expansion of a bracket-level volatility table, followed
   by closed-form inversion into relative growth rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .core import (
    GroupedShares,
    InfeasibleTargetError,
    FitFailedError,
    NegativeInputError,
    RankedShares,
    RankModelError,
    RankParameters,
    VolatilityTable,
    bracket_to_ranks,
    per_rank_values,
    prefix_sum,
)
from .stable import alpha_from_shares

__all__ = [
    "PiecewiseLogLogFit",
    "DEFAULT_BREAKPOINTS",
    "default_volatility_table",
    "volatility_from_components",
    "expand_sigma",
    "fit_piecewise_pareto",
    "calibrate",
]

#: Interior segment knees in percent rank: the top 0.01% and the top 10%.
DEFAULT_BREAKPOINTS: Tuple[float, float] = (0.01, 10.0)

#: Starting slopes of the fit's Nelder-Mead restarts, tried in order.
_STARTS = ((-0.9, -0.75, -1.5), (-0.7, -0.85, -1.9), (-1.1, -0.6, -1.2),
           (-0.5, -0.5, -2.3), (-1.4, -1.0, -1.0), (-0.8, -1.2, -1.6),
           (-0.3, -0.9, -2.0), (-1.0, -0.4, -2.6))

_DEFAULT_VOL_BRACKETS = ((0.0, 10.0), (10.0, 20.0), (20.0, 40.0),
                         (40.0, 60.0), (60.0, 100.0))
_DEFAULT_SIGMA_LOW = (0.283, 0.283, 0.283, 0.283, 0.283)
_DEFAULT_SIGMA_HIGH = (0.286, 0.294, 0.316, 0.392, 1.662)


@dataclass(frozen=True)
class PiecewiseLogLogFit:
    """Diagnostics of the three-segment log-log fill-in.

    ``breakpoints`` are the four segment-boundary ranks (1, b1, b2, n);
    ``slopes`` the fitted d log(share) / d log(rank) per segment;
    ``intercept`` the log of the normalized share at rank 1; ``fit_error``
    the total absolute deviation of the fitted bracket sums from the target.
    """

    breakpoints: Tuple[int, int, int, int]
    slopes: Tuple[float, float, float]
    intercept: float
    fit_error: float


def default_volatility_table() -> VolatilityTable:
    """Built-in 2012 U.S. bracket-level volatility estimates."""
    return VolatilityTable(
        brackets=_DEFAULT_VOL_BRACKETS,
        sigma_low=np.array(_DEFAULT_SIGMA_LOW),
        sigma_high=np.array(_DEFAULT_SIGMA_HIGH),
    )


def volatility_from_components(investment_sd: float, labor_rel_sd,
                               brackets: Sequence = _DEFAULT_VOL_BRACKETS,
                               ) -> VolatilityTable:
    """Build a volatility table from investment and relative-labor-income
    standard deviations.

    Per bracket, sigma = sqrt(2 * (investment_sd**2 + labor_rel_sd**2)); the
    low variant sets labor_rel_sd = 0, giving sqrt(2) * investment_sd.
    """
    investment_sd = float(investment_sd)
    labor = np.asarray(labor_rel_sd, dtype=np.float64)
    if investment_sd < 0 or np.any(labor < 0):
        raise NegativeInputError("standard deviations must be nonnegative")
    if labor.size != len(brackets):
        raise RankModelError("labor_rel_sd must have one value per bracket")
    high = np.sqrt(2.0 * (investment_sd ** 2 + labor ** 2))
    low = np.full(len(brackets), np.sqrt(2.0) * investment_sd)
    return VolatilityTable(brackets=tuple(brackets), sigma_low=low,
                          sigma_high=high)


def expand_sigma(table: VolatilityTable, n: int, variant: str) -> np.ndarray:
    """Expand a bracket-level table into a per-gap vector of length n - 1.

    Gap k (between ranks k and k+1) takes the value of the bracket containing
    its upper rank k; the result is piecewise constant.
    """
    return per_rank_values(table.brackets, table.variant(variant), n)[:n - 1]


def _segment_index(n: int, breakpoints: Tuple[float, float]
                   ) -> Tuple[np.ndarray, int, int]:
    """Segment id (0, 1, 2) of each gap k = 1..n-1, by the gap's upper rank,
    and the knee ranks b1, b2."""
    b1_pct, b2_pct = breakpoints
    if not (0.0 < b1_pct < b2_pct < 100.0):
        raise RankModelError(f"breakpoints {breakpoints} must be interior "
                             f"percents in increasing order")
    after_b1, b2 = bracket_to_ranks(breakpoints, n)
    b1 = after_b1 - 1
    seg = np.empty(n - 1, dtype=np.intp)
    seg[:b1] = 0
    seg[b1:b2] = 1
    seg[b2:] = 2
    return seg, b1, b2


def _shares_from_slopes(slopes: np.ndarray, seg: np.ndarray,
                        dlog: np.ndarray) -> np.ndarray:
    """Descending shares whose log-log curve is piecewise linear with the
    given per-segment slopes, continuous at the knees, normalized to one."""
    logs = np.concatenate([[0.0], prefix_sum(slopes[seg] * dlog)])
    weights = np.exp(logs - logs.max())
    return weights / weights.sum()


def fit_piecewise_pareto(target: GroupedShares, n: int,
                         breakpoints: Tuple[float, float] = DEFAULT_BREAKPOINTS,
                         ) -> Tuple[RankedShares, PiecewiseLogLogFit]:
    """Fill in a full ranked distribution from grouped share targets.

    Log share is modeled as a continuous piecewise-linear function of log
    rank with three segments; the three slopes are chosen by derivative-free
    simplex search to minimize the total absolute deviation between the
    fitted bracket sums and the target.  Restarts from a fixed ladder of
    starting simplices keep the search deterministic; the best objective
    wins, ties broken by restart order.
    """
    bounds = np.array([0] + [bracket_to_ranks(b, n)[1]
                             for b in target.brackets], dtype=np.intp)
    # A descending fit requires the target's average per-household share to
    # decrease with depth; otherwise no negative-slope curve can match it.
    density = target.shares / np.diff(bounds)
    uniform = np.allclose(density, density[0])
    if np.any(np.diff(density) >= 0) and not uniform:
        raise InfeasibleTargetError(
            "target bracket density is not strictly decreasing; no "
            "descending piecewise power-law fit exists")

    seg, b1, b2 = _segment_index(n, breakpoints)
    ranks = np.arange(1, n + 2, dtype=np.float64)
    dlog = np.diff(np.log(ranks))[:n - 1]
    target_vec = target.shares

    def bracket_sums(shares: np.ndarray) -> np.ndarray:
        cums = np.concatenate([[0.0], prefix_sum(shares)])
        return cums[bounds[1:]] - cums[bounds[:-1]]

    def objective(slopes) -> float:
        shares = _shares_from_slopes(np.asarray(slopes), seg, dlog)
        return float(np.abs(bracket_sums(shares) - target_vec).sum())

    if uniform:
        # Degenerate uniform target: zero slopes fit exactly.
        slopes = np.zeros(3)
        fit_error = objective(slopes)
    else:
        best = None
        for start in _STARTS:
            result = minimize(objective, start, method="Nelder-Mead",
                              options=dict(xatol=1e-8, fatol=1e-12,
                                           maxiter=3000))
            if best is None or result.fun < best.fun - 1e-15:
                best = result
            if best.fun < 1e-3:
                break
        if not np.all(np.isfinite(best.x)):
            raise FitFailedError("piecewise log-log fit did not converge")
        slopes = np.asarray(best.x, dtype=np.float64)
        fit_error = float(best.fun)

    shares = _shares_from_slopes(slopes, seg, dlog)
    if not uniform and np.any(np.diff(shares) >= 0):
        raise FitFailedError("fitted shares are not strictly descending "
                             "(a fitted slope is nonnegative)")
    fit = PiecewiseLogLogFit(
        breakpoints=(1, b1, b2, n),
        slopes=tuple(float(s) for s in slopes),
        intercept=float(np.log(shares[0])),
        fit_error=fit_error)
    return RankedShares(n=n, shares=shares), fit


def calibrate(target: GroupedShares, table: VolatilityTable, variant: str,
              n: int,
              breakpoints: Tuple[float, float] = DEFAULT_BREAKPOINTS,
              ) -> RankParameters:
    """Fit the grouped targets and invert into rank-based growth rates."""
    shares, _fit = fit_piecewise_pareto(target, n, breakpoints)
    sigma = expand_sigma(table, n, variant)
    return alpha_from_shares(shares, sigma)
