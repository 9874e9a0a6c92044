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
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .core import (
    GroupedShares,
    InfeasibleTargetError,
    FitFailedError,
    NegativeInputError,
    RankedShares,
    RankModelError,
    RankParameters,
    VolatilityTable,
    _as_float_array,
    as_finite,
    as_integer,
    as_pair,
    bracket_to_ranks,
    group_shares,
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
    "minimize",
    "fit_piecewise_pareto",
    "calibrate",
]

#: Interior segment knees in percent rank: the top 0.01% and the top 10%.
DEFAULT_BREAKPOINTS: Tuple[float, float] = (0.01, 10.0)

#: Starting slopes of the fit's Nelder-Mead restarts, tried in order.
_STARTS = ((-0.9, -0.75, -1.5), (-0.7, -0.85, -1.9), (-1.1, -0.6, -1.2),
           (-0.5, -0.5, -2.3), (-1.4, -1.0, -1.0), (-0.8, -1.2, -1.6),
           (-0.3, -0.9, -2.0), (-1.0, -0.4, -2.6))

#: Terms of each interval sum added one by one before the Euler-Maclaurin
#: tail takes over; past rank 32 the B8-truncated tail is exact to ~1e-16
#: of the sum for slopes in [-4, 1].
_HEAD_TERMS = 32
#: B_2k / (2k)! for k = 1..4: the Euler-Maclaurin corrections kept.
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)

#: The simplex search stops when every vertex is within ``_XATOL`` of the
#: best in each coordinate and within ``_FATOL`` of its value, or after
#: ``_MAXITER`` iterations.
_XATOL, _FATOL, _MAXITER = 1e-8, 1e-12, 3000

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


def volatility_from_components(investment_sd: float,
                               labor_rel_sd) -> VolatilityTable:
    """Build a volatility table on the default brackets from investment and
    relative-labor-income standard deviations (one labor value per bracket).

    Per bracket, sigma = sqrt(2 * (investment_sd**2 + labor_rel_sd**2)); the
    low variant sets labor_rel_sd = 0, giving sqrt(2) * investment_sd.
    """
    investment_sd = as_finite(investment_sd, "investment_sd")
    labor = _as_float_array(labor_rel_sd, "labor_rel_sd")
    if investment_sd < 0 or np.any(labor < 0):
        raise NegativeInputError("standard deviations must be nonnegative")
    high = np.sqrt(2.0 * (investment_sd ** 2 + labor ** 2))
    low = np.full(len(_DEFAULT_VOL_BRACKETS), np.sqrt(2.0) * investment_sd)
    return VolatilityTable(brackets=_DEFAULT_VOL_BRACKETS, sigma_low=low,
                          sigma_high=high)


def expand_sigma(table: VolatilityTable, n: int, variant: str) -> np.ndarray:
    """Expand a bracket-level table into a per-gap vector of length n - 1.

    Gap k (between ranks k and k+1) takes the value of the bracket containing
    its upper rank k; the result is piecewise constant.
    """
    n = as_integer(n, "n", 2)
    return per_rank_values(table.brackets, table.variant(variant), n)[:n - 1]


def _knees(n: int, breakpoints) -> Tuple[int, int]:
    """The knee ranks b1, b2: the fill-in's pieces hold the gaps (upper
    ranks) 1..b1, b1+1..b2 and b2+1..n-1."""
    breakpoints = as_pair(breakpoints, "breakpoints")
    b1_pct, b2_pct = breakpoints
    if not (0.0 < b1_pct < b2_pct < 100.0):
        raise RankModelError(f"breakpoints {breakpoints} must be interior "
                             f"percents in increasing order")
    after_b1, b2 = bracket_to_ranks(breakpoints, n)
    return after_b1 - 1, b2


def _shares_from_slopes(slopes: np.ndarray, b1: int, b2: int,
                        n: int) -> np.ndarray:
    """Descending shares whose log-log curve is piecewise linear with the
    given per-piece slopes, continuous at the knees, normalized to one."""
    steps = (np.repeat(slopes, (b1, b2 - b1, n - 1 - b2))
             * np.diff(np.log(np.arange(1, n + 1))))
    logs = np.concatenate([[0.0], prefix_sum(steps)])
    weights = np.exp(logs - logs.max())
    return weights / weights.sum()


def _bracket_sums_in_closed_form(bounds: np.ndarray, b1: int, b2: int,
                                 n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Return ``sums(slopes)``: the bracket sums of ``_shares_from_slopes``,
    in O(1) time per call instead of O(n).

    The fill-in is w_r = exp(c_j) * r**s_j on the pieces [1, b1+1],
    [b1+2, b2+1] and [b2+2, n], continuous at the knees, so each bracket
    sum is a sum over at most three (bracket, piece) intervals of
    sum_{r=a}^{b} r**s.  Each interval sum takes its first ``_HEAD_TERMS``
    terms exactly and the rest from the Euler-Maclaurin formula (integral,
    half end terms, B2..B8 corrections).  Every term is scaled by the
    largest knot value, which bounds the whole curve, so no slope overflows.
    ``bounds`` are the bracket ends in rank, from 0 to n.
    """
    knees = np.array([b1 + 1, b2 + 1])
    cuts = np.union1d(bounds, knees)
    first, last = cuts[:-1] + 1, cuts[1:]
    bracket = np.searchsorted(bounds, last) - 1
    piece = np.searchsorted(knees, first)
    n_brackets = bounds.size - 1
    log_knees = np.log(knees.astype(np.float64))
    log_n = np.log(float(n))

    count = np.minimum(last - first + 1, _HEAD_TERMS)
    head = np.repeat(np.arange(first.size), count)
    head_rank = first[head] + np.arange(count.sum()) - np.repeat(
        np.cumsum(count) - count, count)
    head_log = np.log(head_rank.astype(np.float64))
    head_piece, head_bracket = piece[head], bracket[head]

    tail = last - first + 1 > _HEAD_TERMS
    lo = (first[tail] + _HEAD_TERMS).astype(np.float64)
    hi = last[tail].astype(np.float64)
    log_lo, log_hi, span = np.log(lo), np.log(hi), np.log(hi / lo)
    tail_piece, tail_bracket = piece[tail], bracket[tail]

    def corrections(s, x, fx):
        # sum_k B_2k / (2k)! * f^(2k-1)(x), with f^(m)(x) = f(x) (s)_m / x^m.
        total, falling = np.zeros_like(fx), s / x
        for k, coeff in enumerate(_EM_COEFFS):
            total += coeff * falling
            falling = falling * (s - 2 * k - 1) * (s - 2 * k - 2) / (x * x)
        return fx * total

    def sums(slopes: np.ndarray) -> np.ndarray:
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
        # Integral of f over [lo, hi], scaled by its larger end so that
        # the exponential never grows: f(hi) hi when s + 1 > 0, else f(lo) lo.
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


class SimplexResult(NamedTuple):
    """Outcome of :func:`minimize`: the best vertex, its objective value and
    the number of objective evaluations made."""

    x: np.ndarray
    fun: float
    nfev: int


def minimize(objective: Callable[[np.ndarray], float],
             start) -> SimplexResult:
    """Nelder-Mead simplex search (Nelder & Mead, 1965) from ``start``.

    Takes the steps of scipy 1.17's ``minimize(objective, start,
    method="Nelder-Mead")`` without bounds, with xatol 1e-8, fatol 1e-12
    and maxiter 3000: the first simplex scales each coordinate of
    ``start`` by 1.05 (0 becomes 0.00025); each iteration reflects the
    worst vertex through the centroid of the others, then expands,
    contracts outside or inside, or shrinks every vertex halfway to the
    best, with ties resolved as scipy does.  ``objective`` gets a copy of
    each point and returns a float.
    """
    nfev = 0

    def evaluate(x: np.ndarray) -> float:
        nonlocal nfev
        nfev += 1
        return objective(np.copy(x))

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    x0 = np.array(start, dtype=np.float64)
    dim = x0.size
    sim = np.empty((dim + 1, dim))
    sim[0] = x0
    for k in range(dim):
        sim[k + 1] = x0
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([evaluate(vertex) for vertex in sim], dtype=np.float64)
    # scipy sorts twice here.  The second sort finds the values in order;
    # both are kept because argsort is not guaranteed stable on ties.
    sim, fsim = by_value(*by_value(sim, fsim))

    iterations = 1
    while iterations < _MAXITER:
        if (np.max(np.abs(sim[1:] - sim[0])) <= _XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
            break
        centroid = np.add.reduce(sim[:-1], 0) / dim
        worst = sim[-1]
        xr = 2 * centroid - worst
        fxr = evaluate(xr)
        if fxr < fsim[0]:
            xe = 3 * centroid - 2 * worst
            fxe = evaluate(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * centroid - 0.5 * worst
                fxc = evaluate(xc)
                accept = fxc <= fxr
            else:
                xc = 0.5 * centroid + 0.5 * worst
                fxc = evaluate(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, dim + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = evaluate(sim[j])
        iterations += 1
        sim, fsim = by_value(sim, fsim)
    return SimplexResult(x=sim[0], fun=np.min(fsim), nfev=nfev)


def fit_piecewise_pareto(target: GroupedShares, n: int,
                         breakpoints: Tuple[float, float] = DEFAULT_BREAKPOINTS,
                         ) -> Tuple[RankedShares, PiecewiseLogLogFit]:
    """Fill in a full ranked distribution from grouped share targets.

    Log share is modeled as a continuous piecewise-linear function of log
    rank with three segments; the three slopes are chosen by the
    derivative-free simplex search of :func:`minimize` to minimize the
    total absolute deviation between the fitted bracket sums and the
    target.  Restarts from a fixed ladder of starting simplices keep the
    search deterministic; the best objective wins, ties broken by restart
    order.
    """
    n = as_integer(n, "n", 2)
    b1, b2 = _knees(n, breakpoints)
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

    if uniform:
        # Degenerate uniform target: zero slopes fit exactly.
        slopes = np.zeros(3)
    else:
        sums = _bracket_sums_in_closed_form(bounds, b1, b2, n)

        def objective(slopes) -> float:
            return float(np.abs(sums(slopes) - target.shares).sum())

        best = None
        for start in _STARTS:
            result = minimize(objective, start)
            if best is None or result.fun < best.fun - 1e-15:
                best = result
            if best.fun < 1e-3:
                break
        if not np.all(np.isfinite(best.x)):
            raise FitFailedError("piecewise log-log fit did not converge")
        slopes = np.asarray(best.x, dtype=np.float64)

    shares = _shares_from_slopes(slopes, b1, b2, n)
    if not uniform and np.any(np.diff(shares) >= 0):
        raise FitFailedError("fitted shares are not strictly descending "
                             "(a fitted slope is nonnegative)")
    # The reported error is that of the shares returned (and written).
    fitted = group_shares(shares, target.brackets).shares
    fit = PiecewiseLogLogFit(
        breakpoints=(1, b1, b2, n),
        slopes=tuple(float(s) for s in slopes),
        intercept=float(np.log(shares[0])),
        fit_error=float(np.abs(fitted - target.shares).sum()))
    return RankedShares(shares=shares), fit


def calibrate(target: GroupedShares, table: VolatilityTable, variant: str,
              n: int,
              breakpoints: Tuple[float, float] = DEFAULT_BREAKPOINTS,
              ) -> RankParameters:
    """Fit the grouped targets and invert into rank-based growth rates."""
    # expand_sigma checks the sigma variant, before the fit spends its time.
    sigma = expand_sigma(table, n, variant)
    shares, _fit = fit_piecewise_pareto(target, n, breakpoints)
    return alpha_from_shares(shares, sigma)
