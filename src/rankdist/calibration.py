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
    _as_float_vector,
    as_finite,
    as_pair,
    as_rank_count,
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
#: The restart ladder ends at the first best value below ``_GOOD_ENOUGH``;
#: a later start replaces the best only if lower by more than ``_MARGIN``.
_GOOD_ENOUGH, _MARGIN = 1e-3, 1e-15

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
    labor = _as_float_vector(labor_rel_sd, "labor_rel_sd")
    if labor.size != len(_DEFAULT_VOL_BRACKETS):
        raise RankModelError(f"labor_rel_sd must hold one value per bracket "
                             f"({len(_DEFAULT_VOL_BRACKETS)}), not "
                             f"{labor.size}")
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
    n = as_rank_count(n)
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
    b1 = after_b1 - 1
    if not 1 <= b1 < b2 <= n - 2:
        raise RankModelError(
            f"breakpoints {breakpoints} put the knees at ranks {b1} and "
            f"{b2} at n={n}; every fit segment needs a gap, so "
            f"1 <= b1 < b2 <= n - 2")
    return b1, b2


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
    """Return ``sums(points)``: for each row of the ``(k, 3)`` array of
    slope points, the bracket sums of ``_shares_from_slopes``, as a
    ``(k, n_brackets)`` array, in O(k) time per call instead of O(k n).

    The fill-in is w_r = exp(c_j) * r**s_j on the pieces [1, b1+1],
    [b1+2, b2+1] and [b2+2, n], continuous at the knees, so each bracket
    sum is a sum over at most three (bracket, piece) intervals of
    sum_{r=a}^{b} r**s.  Each interval sum takes its first ``_HEAD_TERMS``
    terms exactly and the rest from the Euler-Maclaurin formula (integral,
    half end terms, B2..B8 corrections).  Every term is scaled by the
    largest knot value, which bounds the whole curve, so no slope overflows.
    ``bounds`` are the bracket ends in rank, from 0 to n.

    Each call evaluates the curve once, at one flat array of points: the
    head ranks of every interval for every row, then the upper ends ``hi``
    of the intervals with a tail for every row, then their lower ends
    ``lo``.  The ends [hi, lo] are stacked, so the corrections run once
    over both, and two ``bincount``s, each row's bins offset by the row,
    add the terms up per bracket.  Each row's scalars are Python floats
    and every array a ufunc reads is contiguous, so a row's sums have the
    bits of a call with that row alone (a NaN's sign bit aside), whatever
    else is in the batch: :func:`minimize` stacks the points of its
    searches into one call.  The flat index arrays are built once for each
    batch size k.
    """
    knees = np.array([b1 + 1, b2 + 1])
    cuts = np.union1d(bounds, knees)
    first, last = cuts[:-1] + 1, cuts[1:]
    bracket = np.searchsorted(bounds, last) - 1
    piece = np.searchsorted(knees, first)
    n_brackets = bounds.size - 1
    log_b1, log_b2 = np.log(knees.astype(np.float64)).tolist()
    log_n = float(np.log(float(n)))

    count = np.minimum(last - first + 1, _HEAD_TERMS)
    head = np.repeat(np.arange(first.size), count)
    head_rank = first[head] + np.arange(count.sum()) - np.repeat(
        np.cumsum(count) - count, count)
    head_bracket = bracket[head]

    tail = last - first + 1 > _HEAD_TERMS
    lo = (first[tail] + _HEAD_TERMS).astype(np.float64)
    hi = last[tail].astype(np.float64)
    span = np.log(hi / lo)
    tail_piece, tail_bracket = piece[tail], bracket[tail]
    n_head, n_tail = head_rank.size, hi.size
    head_log, hi_log, lo_log = np.split(np.log(np.concatenate(
        [head_rank.astype(np.float64), hi, lo])), [n_head, n_head + n_tail])
    # The falling factorial's factors (s - 2k) - 1 and (s - 2k) - 2 for the
    # updates k = 0, 1, 2 after the first correction, one row each.
    twice_k = np.repeat(2.0 * np.arange(len(_EM_COEFFS) - 1), 2)[:, None]
    one_two = np.tile([1.0, 2.0], len(_EM_COEFFS) - 1)[:, None]
    layouts = {}

    def layout(k: int):
        """The flat arrays of a batch of k rows, built on its first call."""
        if k not in layouts:
            row = np.arange(k)[:, None]
            tail_table = (12 * row + tail_piece).ravel()
            point_table = np.concatenate([
                (12 * row + piece[head]).ravel(), tail_table, tail_table])
            ends = np.concatenate([np.tile(hi, k), np.tile(lo, k)])
            layouts[k] = (
                # Gathers four per-piece columns of row's table to its points.
                3 * np.arange(4)[:, None] + point_table,
                np.concatenate([np.tile(head_log, k), np.tile(hi_log, k),
                                np.tile(lo_log, k)]),
                (n_brackets * row + head_bracket).ravel(),
                (n_brackets * row + tail_bracket).ravel(),
                np.tile(span, k), ends, ends * ends)
        return layouts[k]

    def sums(points: np.ndarray) -> np.ndarray:
        table = []
        for s0, s1, s2 in np.asarray(points, dtype=np.float64).tolist():
            c1 = (s0 - s1) * log_b1
            c2 = c1 + (s1 - s2) * log_b2
            top = max(0.0, s0 * log_b1, c1 + s1 * log_b2, c2 + s2 * log_n)
            t0, t1, t2 = s0 + 1.0, s1 + 1.0, s2 + 1.0
            table.append((0.0 - top, c1 - top, c2 - top, s0, s1, s2,
                          t0, t1, t2, abs(t0), abs(t1), abs(t2)))
        k = len(table)
        (point_index, point_log, head_bins, tail_bins, spans, ends,
         ends_squared) = layout(k)
        heads, tails = k * n_head, k * n_tail
        shift, slope, t, rate = np.array(table).take(point_index)
        f = np.exp(shift + slope * point_log)
        out = np.bincount(head_bins, f[:heads], minlength=k * n_brackets)

        f_ends, s_ends = f[heads:], slope[heads:]
        f_hi, f_lo = f_ends[:tails], f_ends[tails:]
        # Integral of f over [lo, hi], scaled by its larger end so that
        # the exponential never grows: f(hi) hi when s + 1 > 0, else f(lo) lo.
        t, rate = t[heads:heads + tails], rate[heads:heads + tails]
        shape = spans.copy()
        np.divide(-np.expm1(-rate * spans), rate, out=shape, where=t != 0.0)
        scaled = f_ends * ends
        integral = np.where(t > 0.0, scaled[:tails], scaled[tails:]) * shape

        # sum_k B_2k / (2k)! * f^(2k-1)(x), with f^(m)(x) = f(x) (s)_m / x^m,
        # at both ends at once.
        factors = s_ends - twice_k - one_two
        falling = s_ends / ends
        # Starting from the first term, not from zeros, can flip only the
        # sign of a zero, which the bincount's sum drops.
        total = _EM_COEFFS[0] * falling
        for j, coeff in enumerate(_EM_COEFFS[1:]):
            falling = (falling * factors[2 * j] * factors[2 * j + 1]
                       / ends_squared)
            total += coeff * falling
        corrections = f_ends * total
        tail_sums = (integral + 0.5 * (f_lo + f_hi)
                     + corrections[:tails] - corrections[tails:])
        out += np.bincount(tail_bins, tail_sums, minlength=k * n_brackets)
        out = out.reshape(k, n_brackets)
        return out / out.sum(axis=1, keepdims=True)

    return sums


class SimplexResult(NamedTuple):
    """Outcome of :func:`minimize`: the winning search's best vertex and
    its objective value, the number of objective evaluations made by every
    search, and the number of searches run."""

    x: np.ndarray
    fun: float
    nfev: int
    restarts: int


def _by_value(sim, fsim):
    order = np.argsort(fsim)
    return sim[order], fsim[order]


def _nelder_mead(start):
    """One simplex search from ``start``, as a generator.

    It yields each ``(m, dim)`` array of points it needs the values of,
    is sent those m values, and returns its best vertex and value.
    """
    x0 = np.array(start, dtype=np.float64)
    dim = x0.size
    sim = np.empty((dim + 1, dim))
    sim[0] = x0
    for k in range(dim):
        sim[k + 1] = x0
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array((yield sim), dtype=np.float64)
    # scipy sorts twice here.  The second sort finds the values in order;
    # both are kept because argsort is not guaranteed stable on ties.
    sim, fsim = _by_value(*_by_value(sim, fsim))

    iterations = 1
    while iterations < _MAXITER:
        if (abs(sim[1:] - sim[0]).max() <= _XATOL
                and abs(fsim[0] - fsim[1:]).max() <= _FATOL):
            break
        centroid = np.add.reduce(sim[:-1], 0) / dim
        worst = sim[-1]
        xr = 2 * centroid - worst
        fxr, = yield xr[None]
        if fxr < fsim[0]:
            xe = 3 * centroid - 2 * worst
            fxe, = yield xe[None]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * centroid - 0.5 * worst
                fxc, = yield xc[None]
                accept = fxc <= fxr
            else:
                xc = 0.5 * centroid + 0.5 * worst
                fxc, = yield xc[None]
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                # The shrunk vertices do not depend on each other's values.
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:]
        iterations += 1
        sim, fsim = _by_value(sim, fsim)
    return sim[0], np.min(fsim)


def _in_lockstep(objective, starts):
    """Run one search per start, advancing them together: each round
    stacks the next points of every live search into one ``objective``
    call.  Returns each search's (x, fun) and the evaluations made."""
    searches = [_nelder_mead(start) for start in starts]
    asks = [next(search) for search in searches]
    results = [None] * len(searches)
    live = list(range(len(searches)))
    nfev = 0
    while live:
        values = np.asarray(objective(np.concatenate([asks[i] for i in live])),
                            dtype=np.float64)
        nfev += values.size
        offset, still = 0, []
        for i in live:
            size = len(asks[i])
            try:
                asks[i] = searches[i].send(values[offset:offset + size])
                still.append(i)
            except StopIteration as done:
                results[i] = done.value
            offset += size
        live = still
    return results, nfev


def minimize(objective: Callable[[np.ndarray], np.ndarray],
             starts) -> SimplexResult:
    """Nelder-Mead simplex searches (Nelder & Mead, 1965) from a ladder
    of ``starts``; the first good enough or else the best wins.

    Each search takes the steps of scipy 1.17's ``minimize(objective,
    start, method="Nelder-Mead")`` without bounds, with xatol 1e-8, fatol
    1e-12 and maxiter 3000: the first simplex scales each coordinate of
    ``start`` by 1.05 (0 becomes 0.00025); each iteration reflects the
    worst vertex through the centroid of the others, then expands,
    contracts outside or inside, or shrinks every vertex halfway to the
    best, with ties resolved as scipy does.

    ``objective`` takes a ``(k, dim)`` array of points and returns their
    k values.  The first start runs alone, one point per call (the first
    simplex and a shrink, whose points do not depend on each other's
    values, in one call).  If its value is below 1e-3 it wins.  Otherwise
    the other starts run in lockstep: each call holds the next points of
    every search still running.  Each search's steps are those it takes
    alone.  The winner is then found along the ladder: a later search
    replaces the best so far only if its value is lower by more than
    1e-15, and the first best below 1e-3 ends the ladder.
    """
    (best,), nfev = _in_lockstep(objective, starts[:1])
    restarts = 1
    if not best[1] < _GOOD_ENOUGH and len(starts) > 1:
        results, more = _in_lockstep(objective, starts[1:])
        nfev += more
        restarts = len(starts)
        for result in results:
            if result[1] < best[1] - _MARGIN:
                best = result
            if best[1] < _GOOD_ENOUGH:
                break
    x, fun = best
    return SimplexResult(x=x, fun=fun, nfev=nfev, restarts=restarts)


def fit_piecewise_pareto(target: GroupedShares, n: int,
                         breakpoints: Tuple[float, float] = DEFAULT_BREAKPOINTS,
                         ) -> Tuple[RankedShares, PiecewiseLogLogFit]:
    """Fill in a full ranked distribution from grouped share targets.

    Log share is modeled as a continuous piecewise-linear function of log
    rank with three segments; the three slopes are chosen by the
    derivative-free simplex search of :func:`minimize` to minimize the
    target.  Restarts from a fixed ladder of starting simplices keep the
    search deterministic; the best objective wins, ties broken by restart
    order.  One :func:`minimize` call runs the whole ladder.
    """
    n = as_rank_count(n)
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

        def objective(points) -> np.ndarray:
            return np.abs(sums(points) - target.shares).sum(axis=1)

        best = minimize(objective, _STARTS)
        if not np.all(np.isfinite(best.x)):
            raise FitFailedError("piecewise log-log fit did not converge")
        slopes = np.asarray(best.x, dtype=np.float64)

    shares = _shares_from_slopes(slopes, b1, b2, n)
    if not uniform and np.any(np.diff(shares) >= 0):
        if np.any(slopes >= 0):
            why = "a fitted slope is nonnegative"
        elif shares[-1] == 0.0:
            why = (f"every fitted slope is negative, but the shares "
                   f"underflow to zero from rank "
                   f"{np.count_nonzero(shares) + 1} on")
        else:
            why = (f"every fitted slope is negative, but the shares round "
                   f"to a tie at rank {np.argmax(np.diff(shares) >= 0) + 1}")
        raise FitFailedError(f"fitted shares are not strictly descending "
                             f"({why})")
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
