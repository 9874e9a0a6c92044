"""Closed-form solver for rank-based wealth distributions.

Forward map (parameters -> stable distribution), inverse map (distribution +
volatilities -> relative growth rates), the prefix-sum stability test, and
the internal distribution of a divergent top group.

The central identity: in a stable configuration the time-averaged adjacent
log gap at rank k equals

    gap_k = sigma_k**2 / (-4 (alpha_1 + ... + alpha_k)) = sigma_k**2 / (2 kappa_k)

and stability holds exactly when every proper prefix sum of alpha is
strictly negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GroupUnstableError,
    NonPositiveSigmaError,
    NotDivergentError,
    RankedShares,
    RankModelError,
    RankParameters,
    StabilityReport,
    TiedSharesError,
    UnstableError,
    _as_float_array,
    _as_float_vector,
    _freeze,
    as_integer,
    check_zero_sum,
    prefix_sum,
)

__all__ = [
    "StableGaps",
    "kappa_from_alpha",
    "stable_gaps",
    "shares_from_gaps",
    "alpha_from_shares",
    "check_stability",
    "top_group_stable",
]


@dataclass(frozen=True)
class StableGaps:
    """Expected adjacent log-share gaps of a stable configuration: a 1-D
    vector, empty for a one-household top group."""

    gaps: np.ndarray

    def __post_init__(self):
        gaps = _as_float_array(self.gaps, "gaps")
        if gaps.ndim != 1:
            raise RankModelError("gaps must be a 1-D vector")
        if gaps.size and not (gaps.min() >= 0 and gaps.max() < np.inf):
            raise RankModelError("gaps must be finite and nonnegative")
        _freeze(self, gaps=gaps)

    @property
    def n(self) -> int:
        """The number of ranks, one more than the number of gaps."""
        return self.gaps.size + 1


def kappa_from_alpha(alpha) -> np.ndarray:
    """Reversion rates kappa_k = -2 (alpha_1 + ... + alpha_k), k = 1..n-1."""
    alpha = _as_float_vector(alpha, "alpha")
    check_zero_sum(alpha)
    return -2.0 * prefix_sum(alpha)[:-1]


def gaps_from_prefix_sums(sums: np.ndarray, sigma: np.ndarray) -> StableGaps:
    """Gaps from raw prefix sums of alpha (no sum-zero requirement).

    Used by the projection engine, where trend- or tax-adjusted growth rates
    carry nonzero aggregate drift by construction.  Raises
    :class:`RankModelError` unless every sum is finite,
    :class:`UnstableError` at the first nonnegative prefix sum, and
    :class:`NonPositiveSigmaError` unless every sigma is finite and positive.
    """
    # The checks read each array through its min and max: two reductions
    # that make no temporary array, with any NaN carried into both.
    sums = _as_float_array(sums, "sums")
    if sums.size:
        low, high = sums.min(), sums.max()
        if not (low > -np.inf and high < np.inf):
            raise RankModelError("sums contains non-finite values")
        if high >= 0:
            raise UnstableError(int(np.argmax(sums >= 0)) + 1)
    sigma = _as_float_array(sigma, "sigma")
    if sigma.size != sums.size:
        raise RankModelError("sigma and prefix sums differ in length")
    if sigma.size and not (sigma.min() > 0 and sigma.max() < np.inf):
        raise NonPositiveSigmaError("all sigma values must be finite and "
                                    "positive")
    if sums.ndim != 1 or sigma.ndim != 1:
        raise RankModelError("sums and sigma must be 1-D vectors")
    gaps = np.multiply(sums, -4.0)
    np.divide(np.square(sigma), gaps, out=gaps)
    return StableGaps(gaps=gaps)


def stable_gaps(params: RankParameters) -> StableGaps:
    """Expected log gaps gap_k = sigma_k**2 / (2 kappa_k) of a stable system."""
    return gaps_from_prefix_sums(prefix_sum(params.alpha)[:-1], params.sigma)


def shares_from_gaps(gaps: StableGaps) -> RankedShares:
    """Exponentiate cumulative gaps into a normalized descending share vector.

    Rank 1 has log weight 0, rank k + 1 minus the sum of the first k gaps;
    the weights are exponentiated and normalized in the one array.
    """
    sums = prefix_sum(gaps.gaps)
    weights = np.empty(sums.size + 1)
    weights[0] = 1.0
    np.negative(sums, out=weights[1:])
    np.exp(weights[1:], out=weights[1:])
    weights /= weights.sum()
    return RankedShares(shares=weights)


def alpha_from_shares(shares: RankedShares, sigma) -> RankParameters:
    """Invert a strictly descending distribution into relative growth rates.

    Prefix sums satisfy S_k = -sigma_k**2 / (4 gap_k) for k = 1..n-1;
    alpha_k = S_k - S_{k-1} with S_0 = S_n = 0, so the output sums to zero
    exactly.  Round-trips through :func:`stable_gaps` and
    :func:`shares_from_gaps`.
    """
    sigma = _as_float_array(sigma, "sigma")
    if sigma.size != shares.n - 1:
        raise RankModelError("sigma must have length n - 1")
    values = shares.shares
    # log1p of the adjacent ratio keeps full relative precision even when
    # neighboring shares are nearly tied (log-difference would lose ~6
    # digits there and break the 1e-10 round-trip guarantee).
    gaps = np.subtract(values[:-1], values[1:])
    np.divide(gaps, values[1:], out=gaps)
    np.log1p(gaps, out=gaps)
    # fmin skips a NaN gap (0/0 below a run of zero shares), which the
    # comparison gaps <= 0 also reads as no tie.
    if np.fmin.reduce(gaps, initial=np.inf) <= 0:
        raise TiedSharesError(int(np.argmax(gaps <= 0)) + 1)
    # gaps becomes -S_k = sigma_k**2 / (4 gap_k); alpha_k = S_k - S_{k-1}
    # with S_0 = S_n = 0.
    np.multiply(gaps, 4.0, out=gaps)
    np.divide(np.square(sigma), gaps, out=gaps)
    alpha = np.zeros(gaps.size + 1)
    np.negative(gaps, out=alpha[:-1])
    alpha[1:] += gaps
    return RankParameters(alpha=alpha, sigma=sigma)


def check_stability(*, sums) -> StabilityReport:
    """Prefix-sum stability test on S_k = alpha_1 + ... + alpha_k, k = 1..n
    (keyword-only, so alpha cannot pass for S; see ``core.prefix_sum``).

    Stable iff every proper S_k is strictly negative.  When unstable, the
    divergent top group has size m = argmax of the running averages
    A_k = S_k / k, with the smallest index taken on exact ties
    (``unique_max`` is false in that case so callers can warn).

    Alpha need not sum to zero: trend- and tax-adjusted growth rates carry
    a nonzero aggregate drift, and the argmax comparison is invariant to a
    common shift of all alpha.
    """
    sums = _as_float_vector(sums, "sums")
    if sums.size == 1 or sums[:-1].max() < 0:
        return StabilityReport()
    first = int(np.argmax(sums[:-1] >= 0)) + 1
    A = np.arange(1.0, sums.size + 1)
    np.divide(sums, A, out=A)
    m = int(np.argmax(A)) + 1  # np.argmax returns the smallest index on ties
    unique = int(np.count_nonzero(A == A[m - 1])) == 1
    return StabilityReport(first_violation=first, m=m, A_m=float(A[m - 1]),
                           unique_max=unique)


def top_group_stable(params: RankParameters, m: int) -> RankedShares:
    """Limit internal distribution of the divergent top-m group.

    Growth rates are re-expressed relative to the group's own wealth growth:
    alpha'_k = alpha_k - mean(alpha_1..alpha_m), which sums to zero over the
    group (the subtracted mean is exactly A_m when m maximizes the running
    averages).  Volatilities sigma_1..sigma_{m-1} are unchanged.  The full
    economy's limit has these shares on ranks 1..m and zero below.
    Raises :class:`NotDivergentError` if every proper prefix sum of alpha
    through rank m is negative (for check_stability's m: stable input), and
    :class:`GroupUnstableError` if the group's own prefix sums are not all
    negative or are too close to zero for finite gaps (as when a rounding
    tie in the running averages picks m).
    """
    try:
        m = as_integer(m, "m", 1, params.n + 1)
    except RankModelError:
        raise RankModelError(f"m={m!r} outside 1..{params.n}") from None
    through = min(m, params.n - 1)
    if not np.any(prefix_sum(params.alpha[:through]) >= 0):
        raise NotDivergentError(
            f"no divergent top group of size {m}: every prefix sum of alpha "
            f"through rank {through} is negative")
    group = params.alpha[:m] - params.alpha[:m].mean()
    try:
        with np.errstate(over="ignore"):
            gaps = gaps_from_prefix_sums(prefix_sum(group)[:-1],
                                         params.sigma[:m - 1])
    except RankModelError as exc:
        # An UnstableError names the first nonnegative prefix sum; any other
        # error is a gap that overflows on sums too close to zero.
        why = (f"prefix sum nonnegative at rank {exc.rank}"
               if isinstance(exc, UnstableError) else
               "its prefix sums are too close to zero for finite gaps")
        raise GroupUnstableError(
            f"divergent top group of size {m} has no stable internal "
            f"distribution ({why})") from exc
    shares = shares_from_gaps(gaps).shares.copy()
    # The group holds all wealth in the limit, so its total must be exactly
    # 1 in float64, not 1 up to a rounding residual: fold the residual of
    # the correctly-rounded sum into the largest share (a sub-ulp nudge).
    for _ in range(5):
        residual = 1.0 - math.fsum(shares)
        if residual == 0.0:
            break
        shares[0] += residual
    return RankedShares(shares=shares)
