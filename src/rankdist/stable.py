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
    "gaps_from_prefix_sums",
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
        if np.any(~np.isfinite(gaps)) or np.any(gaps < 0):
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
    :class:`UnstableError` at the first nonnegative prefix sum, and
    :class:`NonPositiveSigmaError` unless every sigma is positive.
    """
    sums = _as_float_array(sums, "sums")
    if np.any(sums >= 0):
        raise UnstableError(int(np.argmax(sums >= 0)) + 1)
    sigma = _as_float_array(sigma, "sigma")
    if sigma.size != sums.size:
        raise RankModelError("sigma and prefix sums differ in length")
    if not np.all(sigma > 0):
        raise NonPositiveSigmaError("all sigma values must be positive")
    return StableGaps(gaps=sigma ** 2 / (-4.0 * sums))


def stable_gaps(params: RankParameters) -> StableGaps:
    """Expected log gaps gap_k = sigma_k**2 / (2 kappa_k) of a stable system."""
    return gaps_from_prefix_sums(prefix_sum(params.alpha)[:-1], params.sigma)


def shares_from_gaps(gaps: StableGaps) -> RankedShares:
    """Exponentiate cumulative gaps into a normalized descending share vector."""
    logs = np.concatenate([[0.0], -prefix_sum(gaps.gaps)])
    weights = np.exp(logs)
    return RankedShares(shares=weights / weights.sum())


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
    gaps = np.log1p((values[:-1] - values[1:]) / values[1:])
    if np.any(gaps <= 0):
        raise TiedSharesError(int(np.argmax(gaps <= 0)) + 1)
    sums = -(sigma ** 2) / (4.0 * gaps)
    return RankParameters(alpha=np.diff(sums, prepend=0.0, append=0.0),
                          sigma=sigma)


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
    bad = sums[:-1] >= 0
    if not np.any(bad):
        return StabilityReport()
    first = int(np.argmax(bad)) + 1
    A = sums / np.arange(1, sums.size + 1)
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
