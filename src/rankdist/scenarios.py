"""Trend and tax adjustments to rank-based growth rates, plus projection.

A projection takes (possibly adjusted) per-rank growth rates and answers:
what distribution is the economy transitioning towards?  Either a stable
configuration solved in closed form, or a divergent outcome in which the
top group identified by the running-average criterion asymptotically holds
all wealth, with its own internal stable distribution.

Adjusted growth rates are deliberately NOT recentered to sum to zero before
solving: a bracket whose share grows at g per year has its alpha raised by
exactly g, and the implied gaps follow from those raw prefix sums.  The
stability test reads those raw prefix sums too, so it is not invariant to a
common shift: alpha = (-1, 1) is stable and (1, 3) is not.  The
divergent-subset argmax is invariant to a shift that keeps the input
unstable, since it moves every running average by the same amount.  A
standalone :func:`recenter` helper is provided for callers who want to
restore the economy-relative convention explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import (
    GroupedShares,
    RankModelError,
    RankParameters,
    StabilityReport,
    TaxSchedule,
    TrendSpec,
    UnknownScenarioError,
    _as_float_vector,
    as_integer,
    group_shares,
    per_rank_values,
    prefix_sum,
)
from .stable import (
    check_stability,
    gaps_from_prefix_sums,
    shares_from_gaps,
    top_group_stable,
)

__all__ = [
    "ProjectionOutcome",
    "apply_trend",
    "apply_tax",
    "recenter",
    "preset_scenario",
    "default_capital_tax",
    "project",
]

#: Trend presets by consecutive id: (brackets, annual growth per bracket).
#: :func:`preset_scenario`, the CLI's report grid and its ``--scenario``
#: help all read the ids from here.
PRESETS = {
    1: ((), ()),
    2: (((0.0, 0.01), (10.0, 100.0)), (0.01, -0.005)),
    3: (((0.0, 0.01), (0.01, 0.1), (10.0, 100.0)), (0.015, 0.005, -0.01)),
    4: (((0.0, 0.01), (0.01, 0.1), (10.0, 100.0)), (0.03, 0.01, -0.015)),
}


@dataclass(frozen=True)
class ProjectionOutcome:
    """Result of a projection.

    ``shares`` is the full limit share vector, a plain array: in the
    divergent case ranks beyond m are exactly zero and the top-m shares sum
    to one.  (:func:`make_ranked_shares` would reject those zeros; a
    RankedShares itself only checks that its values are finite.)
    """

    shares: np.ndarray
    report: StabilityReport
    grouped: GroupedShares

    @property
    def kind(self) -> str:
        """Either "stable" or "divergent", read off the stability report."""
        return "stable" if self.report.stable else "divergent"


def apply_trend(params: RankParameters, trend: TrendSpec) -> RankParameters:
    """Raise alpha by each bracket's annual share growth rate.

    Ranks outside the trend's brackets are unchanged.  The sum-zero
    convention is intentionally not re-imposed: observed trends describe a
    disequilibrium, and the projection machinery handles the implied
    aggregate drift.
    """
    return _adjusted(params, trend.brackets, trend.growth, np.add)


def apply_tax(params: RankParameters, tax: TaxSchedule) -> RankParameters:
    """Lower alpha by each bracket's annual capital tax rate.

    A 1% tax reduces the taxed ranks' relative growth by 1%; revenue is
    discarded (no redistribution).  Volatilities are unchanged.
    """
    return _adjusted(params, tax.brackets, tax.rate, np.subtract)


def _adjusted(params: RankParameters, brackets, values,
              op: np.ufunc) -> RankParameters:
    """``op(alpha, per-rank values)``, written into the per-rank vector
    itself so that one n-long array is made; sigma is unchanged."""
    adjustment = per_rank_values(brackets, values, params.n)
    alpha = op(params.alpha, adjustment, out=adjustment)
    return RankParameters(alpha=alpha, sigma=params.sigma)


def recenter(alpha) -> np.ndarray:
    """Subtract the mean so the vector sums to zero (idempotent)."""
    alpha = _as_float_vector(alpha, "alpha")
    return alpha - alpha.mean()


def preset_scenario(scenario_id: int) -> TrendSpec:
    """Built-in trend scenarios over percent-rank brackets.

    1: no trend (current distribution assumed stable).
    2: top 0.01% +1%/yr, bottom 90% -0.5%/yr.
    3: top 0.01% +1.5%/yr, next 0.01-0.1% +0.5%/yr, bottom 90% -1%/yr.
    4: top 0.01% +3%/yr, next 0.01-0.1% +1%/yr, bottom 90% -1.5%/yr.
    """
    first, last = min(PRESETS), max(PRESETS)
    try:
        scenario_id = as_integer(scenario_id, "scenario", first, last + 1)
    except RankModelError:
        raise UnknownScenarioError(f"scenario must be an integer in "
                                   f"{first}..{last}, got {scenario_id!r}"
                                   ) from None
    return TrendSpec(*PRESETS[scenario_id])


def default_capital_tax() -> TaxSchedule:
    """Progressive capital tax: 2%/yr on the top 0.5%, 1%/yr on the next
    0.5-1%."""
    return TaxSchedule(brackets=((0.0, 0.5), (0.5, 1.0)),
                       rate=np.array([0.02, 0.01]))


def project(params: RankParameters,
            reporting_brackets: Sequence[Tuple[float, float]],
            ) -> ProjectionOutcome:
    """Solve for the limit distribution implied by (adjusted) growth rates.

    Stable case: closed-form gaps from the raw prefix sums of alpha,
    exponentiated and normalized.  Divergent case: the top group of size m
    from the running-average criterion ends up holding all wealth, with its
    internal stable distribution on ranks 1..m and exact zeros below.
    """
    sums = prefix_sum(params.alpha)
    report = check_stability(sums=sums)
    if report.stable:
        gaps = gaps_from_prefix_sums(sums[:-1], params.sigma)
        del sums  # not held through the forward solve's own prefix sum
        shares = shares_from_gaps(gaps).shares
    else:
        top = top_group_stable(params, report.m)
        shares = np.zeros(params.n)
        shares[:report.m] = top.shares
    grouped = group_shares(shares, reporting_brackets)
    return ProjectionOutcome(shares=shares, report=report, grouped=grouped)
