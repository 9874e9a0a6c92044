"""Domain types, validation, and bracket arithmetic shared by all modules.

Conventions used throughout the package:

* Ranks are 1-indexed and counted from the top: rank 1 is the wealthiest
  household.  Storage is 0-indexed numpy arrays, so ``shares[k]`` holds the
  share of rank ``k + 1``.
* Percent brackets ``(lo_pct, hi_pct)`` are half-open intervals of percent
  rank counted from the top; the bracket ``(0, 0.01)`` at n = 10**6 covers
  ranks 1..100.
* ``alpha`` values are annual relative log-growth rates (1/year); ``sigma``
  values are gap volatilities (1/sqrt(year)).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "RankModelError",
    "NonPositiveShareError",
    "NotDescendingError",
    "BadNormalizationError",
    "NonIntegerBoundaryError",
    "BracketGapError",
    "BadSumError",
    "BadAlphaSumError",
    "NonPositiveSigmaError",
    "NonPositiveKappaError",
    "TiedSharesError",
    "UnstableError",
    "NotDivergentError",
    "GroupUnstableError",
    "UnknownScenarioError",
    "NegativeInputError",
    "FitFailedError",
    "InfeasibleTargetError",
    "ParseError",
    "RankedShares",
    "RankParameters",
    "GroupedShares",
    "VolatilityTable",
    "TrendSpec",
    "TaxSchedule",
    "StabilityReport",
    "make_ranked_shares",
    "make_rank_parameters",
    "bracket_to_ranks",
    "group_shares",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class RankModelError(ValueError):
    """Base class for all validation and model errors in this package."""


class NonPositiveShareError(RankModelError):
    """A wealth share was zero or negative."""


class NotDescendingError(RankModelError):
    """Shares were not sorted in descending rank order."""


class BadNormalizationError(RankModelError):
    """Shares deviate from summing to one by more than the tolerance."""


class NonIntegerBoundaryError(RankModelError):
    """A percent bracket boundary does not land on an integer rank."""


class BracketGapError(RankModelError):
    """Brackets overlap or leave a gap instead of partitioning [0, 100)."""


class BadSumError(RankModelError):
    """Grouped shares do not sum to one within tolerance."""


class BadAlphaSumError(RankModelError):
    """Relative growth rates do not sum to zero within tolerance."""


class NonPositiveSigmaError(RankModelError):
    """A gap volatility was zero or negative."""


class NonPositiveKappaError(RankModelError):
    """A reversion rate kappa was zero or negative."""


class TiedSharesError(RankModelError):
    """Adjacent ranks hold equal shares where strict ordering is required."""

    def __init__(self, rank: int):
        self.rank = int(rank)
        super().__init__(f"tied shares at rank {self.rank}: inversion requires "
                         f"strictly descending shares")


class UnstableError(RankModelError):
    """Stability precondition violated (some prefix sum of alpha >= 0)."""

    def __init__(self, rank: int):
        self.rank = int(rank)
        super().__init__(f"unstable configuration: prefix sum of alpha is "
                         f"nonnegative at rank {self.rank}")


class NotDivergentError(RankModelError):
    """Divergent-subset analysis requested on a stable configuration."""


class GroupUnstableError(RankModelError):
    """The divergent top group has no internal stable distribution."""


class UnknownScenarioError(RankModelError):
    """A scenario id that names no trend preset."""


class NegativeInputError(RankModelError):
    """An input required to be nonnegative was negative."""


class FitFailedError(RankModelError):
    """The piecewise log-log fit optimizer did not converge."""


class InfeasibleTargetError(RankModelError):
    """Grouped target has non-monotone density; no descending fit exists."""


class ParseError(RankModelError):
    """A data file failed to parse."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = int(line)
        super().__init__(f"{self.path}:{self.line}: {message}")


# ---------------------------------------------------------------------------
# Numeric helpers
# ---------------------------------------------------------------------------

Bracket = Tuple[float, float]


def prefix_sum(values: np.ndarray) -> np.ndarray:
    """Running sums computed in extended precision.

    At n = 10**6 a naive float64 cumulative sum loses enough precision to
    break round-trip identities, so sums are accumulated in long double and
    rounded back once.  The sums are accumulated in place in one long-double
    copy of ``values`` (``np.array`` always copies, so the caller's array is
    never written): a second n-long long-double array would be a fresh
    16 MB at n = 10**6, faulted in again on every call.  Like ``np.cumsum``
    it flattens its input, and a scalar gives one sum.
    """
    sums = np.array(values, dtype=np.longdouble).ravel()
    np.cumsum(sums, out=sums)
    return sums.astype(np.float64)


def as_rank_count(n) -> int:
    """``n``, a number of ranks, as an int >= 2 whose long-double prefix
    sum numpy can shape; a larger n raises :class:`RankModelError` before
    anything is allocated.  A smaller n that memory cannot hold raises
    MemoryError later."""
    n = as_integer(n, "n", 2)
    if n > np.iinfo(np.intp).max // np.dtype(np.longdouble).itemsize:
        raise RankModelError(f"n = {n:.3g} is too large for an array")
    return n


def _thread_count() -> int:
    """Threads for a pool: one per core.  A pool starts no more threads than
    it is given jobs; more threads than cores only leave their freed arrays
    behind in glibc's per-thread arenas, raising the process's RSS."""
    return os.cpu_count() or 1


def _holds_bool(values) -> bool:
    """Whether ``values`` is a bool, a bool array or a (nested) list or
    tuple holding one; an array is judged by its dtype, never scanned.
    A flat list is read by its element types alone, at C speed."""
    if isinstance(values, np.ndarray):
        return values.dtype.kind == "b"
    if not isinstance(values, (list, tuple)):
        return isinstance(values, (bool, np.bool_))
    types = set(map(type, values))
    if types & {bool, np.bool_}:
        return True
    return not types.isdisjoint({list, tuple, np.ndarray}) and any(
        map(_holds_bool, values))


def _as_float_array(values, name: str) -> np.ndarray:
    """``values`` as a float64 array; anything but integers and floats
    (strings, bytes and bools included) raises :class:`RankModelError`
    naming ``name``.  A float64 array comes back uncopied."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise RankModelError(f"{name} must hold numbers: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise RankModelError(f"{name} must hold numbers, got dtype "
                             f"{arr.dtype}")
    # numpy reads [0.5, True] as float64; only a list can hide a bool.
    if not isinstance(values, np.ndarray) and _holds_bool(values):
        raise RankModelError(f"{name} must hold numbers, got a bool")
    return arr.astype(np.float64, copy=False)


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = _as_float_array(values, name)
    if arr.ndim != 1 or arr.size == 0:
        raise RankModelError(f"{name} must be a nonempty 1-D vector")
    # min and max are reductions that make no temporary array, and a NaN
    # is carried into both.
    if not (arr.min() > -np.inf and arr.max() < np.inf):
        raise RankModelError(f"{name} contains non-finite values")
    return arr


def check_zero_sum(alpha: np.ndarray) -> None:
    """Raise :class:`BadAlphaSumError` unless alpha sums to zero, to 1e-9 of
    its largest magnitude (or absolutely, when that is below one)."""
    scale = max(1.0, float(np.max(np.abs(alpha))))
    if abs(float(alpha.sum())) > 1e-9 * scale:
        raise BadAlphaSumError(f"alpha sums to {alpha.sum():.3e}, expected 0")


def as_integer(value, name: str, lo: int, hi: Optional[int] = None) -> int:
    """An int in [lo, hi) from an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value >= hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise RankModelError(f"{name} must be an integer {bound}, got "
                             f"{value!r}")
    return int(value)


def as_finite(value, name: str) -> float:
    """``value`` as a finite float; a bool or a string does not pass."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise RankModelError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def as_pair(value, name: str) -> Tuple[float, float]:
    """``value``, a list or tuple of two numbers, as two finite floats."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise RankModelError(f"{name} must be a pair of numbers, got "
                             f"{value!r}")
    return tuple(as_finite(v, f"{name}[{i}]") for i, v in enumerate(value))


def as_brackets(value, name: str, *, partition: bool) -> Tuple[Bracket, ...]:
    """``value``, a list of ``[lo, hi]`` pairs, as ordered percent brackets
    with 0 <= lo < hi <= 100 that do not overlap; with ``partition`` they
    must also cover [0, 100) without gaps."""
    if not isinstance(value, (list, tuple)):
        raise RankModelError(f"{name} must be a list of [lo, hi] pairs, got "
                             f"{value!r}")
    brackets = tuple(as_pair(b, f"{name}[{i}]") for i, b in enumerate(value))
    prev_hi = 0.0
    for lo, hi in brackets:
        if not (0.0 <= lo < hi <= 100.0):
            raise BracketGapError(f"invalid bracket ({lo}, {hi}) in {name}")
        if lo < prev_hi - 1e-12:
            raise BracketGapError(f"{name} overlap near {lo}%")
        if partition and lo > prev_hi + 1e-12:
            raise BracketGapError(f"{name} leave a gap between {prev_hi}% "
                                  f"and {lo}%")
        prev_hi = hi
    if partition and (not brackets or abs(prev_hi - 100.0) > 1e-12):
        raise BracketGapError(f"{name} must cover [0, 100) exactly")
    return brackets


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _freeze(obj, **fields) -> None:
    """Set validated fields on a frozen dataclass.  An array field is a
    read-only view: it shares memory with the array passed in (no copy is
    made) and leaves that array writable."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.view()
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class RankedShares:
    """Full descending vector of wealth shares by rank, summing to one."""

    shares: np.ndarray

    def __post_init__(self):
        _freeze(self, shares=_as_float_vector(self.shares, "shares"))

    @property
    def n(self) -> int:
        """The number of ranks, the length of ``shares``."""
        return self.shares.size


@dataclass(frozen=True)
class RankParameters:
    """Per-rank relative growth rates and gap volatilities.

    ``alpha`` has length n (1/year), ``sigma`` length n - 1 (1/sqrt(year)).
    ``kappa`` is always recomputed from alpha, never stored.  The sum-zero
    convention on alpha is enforced where required (inversion output,
    kappa_from_alpha) rather than here, because trend- and tax-adjusted
    parameter sets intentionally carry nonzero aggregate drift.
    """

    alpha: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        # sigma first: a NaN in sigma spreads into the alpha inverted from it.
        sigma = _as_float_vector(self.sigma, "sigma")
        alpha = _as_float_vector(self.alpha, "alpha")
        if sigma.size != alpha.size - 1:
            raise RankModelError("sigma must have length n - 1")
        if sigma.min() <= 0:
            raise NonPositiveSigmaError("all sigma values must be positive")
        _freeze(self, alpha=alpha, sigma=sigma)

    @property
    def n(self) -> int:
        """The number of ranks, the length of ``alpha``."""
        return self.alpha.size

    @property
    def kappa(self) -> np.ndarray:
        """Reversion rates kappa_k = -2 (alpha_1 + ... + alpha_k), k < n."""
        return -2.0 * prefix_sum(self.alpha)[:-1]


def _freeze_table(table, *columns: str, partition: bool) -> None:
    """Check and freeze a bracket table: its brackets by :func:`as_brackets`,
    each named column as one finite float64 value per bracket."""
    brackets = as_brackets(table.brackets, "brackets", partition=partition)
    for name in columns:
        column = _as_float_array(getattr(table, name), name)
        if column.shape != (len(brackets),):
            raise RankModelError(f"{name} must hold one value per bracket "
                                 f"({len(brackets)}), not {column.shape}")
        if not np.all(np.isfinite(column)):
            raise RankModelError(f"{name} contains non-finite values")
        _freeze(table, **{name: column})
    _freeze(table, brackets=brackets)


@dataclass(frozen=True)
class GroupedShares:
    """Bracket-level wealth shares, brackets in percent rank from the top."""

    brackets: Tuple[Bracket, ...]
    shares: np.ndarray

    def __post_init__(self):
        _freeze_table(self, "shares", partition=True)
        # Zero is legal: a divergent limit is exactly 0 below its top group.
        if np.any(self.shares < 0):
            raise NegativeInputError("grouped shares must be nonnegative")
        if abs(self.shares.sum() - 1.0) > 1e-6:
            raise BadSumError(f"grouped shares sum to {self.shares.sum():.8f}"
                              f", expected 1 within 1e-6")


@dataclass(frozen=True)
class VolatilityTable:
    """Bracket-level low/high gap-volatility estimates (1/sqrt(year))."""

    brackets: Tuple[Bracket, ...]
    sigma_low: np.ndarray
    sigma_high: np.ndarray

    #: The variant names, the default first; variant ``v`` is ``sigma_v``.
    VARIANTS = ("low", "high")

    def __post_init__(self):
        _freeze_table(self, "sigma_low", "sigma_high", partition=True)
        if np.any(self.sigma_low <= 0) or np.any(self.sigma_high <= 0):
            raise NonPositiveSigmaError("volatilities must be positive")

    def variant(self, which: str) -> np.ndarray:
        if which not in self.VARIANTS:
            raise RankModelError(
                f"unknown sigma variant {which!r}; expected "
                f"{' or '.join(map(repr, self.VARIANTS))}")
        return getattr(self, f"sigma_{which}")


@dataclass(frozen=True)
class TrendSpec:
    """Annual log-share growth adjustments by bracket (1/year).

    Brackets need not cover [0, 100); uncovered ranks get zero adjustment.
    """

    brackets: Tuple[Bracket, ...] = ()
    growth: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        _freeze_table(self, "growth", partition=False)


@dataclass(frozen=True)
class TaxSchedule:
    """Annual capital tax rates by bracket (1/year, nonnegative)."""

    brackets: Tuple[Bracket, ...] = ()
    rate: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        _freeze_table(self, "rate", partition=False)
        if np.any(self.rate < 0):
            raise NegativeInputError("tax rates must be nonnegative")


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the prefix-sum stability test on alpha.

    Stable iff every proper prefix sum of alpha is strictly negative; then
    every field is None.  When unstable, ``m`` is the size of the divergent
    top group (smallest argmax of the running averages A_k = S_k / k), A_m
    their maximum, and ``unique_max`` whether that argmax is unique.
    """

    m: Optional[int] = None
    A_m: Optional[float] = None
    first_violation: Optional[int] = None
    unique_max: Optional[bool] = None

    @property
    def stable(self) -> bool:
        return self.m is None


# ---------------------------------------------------------------------------
# Constructors and bracket arithmetic
# ---------------------------------------------------------------------------

def make_ranked_shares(values) -> RankedShares:
    """Validate and normalize a descending share vector.

    Renormalizes when the sum deviates from one by at most 1e-6 (external
    data is typically rounded to a few digits); larger deviations raise
    :class:`BadNormalizationError`.
    """
    arr = _as_float_vector(values, "shares")
    if np.any(arr <= 0):
        raise NonPositiveShareError("all shares must be strictly positive")
    if np.any(np.diff(arr) > 0):
        k = int(np.argmax(np.diff(arr) > 0)) + 1
        raise NotDescendingError(f"shares increase from rank {k} to {k + 1}")
    total = arr.sum()
    if abs(total - 1.0) > 1e-6:
        raise BadNormalizationError(f"shares sum to {total:.8f}; deviation "
                                    f"from 1 exceeds 1e-6")
    return RankedShares(shares=arr / total)


def make_rank_parameters(alpha, sigma) -> RankParameters:
    """Construct RankParameters enforcing the sum-zero convention on alpha."""
    alpha = _as_float_vector(alpha, "alpha")
    check_zero_sum(alpha)
    return RankParameters(alpha=alpha, sigma=sigma)


def bracket_to_ranks(bracket: Bracket, n: int) -> Tuple[int, int]:
    """Map a percent bracket to an inclusive 1-indexed rank range.

    ``(0, 0.01)`` at n = 10**6 maps to ranks (1, 100).  Boundaries must land
    on integer ranks for the given n, and the bracket must hold at least
    one rank.
    """
    bracket, = as_brackets([bracket], "bracket", partition=False)
    n = as_integer(n, "n", 1)
    ranks = [pct * n / 100.0 for pct in bracket]
    for pct, exact in zip(bracket, ranks):
        if abs(exact - round(exact)) > 1e-6 * max(1.0, exact):
            raise NonIntegerBoundaryError(
                f"bracket boundary {pct}% maps to non-integer rank {exact} "
                f"at n={n}")
    lo_rank, hi_rank = round(ranks[0]) + 1, round(ranks[1])
    if hi_rank < lo_rank:
        raise NonIntegerBoundaryError(
            f"bracket {bracket} holds no rank at n={n}")
    return lo_rank, hi_rank


def per_rank_values(brackets: Sequence[Bracket], values,
                    n: int) -> np.ndarray:
    """Length-n vector holding each bracket's value on the bracket's ranks
    and zero on ranks no bracket covers."""
    out = np.zeros(n)
    for value, bracket in zip(values, brackets):
        lo_rank, hi_rank = bracket_to_ranks(bracket, n)
        out[lo_rank - 1:hi_rank] += value
    return out


def group_shares(shares, brackets: Sequence[Bracket]) -> GroupedShares:
    """Aggregate ranked shares into bracket-level group sums.

    ``shares`` may be a :class:`RankedShares` or a plain descending vector,
    such as the projection engine's divergent limit, which is exactly zero
    below its top group.  Each bracket of the partition ``brackets`` is one
    long-double sum over its own ranks, rounded to float64 once.
    """
    brackets = as_brackets(brackets, "brackets", partition=True)
    vec = shares.shares if isinstance(shares, RankedShares) else \
        _as_float_array(shares, "shares")
    if vec.ndim != 1:
        raise RankModelError("shares must be a 1-D vector")
    out = np.empty(len(brackets))
    for i, bracket in enumerate(brackets):
        lo_rank, hi_rank = bracket_to_ranks(bracket, vec.size)
        out[i] = np.sum(vec[lo_rank - 1:hi_rank], dtype=np.longdouble)
    return GroupedShares(brackets=brackets, shares=out)
