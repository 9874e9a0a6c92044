"""Output checks for every benchmark operation.

Each check returns a list of problems; an empty list means the output is
correct.  The checks run outside the timed spans.  Reference values are this
benchmark's own copy of the paper's published table, and every recomputation
(bracket ranks, prefix sums, the forward solve, the stability test) is done
here with numpy rather than through the package under test.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

#: Reporting brackets of the paper's table, percent rank from the top.
PAPER_BRACKETS = ((0.0, 0.01), (0.01, 0.1), (0.1, 0.5), (0.5, 1.0),
                  (1.0, 10.0), (10.0, 100.0))

#: Published projected bracket shares (percent) for the 2012 U.S.
#: calibration at n = 10^6, keyed by (scenario, taxed, sigma variant).
#: Scenario 4 untaxed is divergent: the top 0.01% (m = 100) takes it all.
PUBLISHED = {
    (1, False, "low"): (11.1, 10.8, 12.4, 7.2, 35.7, 22.8),
    (1, False, "high"): (11.1, 10.8, 12.4, 7.2, 35.7, 22.8),
    (2, False, "low"): (36.8, 7.9, 8.2, 4.7, 23.4, 19.0),
    (2, False, "high"): (35.9, 8.1, 8.5, 4.9, 24.2, 18.5),
    (3, False, "low"): (87.9, 2.0, 1.5, 0.8, 3.9, 3.9),
    (3, False, "high"): (85.9, 2.3, 1.8, 1.0, 4.8, 4.2),
    (1, True, "low"): (1.5, 4.0, 8.4, 6.7, 44.9, 34.6),
    (1, True, "high"): (1.5, 4.1, 8.4, 6.8, 45.0, 34.2),
    (2, True, "low"): (1.8, 3.8, 7.7, 6.2, 41.0, 39.6),
    (2, True, "high"): (1.9, 3.9, 7.9, 6.3, 42.0, 37.9),
    (3, True, "low"): (2.4, 3.9, 7.2, 5.7, 37.6, 43.3),
    (3, True, "high"): (2.5, 4.1, 7.6, 6.0, 39.2, 40.7),
    (4, True, "low"): (14.6, 3.8, 6.0, 4.7, 30.5, 40.5),
    (4, True, "high"): (14.8, 4.0, 6.4, 4.9, 32.3, 37.5),
}
PUBLISHED_DIVERGENT_M = 100

FIT_ERROR_MAX = 0.0075
ROUND_TRIP_RTOL = 1e-10
#: Projected shares against this module's forward solve.  The two agree to
#: about 3e-14 at n = 10^6; 1e-9 leaves room for a change of summation
#: order and still fails any change of formula.
FORWARD_RTOL = 1e-9
SHARE_SUM_ATOL = 1e-9
#: z-score of the oracle tolerance; a false alarm per cell is about 6e-5.
ORACLE_Z = 4.0


def table_tolerance_pp(scenario: int, taxed: bool) -> float:
    return 0.3 if (scenario, taxed) == (1, False) else 1.5


def bracket_ranks(bracket, n: int):
    lo, hi = bracket
    return int(round(lo * n / 100.0)) + 1, int(round(hi * n / 100.0))


def per_rank(brackets, values, n: int) -> np.ndarray:
    out = np.zeros(n)
    for value, bracket in zip(values, brackets):
        lo, hi = bracket_ranks(bracket, n)
        out[lo - 1:hi] += value
    return out


def cumsum_ld(values) -> np.ndarray:
    return np.cumsum(np.asarray(values, dtype=np.longdouble)).astype(
        np.float64)


def group(shares: np.ndarray, brackets) -> np.ndarray:
    cums = np.concatenate([[0.0], cumsum_ld(shares)])
    return np.array([cums[hi] - cums[lo - 1]
                     for lo, hi in (bracket_ranks(b, shares.size)
                                    for b in brackets)])


def forward_shares(alpha: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Closed-form stable shares, gap_k = sigma_k^2 / (-4 sum_{j<=k} alpha_j).
    """
    gaps = sigma ** 2 / (-4.0 * cumsum_ld(alpha)[:-1])
    logs = np.concatenate([[0.0], -cumsum_ld(gaps)])
    weights = np.exp(logs - logs.max())
    return weights / weights.sum()


def divergent_group(alpha: np.ndarray):
    """None when every proper prefix sum is negative, else the group size m
    maximizing the running average (smallest index on ties)."""
    sums = cumsum_ld(alpha)
    if np.all(sums[:-1] < 0):
        return None
    return int(np.argmax(sums / np.arange(1, alpha.size + 1))) + 1


def matches_forward(shares: np.ndarray, ref: np.ndarray) -> bool:
    """Relative agreement; a share that underflows to 0 in ``ref`` must be
    0 or subnormal."""
    return bool(np.all(np.abs(shares - ref)
                       <= FORWARD_RTOL * ref + np.finfo(np.float64).tiny))


def _load_columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _compare_table(pct, key, problems, label):
    ref = np.array(PUBLISHED[key])
    tol = table_tolerance_pp(key[0], key[1])
    worst = float(np.max(np.abs(np.asarray(pct) - ref)))
    if not worst <= tol:
        problems.append(f"{label}: {np.round(pct, 2).tolist()} differs from "
                        f"the published {ref.tolist()} by {worst:.2f} pp "
                        f"> {tol} pp")


# --------------------------------------------------------------------------
# CLI commands
# --------------------------------------------------------------------------

def check_calibrate(out: Path, stdout: str, n: int, sigma: np.ndarray,
                    published: bool) -> list:
    problems = []
    report = json.loads((out / "fit_report.json").read_text())
    fit_error = float(report["fit_error"])
    match = re.search(r"fit_error=([0-9.eE+-]+)", stdout)
    if match is None or abs(float(match.group(1)) - fit_error) > 1e-6:
        problems.append("printed fit_error does not match fit_report.json")
    if published and not fit_error <= FIT_ERROR_MAX:
        problems.append(f"fit_error {fit_error} > {FIT_ERROR_MAX}")
    alpha = _load_columns(out / "alpha.csv")
    fit = _load_columns(out / "fit.csv")
    ranks = np.arange(1, n + 1)
    if not (alpha.shape == fit.shape == (n, 2)
            and np.array_equal(alpha[:, 0], ranks)
            and np.array_equal(fit[:, 0], ranks)):
        return problems + ["alpha.csv/fit.csv do not hold ranks 1..n"]
    if not np.all(np.diff(fit[:, 1]) < 0):
        problems.append("fit.csv shares are not strictly descending")
    if abs(math.fsum(fit[:, 1]) - 1.0) > SHARE_SUM_ATOL:
        problems.append("fit.csv shares do not sum to 1")
    if divergent_group(alpha[:, 1]) is not None:
        problems.append("calibrated alpha is not stable")
        return problems
    back = forward_shares(alpha[:, 1], sigma)
    rel = float(np.max(np.abs(back - fit[:, 1]) / fit[:, 1]))
    if not rel <= ROUND_TRIP_RTOL:
        problems.append(f"alpha.csv inverts back to fit.csv only within "
                        f"{rel:.3e} relative > {ROUND_TRIP_RTOL}")
    return problems


def check_tax(out: Path, stdout: str, n: int, key, published: bool) -> list:
    problems = []
    rows = _load_columns(out / "projection.csv")
    brackets = tuple(map(tuple, rows[:, :2]))
    if brackets != PAPER_BRACKETS:
        return [f"projection.csv brackets {brackets} are not the paper's"]
    if abs(math.fsum(rows[:, 2]) - 1.0) > SHARE_SUM_ATOL:
        problems.append("projection.csv shares do not sum to 1")
    if published:
        _compare_table(100.0 * rows[:, 2], key, problems, "tax projection")
    if "outcome: stable" not in stdout or (out / "divergence.json").exists():
        problems.append("tax projection is not reported stable")
    loglog = _load_columns(out / "loglog.csv")
    if loglog.shape != (n, 2):
        return problems + [f"loglog.csv has shape {loglog.shape}"]
    if not np.allclose(loglog[:, 0], np.log10(np.arange(1, n + 1)),
                       rtol=0, atol=1e-12):
        problems.append("loglog.csv rank column is wrong")
    shares = 10.0 ** loglog[:, 1]
    if not np.all(np.diff(loglog[:, 1]) <= 0):
        problems.append("loglog.csv shares are not descending")
    if abs(math.fsum(shares) - 1.0) > 1e-6:
        problems.append("loglog.csv shares do not sum to 1")
    if not np.allclose(group(shares, PAPER_BRACKETS), rows[:, 2],
                       rtol=0, atol=1e-6):
        problems.append("loglog.csv disagrees with projection.csv")
    return problems


_REPORT_LINE = re.compile(r"scenario (\d)( \+ capital tax)?: (.*?)"
                          r"(  \[divergent, m=(\d+)\])?$")


def check_report(out: Path, stdout: str, variant: str,
                 published: bool) -> list:
    problems = []
    text = (out / "summary.txt").read_text()
    if text.strip() != stdout.strip():
        problems.append("summary.txt differs from the printed report")
    cells = {}
    for line in text.splitlines():
        match = _REPORT_LINE.match(line)
        if match is None:
            continue
        scenario, taxed = int(match.group(1)), match.group(2) is not None
        pct = [float(v) for v in re.findall(r" ([0-9.]+)%", " " +
                                            match.group(3))]
        m = int(match.group(5)) if match.group(5) else None
        cells[(scenario, taxed)] = (pct, m)
    expected = {(s, t) for s in (1, 2, 3, 4) for t in (False, True)}
    if set(cells) != expected:
        return problems + [f"report lists cells {sorted(cells)}"]
    for key, (pct, m) in sorted(cells.items()):
        label = f"report cell {key}"
        if len(pct) != len(PAPER_BRACKETS):
            problems.append(f"{label}: {len(pct)} brackets")
            continue
        if abs(sum(pct) - 100.0) > 0.05 * len(pct) + 1e-9:
            problems.append(f"{label}: shares sum to {sum(pct)}%")
        if not published:
            continue
        if key == (4, False):
            if m != PUBLISHED_DIVERGENT_M or pct[0] != 100.0:
                problems.append(f"{label}: expected divergent m=100 holding "
                                f"100%, got m={m}, {pct[0]}%")
        else:
            # The summary rounds to 0.1 pp, which widens the band by 0.05.
            ref = np.array(PUBLISHED[key + (variant,)])
            tol = table_tolerance_pp(*key) + 0.05 + 1e-9
            if m is not None or np.max(np.abs(np.array(pct) - ref)) > tol:
                problems.append(f"{label}: {pct} (m={m}) is not within "
                                f"{tol:.2f} pp of the published "
                                f"{ref.tolist()}")
    return problems


# --------------------------------------------------------------------------
# Projection cells
# --------------------------------------------------------------------------

def check_cell(outcome, alpha: np.ndarray, sigma: np.ndarray, brackets,
               published_key) -> list:
    """``alpha`` is the benchmark's own recomputation of the adjusted rates.

    Stable shares must match the forward solve of ``alpha``; a divergent
    top group of size m must match the forward solve of its rates
    re-centred on the group, alpha[:m] - mean(alpha[:m]), with sigma[:m-1].
    """
    problems = []
    shares = np.asarray(outcome.shares)
    n = alpha.size
    m = divergent_group(alpha)
    kind = "stable" if m is None else "divergent"
    if outcome.kind != kind:
        return [f"outcome {outcome.kind}, expected {kind}"]
    if shares.shape != (n,) or not np.all(np.isfinite(shares)):
        return [f"shares have shape {shares.shape} or are not finite"]
    if kind == "stable":
        if not np.all(shares > 0) or not np.all(np.diff(shares) < 0):
            problems.append("stable shares are not positive and descending")
        if abs(float(np.sum(shares, dtype=np.longdouble)) - 1.0) > \
                SHARE_SUM_ATOL:
            problems.append("stable shares do not sum to 1")
        if not matches_forward(shares, forward_shares(alpha, sigma)):
            problems.append(f"stable shares differ from the forward solve "
                            f"by more than {FORWARD_RTOL} relative")
    else:
        if outcome.report.m != m:
            problems.append(f"group size m={outcome.report.m}, expected {m}")
        if np.any(shares[m:] != 0.0):
            problems.append("ranks below the divergent group hold wealth")
        if math.fsum(shares[:m]) != 1.0:
            problems.append(f"divergent top group sums to "
                            f"{math.fsum(shares[:m])!r}, not exactly 1")
        top = alpha[:m] - alpha[:m].mean()
        if not matches_forward(shares[:m],
                               forward_shares(top, sigma[:m - 1])):
            problems.append(f"top group of size {m} differs from the "
                            f"forward solve by more than {FORWARD_RTOL} "
                            f"relative")
    grouped = np.asarray(outcome.grouped.shares)
    if not np.allclose(grouped, group(shares, brackets), rtol=0, atol=1e-12):
        problems.append("grouped shares disagree with the share vector")
    if published_key is not None:
        if published_key in PUBLISHED:
            _compare_table(100.0 * grouped, published_key, problems,
                           f"preset cell {published_key}")
        elif m != PUBLISHED_DIVERGENT_M:
            problems.append(f"preset cell {published_key}: m={m}, published "
                            f"{PUBLISHED_DIVERGENT_M}")
    return problems


# --------------------------------------------------------------------------
# Monte Carlo
# --------------------------------------------------------------------------

def check_path(path, n: int, steps: int, record_stride: int,
               brackets) -> list:
    problems = []
    shares = np.asarray(path.group_shares)
    records = steps // record_stride
    if shares.shape != (records, len(brackets)):
        problems.append(f"recorded shares have shape {shares.shape}, "
                        f"expected {(records, len(brackets))}")
    if not np.all(np.isfinite(shares)) or np.any(
            np.abs(shares.sum(axis=1) - 1.0) > SHARE_SUM_ATOL):
        problems.append("recorded group shares do not sum to 1")
    gaps = np.asarray(path.rank_gap_averages)
    if gaps.shape != (n - 1,) or not np.all(np.isfinite(gaps)) or \
            not np.all(gaps > 0):
        problems.append("gap averages are not finite and positive")
    final = np.asarray(path.final_shares.shares)
    if abs(math.fsum(final) - 1.0) > SHARE_SUM_ATOL:
        problems.append("final shares do not sum to 1")
    return problems


def oracle_tolerance(kappa: float, sigma: float, averaged_years: float
                     ) -> float:
    """Relative tolerance of a time average over ``averaged_years``.

    In units of space sigma^2/kappa and time sigma^2/kappa^2 the gap is the
    canonical reflected Brownian motion (drift -1, variance 1), stationary
    Exp(2) with mean 1/2.  Its Poisson equation (1/2) g'' - g' = -(x - 1/2),
    g'(0) = 0, has g = x^2/2, so the integrated autocovariance is
    E[(X - 1/2) X^2/2] = 1/4 and a time average over canonical time T has
    variance 1/(2T): a relative standard error sqrt(2/T) with
    T = averaged_years * kappa^2 / sigma^2.  The tolerance is ORACLE_Z of
    those standard errors; it follows from the horizon alone.
    """
    canonical_time = averaged_years * kappa ** 2 / sigma ** 2
    return ORACLE_Z * math.sqrt(2.0 / canonical_time)


def check_oracle(average: float, kappa: float, sigma: float,
                 averaged_years: float) -> list:
    exact = sigma ** 2 / (2.0 * kappa)
    tol = oracle_tolerance(kappa, sigma, averaged_years)
    rel = abs(average - exact) / exact
    if not rel <= tol:
        return [f"oracle kappa={kappa} sigma={sigma}: {average!r} is "
                f"{rel:.4f} from sigma^2/2kappa = {exact}, "
                f"tolerance {tol:.4f}"]
    return []
