"""CSV/JSON readers and writers for data files and result emission.

All files are UTF-8 with LF line endings and '.' decimal separator.
Machine-readable numbers are written with 17 significant digits so every
emitted CSV round-trips through its own reader bit-exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from .core import (
    GroupedShares,
    ParseError,
    RankModelError,
    TaxSchedule,
    TrendSpec,
    VolatilityTable,
)
from .calibration import PiecewiseLogLogFit

__all__ = [
    "read_grouped_shares",
    "read_volatility_table",
    "read_trend",
    "read_tax",
    "write_grouped_csv",
    "write_alpha_csv",
    "write_fit_csv",
    "write_fit_report",
    "write_loglog_csv",
    "write_divergence_json",
    "write_path_csv",
    "write_lines",
    "DATA_DIR",
]

DATA_DIR = Path(__file__).parent / "data"


def _read_table(path, make, *values: str):
    """``make(brackets, *columns)`` from a CSV headed ``lo_pct,hi_pct,
    <values>``; an error ``make`` raises gains the path in front."""
    path = Path(path)
    header = ("lo_pct", "hi_pct") + values
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise ParseError(path, 1, "empty file")
    found = [cell.strip() for cell in rows[0]]
    if found != list(header):
        raise ParseError(path, 1, f"expected header {','.join(header)!r}, "
                                  f"got {','.join(found)!r}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(path, lineno,
                             f"expected {len(header)} fields, got {len(row)}")
        try:
            out.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ParseError(path, lineno, f"bad number: {exc}") from exc
    if not out:
        raise ParseError(path, 2, "no data rows")
    lo, hi, *columns = zip(*out)
    try:
        return make(tuple(zip(lo, hi)), *columns)
    except RankModelError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_grouped_shares(path) -> GroupedShares:
    """Read bracket shares from a CSV with header lo_pct,hi_pct,share."""
    return _read_table(path, GroupedShares, "share")


def read_volatility_table(path) -> VolatilityTable:
    """Read a CSV with header lo_pct,hi_pct,sigma_low,sigma_high."""
    return _read_table(path, VolatilityTable, "sigma_low", "sigma_high")


def read_trend(path) -> TrendSpec:
    """Read a CSV with header lo_pct,hi_pct,growth_per_year."""
    return _read_table(path, TrendSpec, "growth_per_year")


def read_tax(path) -> TaxSchedule:
    """Read a CSV with header lo_pct,hi_pct,tax_rate_per_year."""
    return _read_table(path, TaxSchedule, "tax_rate_per_year")


def write_lines(path, lines: Sequence[str]) -> None:
    """Write lines as UTF-8 with LF endings, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_table(path, header: Sequence[str], *columns) -> None:
    """Write equal-length columns under a header, every cell as %.17g."""
    row = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    # The column lists die with the generator, before the text is joined.
    lines.extend(row % cells for cells in
                 zip(*(np.asarray(column).tolist() for column in columns)))
    write_lines(path, lines)


def write_grouped_csv(path, grouped: GroupedShares) -> None:
    lo, hi = zip(*grouped.brackets)
    _write_table(path, ("lo_pct", "hi_pct", "share"), lo, hi, grouped.shares)


def write_alpha_csv(path, alpha: np.ndarray) -> None:
    _write_table(path, ("rank", "alpha"), np.arange(1, alpha.size + 1), alpha)


def write_fit_csv(path, shares: np.ndarray) -> None:
    _write_table(path, ("rank", "share"), np.arange(1, shares.size + 1),
                 shares)


def write_fit_report(path, fit: PiecewiseLogLogFit) -> None:
    write_lines(path, [json.dumps(dataclasses.asdict(fit), indent=2)])


def write_loglog_csv(path, shares: np.ndarray) -> None:
    """Log-log plot data; ranks with exactly zero limit share are omitted."""
    # log10 of contiguous copies: on a strided view numpy's vector log10
    # can differ from the scalar one in the last bit.
    positive = shares > 0
    _write_table(path, ("log10_rank", "log10_share"),
                 np.log10(np.flatnonzero(positive) + 1),
                 np.log10(shares[positive]))


def write_divergence_json(path, report) -> None:
    payload = {
        "m": report.m,
        "A_m": float(report.A[report.m - 1]),
        "first_violation": report.first_violation,
        "unique_max": bool(report.unique_max),
    }
    write_lines(path, [json.dumps(payload, indent=2)])


def write_path_csv(path, times: np.ndarray, group_shares: np.ndarray,
                   brackets: Sequence[Tuple[float, float]]) -> None:
    header = ["year"] + [f"top_{lo:g}_{hi:g}" for lo, hi in brackets]
    _write_table(path, header, times, *np.asarray(group_shares).T)
