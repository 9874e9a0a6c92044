"""CSV/JSON readers and writers for data files and result emission.

Every file the package reads or writes, and every number it reads from
text (table cells, ``--seed``, ``--scenario``), goes through this module.

All files are UTF-8 with LF line endings and '.' decimal separator.
Machine-readable numbers are written with 17 significant digits so every
emitted CSV round-trips through its own reader bit-exactly.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import csv
import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor
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
    _as_float_array,
    _thread_count,
)

__all__ = [
    "read_config",
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
    "group",
    "DATA_DIR",
]

DATA_DIR = Path(__file__).parent / "data"


def read_config(path):
    """The JSON value in the run configuration file ``path``; an unreadable
    file or invalid JSON raises :class:`RankModelError` naming the path."""
    path = Path(path)
    try:
        # utf-8-sig: an editor may save the file with a BOM.
        return json.loads(path.read_text(encoding="utf-8-sig"),
                          object_pairs_hook=_unique_keys)
    # A UnicodeDecodeError is a ValueError too, so its clause comes first.
    except (OSError, UnicodeDecodeError) as exc:
        raise RankModelError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise RankModelError(f"config {path} is not valid JSON: {exc}"
                             ) from exc


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice raises ``ValueError``
    (``json`` alone keeps the last value silently)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _integer(text: str):
    """The int that ``text`` spells as an optional '-' and ASCII digits,
    else ``None``; ``int`` alone would also read '1_0', ' 3 ' and '\u0663'."""
    digits = text[1:] if text.startswith("-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _number(cell: str) -> float:
    """``float(cell)`` for an ASCII cell without ``float``'s ``_`` digit
    separator, so ``0_02`` and a fullwidth ``\uff11`` are bad numbers."""
    if "_" in cell or not cell.isascii():
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def _read_table(path, make, *values: str):
    """``make(brackets, *columns)`` from a CSV headed ``lo_pct,hi_pct,
    <values>``; an error ``make`` raises gains the path in front."""
    path = Path(path)
    header = ("lo_pct", "hi_pct") + values
    try:
        # utf-8-sig: a spreadsheet's "CSV UTF-8" starts with a BOM.
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, 0, f"cannot read file: {exc}") from exc
    reader = csv.reader(text.splitlines())
    try:
        rows = list(reader)
    except csv.Error as exc:  # an over-long field, say
        raise ParseError(path, reader.line_num, f"bad CSV: {exc}") from exc
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
            out.append([_number(cell) for cell in row])
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


#: The pending outputs of the open :func:`group` in this thread (or task):
#: destination path -> its finished ``.part`` file, or ``None`` for a removal.
_PENDING = contextvars.ContextVar("_PENDING", default=None)


def _failure(path, part, exc) -> RankModelError:
    verb = "remove" if part is None else "write"
    return RankModelError(f"cannot {verb} {path}: {exc}")


@contextlib.contextmanager
def group():
    """A block whose outputs change together or not at all.

    Inside it, each writer leaves its finished ``.part`` file pending, and a
    stale-file removal waits too.  When the block ends cleanly, every
    destination is checked first (none may be a directory); then each
    ``.part`` file is renamed into place and each removal made.  When the
    block raises or a check fails, the ``.part`` files go, nothing else
    changes, and the :class:`RankModelError` names the path.  A group
    opened inside another joins it; a write outside any group is a group
    of one.  A rename that fails after the checks (another process racing
    for the directory, say) can still leave the group half done."""
    pending = _PENDING.get()
    if pending is not None:
        yield pending
        return
    pending = {}
    token = _PENDING.set(pending)
    try:
        yield pending
        for path, part in pending.items():
            if path.is_dir() and not path.is_symlink():
                raise _failure(path, part, "is a directory")
        for path, part in pending.items():
            try:
                if part is None:
                    path.unlink(missing_ok=True)
                else:
                    os.replace(part, path)
            except OSError as exc:
                raise _failure(path, part, exc) from exc
    finally:
        _PENDING.reset(token)
        for part in pending.values():
            if part is not None:
                part.unlink(missing_ok=True)


@contextlib.contextmanager
def _replacing(path):
    """An open sibling ``.<name>.part`` of ``path``, created with the parent
    directory; every file the package writes goes through here.

    The part file replaces ``path`` only when the block and the enclosing
    :func:`group` end cleanly: a failed write leaves no file, and an older
    one as it was.  An :class:`OSError` raises :class:`RankModelError`
    naming the path."""
    path = Path(path)
    part = path.with_name(f".{path.name}.part")
    with group() as pending:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                with open(part, "wb") as out:
                    yield out
            except BaseException:
                part.unlink(missing_ok=True)
                raise
        except OSError as exc:
            raise _failure(path, part, exc) from exc
        pending[path] = part


def write_lines(path, lines: Sequence[str]) -> None:
    """Write lines as UTF-8 with LF endings, creating the parent directory."""
    with _replacing(path) as out:
        out.write(("\n".join(lines) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# "%.17g" % x for whole columns, without Python strings
#
# A cell with 1e-10 <= |x| < 1e15 is written from the exact integer
# D = round(|x| * 10^p), p = 16 - floor(log10 |x|), which holds its 17
# significant digits.  With |x| = m * 2^(e - 53), D = m * 5^p / 2^s for
# s = 53 - e - p, which is 1..63 in this range: the product m * 5^p
# (< 2^116) is formed exactly in two uint64 words, and the s bits shifted
# out of it round D half to even, as C's printf does.  Every other cell
# (zeros, nan, inf and the exponents beyond this range) goes through
# "%.17g" % x.
#
# A cell is 32 bytes: four little-endian uint64 words of ASCII in which a
# 0 byte is padding, dropped by one compress per block of rows.
#   word 0     '-', then "0." and up to three more zeros below 1
#   words 1-3  the digits, cut after the last nonzero one but never before
#              the units digit, with '.' after the units digit (after the
#              first digit in exponent form); then, in word 3 from byte 2,
#              "e-XX" below 1e-4, and the separator at byte 6
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 8192
_U64 = np.uint64


def _ascii(text: str, at: int = 0) -> int:
    """``text`` as a little-endian integer whose byte ``at`` is text[0]."""
    return int.from_bytes(text.encode("ascii"), "little") << 8 * at


def _by_exponent(text) -> np.ndarray:
    """uint64 table of ``text(k)``, indexed by k + 11 for k = -11..15."""
    return np.array([text(k) for k in range(-11, 16)], dtype=np.uint64)


_POW5 = np.array([5 ** p for p in range(28)], dtype=np.uint64)
_GROUP = np.arange(10_000)
#: The four ASCII digits of g = 0..9999, first digit in the lowest byte.
_QUAD = np.bitwise_or.reduce(
    (_GROUP // np.array([[1000], [100], [10], [1]]) % 10 + ord("0"))
    .astype(np.uint64) << np.arange(0, 32, 8, dtype=np.uint64)[:, None])
#: _LAST[10_000 j + g]: how many digits remain when group j (digits
#: 4j + 1..4j + 4, after the leading one) is g and every digit after it is
#: a zero; 1, just the leading digit, where group j is zero too.
_LAST = np.where(_GROUP != 0, 5 - sum(_GROUP % 10 ** z == 0 for z in (1, 2, 3))
                 + np.arange(0, 16, 4)[:, None], 1).ravel()
_GROUP_AT = np.arange(0, 40_000, 10_000)[:, None]
#: Column c: the three words of a 24-byte string with its low c bytes set.
_LOW_BYTES = np.array([[((1 << 8 * c) - 1) >> 64 * w & (2 ** 64 - 1)
                        for c in range(26)] for w in range(3)],
                      dtype=np.uint64)
_DOTS = _U64(_ascii("." * 8))
#: Word 0 without the sign: "0." and k - 1 zeros for -4 <= k < 0.
_PREFIX = _by_exponent(lambda k: _ascii("0." + "0" * (-k - 1), at=1)
                       if -4 <= k < 0 else 0)
#: Bytes 2-5 of word 3: "e-XX" where %g switches to exponent form.
_EXPONENT = _by_exponent(lambda k: _ascii(f"e{k:+03d}", at=2)
                         if k < -4 else 0)
_SEPARATOR = _U64(_ascii(",", at=6))
_NEWLINE = _U64(_ascii("\n", at=6))


def _scaled(m, e, k):
    """floor(m * 2^(e - 53) * 10^(16 - k)) as uint64, and whether that
    product rounds up to the nearest integer, ties to even."""
    f = np.take(_POW5, 16 - k)
    low32 = _U64(0xFFFF_FFFF)
    ml, mh, fl, fh = m & low32, m >> 32, f & low32, f >> 32
    ll = ml * fl
    # ml * fh < 2^63 and mh * fl < 2^53: the middle sum cannot overflow.
    mid = ml * fh + mh * fl + (ll >> 32)
    lo = (ll & low32) | (mid << 32)
    hi = mh * fh + (mid >> 32)
    s = (k - e + 37).astype(np.uint64)
    floor = (lo >> s) | (hi << (64 - s))
    half = _U64(1) << (s - 1)
    rest = lo & ((half << 1) - 1)
    return floor, rest + (floor & 1) > half


def _cell_words(x: np.ndarray) -> np.ndarray:
    """(4, len(x)) words holding "%.17g" % v for each v in x, separator
    byte left 0."""
    ax = np.abs(x)
    fast = (ax >= 1e-10) & (ax < 1e15)
    ax[~fast] = 1.0
    mantissa, e = np.frexp(ax)
    m = (mantissa * 2.0 ** 53).astype(np.uint64)
    e = e.astype(np.int64)
    k = np.floor(np.log10(ax)).astype(np.int64)
    digits, up = _scaled(m, e, k)
    while True:  # log10 may put k one decade off next to a power of ten
        off = (digits >= _U64(10 ** 17)).astype(np.int64) \
            - (digits < _U64(10 ** 16))
        moved = np.flatnonzero(off)
        if not moved.size:
            break
        k[moved] += off[moved]
        digits[moved], up[moved] = _scaled(m[moved], e[moved], k[moved])
    # No carry into 10^17: that needs a double within 5e-18 relative below
    # a power of ten, and the closest in this range is 4.5e-17 (at 1e-7).
    digits += up

    lead = digits // _U64(10 ** 16)
    rest = digits - lead * _U64(10 ** 16)
    high = rest // _U64(10 ** 8)
    low = rest - high * _U64(10 ** 8)
    groups = np.empty((4, x.size), dtype=np.int64)
    for row, half in ((0, high), (2, low)):
        top = half // _U64(10_000)
        groups[row] = top
        groups[row + 1] = half - top * _U64(10_000)
    length = np.take(_LAST, groups + _GROUP_AT).max(axis=0)
    quad = np.take(_QUAD, groups)
    text = np.empty((3, x.size), dtype=np.uint64)
    text[0] = (lead + ord("0")) | (quad[0] << 8) | (quad[1] << 40)
    text[1] = (quad[1] >> 24) | (quad[2] << 8) | (quad[3] << 40)
    text[2] = quad[3] >> 24

    positional = k >= -4
    keep = np.maximum(length, (k + 1) * positional)
    text &= np.take(_LOW_BYTES, keep, axis=1)
    # '.' goes in at byte `dot`, after the units digit or in exponent form
    # after the first digit; at byte 24, past the digits, when no fraction
    # digit is left.
    dot = np.where(positional, k + 1, 1)
    dot = np.where((dot >= 1) & (length > dot), dot, 24)
    before = np.take(_LOW_BYTES, dot, axis=1)
    through = np.take(_LOW_BYTES, dot + 1, axis=1)
    shifted = text << 8
    shifted[1:] |= text[:-1] >> 56
    text = ((text & before) | (shifted & ~through)
            | ((through ^ before) & _DOTS))

    words = np.empty((4, x.size), dtype=np.uint64)
    words[0] = np.take(_PREFIX, k + 11) | np.signbit(x) * _U64(ord("-"))
    words[1:3] = text[:2]
    words[3] = text[2] | np.take(_EXPONENT, k + 11)

    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = "".join([("%.17g" % v).ljust(24, "\0")
                         for v in x[slow].tolist()])
        words[:3, slow] = np.frombuffer(cells.encode("ascii"), dtype="<u8") \
            .reshape(slow.size, 3).T
        words[3, slow] = 0
    return words


def _format_rows(columns: Sequence[np.ndarray]) -> bytes:
    """The CSV rows of equal-length float64 columns, as ASCII."""
    words = _cell_words(np.concatenate(columns)).reshape(4, len(columns), -1)
    words[3] |= _SEPARATOR
    words[3, -1] ^= _SEPARATOR ^ _NEWLINE
    cells = np.ascontiguousarray(words.transpose(2, 1, 0)).astype("<u8",
                                                                 copy=False)
    text = cells.view(np.uint8).ravel()
    return text.compress(text != 0).tobytes()


def _column(path, field: str, values) -> np.ndarray:
    """``values`` as float64; non-numbers raise :class:`RankModelError`
    naming the file and the header field."""
    return _as_float_array(values, f"{Path(path).name} column {field!r}")


def _write_table(path, header: Sequence[str], *columns) -> None:
    """Write equal-length columns under a header, every cell as %.17g.

    Blocks of ``_BLOCK_ROWS`` rows are formatted on one thread per core
    (numpy releases the GIL in nearly all of it) and written in order as
    each is done, at most two per thread submitted ahead of the one being
    written, so the bytes do not depend on the thread count and no more
    than a few blocks' text is held at once."""
    arrays = [_column(path, field, column)
              for field, column in zip(header, columns)]
    if (not arrays or len(columns) != len(header)
            or any(a.shape != arrays[0].shape or a.ndim != 1 for a in arrays)):
        raise RankModelError(
            f"{Path(path).name}: a table needs one 1-D column per header "
            f"field ({len(header)}), all of one length; got {len(columns)} "
            f"columns, shaped {[a.shape for a in arrays]}")
    threads = _thread_count()
    # The pool's block closes first: its threads are joined, once the
    # blocks still queued (two per thread at most) are formatted, before
    # the .part file is removed and before any error leaves.
    with _replacing(path) as out, ThreadPoolExecutor(threads) as pool:
        out.write((",".join(header) + "\n").encode("utf-8"))
        pending = collections.deque()
        for start in range(0, arrays[0].size, _BLOCK_ROWS):
            pending.append(pool.submit(
                _format_rows, [a[start:start + _BLOCK_ROWS] for a in arrays]))
            if len(pending) > 2 * threads:
                out.write(pending.popleft().result())
        while pending:
            out.write(pending.popleft().result())


def write_grouped_csv(path, grouped: GroupedShares) -> None:
    lo, hi = zip(*grouped.brackets)
    _write_table(path, ("lo_pct", "hi_pct", "share"), lo, hi, grouped.shares)


def write_alpha_csv(path, alpha) -> None:
    alpha = _column(path, "alpha", alpha)
    _write_table(path, ("rank", "alpha"), np.arange(1.0, alpha.size + 1),
                 alpha)


def write_fit_csv(path, shares) -> None:
    shares = _column(path, "share", shares)
    _write_table(path, ("rank", "share"), np.arange(1.0, shares.size + 1),
                 shares)


def write_fit_report(path, fit) -> None:
    """``fit``, a :class:`~rankdist.calibration.PiecewiseLogLogFit`, as
    indented JSON."""
    write_lines(path, [json.dumps(dataclasses.asdict(fit), indent=2)])


def write_loglog_csv(path, shares) -> None:
    """Log-log plot data; ranks with exactly zero limit share are omitted."""
    shares = _column(path, "share", shares)
    # log10 of contiguous copies: on a strided view numpy's vector log10
    # can differ from the scalar one in the last bit.
    positive = shares > 0
    _write_table(path, ("log10_rank", "log10_share"),
                 np.log10(np.flatnonzero(positive) + 1),
                 np.log10(shares[positive]))


def write_divergence_json(path, report) -> None:
    """``report`` as indented JSON when it is divergent; a stable report
    leaves no file, so an earlier run's, which would contradict it, goes
    when the :func:`group` ends.  An :class:`OSError` raises
    :class:`RankModelError` naming the path."""
    if report.stable:
        with group() as pending:
            pending[Path(path)] = None
    else:
        write_lines(path, [json.dumps(dataclasses.asdict(report), indent=2)])


def write_path_csv(path, times: np.ndarray, group_shares: np.ndarray,
                   brackets: Sequence[Tuple[float, float]]) -> None:
    header = ["year"] + [f"top_{lo:g}_{hi:g}" for lo, hi in brackets]
    _write_table(path, header, times,
                 *_column(path, "group_shares", group_shares).T)
