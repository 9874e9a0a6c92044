"""The CSV writers emit every cell as exactly ``"%.17g" % value``.

Each expected file is computed here, row by row with Python's ``%``
operator, and compared byte for byte with what the package wrote.
"""

import errno
import json
import os
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankdist import fileio
from rankdist.core import GroupedShares, RankModelError, StabilityReport


def reference(header, *columns) -> bytes:
    """The table as ``"%.17g" %`` formats it, one cell at a time."""
    lines = [",".join(header)]
    lines.extend(",".join("%.17g" % v for v in row)
                 for row in zip(*(np.asarray(c).tolist() for c in columns)))
    return ("\n".join(lines) + "\n").encode("ascii")


def assert_table_bytes(tmp_path, *columns):
    """``_write_table`` writes ``columns`` exactly as the reference does."""
    header = tuple(f"c{i}" for i in range(len(columns)))
    path = tmp_path / "t.csv"
    fileio._write_table(path, header, *columns)
    assert path.read_bytes() == reference(header, *columns)


def signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def neighbours(values, steps=2):
    """Each value and its ``steps`` nearest doubles on either side."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (np.inf, -np.inf):
        current = out[0]
        for _ in range(steps):
            current = np.nextafter(current, direction)
            out.append(current)
    return np.concatenate(out)


class TestWriteTableCells:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_float64_columns(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 40))
        floats = st.floats(allow_nan=True, allow_infinity=True,
                           allow_subnormal=True, width=64)
        a = data.draw(st.lists(floats, min_size=n, max_size=n))
        b = data.draw(st.lists(floats, min_size=n, max_size=n))
        assert_table_bytes(tmp_path_factory.mktemp("cells"),
                           np.array(a, dtype=np.float64),
                           np.array(b, dtype=np.float64))

    def test_special_values(self, tmp_path):
        values = signed([0.0, 5e-324, 1e-310, sys.float_info.min,
                         sys.float_info.max, np.inf, 1.0])
        values = np.append(values, np.nan)
        assert_table_bytes(tmp_path, values)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        # 1e-10 and 1e17 bound the values a fast formatter may treat
        # alike; exponents -5/-4 and 16/17 switch %g between positional
        # and exponent notation.
        powers = [float(f"1e{k}") for k in range(-20, 21)]
        assert_table_bytes(tmp_path, signed(neighbours(powers)))

    def test_seventeenth_digit_ties_round_half_even(self, tmp_path):
        # N + 0.25 and N + 0.75 need 18 digits for N in [2^50, 2^51), so
        # each is an exact tie at 17 digits: ...4.25 -> ...4.2, ...3.75
        # -> ...3.8.
        rng = np.random.default_rng(20160115)
        whole = np.concatenate([[2.0 ** 50, 2.0 ** 51 - 1],
                                rng.integers(2 ** 50, 2 ** 51, 5000)])
        ties = np.concatenate([whole + 0.25, whole + 0.75])
        assert "%.17g" % (2.0 ** 50 + 0.25) == "1125899906842624.2"
        assert_table_bytes(tmp_path, signed(ties))

    def test_values_rounding_up_into_the_next_decade(self, tmp_path):
        # Each of these doubles lies below 10^k, yet its 17 digits round
        # up to exactly 1e<k>.
        exponents = [-305, -243, -176, -175, -174, -79, -78, -73, -70, -14,
                     98, 129, 153, 220]
        values = [float(f"1e{k}") for k in exponents]
        for k, value in zip(exponents, values):
            assert Fraction(value) < Fraction(10) ** k
            assert "%.17g" % value == f"1e{k:+03d}"
        assert_table_bytes(tmp_path, signed(neighbours(values)))

    def test_log_uniform_values(self, tmp_path):
        rng = np.random.default_rng(7)
        values = 10.0 ** rng.uniform(-14, 18, 100_000)
        assert_table_bytes(tmp_path, values * rng.choice([-1.0, 1.0],
                                                         values.size))

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
        assert_table_bytes(tmp_path, bits.view(np.float64))

    def test_integer_column_next_to_float_column(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(1000) * 1e-3
        assert_table_bytes(tmp_path, np.arange(1, values.size + 1), values)

    @pytest.mark.parametrize("rows", [0, 1, 150_001])
    def test_table_sizes(self, tmp_path, rows):
        values = np.linspace(-1.0, 1.0, rows) ** 3
        assert_table_bytes(tmp_path, np.arange(rows), values)


class TestWriteTableShape:
    @pytest.mark.parametrize("columns", [
        ([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), ([1.0], [[1.0]]),
        ([1.0],),
    ], ids=["second_short", "first_short", "two_dimensional", "too_few"])
    def test_columns_must_match_the_header(self, tmp_path, columns):
        with pytest.raises(RankModelError, match="one 1-D column per header"):
            fileio._write_table(tmp_path / "t.csv", ("a", "b"), *columns)
        assert not (tmp_path / "t.csv").exists()


class TestWriteTablePool:
    """The blocks are formatted on one thread per core and written in
    order into a ``.part`` file, which is renamed into place once every
    block is written."""

    ROWS = 2 * fileio._BLOCK_ROWS + 1  # three blocks

    def columns(self):
        return np.arange(self.ROWS), np.linspace(-1.0, 1.0, self.ROWS) ** 3

    def test_blocks_format_on_more_than_one_thread(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # Blocks 1 and 2 each wait for the other: a writer that formats
        # them on one thread breaks the barrier.
        barrier = threading.Barrier(2, timeout=5)
        threads = []
        original = fileio._format_rows

        def recording(columns):
            threads.append(threading.get_ident())
            if columns[0][0] < 2 * fileio._BLOCK_ROWS:
                barrier.wait()
            return original(columns)

        monkeypatch.setattr(fileio, "_format_rows", recording)
        assert_table_bytes(tmp_path, *self.columns())
        assert len(threads) == 3 and len(set(threads)) == 2

    @pytest.mark.parametrize("cores", [None, 1, 2, 3, 8])
    def test_bytes_do_not_depend_on_the_core_count(self, tmp_path,
                                                   monkeypatch, cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        # Switch threads as often as the interpreter allows, so that blocks
        # finish out of order.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_table_bytes(tmp_path, *self.columns())
        finally:
            sys.setswitchinterval(interval)

    def test_error_in_a_block_propagates(self, tmp_path, monkeypatch):
        class BlockError(Exception):
            pass

        original = fileio._format_rows

        def failing(columns):
            if columns[0][0] == fileio._BLOCK_ROWS:
                raise BlockError("block 2")
            return original(columns)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(fileio, "_format_rows", failing)
        running = len(threading.enumerate())
        with pytest.raises(BlockError, match="block 2"):
            fileio._write_table(tmp_path / "t.csv", ("a", "b"),
                                *self.columns())
        assert not (tmp_path / "t.csv").exists()
        assert len(threading.enumerate()) == running

    def fail_block_2(self, monkeypatch):
        class BlockError(Exception):
            pass

        original = fileio._format_rows

        def failing(columns):
            if columns[0][0] == fileio._BLOCK_ROWS:
                raise BlockError("block 2")
            return original(columns)

        monkeypatch.setattr(fileio, "_format_rows", failing)
        return BlockError, "block 2"

    def fill_the_disk(self, monkeypatch, writes=2):
        """Every write after the first ``writes`` (by default the header
        and block 1) fails with ENOSPC."""

        class Full:
            def __init__(self, file):
                self.file, self.writes = file, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes > writes:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.file.write(chunk)

        monkeypatch.setattr(fileio, "open", lambda *args: Full(open(*args)),
                            raising=False)
        return RankModelError, "cannot write .*t.csv: .*No space left"

    def test_a_failed_write_joins_the_pool(self, tmp_path, monkeypatch):
        # Block 2's write fails while the pool still holds block 3; no
        # pool thread may outlive the call, even while the error (whose
        # traceback holds the writer's frames) is still held.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        error, message = self.fill_the_disk(monkeypatch)
        running = len(threading.enumerate())
        with pytest.raises(error, match=message) as raised:
            fileio._write_table(tmp_path / "t.csv", ("a", "b"),
                                *self.columns())
        assert isinstance(raised.value.__cause__, OSError)
        assert len(threading.enumerate()) == running
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", ["block", "file_system", "lines"])
    def test_an_older_file_survives_a_failed_write(self, tmp_path,
                                                   monkeypatch, failure):
        # "lines": summary.txt and fit_report.json go through write_lines,
        # whose one write fails.
        lines = failure == "lines"
        path = tmp_path / ("summary.txt" if lines else "alpha.csv")
        path.write_bytes(b"rank,alpha\n1,0.5\n")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        fail = {"block": self.fail_block_2,
                "file_system": self.fill_the_disk,
                "lines": lambda mp: self.fill_the_disk(mp, writes=0)}[failure]
        error, message = fail(monkeypatch)
        with pytest.raises(error, match=message.replace("t.csv", path.name)):
            if lines:
                fileio.write_lines(path, ["n = 2"])
            else:
                fileio._write_table(path, ("a", "b"), *self.columns())
        assert path.read_bytes() == b"rank,alpha\n1,0.5\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_a_file_is_replaced_whole(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"x" * 10 ** 6)
        assert_table_bytes(tmp_path, *self.columns())
        assert list(tmp_path.iterdir()) == [path]

    def test_a_symlink_is_replaced_not_written_through(self, tmp_path):
        target = tmp_path / "kept.csv"
        target.write_bytes(b"kept\n")
        path = tmp_path / "t.csv"
        path.symlink_to(target)
        assert_table_bytes(tmp_path, *self.columns())
        assert not path.is_symlink() and path.is_file()
        assert target.read_bytes() == b"kept\n"


class TestGroup:
    """Inside ``fileio.group()`` every output waits, finished, in its
    ``.part`` file, and a stale-file removal waits too, until the block
    ends cleanly; a failure changes nothing."""

    def test_outputs_wait_for_the_block(self, tmp_path):
        stale = tmp_path / "d.json"
        stale.write_bytes(b"old\n")
        path = tmp_path / "a.txt"
        with fileio.group():
            with fileio.group():  # a group inside another joins it
                fileio.write_lines(path, ["new"])
            fileio.write_divergence_json(stale, StabilityReport())
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                ".a.txt.part", "d.json"]
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"new\n"

    def test_an_error_in_the_block_changes_nothing(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old\n")
        with pytest.raises(ValueError, match="late"):
            with fileio.group():
                fileio.write_lines(path, ["new"])
                fileio.write_lines(tmp_path / "b.txt", ["new"])
                raise ValueError("late")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old\n"

    def test_a_failed_write_is_not_committed(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old\n")
        with fileio.group():
            with pytest.raises(TypeError):
                fileio.write_lines(path, [1])  # fails inside the .part
            fileio.write_lines(tmp_path / "b.txt", ["new"])
        assert sorted(tmp_path.iterdir()) == [path, tmp_path / "b.txt"]
        assert path.read_bytes() == b"old\n"

    def test_a_directory_in_the_way_is_found_first(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old\n")
        (tmp_path / "b.txt").mkdir()
        with pytest.raises(RankModelError, match=re.escape(
                f"cannot write {tmp_path / 'b.txt'}: is a directory")):
            with fileio.group():
                fileio.write_lines(path, ["new"])
                fileio.write_lines(tmp_path / "b.txt", ["new"])
        assert sorted(tmp_path.iterdir()) == [path, tmp_path / "b.txt"]
        assert path.read_bytes() == b"old\n"

    def test_a_link_to_a_directory_is_replaced(self, tmp_path):
        # rename and unlink act on the link itself, so it is no obstacle.
        (tmp_path / "dir").mkdir()
        path, stale = tmp_path / "a.txt", tmp_path / "d.json"
        path.symlink_to(tmp_path / "dir")
        stale.symlink_to(tmp_path / "dir")
        with fileio.group():
            fileio.write_lines(path, ["new"])
            fileio.write_divergence_json(stale, StabilityReport())
        assert sorted(tmp_path.iterdir()) == [path, tmp_path / "dir"]
        assert not path.is_symlink() and path.read_bytes() == b"new\n"


def traced_peak(run) -> int:
    """Bytes traced at the peak of ``run()`` above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestWriteTableMemory:
    """A table is streamed: its peak memory is set by the blocks in flight,
    not by the file's size.

    With T threads, at most T blocks are being formatted, each holding at
    most P bytes (its temporaries and its text, measured here on one
    block).  Up to 2T further blocks are submitted ahead of the one being
    written, which holds its text too, and one more is allowed as slack;
    each of those holds only its text, B bytes.  So the peak is at most
    T * P + (2T + 2) * B.  Writing the whole text at once peaked at
    twice the file's size: its blocks' strings, then the joined string and
    its UTF-8 copy.
    """

    ROWS = 3 * 10 ** 5
    THREADS = 2

    def test_peak_is_a_few_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: self.THREADS)
        columns = np.random.default_rng(17).standard_normal((2, self.ROWS))
        block = [c[:fileio._BLOCK_ROWS] for c in columns]
        one = traced_peak(lambda: fileio._format_rows(block))
        text = len(fileio._format_rows(block))
        path = tmp_path / "t.csv"
        peak = traced_peak(
            lambda: fileio._write_table(path, ("a", "b"), *columns))
        bound = self.THREADS * one + (2 * self.THREADS + 2) * text
        assert peak <= bound
        # The whole text held twice over would not fit.
        assert 2 * path.stat().st_size > 1.5 * bound


class TestPublicWriters:
    SHARES = np.sort(np.random.default_rng(5).pareto(1.2, 20_000) + 1)[::-1]
    SHARES = SHARES / SHARES.sum()

    def test_alpha_csv(self, tmp_path):
        alpha = self.SHARES - self.SHARES.mean()
        fileio.write_alpha_csv(tmp_path / "a.csv", alpha)
        assert (tmp_path / "a.csv").read_bytes() == reference(
            ("rank", "alpha"), range(1, alpha.size + 1), alpha)

    def test_fit_csv(self, tmp_path):
        fileio.write_fit_csv(tmp_path / "f.csv", self.SHARES)
        assert (tmp_path / "f.csv").read_bytes() == reference(
            ("rank", "share"), range(1, self.SHARES.size + 1), self.SHARES)

    def test_loglog_csv(self, tmp_path):
        shares = self.SHARES.copy()
        shares[-100:] = 0.0
        fileio.write_loglog_csv(tmp_path / "l.csv", shares)
        kept = shares[shares > 0].copy()
        ranks = np.arange(1, kept.size + 1)
        assert (tmp_path / "l.csv").read_bytes() == reference(
            ("log10_rank", "log10_share"), np.log10(ranks), np.log10(kept))

    def test_grouped_csv(self, tmp_path):
        brackets = ((0, 0.01), (0.01, 1), (1, 10), (10, 100))
        shares = [0.1, 0.2, 0.3, 0.4]
        fileio.write_grouped_csv(tmp_path / "g.csv",
                                 GroupedShares(brackets=brackets,
                                               shares=shares))
        assert (tmp_path / "g.csv").read_bytes() == reference(
            ("lo_pct", "hi_pct", "share"), [b[0] for b in brackets],
            [b[1] for b in brackets], shares)

    @pytest.mark.parametrize("write, header", [
        (fileio.write_alpha_csv, ("rank", "alpha")),
        (fileio.write_fit_csv, ("rank", "share")),
    ], ids=["alpha", "fit"])
    def test_a_list_writes_like_an_array(self, tmp_path, write, header):
        write(tmp_path / "t.csv", [0.5, 0.25])
        assert (tmp_path / "t.csv").read_bytes() == reference(
            header, [1, 2], [0.5, 0.25])

    def test_loglog_csv_from_a_list(self, tmp_path):
        fileio.write_loglog_csv(tmp_path / "l.csv", [0.5, 0.0, 0.25])
        assert (tmp_path / "l.csv").read_bytes() == reference(
            ("log10_rank", "log10_share"), np.log10([1.0, 3.0]),
            np.log10([0.5, 0.25]))

    @pytest.mark.parametrize("write, field", [
        (fileio.write_alpha_csv, "alpha"),
        (fileio.write_fit_csv, "share"),
        (fileio.write_loglog_csv, "share"),
        (lambda path, values: fileio._write_table(path, ("a",), values),
         "a"),
        (lambda path, values: fileio.write_path_csv(
            path, values, [[1.0], [1.0]], ((0, 100),)), "year"),
    ], ids=["alpha", "fit", "loglog", "table", "path"])
    def test_non_numeric_column_rejected(self, tmp_path, write, field):
        with pytest.raises(RankModelError,
                           match=f"t.csv column '{field}' must hold numbers"):
            write(tmp_path / "t.csv", ["0.5", "x"])
        assert not (tmp_path / "t.csv").exists()

    def test_divergence_json_rejects_stable_report(self, tmp_path):
        """The file exists exactly when the report is divergent: a stable
        report writes none and removes an earlier one."""
        path = tmp_path / "d.json"
        fileio.write_divergence_json(path, StabilityReport())
        assert not path.exists()
        fileio.write_divergence_json(path, StabilityReport(m=2, A_m=0.5))
        assert json.loads(path.read_text())["m"] == 2
        fileio.write_divergence_json(path, StabilityReport())
        assert not path.exists()
        path.mkdir()
        with pytest.raises(RankModelError, match=re.escape(
                f"cannot remove {path}: ")):
            fileio.write_divergence_json(path, StabilityReport())

    def test_path_csv(self, tmp_path):
        brackets = ((0, 0.01), (0.01, 1), (1, 100))
        times = np.arange(0, 51) * 0.1
        groups = np.random.default_rng(2).dirichlet([1, 2, 3], times.size)
        fileio.write_path_csv(tmp_path / "p.csv", times, groups, brackets)
        header = ("year", "top_0_0.01", "top_0.01_1", "top_1_100")
        assert (tmp_path / "p.csv").read_bytes() == reference(
            header, times, *groups.T)
