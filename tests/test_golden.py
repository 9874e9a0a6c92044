"""Byte-level golden of the CLI outputs at n = 10^4.

Each case runs one command in-process through ``rankdist.cli.main`` and
compares the SHA-256 of its stdout and of every file it writes with
``golden_cli.json``.  A refactor that is meant to keep behaviour fixed must
keep every digest; a change that moves a byte on purpose regenerates the
file and explains the change:

    PYTHONPATH=src python tests/test_golden.py

which prints each (case, file) whose digest moved before it rewrites the
file.

n = 10^4 is the smallest size at which the packaged 0.01% bracket maps to
an integer rank.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from rankdist import simulate
from rankdist.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
N = 10_000

CASES = {
    "calibrate": ["calibrate"],
    "project_scenario4": ["project", "--scenario", "4"],
    "tax_scenario4": ["tax", "--scenario", "4"],
    "report": ["report"],
    "report_sigma_high": ["report", "--sigma", "high"],
    "tax_scenario1_sigma_high": ["tax", "--scenario", "1", "--sigma", "high"],
    "simulate_seed7": ["simulate", "--seed", "7"],
    "table_files": ["tax", "--scenario", "t.csv", "--sigma", "high"],
}

#: Config keys merged over ``{"n": N}`` for a case.  The simulation clips
#: drift as the README recommends: unclipped, the bottom household's
#: calibrated rate moves it by about 11.6 log units in one step.
OVERLAYS = {
    "simulate_seed7": {"simulation": {"drift_clip": 2.0}},
    "table_files": {"grouped_shares": "g.csv", "volatility": "v.csv",
                    "tax": "x.csv"},
}

#: Input tables written next to ``config.json`` for a case.  Every bracket
#: end is a multiple of 0.01%, so it lands on an integer rank at n = 10^4;
#: the trend and the tax cover only part of [0, 100).
FILES = {
    "table_files": {
        "g.csv": "lo_pct,hi_pct,share\n0,0.05,0.15\n0.05,0.5,0.2\n"
                 "0.5,5,0.25\n5,100,0.4\n",
        "v.csv": "lo_pct,hi_pct,sigma_low,sigma_high\n0,1,0.25,0.3\n"
                 "1,20,0.27,0.35\n20,100,0.3,0.9\n",
        "t.csv": "lo_pct,hi_pct,growth_per_year\n0,0.05,0.01\n"
                 "50,100,-0.003\n",
        "x.csv": "lo_pct,hi_pct,tax_rate_per_year\n0,0.1,0.015\n"
                 "0.1,2,0.005\n",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(case: str, work: Path) -> dict:
    """Run one case in ``work``; digest its stdout and output files."""
    for name, text in FILES.get(case, {}).items():
        (work / name).write_text(text, encoding="utf-8")
    config = work / "config.json"
    config.write_text(json.dumps({"n": N, **OVERLAYS.get(case, {})}),
                      encoding="utf-8")
    out = work / "out"
    stdout = io.StringIO()
    # Relative paths keep ``simulate``'s "wrote out/path.csv" line the same
    # in every working directory.  (contextlib.chdir is new in Python 3.11.)
    previous = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(CASES[case] + ["--config", "config.json",
                                       "--out", "out"])
    finally:
        os.chdir(previous)
    result = {"exit_code": code,
              "stdout": _sha256(stdout.getvalue().encode("utf-8"))}
    for path in sorted(out.iterdir()):
        result[path.name] = _sha256(path.read_bytes())
    return result


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert digests(case, tmp_path) == expected


@pytest.mark.parametrize("case", ["calibrate", "report", "tax_scenario4"])
def test_outputs_do_not_depend_on_the_core_count(case, tmp_path,
                                                 monkeypatch):
    # The writers' pool and the report pool take one thread per core; the
    # BLAS variables the child-process tests set size neither.
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    for cores in (1, 4):
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        work = tmp_path / f"cores{cores}"
        work.mkdir()
        assert digests(case, work) == expected, f"{cores} core(s)"


def test_simulate_does_not_depend_on_the_draw_worker(tmp_path, monkeypatch):
    # At n = 10^4 the next step's shocks are drawn on a worker thread;
    # raising the threshold past n draws them inline.
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[
        "simulate_seed7"]
    assert N >= simulate._WORKER_DRAW_MIN_N
    for min_n in (simulate._WORKER_DRAW_MIN_N, N + 1):
        monkeypatch.setattr(simulate, "_WORKER_DRAW_MIN_N", min_n)
        work = tmp_path / f"min{min_n}"
        work.mkdir()
        assert digests("simulate_seed7", work) == expected, min_n


def write_golden() -> None:
    """Rewrite ``golden_cli.json``, first printing each (case, file) whose
    digest differs from the committed one."""
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) \
        if GOLDEN.exists() else {}
    golden = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            golden[case] = digests(case, Path(work))
        before = old.get(case, {})
        for name in sorted(golden[case].keys() | before.keys()):
            if golden[case].get(name) != before.get(name):
                print(f"moved: {case} {name}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
