"""Byte-level golden of the CLI outputs at n = 10^4.

Each case runs one command in-process through ``rankdist.cli.main`` and
compares the SHA-256 of its stdout and of every file it writes with
``golden_cli.json``.  A refactor that is meant to keep behaviour fixed must
keep every digest; a change that moves a byte on purpose regenerates the
file and explains the change:

    PYTHONPATH=src python tests/test_golden.py

n = 10^4 is the smallest size at which the packaged 0.01% bracket maps to
an integer rank.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

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
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(argv, work: Path) -> dict:
    """Run one command in ``work``; digest its stdout and output files."""
    config = work / "config.json"
    config.write_text(json.dumps({"n": N}), encoding="utf-8")
    out = work / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv) + ["--config", str(config),
                                  "--out", str(out)])
    result = {"exit_code": code,
              "stdout": _sha256(stdout.getvalue().encode("utf-8"))}
    for path in sorted(out.iterdir()):
        result[path.name] = _sha256(path.read_bytes())
    return result


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden(case, tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert digests(CASES[case], tmp_path) == expected


def write_golden() -> None:
    golden = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            golden[case] = digests(CASES[case], Path(work))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
