"""The README's python code runs as written, so a change to the public API
that breaks the documented example fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md holds no python code block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    # The example prints the projection with and without the capital tax.
    assert len(capsys.readouterr().out.splitlines()) == 2
