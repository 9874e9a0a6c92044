"""The README's python code runs as written, so a change to the public API
that breaks the documented example fails the suite, and its config key lists
are the CLI's."""

import re
from pathlib import Path

from rankdist import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md holds no python code block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    # The example prints the projection with and without the capital tax.
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_config_keys_match_the_cli():
    """The README's lists of config and simulation-block keys are the ones
    the CLI accepts."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    match = re.search(r"The config takes the keys (.*?); the `simulation` "
                      r"block takes (.*?)\.", text)
    assert match, "README.md lists no config keys"
    documented = [set(re.findall(r"`(\w+)`", keys)) for keys in match.groups()]
    assert documented == [cli._CONFIG_KEYS, cli._SIMULATION_KEYS]
