"""What the package imports.

No module imports a name it never uses, in the package or in its tests:
no linter is part of the toolchain, so a small ``ast`` pass stands in for
the unused-import check (the package's ``__init__`` is skipped: its imports
are the package's public names).
The package's modules import each other only along one declared graph
(``LAYERS``).  Every thread pool the package makes is a ``with`` item, so
its threads are joined before the block that made it is left.  Only
``fileio`` writes, replaces or removes a file, so the rules for outputs
(a scoped ``.part`` file, an ``OSError`` reported as a ``RankModelError``
naming the path) have one home.  And the package runs on numpy alone:
importing it loads no scipy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import rankdist

MODULES = sorted(
    [path for path in Path(rankdist.__file__).parent.glob("*.py")
     if path.name != "__init__.py"] + list(Path(__file__).parent.glob("*.py")))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Optional, Tuple\n"
                          "x: Tuple[int] = os.sep\n") == ["Optional (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unscoped_pools(source: str):
    """Lines of ``ThreadPoolExecutor(...)`` calls that are not a ``with``
    item: a pool made any other way can outlive the error that ends its
    caller."""
    tree = ast.parse(source)
    scoped = {id(item.context_expr) for node in ast.walk(tree)
              if isinstance(node, ast.With) for item in node.items}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in scoped
                  and getattr(node.func, "id", getattr(node.func, "attr", ""))
                  == "ThreadPoolExecutor")


def test_finds_an_unscoped_pool():
    assert unscoped_pools(
        "with ThreadPoolExecutor(2) as pool, open(p) as f:\n    pass\n"
        "pool = futures.ThreadPoolExecutor(max_workers=2)\n"
        "with closing(ThreadPoolExecutor(1)):\n    pass\n") == [3, 4]


#: Calls that write, replace or remove a file: ``open`` and the ``Path``
#: methods by name, whatever they are called on, and the ``os`` functions
#: as ``os.<name>`` (a bare ``replace`` is most often ``str.replace``).
FILE_WRITES = {"open", "write_text", "write_bytes", "unlink", "mkdir",
               "rename", "touch", "os.replace", "os.remove", "os.unlink",
               "os.rename", "os.makedirs"}


def file_writes(source: str):
    """Lines of calls to a ``FILE_WRITES`` function."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            owner = getattr(getattr(node.func, "value", None), "id", "")
            if name in FILE_WRITES or f"{owner}.{name}" in FILE_WRITES:
                lines.append(node.lineno)
    return sorted(lines)


def test_finds_a_file_write():
    assert file_writes(
        "text = path.read_text().replace('a', 'b')\n"
        "with open(part, 'wb') as out:\n    out.write(text)\n"
        "stale.unlink(missing_ok=True)\nos.replace(part, path)\n"
        "Path(out_dir).mkdir(parents=True)\nos.makedirs(d)\n") == [
            2, 4, 5, 6, 7]


#: The sibling modules each package module may import; ``cli`` may import
#: any of them.  A module missing here fails the test until it is placed.
LAYERS = {
    "core": set(),
    "stable": {"core"},
    "calibration": {"core", "stable"},
    "scenarios": {"core", "stable"},
    "simulate": {"core", "stable"},
    "fileio": {"core"},
}
LAYERS["cli"] = set(LAYERS)
PACKAGE = sorted(path for path in MODULES
                 if path.parent == Path(rankdist.__file__).parent)


def sibling_imports(source: str):
    """The package modules a module's source imports, relative or by
    ``rankdist.`` name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "rankdist":
                    continue
                module = module[len("rankdist."):]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import fileio
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("rankdist."))
    return found


def test_finds_sibling_imports():
    assert sibling_imports(
        "import numpy\nimport rankdist.stable\nfrom . import fileio\n"
        "from .core import prefix_sum\nfrom rankdist.cli import main\n"
        "from rankdist import simulate\n") == {
            "stable", "fileio", "core", "cli", "simulate"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.stem)
def test_imports_follow_layers(path):
    assert path.stem in LAYERS, f"{path.stem} has no place in LAYERS"
    imported = sibling_imports(path.read_text(encoding="utf-8"))
    assert imported <= LAYERS[path.stem], sorted(imported - LAYERS[path.stem])


@pytest.mark.parametrize("path", [path for path in PACKAGE
                                  if path.stem != "fileio"],
                         ids=lambda path: path.stem)
def test_only_fileio_writes_files(path):
    assert file_writes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.stem)
def test_every_pool_is_a_with_item(path):
    assert unscoped_pools(path.read_text(encoding="utf-8")) == []


def test_import_loads_no_scipy(cli_env):
    code = ("import sys, rankdist, rankdist.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], env=cli_env("1"),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
