"""The benchmark tracer's bindings name attributes the package still has.

``perfbench/tracing.py`` wraps names that one ``rankdist`` module imports
from another; a refactor that drops or renames one of them breaks the traced
benchmark run.  This test catches that in the suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves():
    tracing = load_tracing()
    # Tracer.install also swaps the report command's pool class.
    names = [(module, attr) for module, attr, _name, _hook in tracing.BINDINGS]
    names.append(("rankdist.cli", "ThreadPoolExecutor"))
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.BINDINGS and not missing, missing
