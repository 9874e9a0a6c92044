"""The benchmark tracer's bindings name attributes the package still has.

``perfbench/tracing.py`` wraps names that one ``rankdist`` module imports
from another; a refactor that drops or renames one of them, or changes what
a hook reads off a call, breaks the traced benchmark run.  These tests catch
that in the suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from rankdist import calibration
from rankdist.core import GroupedShares

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


def test_traced_fit_reads_its_evaluations():
    # The Monte Carlo set-up's small fit, through the wrapped names: the
    # hooks read the fit's error and every minimize result's nfev.
    target = GroupedShares(
        brackets=((0, 0.01), (0.01, 0.1), (0.1, 0.5), (0.5, 1), (1, 10),
                  (10, 100)),
        shares=np.array([0.111, 0.108, 0.124, 0.072, 0.357, 0.228]))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        calibration.fit_piecewise_pareto(target, 10**4, (0.1, 10.0))
    finally:
        tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names.count("calibration.fit") == 1
    assert sum(span.info["nfev"] for span in tracer.spans
               if span.name == "calibration.minimize") == 3710
