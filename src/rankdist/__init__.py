"""Rank-based statistical model of wealth distribution.

Calibration from grouped wealth-shares data, closed-form stable-distribution
solving and inversion, stability/divergence analysis, scenario and
capital-tax projections, and a Monte Carlo ranked-particle simulator.
Each module's ``__all__`` lists the names the package exports from it.
"""

from .core import *
from .stable import *
from .calibration import *
from .scenarios import *
from . import fileio
from .simulate import *

__version__ = "0.1.0"
