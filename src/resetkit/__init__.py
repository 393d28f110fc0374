"""Toolkit for lifetime laws under stochastic restart.

Computes restart-transformed laws analytically and by renewal solving,
classifies tails against the universal-ordering conditions, searches for
extremal reset parameters, and cross-validates everything with a seeded
Monte Carlo simulator.
"""

__version__ = "0.1.0"

from . import classifiers, conjecture_probe, distributions, mrl, optimizer, \
    reset_transform, simulator  # noqa: F401

from .distributions import (  # noqa: F401
    DistributionSpec,
    Exponential,
    LevyFirstPassage,
    MomentFunction,
    ShiftedParetoSquare,
    Tabulated,
    TailCurve,
    Weibull,
    spec_from_dict,
    spec_to_dict,
)
from .mrl import FromMrl, MrlCurve  # noqa: F401
from .reset_transform import ResetLaw  # noqa: F401
