"""Calibration diagnostics and surrogate regret bounds for binary
classification with label-dependent costs."""

from . import calibration, curves, errors, families, losses, oracle
from .calibration import *
from .curves import *
from .errors import *
from .families import *
from .losses import *
from .oracle import *

__version__ = "0.1.0"

# Each module lists its public names once, in its own ``__all__``.
__all__ = (
    calibration.__all__
    + curves.__all__
    + errors.__all__
    + families.__all__
    + losses.__all__
    + oracle.__all__
)
