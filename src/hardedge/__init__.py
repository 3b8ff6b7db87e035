"""Numerical laboratory for hard-edge eigenvalue diffusions and their kernels."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    OmegaPlusPoint,
    OrderedConfig,
    SdeParams,
    Trajectory,
    embed,
)
from .rng import RandomSource  # noqa: F401
