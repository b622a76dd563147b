"""Finite-dimensional quantum effects, observables, channels, instruments
and measurement models, with every structural identity executable as a
tolerance-checked test.

The package namespace re-exports each submodule's ``__all__``.
"""

from . import channels, checks, effects, errors, instruments, linalg, measurement, rand, scenario
from .channels import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403
from .effects import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .instruments import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .measurement import *  # noqa: F401,F403
from .rand import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (linalg, errors, effects, channels, instruments, measurement, rand, scenario, checks)
    for name in module.__all__
]
