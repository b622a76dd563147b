"""Finite-dimensional quantum effects, observables, channels, instruments
and measurement models, with every structural identity executable as a
tolerance-checked test.

The package namespace re-exports each submodule's ``__all__``.
``import qcond`` loads the library modules (``linalg`` to ``scenario``), not
``qcond.cli`` and not ``qcond.checks``, the identity-check suite. That module
is imported, and so compiled, on first use: when a program reads
``qcond.checks`` or one of its names (``qcond.run_checks``, ...), imports it
itself, or formats the ``check`` help of ``qcond.cli``. Its names are
looked up on the module at every access, never stored here.
"""

import importlib

from . import channels, effects, errors, instruments, linalg, measurement, rand, scenario
from .channels import *  # noqa: F401,F403
from .effects import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .instruments import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .measurement import *  # noqa: F401,F403
from .rand import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403

__version__ = "0.1.0"

# ``qcond.checks.__all__``, in its order (a test keeps the two equal)
_CHECKS_NAMES = (
    "IdentityCheck",
    "IdentityResult",
    "CheckReport",
    "registered_identities",
    "resolve_suite",
    "run_checks",
)

__all__ = ["__version__"] + [
    name
    for module in (linalg, errors, effects, channels, instruments, measurement, rand, scenario)
    for name in module.__all__
] + list(_CHECKS_NAMES)


def __getattr__(name: str):
    if name == "checks" or name in _CHECKS_NAMES:
        checks = importlib.import_module(".checks", __name__)
        return checks if name == "checks" else getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "checks", *_CHECKS_NAMES})
