"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["InvariantViolation", "OutcomeNotObserved", "ScenarioError"]


class InvariantViolation(ValueError):
    """A domain object failed one of its defining constraints.

    ``kind`` names the object type (or the named object, for scenario files)
    and ``invariant`` names the violated constraint, e.g. ``"normalization"``.
    """

    def __init__(self, kind: str, invariant: str, detail: str = ""):
        self.kind = kind
        self.invariant = invariant
        msg = f"{kind}: violated invariant '{invariant}'"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class OutcomeNotObserved(ValueError):
    """Requested a state update for an outcome of (numerically) zero probability."""


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate.

    Carries the name of the offending object when one can be identified.
    """

    def __init__(self, message: str, obj: str | None = None):
        self.obj = obj
        if obj is not None:
            message = f"object '{obj}': {message}"
        super().__init__(message)
