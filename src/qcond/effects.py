"""States, effects, observables and their classical processing.

All value types validate at construction against an absolute tolerance and
are immutable afterwards; operations are pure functions, safe for
unrestricted concurrent use. Outcome labels are strings and their ordering
is fixed by declaration order, so grids and stochastic kernels index
deterministically.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantViolation
from .linalg import (
    DEFAULT_ATOL,
    _Validated,
    _identity,
    _near_identity,
    _require_finite,
    as_complex_matrix,
    coerce_matrix,
    frozen_copy,
    is_effect_matrix,
    is_psd,
    weighted_sum,
)

__all__ = [
    "State",
    "Effect",
    "Observable",
    "BiObservable",
    "StochasticMatrix",
    "OutcomeMap",
    "born_probability",
    "observable_distribution",
    "outcome_probabilities",
    "post_process",
    "part",
    "marginals",
    "affine_combination",
    "certify_coexistence",
    "observable_deviation",
    "bi_observable_deviation",
]


def _distinct_labels(labels: Sequence[str], kind: str) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if not out:
        raise InvariantViolation(kind, "nonempty outcome set")
    if len(set(out)) != len(out):
        raise InvariantViolation(kind, "distinct outcome labels")
    return out


def _position(labels: tuple[str, ...], label: str, pair: tuple[str, str] | None = None) -> int:
    """The one outcome lookup of the labeled families: the position of
    ``label`` in ``labels``; the error names ``pair`` for a grid's lookup."""
    try:
        return labels.index(label)
    except ValueError:
        unknown = f"label {label!r}" if pair is None else f"pair {pair!r}"
        raise ValueError(f"unknown outcome {unknown}") from None


@dataclass(frozen=True, eq=False)
class State(_Validated):
    """Unit-trace positive operator (density operator)."""

    matrix: np.ndarray
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        object.__setattr__(self, "matrix", frozen_copy(_require_states(coerce_matrix(self.matrix), atol)))

    @classmethod
    def pure(cls, vector: Sequence[complex], atol: float = DEFAULT_ATOL) -> "State":
        """Rank-one state |v><v| from a (not necessarily normalized) vector."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise InvariantViolation("State", "nonzero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()), atol)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "State":
        return cls(np.eye(dim) / dim)


@dataclass(frozen=True, eq=False)
class Effect(_Validated):
    """Operator ``a`` with ``0 <= a <= I``; a yes-no measurement element."""

    matrix: np.ndarray
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        object.__setattr__(self, "matrix", frozen_copy(_require_effects(coerce_matrix(self.matrix), atol)))

    @classmethod
    def identity(cls, dim: int) -> "Effect":
        return cls(np.eye(dim))

    def complement(self, atol: float = DEFAULT_ATOL) -> "Effect":
        """The complementary effect ``I - a``."""
        return Effect(_identity(self.dim) - self.matrix, atol)


def _require_ones(values: np.ndarray, atol: float, kind: str, invariant: str, what: str) -> None:
    """Every entry of ``values`` (traces, row sums) within ``atol`` of 1; the
    error names the first that is not, as ``what``."""
    off = np.abs(values - 1.0)
    if off.max() > atol:
        first = np.argmax(np.ravel(off) > atol)
        raise InvariantViolation(kind, invariant, f"{what} {np.ravel(values)[first]:.6g}")


def _require_states(m: np.ndarray, atol: float) -> np.ndarray:
    """The state rule, for one matrix or every matrix of a stack
    ``(..., d, d)``, ``d >= 1``: finite, square, positive and of unit trace. Returns ``m``."""
    _require_finite(m)
    if m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise InvariantViolation("State", "square", f"shape {m.shape[-2:]}")
    if not is_psd(m, atol):
        raise InvariantViolation("State", "positive")
    _require_ones(m.trace(axis1=-2, axis2=-1), atol, "State", "unit trace", "trace")
    return m


def _state_family(kind: str, states, n: int, atol: float) -> np.ndarray:
    """The one validator of state families: ``n`` :class:`State` objects
    (checked again, at ``atol``) or matrices of one dimension, checked by one
    batched factorization. Returns them as a read-only ``(n, d, d)`` stack."""
    mats = [coerce_matrix(s) for s in states]
    if len(mats) != n:
        raise InvariantViolation(kind, "state count", f"expected {n}, got {len(mats)}")
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise InvariantViolation(kind, "uniform dimension", f"shapes {sorted(shapes)}")
    stack = _require_states(np.stack(mats), atol)
    stack.setflags(write=False)
    return stack


def _require_effects(m: np.ndarray, atol: float) -> np.ndarray:
    """The effect rule, for one matrix or every matrix of a stack
    ``(..., d, d)``, ``d >= 1``: finite, square and between zero and identity. Returns ``m``."""
    _require_finite(m)
    if m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise InvariantViolation("Effect", "square", f"shape {m.shape[-2:]}")
    if not is_effect_matrix(m, atol):
        raise InvariantViolation("Effect", "between zero and identity")
    return m


def _effect_family(
    kind: str, family, grid: tuple[int, ...], atol: float, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """The one validator of effect families; returns a read-only stack.

    ``family`` is an array of shape ``batch + grid + (d, d)`` or nested
    sequences of shape ``grid`` holding matrices or :class:`Effect` objects.
    Checked once for all the families of a batch: finite square entries of
    one dimension ``d >= 1``, every element between zero and identity (one
    batched factorization) and each family's elements summing to the
    identity.
    """
    invariant = "one effect per outcome" if len(grid) == 1 else "grid shape"
    lead = batch + grid
    if isinstance(family, np.ndarray):
        stack = np.array(family, dtype=complex)
        if stack.shape[: len(lead)] != lead:
            raise InvariantViolation(kind, invariant, f"expected grid {grid}, got shape {stack.shape}")
    else:
        rows = [tuple(family)] if len(grid) == 1 else [tuple(row) for row in family]
        if len(rows) != math.prod(grid[:-1]) or any(len(r) != grid[-1] for r in rows):
            raise InvariantViolation(kind, invariant, f"expected grid {grid}")
        mats = [np.asarray(getattr(m, "matrix", m), dtype=complex) for r in rows for m in r]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            raise InvariantViolation(kind, "uniform dimension", f"shapes {sorted(shapes)}")
        stack = np.stack(mats).reshape(grid + mats[0].shape)
    if stack.ndim != len(lead) + 2:
        raise InvariantViolation(kind, "two-dimensional")
    dim = stack.shape[-1]
    if stack.shape[-2] != dim or dim == 0:
        raise InvariantViolation(kind, "square", f"shape {stack.shape[-2:]}")
    _require_finite(stack, kind)
    if not is_effect_matrix(stack, atol):
        raise InvariantViolation(kind, "between zero and identity")
    totals = stack.reshape(batch + (-1, dim, dim)).sum(axis=-3)
    if not _near_identity(totals, atol):
        raise InvariantViolation(kind, "normalization", "effects must sum to I")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class Observable:
    """Labeled family of effects summing to the identity (a POVM).

    ``effects`` may be given as :class:`Effect` objects, raw matrices or one
    ``(n, d, d)`` array. The family is stored as one read-only stack,
    :attr:`effect_stack`, validated once; ``effects`` holds read-only
    :class:`Effect` views of its rows.
    """

    outcomes: tuple[str, ...]
    effects: tuple[Effect, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        outcomes = _distinct_labels(self.outcomes, "Observable")
        stack = _effect_family("Observable", self.effects, (len(outcomes),), atol)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "effects", tuple(map(Effect._view, stack)))

    @property
    def effect_stack(self) -> np.ndarray:
        """All effects as one read-only ``(n, d, d)`` array."""
        return self._stack

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        return _position(self.outcomes, label)

    def effect(self, label: str) -> Effect:
        return self.effects[self.index(label)]

    def effect_over(self, subset: Iterable[str], atol: float = DEFAULT_ATOL) -> Effect:
        """The effect of an outcome subset, ``sum_{x in subset} A_x``."""
        idx = sorted({self.index(x) for x in subset})
        return Effect(self._stack[idx].sum(axis=0), atol)

    @classmethod
    def trivial(cls, dim: int, label: str = "x0") -> "Observable":
        """Single-outcome observable {I}."""
        return cls((label,), np.eye(dim)[None])


@dataclass(frozen=True, eq=False)
class BiObservable:
    """Observable on a product outcome set, stored as an effects grid.

    ``effects[i][j]`` is the effect for ``(outcomes1[i], outcomes2[j])``;
    the grid is one read-only ``(n1, n2, d, d)`` array, :attr:`effect_stack`,
    validated once like an :class:`Observable`.
    """

    outcomes1: tuple[str, ...]
    outcomes2: tuple[str, ...]
    effects: tuple[tuple[Effect, ...], ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        o1 = _distinct_labels(self.outcomes1, "BiObservable")
        o2 = _distinct_labels(self.outcomes2, "BiObservable")
        stack = _effect_family("BiObservable", self.effects, (len(o1), len(o2)), atol)
        object.__setattr__(self, "outcomes1", o1)
        object.__setattr__(self, "outcomes2", o2)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "effects", tuple(tuple(map(Effect._view, row)) for row in stack))

    @property
    def effect_stack(self) -> np.ndarray:
        """The effects grid as one read-only ``(n1, n2, d, d)`` array."""
        return self._stack

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    def effect(self, x: str, y: str) -> Effect:
        return self.effects[_position(self.outcomes1, x, (x, y))][_position(self.outcomes2, y, (x, y))]

    def flatten(self, atol: float = DEFAULT_ATOL) -> Observable:
        """The same observable on flat labels ``"x⊗y"`` in grid order."""
        labels = tuple(f"{x}⊗{y}" for x in self.outcomes1 for y in self.outcomes2)
        return Observable(labels, self._stack.reshape(-1, self.dim, self.dim), atol)

    def marginal1(self, atol: float = DEFAULT_ATOL) -> Observable:
        """Sum out the second outcome index."""
        return Observable(self.outcomes1, self._stack.sum(axis=1), atol)

    def marginal2(self, atol: float = DEFAULT_ATOL) -> Observable:
        """Sum out the first outcome index."""
        return Observable(self.outcomes2, self._stack.sum(axis=0), atol)


def _kernel_weights(
    w: np.ndarray,
    atol: float,
    kind: str = "StochasticMatrix",
    in_range: str = "entries in [0, 1]",
    normalized: str = "row normalization",
) -> np.ndarray:
    """The probability-row rule, for one row, one weight matrix ``(n_sources,
    n_targets)`` or a stack of them: finite entries within ``atol`` of
    ``[0, 1]`` and rows summing to 1 within ``atol``; the caller names the
    error's kind and invariants. Returns the entries clamped into ``[0, 1]``,
    read-only."""
    _require_finite(w, kind)
    if float(w.min()) < -atol or float(w.max()) > 1.0 + atol:
        raise InvariantViolation(kind, in_range)
    _require_ones(w.sum(axis=-1), atol, kind, normalized, "sum")
    w = np.clip(w, 0.0, 1.0)
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """Row-stochastic kernel from source outcomes to target outcomes.

    Entries may arrive within ``atol`` outside ``[0, 1]`` (rounding noise);
    they are clamped into ``[0, 1]`` on construction. Rows must sum to 1
    within ``atol``.
    """

    sources: tuple[str, ...]
    targets: tuple[str, ...]
    weights: np.ndarray
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        sources = _distinct_labels(self.sources, "StochasticMatrix")
        targets = _distinct_labels(self.targets, "StochasticMatrix")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(sources), len(targets)):
            raise InvariantViolation(
                "StochasticMatrix", "shape", f"expected {(len(sources), len(targets))}, got {w.shape}"
            )
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "weights", _kernel_weights(w, atol))

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "StochasticMatrix":
        n = len(labels)
        return cls(tuple(labels), tuple(labels), np.eye(n))

    @classmethod
    def coarse_graining(cls, sources: Sequence[str], target: str = "y0") -> "StochasticMatrix":
        """Total coarse-graining: every source maps to the single target."""
        return cls(tuple(sources), (target,), np.ones((len(sources), 1)))

    def then(self, other: "StochasticMatrix", atol: float = DEFAULT_ATOL) -> "StochasticMatrix":
        """Compose two kernels: apply ``self`` first, then ``other``."""
        if self.targets != other.sources:
            raise ValueError("kernel composition requires matching intermediate outcomes")
        return StochasticMatrix(self.sources, other.targets, self.weights @ other.weights, atol)


def _indicator(index: np.ndarray, n_targets: int) -> np.ndarray:
    """0/1 weights ``w[..., i, j] = [index[..., i] == j]`` of the maps that
    send source ``i`` to target position ``index[..., i]``."""
    return (index[..., :, None] == np.arange(n_targets)).astype(float)


def _require_surjective(index: np.ndarray, targets: tuple[str, ...]) -> None:
    """The surjection rule, for one map or a stack of maps given by target
    positions ``index[..., i]`` (−1 for a value outside ``targets``): every
    value is a target and every target is hit."""
    hit = _indicator(index, len(targets)).any(axis=-2).reshape(-1, len(targets))
    if (index < 0).any() or not hit.all():
        first = hit[np.argmin(hit.all(axis=-1))]
        missing = sorted(t for t, h in zip(targets, first) if not h)
        raise InvariantViolation("OutcomeMap", "surjective", f"targets {missing} never hit")


@dataclass(frozen=True, eq=False)
class OutcomeMap:
    """Total surjection from source outcome labels onto target labels.

    ``targets`` fixes the target label order; when omitted it is inferred
    from first appearance in the mapping's iteration order. Keys, values and
    targets are labels, converted with ``str``.
    """

    mapping: Mapping[str, str]
    targets: tuple[str, ...] | None = None

    def __post_init__(self):
        mapping = dict(self.mapping)
        if not mapping:
            raise InvariantViolation("OutcomeMap", "nonempty domain")
        mapping = dict(zip(_distinct_labels(mapping, "OutcomeMap"), map(str, mapping.values())))
        targets = self.targets
        if targets is None:
            targets = tuple(dict.fromkeys(mapping.values()))
        else:
            targets = _distinct_labels(targets, "OutcomeMap")
        outside = [v for v in dict.fromkeys(mapping.values()) if v not in targets]
        if outside:
            raise InvariantViolation("OutcomeMap", "values in targets", f"values {outside} outside {targets}")
        _require_surjective(np.array([targets.index(v) for v in mapping.values()]), targets)
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "targets", targets)

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(self.mapping)

    def __call__(self, x: str) -> str:
        try:
            return self.mapping[x]
        except KeyError:
            raise ValueError(f"unknown outcome label {x!r}") from None

    def preimage(self, y: str) -> tuple[str, ...]:
        return tuple(x for x, v in self.mapping.items() if v == y)

    def then(self, other: "OutcomeMap") -> "OutcomeMap":
        """Compose surjections: apply ``self`` first, then ``other``."""
        return OutcomeMap({x: other(y) for x, y in self.mapping.items()}, other.targets)

    def to_stochastic(self, sources: Sequence[str]) -> StochasticMatrix:
        """The 0/1 kernel with ``w[x, y] = 1`` iff ``f(x) == y``."""
        sources = tuple(sources)
        index = np.array([self.targets.index(self(x)) for x in sources])
        return StochasticMatrix(sources, self.targets, _indicator(index, len(self.targets)))


def born_probability(rho: State, a: Effect, atol: float = DEFAULT_ATOL) -> float:
    """The probability ``tr(rho a)`` that effect ``a`` occurs in state ``rho``."""
    return float(_born_probabilities(as_complex_matrix(rho), as_complex_matrix(a)[None], atol)[0])


def _born_probabilities(rm: np.ndarray, stack: np.ndarray, atol: float) -> np.ndarray:
    """``tr(rho A)`` for every effect ``A`` of a stack ``(n, d, d)``, from one
    product and one batched trace, for a coerced state matrix ``rm``. Each
    value must be real and in ``[0, 1]`` within ``atol``; the error names the
    first outcome that is not, as a per-outcome check in label order would."""
    if rm.shape != stack.shape[-2:]:
        raise ValueError(f"dimension mismatch: state {rm.shape} vs effect {stack.shape[-2:]}")
    vals = np.trace(rm @ stack, axis1=-2, axis2=-1)
    p = vals.real
    unreal = np.abs(vals.imag) > atol
    bad = unreal | (p < -atol) | (p > 1.0 + atol)
    if bad.any():
        i = bad.argmax()
        if unreal[i]:
            raise InvariantViolation("born probability", "real value", f"imag {vals.imag[i]:.3e}")
        raise InvariantViolation("born probability", "range [0, 1]", f"value {p[i]:.6g}")
    return p


def observable_distribution(
    rho: State, obs: Observable, subset: Iterable[str] | None = None, atol: float = DEFAULT_ATOL
) -> float:
    """Probability of an outcome subset, ``sum_{x in subset} tr(rho A_x)``.

    ``subset=None`` means the full outcome set (total probability 1).
    """
    labels = obs.outcomes if subset is None else tuple(dict.fromkeys(subset))
    idx = [obs.index(x) for x in labels]
    return float(sum(_born_probabilities(as_complex_matrix(rho), obs.effect_stack[idx], atol).tolist()))


def outcome_probabilities(rho: State, obs: Observable, atol: float = DEFAULT_ATOL) -> dict[str, float]:
    """Per-outcome probabilities of ``obs`` in state ``rho``, in label order,
    from one contraction of the state with the whole effect stack."""
    p = _born_probabilities(as_complex_matrix(rho), obs.effect_stack, atol)
    return dict(zip(obs.outcomes, p.tolist()))


def post_process(obs: Observable, kernel: StochasticMatrix, atol: float = DEFAULT_ATOL) -> Observable:
    """Classically randomize outcomes: ``B_y = sum_x w[x, y] A_x``."""
    if kernel.sources != obs.outcomes:
        raise ValueError("kernel rows must be indexed by the observable's outcomes")
    return Observable(kernel.targets, weighted_sum(kernel.weights, obs.effect_stack), atol)


def part(obs: Observable, f: OutcomeMap, atol: float = DEFAULT_ATOL) -> Observable:
    """Coarse-grain an observable along a surjection of its outcome labels.

    ``B_y = sum {A_x : f(x) = y}``; equivalently the post-processing by the
    0/1 kernel of ``f``. ``f`` must be defined on exactly the observable's
    outcomes; a non-surjective map is rejected at :class:`OutcomeMap`
    construction since it would create an unhit (zero-padded) label.
    """
    if set(f.domain) != set(obs.outcomes):
        missing = sorted(set(obs.outcomes) ^ set(f.domain))
        raise ValueError(f"outcome map must be total on the observable's outcomes (mismatch: {missing})")
    return post_process(obs, f.to_stochastic(obs.outcomes), atol)


def marginals(grid: BiObservable, atol: float = DEFAULT_ATOL) -> tuple[Observable, Observable]:
    """Both marginals of a bi-observable (sum out the other index)."""
    return grid.marginal1(atol), grid.marginal2(atol)


# the kind and invariants of the probability-row rule for mixture weights
_MIXTURE_RULE = ("affine combination", "weights in [0, 1]", "weights sum to 1")


def affine_combination(
    observables: Sequence[Observable], weights: Sequence[float], atol: float = DEFAULT_ATOL
) -> Observable:
    """Outcome-wise convex mixture of observables on a common outcome set."""
    if len(observables) != len(weights) or not observables:
        raise ValueError("need one weight per observable")
    first = observables[0]
    for obs in observables[1:]:
        if obs.outcomes != first.outcomes:
            raise ValueError("observables must share the same ordered outcome labels")
        if obs.dim != first.dim:
            raise ValueError("observables must share the same dimension")
    w = np.asarray(weights, dtype=float)
    _kernel_weights(w, atol, *_MIXTURE_RULE)
    stacks = np.stack([obs.effect_stack for obs in observables])
    return Observable(first.outcomes, _mixture(w, stacks), atol)


def _mixture(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """``sum_k w[..., k] stacks[..., k, :, :, :]``: the outcome-wise mixture
    of effect stacks ``batch + (k, n, d, d)`` with weights ``batch + (k,)``."""
    return weighted_sum(w[..., None], stacks)[..., 0, :, :, :]


def certify_coexistence(
    a: Observable, b: Observable, joint: BiObservable, atol: float = DEFAULT_ATOL
) -> bool:
    """Check a joint bi-observable certificate for the coexistence of ``a`` and ``b``.

    True iff the marginals of ``joint`` equal ``a`` and ``b`` — outcome label
    tuples included — entrywise within ``atol``. This validates a supplied
    certificate; it does not search for one.
    """
    if joint.outcomes1 != a.outcomes or joint.outcomes2 != b.outcomes:
        return False
    if joint.dim != a.dim or joint.dim != b.dim:
        return False
    m1, m2 = marginals(joint, atol)
    return observable_deviation(m1, a) <= atol and observable_deviation(m2, b) <= atol


def observable_deviation(a: Observable, b: Observable) -> float:
    """Largest entrywise deviation between two observables on equal outcomes."""
    if a.outcomes != b.outcomes:
        raise ValueError("observables must share the same ordered outcome labels")
    if a.dim != b.dim:
        raise ValueError("observables must share the same dimension")
    return float(np.max(np.abs(a.effect_stack - b.effect_stack)))


def bi_observable_deviation(a: BiObservable, b: BiObservable) -> float:
    """Largest entrywise deviation between two bi-observables on equal grids."""
    if a.outcomes1 != b.outcomes1 or a.outcomes2 != b.outcomes2:
        raise ValueError("bi-observables must share the same ordered outcome labels")
    if a.dim != b.dim:
        raise ValueError("bi-observables must share the same dimension")
    return float(np.max(np.abs(a.effect_stack - b.effect_stack)))
