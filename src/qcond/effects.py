"""States, effects, observables and their classical processing.

All value types validate at construction against an absolute tolerance and
are immutable afterwards; operations are pure functions, safe for
unrestricted concurrent use. Outcome labels are strings and their ordering
is fixed by declaration order, so grids and stochastic kernels index
deterministically.

A labeled family (:class:`Observable`, ``qcond.instruments.Instrument``)
has one label tuple, or one per axis of a product outcome set (a grid, whose
members nest row-major); a grid's lookups take one label per axis. A
function that reads one outcome axis (``index``, ``post_process``, ...)
rejects a grid with ``ValueError``, through the one guard ``_one_axis``.

Batches: the axes left of a value's own form a batch (``State``, ``Effect``:
``batch + (d, d)``; ``Observable``: ``batch + grid + (d, d)``, the grid fixed
by its labels; ``StochasticMatrix``: ``batch + (n_sources, n_targets)``;
``OutcomeMap``: positions ``batch + (n_sources,)``, from arrays of labels),
checked member by member in one call of its type's rule, and a batched
family holds one view per label. The functions that read one object reject
a batch through the one guard ``linalg._one_object``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvariantViolation
from .linalg import (
    DEFAULT_ATOL,
    _Validated,
    _identity,
    _matrix_stack,
    _near_identity,
    _one_object,
    _per_member,
    _require_atol,
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
    "StochasticMatrix",
    "OutcomeMap",
    "born_probability",
    "observable_distribution",
    "outcome_probabilities",
    "post_process",
    "part",
    "affine_combination",
    "certify_coexistence",
    "observable_deviation",
]


def _distinct_labels(labels: Sequence[str], kind: str) -> tuple[str, ...]:
    out = tuple(map(str, labels))
    if not out:
        raise InvariantViolation(kind, "nonempty outcome set")
    if len(set(out)) != len(out):
        raise InvariantViolation(kind, "distinct outcome labels")
    return out


def _outcome_axes(labels: Sequence, kind: str) -> tuple[tuple[str, ...], ...]:
    """The outcome axes of a labeled family: one label tuple (one axis), or
    one label tuple per axis of a grid, given as tuples or lists."""
    labels = tuple(labels)
    if labels and not isinstance(labels[0], str) and all(isinstance(axis, (tuple, list)) for axis in labels):
        return tuple(_distinct_labels(axis, kind) for axis in labels)
    return (_distinct_labels(labels, kind),)


def _position(labels: tuple[str, ...], label: str, pair: tuple[str, ...] | None = None) -> int:
    """The one outcome lookup of the labeled families: the position of
    ``label`` in ``labels``; the error names ``pair`` for a grid's lookup."""
    try:
        return labels.index(label)
    except ValueError:
        unknown = f"label {label!r}" if pair is None else f"pair {pair!r}"
        raise ValueError(f"unknown outcome {unknown}") from None


def _flattened(kind: str, nested, grid: tuple[int, ...], member: str) -> list:
    """The members of ``nested``, sequences nested to the shape ``grid``, in
    row-major order: the one shape rule of the labeled families."""
    flat = [nested]
    for n in grid:
        flat = [tuple(x) for x in flat]
        if any(len(x) != n for x in flat):
            invariant = f"one {member} per outcome" if len(grid) == 1 else "grid shape"
            raise InvariantViolation(kind, invariant, f"expected grid {grid}")
        flat = [m for x in flat for m in x]
    return flat


def _nested(flat: Sequence, grid: tuple[int, ...]) -> tuple:
    """``flat`` as tuples nested to the shape ``grid``, row-major."""
    for n in reversed(grid[1:]):
        flat = [tuple(flat[i : i + n]) for i in range(0, len(flat), n)]
    return tuple(flat)


def _one_axis(family) -> tuple[str, ...]:
    """The one guard of the functions that read one outcome axis: the labels
    of a one-axis family; ``ValueError`` for a grid."""
    if len(family.axes) > 1:
        raise ValueError(f"{type(family).__name__} on {len(family.axes)} outcome axes: expected one axis")
    return family.outcomes


class _Labeled:
    """What the labeled families (``Observable``, ``Instrument``) share: the
    outcome axes, ``axes`` (one label tuple per axis), and the lookups."""

    def _admit_outcomes(self, kind: str) -> tuple[int, ...]:
        """Check ``outcomes`` and store them with their ``axes``; returns the
        grid's shape, one length per axis."""
        return self._set_axes(_outcome_axes(self.outcomes, kind))

    def _set_axes(self, axes: tuple[tuple[str, ...], ...]) -> tuple[int, ...]:
        """Store parsed outcome ``axes`` and the ``outcomes`` they stand for;
        returns the grid's shape."""
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "outcomes", axes[0] if len(axes) == 1 else axes)
        return tuple(map(len, axes))

    def index(self, label: str) -> int:
        return _position(_one_axis(self), label)

    def _member(self, members: tuple, labels: tuple[str, ...]):
        """The member of ``members`` at one label per axis."""
        if len(labels) == len(self.axes) == 1:
            return members[_position(self.outcomes, labels[0])]
        if len(labels) != len(self.axes):
            raise ValueError(f"expected one label per outcome axis ({len(self.axes)}), got {len(labels)}")
        for axis, label in zip(self.axes, labels):
            members = members[_position(axis, label, labels if len(labels) > 1 else None)]
        return members


@dataclass(frozen=True, eq=False)
class State(_Validated):
    """Unit-trace positive operator (density operator); a stack
    ``batch + (d, d)`` is a batch of states."""

    matrix: np.ndarray
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        object.__setattr__(self, "matrix", frozen_copy(_require_states(_matrix_stack(self.matrix), atol)))

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
    """Operator ``a`` with ``0 <= a <= I``; a yes-no measurement element. A
    stack ``batch + (d, d)`` is a batch of effects."""

    matrix: np.ndarray
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        object.__setattr__(self, "matrix", frozen_copy(_require_effects(_matrix_stack(self.matrix), atol)))

    @classmethod
    def identity(cls, dim: int) -> "Effect":
        return cls(np.eye(dim))

    def complement(self, atol: float = DEFAULT_ATOL) -> "Effect":
        """The complementary effect ``I - a``."""
        return Effect(_identity(self.dim) - self.matrix, atol)


def _require_ones(values: np.ndarray, atol: float, kind: str, invariant: str, what: str) -> None:
    """Every entry of ``values`` (traces, row sums) within ``atol`` of 1; the
    error names the first that is not, as ``what``."""
    _require_atol(atol)
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


def _effect_family(kind: str, family, grid: tuple[int, ...], atol: float) -> np.ndarray:
    """The one validator of effect families; returns a read-only stack.

    ``family`` is an array of shape ``batch + grid + (d, d)`` (any axes left
    of the grid's are a batch of families) or nested sequences of shape
    ``grid`` holding matrices or :class:`Effect` objects. Checked once for
    all the families of a batch: finite square entries of one dimension
    ``d >= 1``, every element between zero and identity (one batched
    factorization) and each family's elements summing to the identity.
    """
    batch: tuple[int, ...] = ()
    if isinstance(family, np.ndarray):
        stack = np.array(family, dtype=complex)
        batch = stack.shape[: max(0, stack.ndim - len(grid) - 2)]
        if stack.shape[len(batch) : len(batch) + len(grid)] != grid:
            invariant = "one effect per outcome" if len(grid) == 1 else "grid shape"
            raise InvariantViolation(kind, invariant, f"expected grid {grid}, got shape {stack.shape}")
    else:
        members = _flattened(kind, family, grid, "effect")
        mats = [np.asarray(getattr(m, "matrix", m), dtype=complex) for m in members]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            raise InvariantViolation(kind, "uniform dimension", f"shapes {sorted(shapes)}")
        stack = np.stack(mats).reshape(grid + mats[0].shape)
    lead = batch + grid
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
class Observable(_Labeled):
    """Labeled family of effects summing to the identity (a POVM).

    ``effects`` may be given as :class:`Effect` objects, raw matrices or one
    ``(n, d, d)`` array. The family is stored as one read-only stack,
    :attr:`effect_stack`, validated once; ``effects`` holds read-only
    :class:`Effect` views of its rows.

    On a product outcome set ``outcomes`` holds one label tuple per axis:
    ``effects[i][j]`` is the effect of ``(outcomes[0][i], outcomes[1][j])``
    and the stack is the grid ``(n1, n2, d, d)``. An array with axes left of
    the grid's, ``batch + grid + (d, d)``, is a batch of observables: each
    view of ``effects`` is then the batch of one label's effects.
    """

    outcomes: tuple[str, ...]
    effects: tuple[Effect, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        grid = self._admit_outcomes("Observable")
        stack = _effect_family("Observable", self.effects, grid, atol)
        batch = stack.shape[: stack.ndim - len(grid) - 2]
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_batch", batch)
        rows = stack.reshape(batch + (-1,) + stack.shape[-2:])
        if batch:  # the label axis first: one view per label
            k = len(batch)
            rows = rows.transpose((k, *range(k), k + 1, k + 2))
        object.__setattr__(self, "effects", _nested(tuple(map(Effect._view, rows)), grid))

    @property
    def effect_stack(self) -> np.ndarray:
        """All effects as one read-only ``(n, d, d)`` array (a grid: ``(n1, n2, d, d)``;
        a batch: ``batch + grid + (d, d)``)."""
        return self._stack

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    @property
    def n_outcomes(self) -> int:
        return len(_one_axis(self))

    def effect(self, *labels: str) -> Effect:
        """The effect of one label per outcome axis."""
        return self._member(self.effects, labels)

    def effect_over(self, subset: Iterable[str], atol: float = DEFAULT_ATOL) -> Effect:
        """The effect of an outcome subset, ``sum_{x in subset} A_x`` (a batch
        of them for a batch)."""
        labels = _one_axis(self)
        idx = sorted({_position(labels, x) for x in subset})
        return Effect(self._stack[..., idx, :, :].sum(axis=-3), atol)

    def marginal(self, axis: int, atol: float = DEFAULT_ATOL) -> "Observable":
        """The one-axis observable on ``axes[axis]``: the grid summed over
        every other axis (member by member for a batch)."""
        lead = len(self._batch)
        others = tuple(lead + i for i in range(len(self.axes)) if i != axis % len(self.axes))
        return Observable(self.axes[axis], self._stack.sum(axis=others), atol)

    @classmethod
    def trivial(cls, dim: int, label: str = "x0") -> "Observable":
        """Single-outcome observable {I}."""
        return cls((label,), np.eye(dim)[None])


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
    _require_atol(atol)
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
    within ``atol``. Weights ``batch + (n_sources, n_targets)`` with leading
    axes are a batch of kernels on the same labels.
    """

    sources: tuple[str, ...]
    targets: tuple[str, ...]
    weights: np.ndarray
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        sources = _distinct_labels(self.sources, "StochasticMatrix")
        targets = _distinct_labels(self.targets, "StochasticMatrix")
        w = np.asarray(self.weights, dtype=float)
        if w.shape[-2:] != (len(sources), len(targets)):
            raise InvariantViolation(
                "StochasticMatrix", "shape", f"expected {(len(sources), len(targets))}, got {w.shape}"
            )
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "weights", _kernel_weights(w, atol))

    @property
    def _batch(self) -> tuple[int, ...]:
        return self.weights.shape[:-2]

    @classmethod
    def identity(cls, labels: Sequence[str]) -> "StochasticMatrix":
        n = len(labels)
        return cls(tuple(labels), tuple(labels), np.eye(n))

    @classmethod
    def coarse_graining(cls, sources: Sequence[str], target: str = "y0") -> "StochasticMatrix":
        """Total coarse-graining: every source maps to the single target."""
        return cls(tuple(sources), (target,), np.ones((len(sources), 1)))

    def then(self, other: "StochasticMatrix", atol: float = DEFAULT_ATOL) -> "StochasticMatrix":
        """Compose two kernels: apply ``self`` first, then ``other`` (member by
        member for batches)."""
        if self.targets != other.sources:
            raise ValueError("kernel composition requires matching intermediate outcomes")
        return StochasticMatrix(self.sources, other.targets, self.weights @ other.weights, atol)


def _surjective(positions: np.ndarray, n_targets: int) -> np.ndarray:
    """The surjection rule, for target positions ``batch + (n_sources,)``:
    whether each member hits all ``n_targets`` targets, one bool per member."""
    return (positions[..., None] == np.arange(n_targets)).any(axis=-2).all(axis=-1)


@dataclass(frozen=True, eq=False, init=False)
class OutcomeMap:
    """Total surjection from source outcome labels onto target labels, held
    as ``positions``: the position in ``targets`` of each source's image, in
    ``domain`` order (the one-hot rows of its 0/1 kernel).

    ``targets`` fixes the target label order; when omitted it is inferred
    from first appearance in the mapping's values. Keys, values and targets
    are labels, converted with ``str``. Values that are arrays of labels of
    one shape ``batch`` make a batch of maps: ``positions`` is then
    ``batch + (n_sources,)``, and every member must be surjective.
    """

    domain: tuple[str, ...]
    targets: tuple[str, ...]
    positions: np.ndarray

    def __init__(self, mapping: Mapping[str, str], targets: Sequence[str] | None = None):
        mapping = dict(mapping)
        if not mapping:
            raise InvariantViolation("OutcomeMap", "nonempty domain")
        domain = _distinct_labels(mapping, "OutcomeMap")
        values = np.stack([np.asarray(v, dtype=str) for v in mapping.values()], axis=-1)
        if targets is None:
            targets = tuple(dict.fromkeys(values.ravel().tolist()))
        targets = _distinct_labels(targets, "OutcomeMap")
        hits = values[..., None] == np.array(targets)
        outside = list(dict.fromkeys(values[~hits.any(axis=-1)].tolist()))
        if outside:
            raise InvariantViolation("OutcomeMap", "values in targets", f"values {outside} outside {targets}")
        positions = hits.argmax(axis=-1)
        onto = _surjective(positions, len(targets))
        if not onto.all():
            missing = set(targets).difference(values.reshape(-1, len(domain))[np.argmin(onto.ravel())].tolist())
            raise InvariantViolation("OutcomeMap", "surjective", f"targets {sorted(missing)} never hit")
        positions.setflags(write=False)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "positions", positions)

    @property
    def _batch(self) -> tuple[int, ...]:
        return self.positions.shape[:-1]

    @property
    def mapping(self) -> dict[str, str]:
        """Each source label's target label (one map only)."""
        _one_object(self)
        return {x: self.targets[i] for x, i in zip(self.domain, self.positions.tolist())}

    def __call__(self, x: str) -> str:
        _one_object(self)
        return self.targets[self.positions[_position(self.domain, x)]]

    def preimage(self, y: str) -> tuple[str, ...]:
        return tuple(x for x, v in self.mapping.items() if v == y)

    def then(self, other: "OutcomeMap") -> "OutcomeMap":
        """Compose surjections: ``self`` first, then ``other`` (member by member)."""
        step = np.array([_position(other.domain, y) for y in self.targets])
        first, second = _common_batch((self.positions, 1), (other.positions, 1))
        labels = np.array(other.targets)[np.take_along_axis(second, step[first], axis=-1)]
        return OutcomeMap(dict(zip(self.domain, np.moveaxis(labels, -1, 0))), other.targets)

    def to_stochastic(self, sources: Sequence[str]) -> StochasticMatrix:
        """The 0/1 kernel with ``w[x, y] = 1`` iff ``f(x) == y``, rows in the
        order of ``sources`` (a batch of kernels for a batch of maps)."""
        sources = tuple(sources)
        rows = self.positions[..., [_position(self.domain, x) for x in sources]]
        return StochasticMatrix(sources, self.targets, np.eye(len(self.targets))[rows])


def born_probability(rho: State, a: Effect, atol: float = DEFAULT_ATOL) -> float:
    """The probability ``tr(rho a)`` that effect ``a`` occurs in state ``rho``."""
    return float(_born_probabilities(as_complex_matrix(rho), as_complex_matrix(a)[None], atol)[0])


def _born_probabilities(rm: np.ndarray, stack: np.ndarray, atol: float) -> np.ndarray:
    """``tr(rho A)`` for every effect ``A`` of a stack ``(n, d, d)``, from one
    product and one batched trace, for a coerced state matrix ``rm``. Each
    value must be real and in ``[0, 1]`` within ``atol``; the error names the
    first outcome that is not, as a per-outcome check in label order would."""
    _require_atol(atol)
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
    _one_object(obs)
    labels = obs.outcomes if subset is None else tuple(dict.fromkeys(subset))
    idx = [obs.index(x) for x in labels]
    return float(sum(_born_probabilities(as_complex_matrix(rho), obs.effect_stack[idx], atol).tolist()))


def outcome_probabilities(rho: State, obs: Observable, atol: float = DEFAULT_ATOL) -> dict[str, float]:
    """Per-outcome probabilities of ``obs`` in state ``rho``, in label order,
    from one contraction of the state with the whole effect stack."""
    _one_object(obs)
    labels = _one_axis(obs)
    p = _born_probabilities(as_complex_matrix(rho), obs.effect_stack, atol)
    return dict(zip(labels, p.tolist()))


def post_process(obs: Observable, kernel: StochasticMatrix, atol: float = DEFAULT_ATOL) -> Observable:
    """Classically randomize outcomes: ``B_y = sum_x w[x, y] A_x`` (member by
    member for a batch of observables, of kernels or of both)."""
    if kernel.sources != _one_axis(obs):
        raise ValueError("kernel rows must be indexed by the observable's outcomes")
    w, stack = _common_batch((kernel.weights, 2), (obs.effect_stack, 3))
    return Observable(kernel.targets, weighted_sum(w, stack), atol)


def _common_batch(*parts: tuple[np.ndarray, int]) -> list[np.ndarray]:
    """The arrays of ``parts``, pairs ``(array, own)`` of an array and the
    number of its own trailing axes, each broadcast to one batch shape (their
    leading axes broadcast together); an array already of that shape is
    returned as is."""
    shapes = [a.shape[: a.ndim - own] for a, own in parts]
    batch = np.broadcast_shapes(*shapes)
    return [a if shape == batch else np.broadcast_to(a, batch + a.shape[a.ndim - own :])
            for (a, own), shape in zip(parts, shapes)]


def part(obs: Observable, f: OutcomeMap, atol: float = DEFAULT_ATOL) -> Observable:
    """Coarse-grain an observable along a surjection of its outcome labels.

    ``B_y = sum {A_x : f(x) = y}``; equivalently the post-processing by the
    0/1 kernel of ``f``. ``f`` must be defined on exactly the observable's
    outcomes; a non-surjective map is rejected at :class:`OutcomeMap`
    construction since it would create an unhit (zero-padded) label.
    """
    labels = _one_axis(obs)
    if set(f.domain) != set(labels):
        missing = sorted(set(labels) ^ set(f.domain))
        raise ValueError(f"outcome map must be total on the observable's outcomes (mismatch: {missing})")
    return post_process(obs, f.to_stochastic(labels), atol)


# the kind and invariants of the probability-row rule for mixture weights
_MIXTURE_RULE = ("affine combination", "weights in [0, 1]", "weights sum to 1")


def affine_combination(
    observables: Sequence[Observable], weights: Sequence[float] | np.ndarray, atol: float = DEFAULT_ATOL
) -> Observable:
    """Outcome-wise convex mixture of observables on a common outcome set,
    with the weights clamped into ``[0, 1]`` as a kernel's are. Weights
    ``batch + (k,)`` mix batches of observables member by member."""
    w = np.asarray(weights, dtype=float)
    if not observables or w.ndim == 0 or len(observables) != w.shape[-1]:
        raise ValueError("need one weight per observable")
    first = observables[0]
    _one_axis(first)
    for obs in observables[1:]:
        if obs.outcomes != first.outcomes:
            raise ValueError("observables must share the same ordered outcome labels")
        if obs.dim != first.dim:
            raise ValueError("observables must share the same dimension")
    w = _kernel_weights(w, atol, *_MIXTURE_RULE)
    w, *stacks = _common_batch((w, 1), *((obs.effect_stack, 3) for obs in observables))
    return Observable(first.outcomes, _mixture(w, np.stack(stacks, axis=-4)), atol)


def _mixture(w: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """``sum_k w[..., k] stacks[..., k, :, :, :]``: the outcome-wise mixture
    of effect stacks ``batch + (k, n, d, d)`` with weights ``batch + (k,)``."""
    return weighted_sum(w[..., None], stacks)[..., 0, :, :, :]


def certify_coexistence(
    a: Observable, b: Observable, joint: Observable, atol: float = DEFAULT_ATOL
) -> bool:
    """Check a joint observable certificate for the coexistence of ``a`` and ``b``.

    True iff ``joint`` has the axes ``(a.outcomes, b.outcomes)`` and its
    marginals equal ``a`` and ``b`` entrywise within ``atol``. This
    validates a supplied certificate; it does not search for one.
    """
    _one_object(a, b, joint)
    if joint.axes != (a.outcomes, b.outcomes):
        return False
    if joint.dim != a.dim or joint.dim != b.dim:
        return False
    return (observable_deviation(joint.marginal(0, atol), a) <= atol
            and observable_deviation(joint.marginal(1, atol), b) <= atol)


def observable_deviation(a: Observable, b: Observable) -> float | np.ndarray:
    """Largest entrywise deviation between two observables on equal outcome
    axes (one axis or a grid); for batches of observables, one per member."""
    if a.outcomes != b.outcomes:
        raise ValueError("observables must share the same ordered outcome labels")
    if a.dim != b.dim:
        raise ValueError("observables must share the same dimension")
    diff = np.abs(a.effect_stack - b.effect_stack)
    lead = max(len(a._batch), len(b._batch))
    return _per_member(diff.reshape(diff.shape[:lead] + (-1,)).max(axis=-1))
