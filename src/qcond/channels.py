"""Operations, channels, dual maps and conditioning.

Every map here is completely positive and kept in Kraus form, as an
:class:`Operation` (a :class:`Channel` when trace preserving); the dual
(Heisenberg-picture) map is then ``a -> sum_i K_i† a K_i`` with no
conversion step. Equality of maps is never decided by comparing Kraus lists
(they are not canonical): use :func:`map_deviation`, which compares
superoperators (row-major vectorization) on a Hermitian matrix-unit basis.
Operations compose one way, ``_composed`` (behind ``then``,
``condition_instrument`` and ``given_instrument``), to at most
``d_out·d_in`` Kraus operators, none exactly zero: where the list of
products would be longer, one eigendecomposition of the composed Choi
matrix gives them.

Every map here is single and checked on its own; families of operations
are built, and checked from their total, in :mod:`qcond.instruments`.

The Kraus kernels broadcast over leading batch axes, which is how the
identity checks run their trials: a private ``Operation._checked`` over a
stack ``(..., n, d_out, d_in)`` holds a batch of operations, each checked by
the rule its class's constructor applies; ``then``, ``superoperator`` and
:func:`map_deviation` act member by member. ``apply_matrix`` and
``dual_matrix`` take ``m`` as ``batch + own + (d, d)``: the leading axes
broadcast against the batch, any further axes are ``m``'s own stack, and
each matrix maps to its own image.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .effects import Effect, Observable, State, _require_effects
from .errors import InvariantViolation
from .linalg import (
    DEFAULT_ATOL,
    _identity,
    _near_identity,
    _require_finite,
    as_complex_matrix,
    hermitian_part,
    hermitized_matrix_units,
    is_effect_matrix,
    is_psd,
    max_abs_diff,
)

__all__ = [
    "Operation",
    "Channel",
    "map_sum",
    "map_deviation",
    "sequential_product",
    "condition_effect",
    "condition_observable",
    "complete_subnormalized",
]


class Operation:
    """Completely positive trace-non-increasing map in Kraus form, the one
    map type of the package.

    ``kraus`` may be a sequence of matrices or one stacked 3-D array (copied);
    the operators are kept stacked internally so applications are single
    ``numpy`` contractions regardless of how long the list is.
    """

    def __init__(self, kraus: Sequence[np.ndarray] | np.ndarray, atol: float = DEFAULT_ATOL):
        self._build(_kraus_stack(kraus))
        self._check(atol)

    def _check(self, atol: float) -> None:
        """The trace condition of the class, on every member of a batch."""
        _require_trace_non_increasing(self._gram, atol, "Operation", "trace non-increasing")

    @classmethod
    def _unchecked(cls, stack: np.ndarray) -> "Operation":
        """An operation of this class on a Kraus stack ``(..., n, d_out, d_in)``
        the library made (leading axes: a batch of operations), its trace
        condition unchecked; the one way, beside ``__init__``, to make one."""
        op = object.__new__(cls)
        op._build(stack)
        return op

    @classmethod
    def _checked(cls, stack: np.ndarray, atol: float) -> "Operation":
        """``_unchecked``, then checked as the constructor checks it (every
        member of a batch)."""
        op = cls._unchecked(stack)
        op._check(atol)
        return op

    def _build(self, stack: np.ndarray) -> None:
        """Store the Kraus stack ``(..., n, d_out, d_in)`` (leading axes: the
        batch) and its Gram matrix ``sum K†K``; checks that the operators
        exist, act between nonzero dimensions and are finite, not the trace
        condition. A contiguous complex stack is stored as given (made
        read-only), not copied. These four fields are all an operation
        holds: every kernel is a function of them."""
        stack = np.ascontiguousarray(stack, dtype=complex)
        if 0 in stack.shape[-3:]:
            raise InvariantViolation("Operation", "nonempty Kraus stack", f"shape {stack.shape[-3:]}")
        _require_finite(stack, "Operation")
        stack.setflags(write=False)
        flat = self._flat(stack)
        gram = flat.conj().mT @ flat
        gram.setflags(write=False)
        self._stack = stack
        self.dim_out, self.dim_in = stack.shape[-2:]
        self._gram = gram

    @staticmethod
    def _flat(stack: np.ndarray) -> np.ndarray:
        """The Kraus stack read as ``(..., n·d_out, d_in)``, a view."""
        n, d_out, d_in = stack.shape[-3:]
        return stack.reshape(stack.shape[:-3] + (n * d_out, d_in))

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stack)

    @property
    def kraus_stack(self) -> np.ndarray:
        """All Kraus operators as one read-only ``(n, dim_out, dim_in)`` array."""
        return self._stack

    # ``m`` is ``batch + own + (d, d)``: the leading axes broadcast against
    # the batch of ``_checked``, any further axes are ``m``'s own stack, and
    # every matrix maps to its own image (the Kraus axis is inserted here;
    # one matrix broadcasts as it is).
    def _unit_stack(self, m: np.ndarray) -> np.ndarray:
        """The Kraus stack with a unit axis per own axis of ``m``, a view."""
        batch = self._stack.ndim - 3
        return self._stack[(slice(None),) * batch + (None,) * (m.ndim - 2 - batch)]

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        stack = self._unit_stack(m)
        return np.matmul(stack @ (m if m.ndim == 2 else m[..., None, :, :]), stack.conj().mT).sum(axis=-3)

    def dual_matrix(self, m: np.ndarray) -> np.ndarray:
        # sum_k K_k† x_k as one product with the flattened adjoint (d_in, n·d_out)
        stack = self._unit_stack(m)
        products = (m if m.ndim == 2 else m[..., None, :, :]) @ stack
        return self._flat(stack.conj()).mT @ products.reshape(products.shape[:-3] + (-1, self.dim_in))

    def superoperator(self) -> np.ndarray:
        # S[(a, c), (b, d)] = sum_k K_k[a, b] conj(K_k[c, d]): one product of
        # the flattened stack (per member of a batch), then one contiguous
        # (a, c, b, d) copy.
        d_out, d_in = self.dim_out, self.dim_in
        lead = self._stack.shape[:-3]
        flat = self._stack.reshape(lead + (-1, d_out * d_in))
        s = (flat.mT @ flat.conj()).reshape(lead + (d_out, d_in, d_out, d_in))
        s = np.ascontiguousarray(s.swapaxes(-3, -2)).reshape(lead + (d_out * d_out, d_in * d_in))
        s.setflags(write=False)
        return s

    def scaled(self, factor: float, atol: float = DEFAULT_ATOL) -> "Operation":
        """The operation with every Kraus operator multiplied by ``factor``
        (for a batch, one factor per member)."""
        return Operation._checked(np.asarray(factor)[..., None, None, None] * self._stack, atol)

    def apply(self, rho: State | np.ndarray) -> np.ndarray:
        """Apply the map to a state (or any matching square matrix)."""
        return self.apply_matrix(_square_input(rho, self.dim_in))

    def dual_apply(self, a: Effect | np.ndarray, atol: float = DEFAULT_ATOL) -> Effect:
        """Apply the dual map to an effect; the result is again an effect.

        The raw output is symmetrized before validation to suppress rounding
        asymmetry.
        """
        return Effect._view(self._dual_effects(_square_input(a, self.dim_out), atol))

    def _dual_images(self, mats: np.ndarray) -> np.ndarray:
        """Symmetrized, unvalidated dual images of one matrix or a stack
        ``(..., d_out, d_out)``: one ``dual_matrix`` call."""
        return hermitian_part(self.dual_matrix(mats))

    def _dual_effects(self, a: np.ndarray, atol: float) -> np.ndarray:
        """The symmetrized dual image of an effect, checked as an effect."""
        image = self._dual_images(a)
        _require_effects(image, atol)
        return image

    def measured_effect(self, atol: float = DEFAULT_ATOL) -> Effect:
        """The unique effect ``a`` with ``tr[map(rho)] == tr(rho a)`` for all states."""
        return Effect(hermitian_part(self._gram), atol)

    def is_trace_preserving(self, atol: float = DEFAULT_ATOL) -> bool:
        return _near_identity(self._gram, atol)

    def then(self, other: "Operation", atol: float = DEFAULT_ATOL) -> "Operation":
        """Sequential product: apply ``self`` first, then ``other``; the
        composition is an operation (a channel when both are) validated at
        ``atol``."""
        _require_operations((other,), "then")
        op = _composed(self, other, atol, Operation.superoperator)
        op._check(atol)
        return op


class Channel(Operation):
    """Trace-preserving operation (``sum K†K == I``)."""

    def __init__(self, kraus: Sequence[np.ndarray] | np.ndarray, atol: float = DEFAULT_ATOL):
        """Checks ``sum K†K <= I`` and ``sum K†K == I`` within ``atol``
        (the rule of ``_check``, which batches share)."""
        super().__init__(kraus, atol)

    def _check(self, atol: float) -> None:
        super()._check(atol)
        _require_trace_preserving(self._gram, atol, "Channel", "trace preservation")

    @classmethod
    def identity(cls, dim: int) -> "Channel":
        return cls((np.eye(dim),))

    @classmethod
    def unitary(cls, u: np.ndarray, atol: float = DEFAULT_ATOL) -> "Channel":
        """Conjugation ``rho -> U rho U†`` by a unitary (or isometry) ``U``."""
        u = as_complex_matrix(u)
        if not _near_identity(u.conj().T @ u, atol):
            raise InvariantViolation("Channel", "unitary", "U†U must equal I")
        return cls((u,), atol)


def _square_input(m: State | Effect | np.ndarray, dim: int) -> np.ndarray:
    """The one input rule of the single-matrix queries: ``m`` read by
    ``as_complex_matrix`` (a validated value as stored, a raw array coerced
    and checked for finite entries), a ``ValueError`` unless ``dim``
    square."""
    m = as_complex_matrix(m)
    if m.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: expected {dim}, got {m.shape}")
    return m


def _kraus_stack(kraus: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """A caller's Kraus operators as a new ``(n, d_out, d_in)`` stack: a 3-D
    array is copied; anything else must be a nonempty sequence of finite
    2-D matrices of one shape."""
    if isinstance(kraus, np.ndarray) and kraus.ndim == 3:
        return np.array(kraus, dtype=complex)
    mats = [as_complex_matrix(k) for k in kraus]
    if not mats:
        raise InvariantViolation("Operation", "nonempty Kraus list")
    if len({m.shape for m in mats}) != 1:
        raise InvariantViolation("Operation", "uniform Kraus shape")
    return np.stack(mats)


def _joined(ops: Iterable[Operation]) -> np.ndarray:
    """The Kraus stacks of ``ops`` concatenated (member by member for
    batches): a Kraus stack of their sum."""
    return np.concatenate([op.kraus_stack for op in ops], axis=-3)


def _require_trace_non_increasing(gram: np.ndarray, atol: float, kind: str, invariant: str) -> None:
    """``sum K†K <= I`` within ``atol``, for one Gram matrix or every matrix
    of a stack; the caller names the error's kind and invariant."""
    if not is_psd(_identity(gram.shape[-1]) - gram, atol):
        raise InvariantViolation(kind, invariant, "sum K†K must be <= I")


def _require_trace_preserving(gram: np.ndarray, atol: float, kind: str, invariant: str) -> None:
    """``sum K†K == I`` entrywise within ``atol`` (``_near_identity``); as above."""
    if not _near_identity(gram, atol):
        raise InvariantViolation(kind, invariant, "sum K†K must equal I")


def _without_zero_operators(stack: np.ndarray) -> np.ndarray:
    """The one rule for exactly-zero Kraus operators, applied to every
    composition (``_composed``, ``_choi_kraus``), to the family members that
    ``_from_kraus`` builds and to the Kraus lists of ``holevo_operation``
    and of a separable channel's lift: one Kraus stack ``(n, d_out, d_in)``
    leaves them out (one zero operator is kept when all are zero); a batch,
    a stack with leading axes, keeps them, so that every member has as many
    operators. A stack that loses nothing is returned as is."""
    if stack.ndim > 3:
        return stack
    nonzero = stack.any(axis=(-2, -1))
    if nonzero.all():
        return stack
    return stack[nonzero] if nonzero.any() else np.zeros_like(stack[:1])


def _composed(first: Operation, second: Operation, atol: float, superoperator: Callable) -> Operation:
    """Running ``first``, then ``second`` (member by member for batches),
    unchecked: a :class:`Channel` when both are, else an :class:`Operation`.
    Its Kraus stack is the ``n1·n2`` products ``L_b K_a`` when they are no
    more than ``d_out·d_in``, else, with no product built, the ``d_out·d_in``
    operators that ``_choi_kraus`` factors from the product of the two
    superoperators, each made by ``superoperator(op)`` (a caller composing
    each member with several others passes one cache of it); either stack
    under the rule of ``_without_zero_operators``."""
    if first.dim_out != second.dim_in:
        raise ValueError(f"dimension mismatch in composition: {first.dim_out} -> {second.dim_in}")
    d_out, d_in = second.dim_out, first.dim_in
    if first.kraus_stack.shape[-3] * second.kraus_stack.shape[-3] > d_out * d_in:
        stack = _choi_kraus(superoperator(second) @ superoperator(first), d_out, d_in, atol)
    else:
        products = np.einsum("...mab,...nbc->...mnac", second.kraus_stack, first.kraus_stack)
        stack = _without_zero_operators(products.reshape(products.shape[:-4] + (-1, d_out, d_in)))
    cls = Channel if isinstance(first, Channel) and isinstance(second, Channel) else Operation
    return cls._unchecked(stack)


def _choi_kraus(superop: np.ndarray, d_out: int, d_in: int, atol: float) -> np.ndarray:
    """The Kraus stack ``(..., d_out·d_in, d_out, d_in)`` of a superoperator
    (or of a stack of them), the one Choi-to-Kraus step of the library: the
    Choi matrix ``C = sum_k vec(K_k) vec(K_k)†``, reshuffled from it, must
    be Hermitian and positive semidefinite within ``atol``, and
    ``C = sum_j l_j v_j v_j†`` (one batched ``eigh``) gives the operators
    ``sqrt(l_j) v_j``, negative rounding noise in ``l`` clipped, under the
    rule of ``_without_zero_operators``."""
    lead = superop.shape[:-2]
    dim = d_out * d_in
    s = superop.reshape(lead + (d_out, d_out, d_in, d_in))
    choi = s.swapaxes(-3, -2).reshape(lead + (dim, dim))
    evals, evecs = np.linalg.eigh(hermitian_part(choi))
    if max_abs_diff(choi, choi.conj().mT) > atol or evals.min() < -atol:
        raise InvariantViolation("Operation", "completely positive", "Choi matrix must be PSD")
    stack = (evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]).mT
    return _without_zero_operators(stack.reshape(lead + (dim, d_out, d_in)))


def map_sum(maps: Sequence[Operation], atol: float = DEFAULT_ATOL) -> Operation:
    """Sum of operations: their Kraus lists concatenated, validated at ``atol``."""
    maps = list(maps)
    if not maps:
        raise ValueError("cannot sum an empty list of maps")
    _require_operations(maps, "map_sum")
    dims = {(m.dim_in, m.dim_out) for m in maps}
    if len(dims) != 1:
        raise ValueError(f"summands must share dimensions, got {sorted(dims)}")
    return Operation._checked(_joined(maps), atol)


def map_deviation(p: Operation, q: Operation) -> float | np.ndarray:
    """Largest entrywise deviation of two maps' actions on a Hermitian basis.

    Zero (up to rounding) iff the maps are equal as linear maps. The actions
    are evaluated through the superoperators, which is the same comparison
    at a fraction of the cost for long Kraus lists. For batches
    of operations (see ``Operation._checked``), one deviation per member.
    """
    _require_operations((p, q), "map_deviation")
    if (p.dim_in, p.dim_out) != (q.dim_in, q.dim_out):
        raise ValueError("maps must share dimensions")
    return _superoperator_deviation(p.superoperator() - q.superoperator(), p.dim_in)


def _superoperator_deviation(diff: np.ndarray, dim_in: int) -> float | np.ndarray:
    """:func:`map_deviation` from the difference of two superoperators (or
    of two stacks of them)."""
    return _per_member(np.abs(diff @ _basis_columns(dim_in)).max(axis=(-2, -1)))


def _per_member(dev: np.ndarray) -> float | np.ndarray:
    """A float for one map's deviation, the array for a batch's."""
    return float(dev) if dev.ndim == 0 else dev


@lru_cache(maxsize=None)
def _basis_columns(dim: int) -> np.ndarray:
    """The Hermitian matrix-unit basis flattened into read-only columns."""
    basis = np.stack([b.reshape(-1) for b in hermitized_matrix_units(dim)], axis=1)
    basis.setflags(write=False)
    return basis


def sequential_product(first: Operation, second: Operation) -> Operation:
    """Run ``first`` then ``second``; Kraus operations compose to at most
    ``d_out·d_in`` Kraus operators (see ``_composed``)."""
    _require_operations((first, second), "sequential_product")
    return first.then(second)


def _require_operations(maps: Iterable, kind: str) -> None:
    """Every one of ``maps`` is an :class:`Operation`, the one map type."""
    for m in maps:
        if not isinstance(m, Operation):
            raise TypeError(f"{kind} takes Kraus-form operations, got {type(m).__name__}")


def _require_channel(ch: Operation, atol: float) -> None:
    _require_operations((ch,), "conditioning")
    _require_trace_preserving(ch._gram, atol, "conditioning", "channel")


def condition_effect(ch: Operation, b: Effect | np.ndarray, atol: float = DEFAULT_ATOL) -> Effect:
    """The effect ``b`` conditioned by a channel: its dual-map image.

    Its probability in ``rho`` equals the probability of ``b`` in the
    channel output.
    """
    _require_channel(ch, atol)
    return ch.dual_apply(b, atol)


def condition_observable(ch: Operation, obs: Observable, atol: float = DEFAULT_ATOL) -> Observable:
    """Condition every effect of an observable by a channel."""
    return Observable(obs.outcomes, _conditioned(ch, obs.effect_stack, atol), atol)


def _conditioned(ch: Operation, stack: np.ndarray, atol: float) -> np.ndarray:
    """The dual images of an effect stack ``(..., n, d, d)`` under a checked
    channel (or a batch of them), unvalidated."""
    _require_channel(ch, atol)
    if stack.shape[-1] != ch.dim_out:
        raise ValueError(f"dimension mismatch: expected {ch.dim_out}, got {stack.shape[-1]}")
    return ch._dual_images(stack)


def complete_subnormalized(
    ch: Operation,
    effects: Sequence[Effect | np.ndarray],
    labels: Sequence[str] | None = None,
    atol: float = DEFAULT_ATOL,
) -> Observable:
    """Complete a sub-normalized effect family to an observable.

    Given effects ``b_x`` with ``sum b_x <= I`` on the channel's output
    space, returns the observable ``B_x = b_x + (I - sum b_x) / n`` with
    ``n`` the family size. Conditioning ``B`` by ``ch`` reproduces the
    conditioned ``b_x`` whenever the residual's dual image vanishes.
    """
    _require_channel(ch, atol)
    mats = [as_complex_matrix(e) for e in effects]
    if not mats:
        raise ValueError("need at least one effect to complete")
    if any(m.shape != (ch.dim_out, ch.dim_out) for m in mats):
        raise ValueError("effects must live on the channel's output space")
    if labels is None:
        labels = tuple(f"x{i}" for i in range(len(mats)))
    return Observable(tuple(labels), _completed(np.stack(mats), atol), atol)


def _completed(stack: np.ndarray, atol: float) -> np.ndarray:
    """``b_x + (I - sum b)/n`` for a sub-normalized family ``(..., n, d, d)``
    (or a stack of them), after checking it; the result is unvalidated."""
    if not is_effect_matrix(stack, atol):
        raise InvariantViolation("completion", "between zero and identity", "each b_x must satisfy 0 <= b_x <= I")
    residual = _identity(stack.shape[-1]) - stack.sum(axis=-3)
    if not is_psd(residual, atol):
        raise InvariantViolation("completion", "sub-normalized family", "sum of effects must be <= I")
    return stack + residual[..., None, :, :] / stack.shape[-3]
