"""Instruments, bi-instruments, state updating and Holevo instruments.

An instrument is a labeled family of operations whose sum is a channel; it
measures an observable (duals applied to the identity) and updates states
outcome-by-outcome. Every member of a family is a Kraus-form
:class:`~qcond.channels.Operation`; anything else is rejected with
``TypeError``.

A family is admitted once, by ``_admit_family``: with every Gram matrix
positive, its total's ``sum_x op_x*(I) = I`` gives each member's
``sum K†K <= I``, so the members built for a family (``_from_kraus``,
``condition_instrument``, ``given_instrument``) skip that check, and
``total_channel`` returns the total without checking it again.

Batches: ``_from_kraus`` over Kraus stacks ``(..., n, d_out, d_in)`` with
leading axes builds a batch of families whose members are batches of
operations (see ``Operation._checked``), each family's total checked.
``marginal1``/``marginal2``, ``given_instrument`` and the deviations act on
them member by member, and the Holevo kernels (``_holevo_family``,
``_holevo_instrument``, ``_holevo_composed``) take leading batch axes on
their effect, state and coefficient stacks.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .channels import (
    Channel,
    Operation,
    _composed,
    _joined,
    _per_member,
    _require_channel,
    _require_operations,
    _require_trace_non_increasing,
    _require_trace_preserving,
    _square_input,
    _without_zero_operators,
    map_deviation,
)
from .effects import (
    BiObservable,
    Effect,
    Observable,
    State,
    _distinct_labels,
    _position,
    _require_states,
    _state_family,
)
from .errors import InvariantViolation, OutcomeNotObserved
from .linalg import (
    DEFAULT_ATOL,
    as_complex_matrix,
    clipped_eigh,
    hermitian_part,
)

__all__ = [
    "Instrument",
    "BiInstrument",
    "HolevoSpec",
    "given_observable",
    "given_distribution",
    "condition_instrument",
    "given_instrument",
    "holevo_operation",
    "holevo_instrument",
    "holevo_compose",
    "instrument_deviation",
    "bi_instrument_deviation",
]


def _admit_family(kind: str, ops: Iterable[Operation], atol: float) -> tuple[Operation, ...]:
    """The members, operations all, after the one check of a family's trace
    condition: uniform dimensions, and the total's dual at the identity,
    ``sum_x op_x*(I)`` (the sum of the members' Gram matrices), below ``I``
    and equal to it entrywise, within ``atol``: the two trace rules of a
    channel. In a family of several, a ``Channel`` member is checked for
    ``sum K†K == I`` entrywise, which the total does not give; a lone
    member is the total, so the total's check is its check."""
    ops = tuple(ops)
    _require_operations(ops, kind)
    dims = {(op.dim_in, op.dim_out) for op in ops}
    if len(dims) != 1:
        raise InvariantViolation(kind, "uniform dimensions", f"got {sorted(dims)}")
    if len(ops) > 1:
        for op in ops:
            if isinstance(op, Channel):
                _require_trace_preserving(op._gram, atol, "Channel", "trace preservation")
    total = sum(op._gram for op in ops)
    _require_trace_non_increasing(total, atol, kind, "total channel")
    _require_trace_preserving(total, atol, kind, "total channel")
    return ops


def _members(stacks: Sequence[np.ndarray]) -> tuple[Operation, ...]:
    """One unchecked :class:`Operation` per library-made Kraus stack, under
    the rule of ``_without_zero_operators``, for a family whose total is
    checked next. Stacks ``(..., n, d_out, d_in)`` may carry leading batch
    axes, which give a batch of families."""
    return tuple(Operation._unchecked(_without_zero_operators(stack)) for stack in stacks)


@dataclass(frozen=True, eq=False)
class Instrument:
    """Labeled family of operations summing to a channel."""

    outcomes: tuple[str, ...]
    ops: tuple[Operation, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    @classmethod
    def _from_kraus(cls, outcomes, stacks, atol: float) -> "Instrument":
        """One operation per Kraus stack, checked once, from the total."""
        return cls(outcomes, _members(stacks), atol)

    def __post_init__(self, atol: float):
        outcomes = _distinct_labels(self.outcomes, "Instrument")
        if len(self.ops) != len(outcomes):
            raise InvariantViolation("Instrument", "one operation per outcome")
        ops = _admit_family("Instrument", self.ops, atol)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "ops", ops)

    @property
    def dim_in(self) -> int:
        return self.ops[0].dim_in

    @property
    def dim_out(self) -> int:
        return self.ops[0].dim_out

    def index(self, label: str) -> int:
        return _position(self.outcomes, label)

    def op(self, label: str) -> Operation:
        return self.ops[self.index(label)]

    def total_channel(self) -> Channel:
        """The summed channel, with concatenated Kraus lists; not checked
        again, since the family was checked as a whole."""
        return Channel._unchecked(_joined(self.ops))

    def measured_observable(self, atol: float = DEFAULT_ATOL) -> Observable:
        """The observable this instrument measures (duals at the identity)."""
        return Observable(self.outcomes, self._measured_stack(), atol)

    def _measured_stack(self) -> np.ndarray:
        """The measured effects ``(..., n, d_in, d_in)``, unvalidated."""
        return hermitian_part(np.stack([op._gram for op in self.ops], axis=-3))

    def outcome_probability(self, label: str, rho: State | np.ndarray) -> float:
        return float(np.trace(self.op(label).apply(rho)).real)

    def updated_state(self, label: str, rho: State | np.ndarray, atol: float = DEFAULT_ATOL) -> State:
        """Post-measurement state for an observed outcome, renormalized.

        Raises :class:`OutcomeNotObserved` when the outcome probability is
        within ``atol`` of zero.
        """
        out = self.op(label).apply(rho)
        prob = float(out.trace().real)
        if prob <= atol:
            raise OutcomeNotObserved(f"outcome {label!r} has probability {prob:.3e}")
        return State._view(_require_states(out / prob, atol))

    def subset_probability(self, labels: Iterable[str], rho: State | np.ndarray) -> float:
        """``sum_x tr[I_x(rho)]`` over the distinct labels; ``rho`` is read
        and checked once, also for an empty subset."""
        ops = [self.op(x) for x in dict.fromkeys(labels)]
        m = _square_input(rho, self.dim_in)
        return float(sum(float(np.trace(op.apply_matrix(m)).real) for op in ops))


@dataclass(frozen=True, eq=False)
class BiInstrument:
    """Instrument on a product outcome set, stored as an operations grid."""

    outcomes1: tuple[str, ...]
    outcomes2: tuple[str, ...]
    ops: tuple[tuple[Operation, ...], ...]
    atol: InitVar[float] = DEFAULT_ATOL

    @classmethod
    def _from_kraus(cls, outcomes1, outcomes2, stacks, atol: float) -> "BiInstrument":
        """One grid operation per Kraus stack (row-major), checked once, from
        the total."""
        ops = _members(stacks)
        n = len(outcomes2)
        return cls(outcomes1, outcomes2, tuple(ops[i : i + n] for i in range(0, len(ops), n)), atol)

    def __post_init__(self, atol: float):
        o1 = _distinct_labels(self.outcomes1, "BiInstrument")
        o2 = _distinct_labels(self.outcomes2, "BiInstrument")
        rows = tuple(tuple(row) for row in self.ops)
        if len(rows) != len(o1) or any(len(r) != len(o2) for r in rows):
            raise InvariantViolation("BiInstrument", "grid shape")
        admitted = iter(_admit_family("BiInstrument", [op for row in rows for op in row], atol))
        rows = tuple(tuple(next(admitted) for _ in row) for row in rows)
        object.__setattr__(self, "outcomes1", o1)
        object.__setattr__(self, "outcomes2", o2)
        object.__setattr__(self, "ops", rows)

    @property
    def dim_in(self) -> int:
        return self.ops[0][0].dim_in

    @property
    def dim_out(self) -> int:
        return self.ops[0][0].dim_out

    def op(self, x: str, y: str) -> Operation:
        return self.ops[_position(self.outcomes1, x, (x, y))][_position(self.outcomes2, y, (x, y))]

    def total_channel(self) -> Channel:
        """The summed channel, with concatenated Kraus lists; not checked
        again, since the family was checked as a whole."""
        return Channel._unchecked(_joined(op for row in self.ops for op in row))

    def _marginal(self, outcomes: tuple[str, ...], groups, atol: float) -> Instrument:
        return Instrument._from_kraus(outcomes, [_joined(group) for group in groups], atol)

    def marginal1(self, atol: float = DEFAULT_ATOL) -> Instrument:
        """Sum out the second outcome index."""
        return self._marginal(self.outcomes1, self.ops, atol)

    def marginal2(self, atol: float = DEFAULT_ATOL) -> Instrument:
        """Sum out the first outcome index."""
        return self._marginal(self.outcomes2, zip(*self.ops), atol)


def given_observable(obs: Observable, ins: Instrument, atol: float = DEFAULT_ATOL) -> BiObservable:
    """The joint bi-observable of measuring ``ins`` and then ``obs``.

    Grid entry ``(x, y)`` is the dual of the ``x``-operation applied to the
    ``y``-effect. Its first marginal is the observable measured by ``ins``
    and its second is ``obs`` conditioned by the total channel.
    """
    _require_output_dimension(obs, ins)
    return BiObservable(ins.outcomes, obs.outcomes, _given_grid(ins, obs.effect_stack), atol)


def _require_output_dimension(obs: Observable, ins: Instrument) -> None:
    if obs.dim != ins.dim_out:
        raise ValueError(f"dimension mismatch: observable {obs.dim} vs instrument output {ins.dim_out}")


def _given_grid(ins: Instrument, stack: np.ndarray) -> np.ndarray:
    """The grid ``(..., n1, n2, d, d)`` of duals ``I_x*(B_y)``, unvalidated."""
    return np.stack([op._dual_images(stack) for op in ins.ops], axis=-4)


def given_distribution(
    obs: Observable,
    ins: Instrument,
    rho: State,
    subset1: Iterable[str],
    subset2: Iterable[str],
    atol: float = DEFAULT_ATOL,
) -> float:
    """Joint probability of a product outcome set, in factored form.

    Computes ``tr[I(subset1)(rho)]`` times the distribution of ``obs`` in the
    updated state; when the first factor is within ``atol`` of zero the
    factored form is bypassed and the value is 0. Equals the double sum
    ``sum_{x, y} tr[I_x(rho) B_y]`` over the product set. ``rho`` is read
    and checked once, also when a subset is empty.
    """
    _require_output_dimension(obs, ins)
    ops = [ins.op(x) for x in dict.fromkeys(subset1)]
    idx = [obs.index(y) for y in dict.fromkeys(subset2)]
    m = _square_input(rho, ins.dim_in)
    if not ops or not idx:
        return 0.0
    sigma = _summed([op.apply_matrix(m) for op in ops])
    return _factored_probability(sigma, _summed([obs.effect_stack[i] for i in idx]), atol)


def _summed(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The sum of a nonempty sequence of matrices, added left to right (a
    single matrix is returned as is)."""
    first, *rest = mats
    return sum(rest, first)


def _factored_probability(sigma: np.ndarray, effect: np.ndarray, atol: float) -> float | np.ndarray:
    """``tr(sigma) tr(sigma / tr(sigma) b)`` for the summed branch ``sigma``
    and the effect ``b`` of the outcome subset (or stacks of both); 0 where
    ``tr(sigma) <= atol``. One matrix takes the same arithmetic on Python
    floats, so it gives the same bits as a stack of one."""
    if sigma.ndim == 2:
        prob1 = float(sigma.trace().real)
        observed = prob1 > atol
        return observed * (prob1 * float((sigma / (prob1 if observed else 1.0) @ effect).trace().real))
    prob1 = np.trace(sigma, axis1=-2, axis2=-1).real
    observed = prob1 > atol
    updated = sigma / np.where(observed, prob1, 1.0)[..., None, None]
    return observed * (prob1 * np.trace(updated @ effect, axis1=-2, axis2=-1).real)


def condition_instrument(ch: Operation, ins: Instrument, atol: float = DEFAULT_ATOL) -> Instrument:
    """Pre-compose every operation of ``ins`` with the channel ``ch``: member
    ``x`` is ``ch.then(ins.op(x))`` (see ``channels._composed``), checked
    once, from the family's total."""
    _require_channel(ch, atol)
    superoperator = cache(Operation.superoperator)
    return Instrument(ins.outcomes, tuple(_composed(ch, op, atol, superoperator) for op in ins.ops), atol)


def given_instrument(ins: Instrument, jns: Instrument, atol: float = DEFAULT_ATOL) -> BiInstrument:
    """The joint bi-instrument of running ``ins`` first, then ``jns``:
    entry ``(x, y)`` is ``ins.op(x).then(jns.op(y))``, checked once, from
    the family's total; each member's superoperator is made at most once."""
    superoperator = cache(Operation.superoperator)
    ops = tuple(tuple(_composed(iop, jop, atol, superoperator) for jop in jns.ops) for iop in ins.ops)
    return BiInstrument(ins.outcomes, jns.outcomes, ops, atol)


@dataclass(frozen=True, eq=False)
class HolevoSpec:
    """Data of a measure-and-prepare instrument: an observable plus one
    prepared state per outcome, held as one stack validated by
    ``_state_family``; ``states`` holds read-only :class:`State` views of it.
    """

    observable: Observable
    states: tuple[State, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        stack = _state_family("HolevoSpec", self.states, self.observable.n_outcomes, atol)
        object.__setattr__(self, "_states", stack)
        object.__setattr__(self, "states", tuple(map(State._view, stack)))

    @property
    def dim_in(self) -> int:
        return self.observable.dim

    @property
    def dim_out(self) -> int:
        return self._states.shape[-1]

    def state(self, label: str) -> State:
        return self.states[self.observable.index(label)]


def _holevo_family(
    effects: np.ndarray,
    states: np.ndarray,
    rows: Sequence[int],
    cols: Sequence[int],
    coeffs: np.ndarray,
    atol: float,
) -> list[np.ndarray]:
    """Kraus stacks of the measure-and-prepare operations
    ``rho -> tr(rho c_i e_{rows[i]}) sigma_{cols[i]}`` for ``c = coeffs``.

    Each effect of the stack ``effects`` and each state of ``states`` is
    decomposed once (one batched ``eigh`` per stack); an entry's effect
    spectrum is the scaled spectrum of its row's effect. With clipped
    eigenpairs ``c_i e = sum_j a_j |u_j><u_j|`` and
    ``sigma = sum_k p_k |v_k><v_k|``, row ``(j, k)`` of an entry's stack
    ``(dj * dk, D, d)`` is ``sqrt(a_j p_k) |v_k><u_j|``: the full grid, zero
    weights included. Leading batch axes of ``effects``, ``states`` and
    ``coeffs`` give a batch of families. Each entry is written as its own
    contiguous array, which ``Operation._build`` stores without a copy and
    which is freed with its operation.
    """
    evals, evecs = clipped_eigh(effects, atol, "effect")
    pvals, pvecs = clipped_eigh(states, atol, "state")
    scaled = np.asarray(coeffs, dtype=float)[..., None] * evals[..., rows, :]
    if float(scaled.min()) < -atol:
        raise InvariantViolation("effect", "positive", f"eigenvalue {scaled.min():.3e}")
    weights = np.sqrt(np.clip(scaled, 0.0, None)[..., :, None] * pvals[..., cols, :][..., None, :])
    covecs = evecs.conj()
    entries = [np.multiply(weights[..., i, :, :, None, None],
                           np.einsum("...rk,...cj->...jkrc", pvecs[..., c, :, :], covecs[..., r, :, :]),
                           order="C")
               for i, (r, c) in enumerate(zip(rows, cols))]
    return [e.reshape(e.shape[:-4] + (-1,) + e.shape[-2:]) for e in entries]


def holevo_operation(
    effect: Effect | np.ndarray, state: State | np.ndarray, atol: float = DEFAULT_ATOL
) -> Operation:
    """Kraus form of the measure-and-prepare map ``rho -> tr(rho e) sigma``.

    With spectral decompositions ``e = sum_j a_j |u_j><u_j|`` and
    ``sigma = sum_k p_k |v_k><v_k|`` the Kraus operators are
    ``sqrt(a_j p_k) |v_k><u_j|``, which reproduces the map exactly: the
    one-entry case of ``_holevo_family``.
    """
    pair = [as_complex_matrix(m)[None] for m in (effect, state)]
    (stack,) = _holevo_family(*pair, [0], [0], np.ones(1), atol)
    return Operation._checked(_without_zero_operators(stack), atol)


def _holevo_instrument(outcomes, effects: np.ndarray, states: np.ndarray, atol: float) -> Instrument:
    """The measure-and-prepare instrument of an effect stack ``(..., n, d, d)``
    and a state stack ``(..., n, D, D)`` (leading axes: a batch)."""
    idx = np.arange(effects.shape[-3])
    stacks = _holevo_family(effects, states, idx, idx, np.ones(len(idx)), atol)
    return Instrument._from_kraus(outcomes, stacks, atol)


def holevo_instrument(spec: HolevoSpec, atol: float = DEFAULT_ATOL) -> Instrument:
    """The measure-and-prepare instrument of the given data: outcome ``x``
    acts as ``rho -> tr(rho A_x) alpha_x``."""
    return _holevo_instrument(spec.observable.outcomes, spec.observable.effect_stack, spec._states, atol)


def _holevo_composed(
    outcomes1, outcomes2, a: np.ndarray, alphas: np.ndarray, b: np.ndarray, betas: np.ndarray, atol: float
) -> BiInstrument:
    """The closed form of :func:`holevo_compose` from stacks: effects ``a``
    and states ``alphas`` of the first stage, ``b`` and ``betas`` of the
    second (leading axes: a batch)."""
    coeff = np.trace(alphas[..., :, None, :, :] @ b[..., None, :, :, :], axis1=-2, axis2=-1).real
    n1, n2 = coeff.shape[-2:]
    rows, cols = np.divmod(np.arange(n1 * n2), n2)
    stacks = _holevo_family(a, betas, rows, cols, coeff.reshape(coeff.shape[:-2] + (-1,)), atol)
    return BiInstrument._from_kraus(outcomes1, outcomes2, stacks, atol)


def holevo_compose(second: HolevoSpec, first: HolevoSpec, atol: float = DEFAULT_ATOL) -> BiInstrument:
    """Joint bi-instrument of two measure-and-prepare stages, in closed form.

    ``first`` runs first. The grid entry ``(x, y)`` is again a
    measure-and-prepare map with effect ``tr(alpha_x B_y) A_x`` and prepared
    state ``beta_y``, so the result equals
    ``given_instrument(holevo_instrument(first), holevo_instrument(second))``
    without composing any Kraus lists.
    """
    if first.dim_out != second.dim_in:
        raise ValueError(f"dimension mismatch: {first.dim_out} -> {second.dim_in}")
    a_obs, b_obs = first.observable, second.observable
    return _holevo_composed(
        a_obs.outcomes, b_obs.outcomes, a_obs.effect_stack, first._states,
        b_obs.effect_stack, second._states, atol,
    )


def instrument_deviation(a: Instrument, b: Instrument) -> float | np.ndarray:
    """Largest map deviation between two instruments on equal outcomes (for
    batches of instruments, one per member)."""
    if a.outcomes != b.outcomes:
        raise ValueError("instruments must share the same ordered outcome labels")
    return _per_member(np.max([map_deviation(x, y) for x, y in zip(a.ops, b.ops)], axis=0))


def bi_instrument_deviation(a: BiInstrument, b: BiInstrument) -> float | np.ndarray:
    """Largest map deviation between two bi-instruments on equal grids (for
    batches, one per member)."""
    if a.outcomes1 != b.outcomes1 or a.outcomes2 != b.outcomes2:
        raise ValueError("bi-instruments must share the same ordered outcome labels")
    devs = [map_deviation(x, y) for row_a, row_b in zip(a.ops, b.ops) for x, y in zip(row_a, row_b)]
    return _per_member(np.max(devs, axis=0))
