"""Measurement models and their separable fast paths.

A measurement model couples a base system to a probe through an interaction
instrument into the tensor product (base left, probe right), then reads a
probe observable. Everything measurable about the model is extracted by
partial trace over the probe factor.

The generic extraction stays in Kraus form. One function,
``MeasurementModel._readout``, builds the bi-, probe- and reduced readouts
(the reduced one's probe is the identity): it factors each probe effect as
``P = B B†`` (one batched eigendecomposition of the probe stack), contracts
each interaction Kraus stack and admits the instrument family. Since
``tr_probe[X (I ⊗ P)] = sum_j (I ⊗ b_j†) X (I ⊗ b_j)`` over the columns
``b_j`` of ``B``, an interaction Kraus operator ``K`` yields the readout
Kraus operators ``(I ⊗ b_j†) K``: one contraction per probe effect and
Kraus stack, read as ``(n, db, dp, db)`` for base dimension ``db`` and probe
dimension ``dp``, at O(n·db²·dp²) per probe effect; no superoperator is
built.

The readout takes leading batch axes: an interaction instrument whose
members are batches of operations (see ``Operation._checked``) and a probe
stack ``(b, m, dp, dp)`` are read out member by member, through the same
kernels as one model (``_readout`` and ``_pointer_grid``).

The measured (pointer) observable ``P_y = sum_x I_x*(I ⊗ P_y)`` is the
pointer grid summed over the interaction outcomes ``x`` and validated once,
as the returned :class:`Observable`; no :class:`BiObservable` is built for
it.

The Kraus-separable and Holevo-separable classes provide closed-form
shortcuts as *separate* code paths; their agreement with the generic
pipeline is a test target, not an internal substitution. The closed forms
are stack functions that the classes wrap and that take batch axes too.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

from .channels import Channel, _joined, _require_trace_preserving, _without_zero_operators
from .effects import BiObservable, Effect, Observable, State, _require_ones, _state_family
from .errors import InvariantViolation
from .instruments import (
    BiInstrument,
    HolevoSpec,
    Instrument,
    _given_grid,
    _holevo_family,
    holevo_instrument,
)
from .linalg import (
    DEFAULT_ATOL,
    _identity,
    as_complex_matrix,
    clipped_eigh,
    frozen_copy,
    kron,
    weighted_sum,
)

__all__ = [
    "MeasurementModel",
    "KrausSeparableChannel",
    "HolevoSeparableSpec",
    "HolevoModelQuantities",
    "holevo_model_quantities",
]


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Base dimension, probe dimension, interaction instrument into
    base ⊗ probe, and a probe observable."""

    dim_base: int
    dim_probe: int
    interaction: Instrument
    probe: Observable

    def __post_init__(self):
        if self.interaction.dim_in != self.dim_base:
            raise InvariantViolation("MeasurementModel", "interaction input dimension")
        if self.interaction.dim_out != self.dim_base * self.dim_probe:
            raise InvariantViolation(
                "MeasurementModel", "interaction output dimension",
                f"expected {self.dim_base * self.dim_probe}, got {self.interaction.dim_out}",
            )
        if self.probe.dim != self.dim_probe:
            raise InvariantViolation("MeasurementModel", "probe dimension")

    @staticmethod
    def _readout(
        family: type, labels: tuple, stacks: Iterable[np.ndarray], probe: np.ndarray, atol: float
    ) -> Instrument | BiInstrument:
        """The ``family`` (``Instrument`` or ``BiInstrument``), labeled by
        ``labels``, of the operations ``rho -> tr_probe[K(rho) (I ⊗ P)]`` for
        every Kraus stack ``K`` of ``stacks`` (maps into base ⊗ probe) and
        every effect ``P`` of the probe stack ``(..., m, dp, dp)``,
        ``K``-major; leading axes of both are a batch.

        ``P = B B†`` for ``B`` the eigenvectors scaled by the square roots of
        the clipped eigenvalues. A Kraus operator ``K[a, w, b]``, with output
        index ``(a, w)`` of base ⊗ probe, gives
        ``sum_w conj(B[w, j]) K[a, w, b]`` for each column ``j`` of ``B``: one
        contraction per stack and effect, written straight into its member's
        Kraus stack, so that no member is copied out of a larger result. A
        stack that only the iterator ``stacks`` holds is freed before the
        family is built.
        """
        evals, evecs = clipped_eigh(probe, atol, "effect")
        conj = (evecs * np.sqrt(evals)[..., None, :]).conj()
        dp = probe.shape[-1]
        members = []
        for k in stacks:
            db = k.shape[-1]
            lead = np.broadcast_shapes(conj.shape[:-3], k.shape[:-3])
            kraus = k.reshape(k.shape[:-2] + (db, dp, db))
            for y in range(conj.shape[-3]):
                out = np.empty(lead + (k.shape[-3], dp, db, db), dtype=complex)
                np.einsum("...wj,...nawb->...njab", conj[..., y, :, :], kraus, out=out)
                members.append(out.reshape(lead + (-1, db, db)))
        del k, kraus
        return family._from_kraus(*labels, members, atol)

    def measured_bi_instrument(self, atol: float = DEFAULT_ATOL) -> BiInstrument:
        """Joint outcome grid: interact, project on a probe effect, trace out
        the probe. Entry ``(x, y)`` maps ``rho`` to
        ``tr_probe[I_x(rho) (I ⊗ P_y)]``."""
        return _bi_readout(self.interaction, self.probe.outcomes, self.probe.effect_stack, atol)

    def measured_instrument(self, atol: float = DEFAULT_ATOL) -> Instrument:
        """The probe-indexed instrument the model realizes on the base space
        (the second marginal of the measured bi-instrument)."""
        return _probe_readout(self.interaction, self.probe.outcomes, self.probe.effect_stack, atol)

    def reduced_instrument(self, atol: float = DEFAULT_ATOL) -> Instrument:
        """The interaction reduced to the base space (first marginal);
        independent of the probe observable."""
        return _reduced_readout(self.interaction, self.dim_probe, atol)

    def measured_bi_observable(self, atol: float = DEFAULT_ATOL) -> BiObservable:
        """Joint observable of interaction outcome and probe outcome: entry
        ``(x, y)`` is the dual of the ``x``-operation at ``I ⊗ P_y``."""
        grid = _pointer_grid(self.interaction, self.probe.effect_stack)
        return BiObservable(self.interaction.outcomes, self.probe.outcomes, grid, atol)

    def measured_pointer_observable(self, atol: float = DEFAULT_ATOL) -> Observable:
        """The probe-indexed observable the model measures on the base space
        (second marginal of the measured bi-observable): the unvalidated
        grid of :meth:`measured_bi_observable` summed over the interaction
        outcomes ``x``, validated once as the returned observable."""
        grid = _pointer_grid(self.interaction, self.probe.effect_stack)
        return Observable(self.probe.outcomes, grid.sum(axis=-4), atol)


# The model's quantities from an interaction instrument and a probe stack
# ``(..., m, dp, dp)``: the methods above pass one model's, the batched
# checks a batch of interactions (see ``Operation._checked``) and of probes.


def _bi_readout(interaction: Instrument, outcomes, probe: np.ndarray, atol: float) -> BiInstrument:
    stacks = [op.kraus_stack for op in interaction.ops]
    return MeasurementModel._readout(BiInstrument, (interaction.outcomes, outcomes), stacks, probe, atol)


def _probe_readout(interaction: Instrument, outcomes, probe: np.ndarray, atol: float) -> Instrument:
    # through an iterator, the total's Kraus stack is freed before the members are built
    return MeasurementModel._readout(Instrument, (outcomes,), iter([_joined(interaction.ops)]), probe, atol)


def _reduced_readout(interaction: Instrument, dim_probe: int, atol: float) -> Instrument:
    stacks = [op.kraus_stack for op in interaction.ops]
    return MeasurementModel._readout(Instrument, (interaction.outcomes,), stacks, _identity(dim_probe)[None], atol)


def _pointer_grid(interaction: Instrument, probe: np.ndarray) -> np.ndarray:
    """The grid ``(..., n_x, m, db, db)`` of duals of ``I ⊗ P_y``, unvalidated;
    the lifted effects are one broadcast product."""
    return _given_grid(interaction, kron(_identity(interaction.dim_in), probe))


# The closed forms of a Kraus-separable channel, from its factor stack
# ``(..., n, d, d)`` and probe-state stack ``(..., n, dp, dp)``; the class
# wraps them, and leading axes are a batch.


def _lifted_kraus(factors: np.ndarray, states: np.ndarray, atol: float) -> np.ndarray:
    """The Kraus stack ``(..., n * dp, d * dp, d)`` of ``L_{ik} =
    sqrt(p_ik) (K_i ⊗ |v_ik>)`` over the spectral decompositions of the probe
    states (one batched decomposition, ``p`` clipped), under the rule of
    ``_without_zero_operators``."""
    pvals, pvecs = clipped_eigh(states, atol, "state")
    lifted = np.sqrt(pvals)[..., None, None] * kron(factors[..., None, :, :], pvecs.mT[..., None])
    return _without_zero_operators(lifted.reshape(lifted.shape[:-4] + (-1,) + lifted.shape[-2:]))


def _dual_on_product(factors: np.ndarray, states: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_i tr(rho_i b) K_i† a K_i``, unvalidated."""
    w = np.trace(states @ b[..., None, :, :], axis1=-2, axis2=-1).real
    return (w[..., None, None] * (factors.conj().mT @ a[..., None, :, :] @ factors)).sum(axis=-3)


def _outcome_weights(states: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """``w[..., i, y] = tr(rho_i P_y)`` for states ``(..., n, dp, dp)`` and a
    probe stack ``(..., m, dp, dp)``."""
    products = states[..., :, None, :, :] @ probe[..., None, :, :, :]
    return np.trace(products, axis1=-2, axis2=-1).real


def _separable_instrument(outcomes, factors: np.ndarray, w: np.ndarray, atol: float) -> Instrument:
    """Outcome ``y`` acts as ``rho -> sum_i w[i, y] K_i rho K_i†`` (negative
    rounding noise in ``w`` clipped)."""
    weights = np.sqrt(np.clip(w, 0.0, None))
    stacks = [weights[..., y, None, None] * factors for y in range(w.shape[-1])]
    return Instrument._from_kraus(outcomes, stacks, atol)


def _pure_probe_states(vecs: np.ndarray, atol: float) -> np.ndarray:
    """``|psi_i><psi_i|`` for unit vectors ``(..., n, dp)``, unvalidated."""
    _require_ones(np.linalg.norm(vecs, axis=-1), atol, "KrausSeparableChannel", "unit probe vectors", "norm")
    return vecs[..., :, None] * vecs.conj()[..., None, :]


def _grams(factors: np.ndarray) -> np.ndarray:
    """The effects ``K_i†K_i``, unvalidated."""
    return factors.conj().mT @ factors


@dataclass(frozen=True, eq=False)
class KrausSeparableChannel:
    """Channel into base ⊗ probe of the form
    ``rho -> sum_i (K_i rho K_i† ⊗ rho_i)`` with ``sum K_i†K_i = I``.

    ``factors`` act on the base space; ``probe_states`` live on the probe.
    Each family is held as one read-only stack, validated once (the states by
    ``_state_family``); the two attributes hold read-only views of its rows.
    """

    factors: tuple[np.ndarray, ...]
    probe_states: tuple[State, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        ks = [as_complex_matrix(k) for k in self.factors]
        if not ks:
            raise InvariantViolation("KrausSeparableChannel", "nonempty factor list")
        if len({k.shape for k in ks}) != 1 or ks[0].shape[0] != ks[0].shape[1]:
            raise InvariantViolation("KrausSeparableChannel", "square factors of equal dimension")
        factors = frozen_copy(np.stack(ks))
        states = _state_family("KrausSeparableChannel", self.probe_states, len(ks), atol)
        _require_trace_preserving(_grams(factors).sum(axis=0), atol, "KrausSeparableChannel", "normalization")
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_states", states)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "probe_states", tuple(map(State._view, states)))

    @property
    def dim_base(self) -> int:
        return self._factors.shape[-1]

    @property
    def dim_probe(self) -> int:
        return self._states.shape[-1]

    @classmethod
    def simple(
        cls,
        operators: Sequence[np.ndarray],
        probe_vectors: Sequence[Sequence[complex]],
        atol: float = DEFAULT_ATOL,
    ) -> "KrausSeparableChannel":
        """Separable channel from lifted Kraus operators ``phi -> A_i phi ⊗ psi_i``.

        Requires ``sum A_i†A_i = I`` and unit vectors ``psi_i``; the probe
        states come out pure, ``rho_i = |psi_i><psi_i|``.
        """
        ops = [as_complex_matrix(a) for a in operators]
        vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in probe_vectors]
        if len(ops) != len(vecs):
            raise InvariantViolation("KrausSeparableChannel", "one probe vector per operator")
        return cls(tuple(ops), tuple(_pure_probe_states(v, atol) for v in vecs), atol)

    def lifted_kraus(self, atol: float = DEFAULT_ATOL) -> tuple[np.ndarray, ...]:
        """Kraus operators of the total channel on base ⊗ probe.

        Spectral-decomposing each probe state (one batched decomposition of
        all of them) gives ``L_{ik} = sqrt(p_k) (K_i ⊗ |v_k>)``.
        """
        return tuple(_lifted_kraus(self._factors, self._states, atol))

    def total_channel(self, atol: float = DEFAULT_ATOL) -> Channel:
        """The separable channel as a Kraus-form channel into base ⊗ probe."""
        return Channel._checked(_lifted_kraus(self._factors, self._states, atol), atol)

    def dual_on_product(
        self, a: Effect | np.ndarray, b: Effect | np.ndarray, atol: float = DEFAULT_ATOL
    ) -> Effect:
        """Closed form of the total dual on a product effect:
        ``sum_i tr(rho_i b) K_i† a K_i``."""
        image = _dual_on_product(self._factors, self._states, as_complex_matrix(a), as_complex_matrix(b))
        return Effect(image, atol)

    def outcome_weights(self, probe: Observable) -> np.ndarray:
        """Matrix ``w[i, y] = tr(rho_i P_y)``; each row sums to 1."""
        if probe.dim != self.dim_probe:
            raise ValueError("probe observable dimension mismatch")
        return _outcome_weights(self._states, probe.effect_stack)

    def measured_instrument(self, probe: Observable, atol: float = DEFAULT_ATOL) -> Instrument:
        """Closed form of the model's probe-indexed instrument:
        outcome ``y`` acts as ``rho -> sum_i tr(rho_i P_y) K_i rho K_i†``."""
        w = self.outcome_weights(probe)
        return _separable_instrument(probe.outcomes, self._factors, w, atol)

    def pointer_observable(self, probe: Observable, atol: float = DEFAULT_ATOL) -> Observable:
        """Closed form of the model's measured observable:
        ``sum_i tr(rho_i P_y) K_i†K_i`` per probe outcome."""
        w = self.outcome_weights(probe)
        return Observable(probe.outcomes, weighted_sum(w, _grams(self._factors)), atol)

    def base_observable(self, atol: float = DEFAULT_ATOL) -> Observable:
        """The observable ``{K_i†K_i}``; the pointer observable is a
        post-processing of it by the outcome-weight kernel."""
        labels = tuple(f"k{i}" for i in range(len(self._factors)))
        return Observable(labels, _grams(self._factors), atol)

    def model(self, probe: Observable, atol: float = DEFAULT_ATOL) -> MeasurementModel:
        """Wrap the separable channel as a single-outcome measurement model;
        the channel is checked once, as the family's one member."""
        ins = Instrument(("u",), (Channel._unchecked(_lifted_kraus(self._factors, self._states, atol)),), atol)
        return MeasurementModel(self.dim_base, self.dim_probe, ins, probe)


@dataclass(frozen=True, eq=False)
class HolevoSeparableSpec:
    """Measure-and-prepare interaction whose prepared states factor as
    base ⊗ probe products: ``alpha_x = beta_x ⊗ gamma_x``. Each state family
    is one stack validated by ``_state_family``; ``base_states`` and
    ``probe_states`` hold read-only :class:`State` views of its rows."""

    observable: Observable
    base_states: tuple[State, ...]
    probe_states: tuple[State, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        n = self.observable.n_outcomes
        base = _state_family("HolevoSeparableSpec", self.base_states, n, atol)
        probe = _state_family("HolevoSeparableSpec", self.probe_states, n, atol)
        if base.shape[-1] != self.observable.dim:
            raise InvariantViolation(
                "HolevoSeparableSpec", "base dimension", "base states must match the observable"
            )
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_probe", probe)
        object.__setattr__(self, "base_states", tuple(map(State._view, base)))
        object.__setattr__(self, "probe_states", tuple(map(State._view, probe)))

    @property
    def dim_base(self) -> int:
        return self._base.shape[-1]

    @property
    def dim_probe(self) -> int:
        return self._probe.shape[-1]

    def to_holevo(self, atol: float = DEFAULT_ATOL) -> HolevoSpec:
        """The underlying measure-and-prepare data with product states."""
        return HolevoSpec(self.observable, kron(self._base, self._probe), atol)

    def interaction(self, atol: float = DEFAULT_ATOL) -> Instrument:
        return holevo_instrument(self.to_holevo(atol), atol)

    def model(self, probe: Observable, atol: float = DEFAULT_ATOL) -> MeasurementModel:
        return MeasurementModel(self.dim_base, self.dim_probe, self.interaction(atol), probe)


@dataclass(frozen=True, eq=False)
class HolevoModelQuantities:
    """Closed-form bundle for a separable measure-and-prepare model.

    ``outcome_weights[x, y] = tr(gamma_x P_y)`` is row-stochastic; the
    pointer observable is the post-processing of the interaction observable
    by exactly that kernel.
    """

    spec: HolevoSeparableSpec
    probe: Observable
    outcome_weights: np.ndarray
    bi_instrument: BiInstrument
    instrument: Instrument
    reduced_instrument: Instrument
    bi_observable: BiObservable
    pointer_observable: Observable

    def dual_effect(self, label: str, a: Effect | np.ndarray, atol: float = DEFAULT_ATOL) -> Effect:
        """Dual of the interaction operation for one outcome:
        ``a -> tr((beta_x ⊗ gamma_x) a) A_x``."""
        i = self.spec.observable.index(label)
        product = kron(self.spec._base[i], self.spec._probe[i])
        image = _holevo_dual_effects(self.spec.observable.effect_stack[i], product, as_complex_matrix(a))
        return Effect(image, atol)


def _holevo_dual_effects(effects: np.ndarray, products: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``tr((beta_x ⊗ gamma_x) a) A_x`` for effects ``A``, product states
    ``beta ⊗ gamma`` and ``a`` (or broadcasting stacks), unvalidated."""
    return np.trace(products @ a, axis1=-2, axis2=-1).real[..., None, None] * effects


def _holevo_model(outcomes1, outcomes2, a, betas, gammas, probe, atol: float) -> tuple:
    """The closed forms of :func:`holevo_model_quantities` from stacks: the
    effects ``a``, base states ``betas`` and probe states ``gammas`` of the
    spec and the probe stack (leading axes: a batch). Returns the outcome
    weights, the bi-instrument and the reduced instrument, and the
    bi-observable grid and pointer effects unvalidated; the probe-indexed
    instrument is the bi-instrument's ``marginal2``, which the caller makes
    when it needs it."""
    w = _outcome_weights(gammas, probe)
    # One decomposition of A and beta for two families: grid entries (x, y)
    # with effect w[x, y] A_x and state beta_x, then reduced entries x.
    n1, n2 = w.shape[-2:]
    rows = np.concatenate([np.repeat(np.arange(n1), n2), np.arange(n1)])
    coeffs = np.concatenate([w.reshape(w.shape[:-2] + (-1,)), np.ones(w.shape[:-2] + (n1,))], axis=-1)
    stacks = _holevo_family(a, betas, rows, rows, coeffs, atol)
    bi_ins = BiInstrument._from_kraus(outcomes1, outcomes2, stacks[: n1 * n2], atol)
    reduced = Instrument._from_kraus(outcomes1, stacks[n1 * n2 :], atol)
    grid = w[..., None, None] * a[..., :, None, :, :]
    return w, bi_ins, reduced, grid, weighted_sum(w, a)


def holevo_model_quantities(
    spec: HolevoSeparableSpec, probe: Observable, atol: float = DEFAULT_ATOL
) -> HolevoModelQuantities:
    """All closed-form quantities of a separable measure-and-prepare model.

    For weights ``w[x, y] = tr(gamma_x P_y)``:

    * the joint grid entry ``(x, y)`` acts as ``rho -> tr(rho A_x) w[x, y] beta_x``;
    * the probe-indexed instrument sums that grid over ``x``;
    * the reduced instrument is the measure-and-prepare instrument of
      ``(A, beta)``;
    * the joint observable entry is ``w[x, y] A_x`` and the pointer
      observable is ``sum_x w[x, y] A_x``.
    """
    if probe.dim != spec.dim_probe:
        raise ValueError("probe observable dimension mismatch")
    a_obs = spec.observable
    w, bi_ins, reduced, grid, pointer = _holevo_model(
        a_obs.outcomes, probe.outcomes, a_obs.effect_stack, spec._base, spec._probe, probe.effect_stack, atol
    )
    return HolevoModelQuantities(
        spec=spec,
        probe=probe,
        outcome_weights=w,
        bi_instrument=bi_ins,
        instrument=bi_ins.marginal2(atol),
        reduced_instrument=reduced,
        bi_observable=BiObservable(a_obs.outcomes, probe.outcomes, grid, atol),
        pointer_observable=Observable(probe.outcomes, pointer, atol),
    )
