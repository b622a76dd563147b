"""Measurement models and their separable fast paths.

A measurement model couples a base system to a probe through an interaction
instrument into the tensor product (base left, probe right), then reads a
probe observable. Everything measurable about the model is extracted by
partial trace over the probe factor.

The generic extraction stays in Kraus form. Each probe effect is factored
as ``P = B B†`` (one batched eigendecomposition of the probe stack), and
``tr_probe[X (I ⊗ P)] = sum_j (I ⊗ b_j†) X (I ⊗ b_j)`` over the columns
``b_j`` of ``B``, so an interaction Kraus operator ``K`` yields the readout
Kraus operators ``(I ⊗ b_j†) K``. They come from one contraction of the
interaction's Kraus stack, read as ``(n, db, dp, db)`` for base dimension
``db`` and probe dimension ``dp``, at O(n·db²·dp²) per probe effect; no
superoperator is built.

The Kraus-separable and Holevo-separable classes provide closed-form
shortcuts as *separate* code paths; their agreement with the generic
pipeline is a test target, not an internal substitution.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .channels import Channel
from .effects import BiObservable, Effect, Observable, State
from .errors import InvariantViolation
from .instruments import BiInstrument, HolevoSpec, Instrument, _holevo_family, holevo_instrument
from .linalg import (
    DEFAULT_ATOL,
    _identity,
    as_complex_matrix,
    clipped_eigh,
    frozen_copy,
    kron,
    max_abs_diff,
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

    def _probe_factors(self, atol: float) -> np.ndarray:
        """A stack of ``B_y`` with ``P_y = B_y B_y†`` for the probe effects:
        the eigenvectors scaled by the square roots of the clipped eigenvalues."""
        evals, evecs = clipped_eigh(self.probe.effect_stack, atol, "effect")
        return evecs * np.sqrt(evals)[:, None, :]

    def _readout(self, stacks: Sequence[np.ndarray], factors: np.ndarray) -> list[np.ndarray]:
        """Kraus stacks of the operations ``rho -> tr_probe[K(rho) (I ⊗ B B†)]``
        for every Kraus stack ``K`` of ``stacks`` (maps into base ⊗ probe)
        and every ``B`` of the stack ``factors``, ``K``-major.

        A Kraus operator ``K[a, w, b]``, with output index ``(a, w)`` of
        base ⊗ probe, gives ``sum_w conj(B[w, j]) K[a, w, b]`` for each
        column ``j`` of ``B``: one contraction of all the stacks at once.
        """
        db, dp = self.dim_base, self.dim_probe
        sizes = [len(k) for k in stacks]
        kraus = np.concatenate(stacks).reshape(-1, db, dp, db)
        out = np.einsum("ywj,nawb->ynjab", factors.conj(), kraus)
        return [
            out[y, end - size : end].reshape(-1, db, db)
            for size, end in zip(sizes, accumulate(sizes))
            for y in range(len(factors))
        ]

    def measured_bi_instrument(self, atol: float = DEFAULT_ATOL) -> BiInstrument:
        """Joint outcome grid: interact, project on a probe effect, trace out
        the probe. Entry ``(x, y)`` maps ``rho`` to
        ``tr_probe[I_x(rho) (I ⊗ P_y)]``."""
        stacks = [op.kraus_stack for op in self.interaction.ops]
        readout = self._readout(stacks, self._probe_factors(atol))
        return BiInstrument._from_kraus(self.interaction.outcomes, self.probe.outcomes, readout, atol)

    def measured_instrument(self, atol: float = DEFAULT_ATOL) -> Instrument:
        """The probe-indexed instrument the model realizes on the base space
        (the second marginal of the measured bi-instrument)."""
        total = np.concatenate([op.kraus_stack for op in self.interaction.ops])
        readout = self._readout([total], self._probe_factors(atol))
        return Instrument._from_kraus(self.probe.outcomes, readout, atol)

    def reduced_instrument(self, atol: float = DEFAULT_ATOL) -> Instrument:
        """The interaction reduced to the base space (first marginal);
        independent of the probe observable."""
        stacks = [op.kraus_stack for op in self.interaction.ops]
        readout = self._readout(stacks, _identity(self.dim_probe)[None])
        return Instrument._from_kraus(self.interaction.outcomes, readout, atol)

    def measured_bi_observable(self, atol: float = DEFAULT_ATOL) -> BiObservable:
        """Joint observable of interaction outcome and probe outcome: entry
        ``(x, y)`` is the dual of the ``x``-operation at ``I ⊗ P_y``."""
        eye = np.eye(self.dim_base)
        lifted = np.stack([kron(eye, p) for p in self.probe.effect_stack])
        grid = np.stack([op._dual_images(lifted) for op in self.interaction.ops])
        return BiObservable(self.interaction.outcomes, self.probe.outcomes, grid, atol)

    def measured_pointer_observable(self, atol: float = DEFAULT_ATOL) -> Observable:
        """The probe-indexed observable the model measures on the base space
        (second marginal of the measured bi-observable)."""
        return self.measured_bi_observable(atol).marginal2(atol)


def _real_overlap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trace(a @ b).real)


@dataclass(frozen=True, eq=False)
class KrausSeparableChannel:
    """Channel into base ⊗ probe of the form
    ``rho -> sum_i (K_i rho K_i† ⊗ rho_i)`` with ``sum K_i†K_i = I``.

    ``factors`` act on the base space; ``probe_states`` live on the probe.
    """

    factors: tuple[np.ndarray, ...]
    probe_states: tuple[State, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        ks = tuple(as_complex_matrix(k) for k in self.factors)
        states = tuple(s if isinstance(s, State) else State(s, atol) for s in self.probe_states)
        if not ks or len(ks) != len(states):
            raise InvariantViolation("KrausSeparableChannel", "one probe state per factor")
        if len({k.shape for k in ks}) != 1 or ks[0].shape[0] != ks[0].shape[1]:
            raise InvariantViolation("KrausSeparableChannel", "square factors of equal dimension")
        if len({s.dim for s in states}) != 1:
            raise InvariantViolation("KrausSeparableChannel", "uniform probe dimension")
        gram = sum(k.conj().T @ k for k in ks)
        if max_abs_diff(gram, _identity(ks[0].shape[0])) > atol:
            raise InvariantViolation("KrausSeparableChannel", "normalization", "sum K†K must equal I")
        object.__setattr__(self, "factors", tuple(frozen_copy(k) for k in ks))
        object.__setattr__(self, "probe_states", states)

    @property
    def dim_base(self) -> int:
        return self.factors[0].shape[0]

    @property
    def dim_probe(self) -> int:
        return self.probe_states[0].dim

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
        for v in vecs:
            if abs(np.linalg.norm(v) - 1.0) > atol:
                raise InvariantViolation("KrausSeparableChannel", "unit probe vectors")
        states = tuple(State(np.outer(v, v.conj()), atol) for v in vecs)
        return cls(tuple(ops), states, atol)

    def lifted_kraus(self, atol: float = DEFAULT_ATOL) -> tuple[np.ndarray, ...]:
        """Kraus operators of the total channel on base ⊗ probe.

        Spectral-decomposing each probe state (one batched decomposition of
        all of them) gives ``L_{ik} = sqrt(p_k) (K_i ⊗ |v_k>)``.
        """
        states = np.stack([s.matrix for s in self.probe_states])
        all_pvals, all_pvecs = clipped_eigh(states, atol, "state")
        out = []
        for k, pvals, pvecs in zip(self.factors, all_pvals, all_pvecs):
            for j, p in enumerate(pvals):
                if p > 0.0:
                    out.append(np.sqrt(p) * kron(k, pvecs[:, j].reshape(-1, 1)))
        return tuple(out)

    def total_channel(self, atol: float = DEFAULT_ATOL) -> Channel:
        """The separable channel as a Kraus-form channel into base ⊗ probe."""
        return Channel(self.lifted_kraus(atol), atol)

    def dual_on_product(
        self, a: Effect | np.ndarray, b: Effect | np.ndarray, atol: float = DEFAULT_ATOL
    ) -> Effect:
        """Closed form of the total dual on a product effect:
        ``sum_i tr(rho_i b) K_i† a K_i``."""
        am = as_complex_matrix(a)
        bm = as_complex_matrix(b)
        total = np.zeros((self.dim_base, self.dim_base), dtype=complex)
        for k, s in zip(self.factors, self.probe_states):
            total += _real_overlap(s.matrix, bm) * (k.conj().T @ am @ k)
        return Effect(total, atol)

    def outcome_weights(self, probe: Observable) -> np.ndarray:
        """Matrix ``w[i, y] = tr(rho_i P_y)``; each row sums to 1."""
        if probe.dim != self.dim_probe:
            raise ValueError("probe observable dimension mismatch")
        return np.array(
            [[_real_overlap(s.matrix, p.matrix) for p in probe.effects] for s in self.probe_states]
        )

    def measured_instrument(self, probe: Observable, atol: float = DEFAULT_ATOL) -> Instrument:
        """Closed form of the model's probe-indexed instrument:
        outcome ``y`` acts as ``rho -> sum_i tr(rho_i P_y) K_i rho K_i†``."""
        w = np.clip(self.outcome_weights(probe), 0.0, None)
        stacks = np.sqrt(w.T)[:, :, None, None] * np.stack(self.factors)
        return Instrument._from_kraus(probe.outcomes, stacks, atol)

    def pointer_observable(self, probe: Observable, atol: float = DEFAULT_ATOL) -> Observable:
        """Closed form of the model's measured observable:
        ``sum_i tr(rho_i P_y) K_i†K_i`` per probe outcome."""
        w = self.outcome_weights(probe)
        grams = np.stack([k.conj().T @ k for k in self.factors])
        return Observable(probe.outcomes, weighted_sum(w, grams), atol)

    def base_observable(self, atol: float = DEFAULT_ATOL) -> Observable:
        """The observable ``{K_i†K_i}``; the pointer observable is a
        post-processing of it by the outcome-weight kernel."""
        labels = tuple(f"k{i}" for i in range(len(self.factors)))
        return Observable(labels, tuple(k.conj().T @ k for k in self.factors), atol)

    def model(self, probe: Observable, atol: float = DEFAULT_ATOL) -> MeasurementModel:
        """Wrap the separable channel as a single-outcome measurement model."""
        ins = Instrument(("u",), (self.total_channel(atol),), atol)
        return MeasurementModel(self.dim_base, self.dim_probe, ins, probe)


@dataclass(frozen=True, eq=False)
class HolevoSeparableSpec:
    """Measure-and-prepare interaction whose prepared states factor as
    base ⊗ probe products: ``alpha_x = beta_x ⊗ gamma_x``."""

    observable: Observable
    base_states: tuple[State, ...]
    probe_states: tuple[State, ...]
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        base = tuple(s if isinstance(s, State) else State(s, atol) for s in self.base_states)
        probe = tuple(s if isinstance(s, State) else State(s, atol) for s in self.probe_states)
        n = self.observable.n_outcomes
        if len(base) != n or len(probe) != n:
            raise InvariantViolation("HolevoSeparableSpec", "one state pair per outcome")
        if len({s.dim for s in base}) != 1 or len({s.dim for s in probe}) != 1:
            raise InvariantViolation("HolevoSeparableSpec", "uniform state dimensions")
        if base[0].dim != self.observable.dim:
            raise InvariantViolation(
                "HolevoSeparableSpec", "base dimension", "base states must match the observable"
            )
        object.__setattr__(self, "base_states", base)
        object.__setattr__(self, "probe_states", probe)

    @property
    def dim_base(self) -> int:
        return self.base_states[0].dim

    @property
    def dim_probe(self) -> int:
        return self.probe_states[0].dim

    def to_holevo(self, atol: float = DEFAULT_ATOL) -> HolevoSpec:
        """The underlying measure-and-prepare data with product states."""
        states = tuple(
            State(kron(b.matrix, g.matrix), atol)
            for b, g in zip(self.base_states, self.probe_states)
        )
        return HolevoSpec(self.observable, states, atol)

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
        product = kron(self.spec.base_states[i].matrix, self.spec.probe_states[i].matrix)
        coeff = _real_overlap(product, as_complex_matrix(a))
        return Effect(coeff * self.spec.observable.effects[i].matrix, atol)


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
    a = a_obs.effect_stack
    w = np.array(
        [[_real_overlap(g.matrix, p.matrix) for p in probe.effects] for g in spec.probe_states]
    )
    # One decomposition of A and beta for two families: grid entries (x, y)
    # with effect w[x, y] A_x and state beta_x, then reduced entries x.
    n1, n2 = a_obs.n_outcomes, probe.n_outcomes
    rows = np.concatenate([np.repeat(np.arange(n1), n2), np.arange(n1)])
    coeffs = np.concatenate([w.reshape(-1), np.ones(n1)])
    betas = np.stack([b.matrix for b in spec.base_states])
    stacks = _holevo_family(a, betas, rows, rows, coeffs, atol)
    bi_ins = BiInstrument._from_kraus(a_obs.outcomes, probe.outcomes, stacks[: n1 * n2], atol)
    pointer_ins = bi_ins.marginal2(atol)
    reduced = Instrument._from_kraus(a_obs.outcomes, stacks[n1 * n2 :], atol)
    bi_obs = BiObservable(a_obs.outcomes, probe.outcomes, w[:, :, None, None] * a[:, None], atol)
    pointer_obs = Observable(probe.outcomes, weighted_sum(w, a), atol)
    return HolevoModelQuantities(
        spec=spec,
        probe=probe,
        outcome_weights=w,
        bi_instrument=bi_ins,
        instrument=pointer_ins,
        reduced_instrument=reduced,
        bi_observable=bi_obs,
        pointer_observable=pointer_obs,
    )
