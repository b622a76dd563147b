"""Seeded random generators for states, effects, observables, channels and
instruments.

All generators accept either an integer seed or a ``numpy.random.Generator``
and are deterministic given the seed. The generator family is PCG64 (numpy's
default): 64-bit seedable, with independent per-instance streams derived by
seeding from integer tuples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channels import Channel
from .effects import Effect, Observable, OutcomeMap, State, StochasticMatrix
from .instruments import HolevoSpec, Instrument
from .linalg import DEFAULT_ATOL

__all__ = [
    "as_rng",
    "random_state",
    "random_pure_state",
    "random_effect",
    "random_unitary",
    "random_observable",
    "random_channel",
    "random_instrument",
    "random_holevo_spec",
    "random_stochastic_matrix",
    "random_surjection",
]

_RETRIES = 3


def as_rng(seed: int | Sequence[int] | np.random.Generator) -> np.random.Generator:
    """Coerce a seed (or pass through a generator)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_state(dim: int, seed: int | np.random.Generator) -> State:
    """Ginibre-ensemble density operator: ``G G† / tr(G G†)``."""
    rng = as_rng(seed)
    g = _ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    return State(rho / np.trace(rho).real)


def random_pure_state(dim: int, seed: int | np.random.Generator) -> State:
    rng = as_rng(seed)
    v = _ginibre(rng, dim, 1).reshape(-1)
    return State.pure(v)


def random_effect(dim: int, seed: int | np.random.Generator) -> Effect:
    """Random effect: a Ginibre PSD matrix scaled into ``[0, I]``."""
    rng = as_rng(seed)
    g = _ginibre(rng, dim, dim)
    pos = g @ g.conj().T
    top = float(np.linalg.eigvalsh(pos).max())
    scale = rng.uniform(0.0, 1.0) / top
    return Effect(scale * pos)


def random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    rng = as_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_observable(
    dim: int, n_outcomes: int, seed: int | np.random.Generator, atol: float = DEFAULT_ATOL
) -> Observable:
    """Random POVM: draw PSD ``G_x`` and whiten by the inverse square root
    of their sum, ``A_x = S^{-1/2} G_x S^{-1/2}``."""
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")
    rng = as_rng(seed)
    for _ in range(_RETRIES + 1):
        gs = []
        for _ in range(n_outcomes):
            g = _ginibre(rng, dim, dim)
            gs.append(g @ g.conj().T)
        total = sum(gs)
        evals, evecs = np.linalg.eigh(total)
        if float(evals.min()) <= atol:
            continue
        inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.conj().T
        effects = tuple(inv_sqrt @ g @ inv_sqrt for g in gs)
        labels = tuple(f"x{i}" for i in range(n_outcomes))
        return Observable(labels, effects, atol)
    raise RuntimeError("random observable generation kept hitting a singular normalizer")


def random_channel(
    dim_in: int,
    dim_out: int,
    n_kraus: int,
    seed: int | np.random.Generator,
    atol: float = DEFAULT_ATOL,
) -> Channel:
    """Random channel: orthonormalize a stacked Ginibre matrix and slice it
    into ``n_kraus`` blocks of shape ``dim_out × dim_in``."""
    if n_kraus * dim_out < dim_in:
        raise ValueError("need n_kraus * dim_out >= dim_in for a trace-preserving map")
    rng = as_rng(seed)
    for _ in range(_RETRIES + 1):
        stacked = _ginibre(rng, n_kraus * dim_out, dim_in)
        if np.linalg.matrix_rank(stacked) < dim_in:
            continue
        q, _ = np.linalg.qr(stacked)
        kraus = tuple(q[i * dim_out : (i + 1) * dim_out, :] for i in range(n_kraus))
        return Channel(kraus, atol)
    raise RuntimeError("random channel generation kept hitting a rank-deficient stack")


def random_instrument(
    dim_in: int,
    dim_out: int,
    n_outcomes: int,
    seed: int | np.random.Generator,
    kraus_per_outcome: int = 1,
    atol: float = DEFAULT_ATOL,
) -> Instrument:
    """Random instrument: a random channel with ``n_outcomes * kraus_per_outcome``
    Kraus operators, partitioned evenly into the outcome operations."""
    rng = as_rng(seed)
    ch = random_channel(dim_in, dim_out, n_outcomes * kraus_per_outcome, rng, atol)
    stacks = ch.kraus_stack.reshape(n_outcomes, kraus_per_outcome, dim_out, dim_in)
    return Instrument._from_kraus(tuple(f"x{i}" for i in range(n_outcomes)), stacks, atol)


def random_holevo_spec(
    dim_in: int,
    dim_out: int,
    n_outcomes: int,
    seed: int | np.random.Generator,
    atol: float = DEFAULT_ATOL,
) -> HolevoSpec:
    rng = as_rng(seed)
    obs = random_observable(dim_in, n_outcomes, rng, atol)
    states = tuple(random_state(dim_out, rng) for _ in range(n_outcomes))
    return HolevoSpec(obs, states, atol)


def random_stochastic_matrix(
    sources: Sequence[str], targets: Sequence[str], seed: int | np.random.Generator
) -> StochasticMatrix:
    """Row-stochastic kernel with Dirichlet-uniform rows."""
    rng = as_rng(seed)
    w = rng.dirichlet(np.ones(len(targets)), size=len(sources))
    return StochasticMatrix(tuple(sources), tuple(targets), w)


def random_surjection(
    sources: Sequence[str], targets: Sequence[str], seed: int | np.random.Generator
) -> OutcomeMap:
    """Uniform random surjection from sources onto targets."""
    sources = tuple(sources)
    targets = tuple(targets)
    if len(sources) < len(targets):
        raise ValueError("a surjection needs at least as many sources as targets")
    rng = as_rng(seed)
    while True:
        picks = rng.integers(0, len(targets), size=len(sources))
        if set(picks.tolist()) == set(range(len(targets))):
            return OutcomeMap({s: targets[p] for s, p in zip(sources, picks)}, targets)
