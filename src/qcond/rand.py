"""Seeded random generators for states, effects, observables, channels and
instruments.

All generators accept either an integer seed or a ``numpy.random.Generator``
and are deterministic given the seed. The generator family is PCG64 (numpy's
default): 64-bit seedable, with independent per-instance streams derived by
seeding from integer tuples.

Each public constructor draws through a raw ``_draw_*`` function, which
takes a sequence of generators and returns the unvalidated arrays of one
object per generator, stacked on a leading axis. The stream contract: from
each generator a ``_draw_*`` function consumes exactly what the matching
public constructor consumes from it (all the Gaussian entries of one object
come from one ``standard_normal((n, 2, rows, cols))`` call, real parts
before imaginary parts, matrix by matrix), and each generator's arrays equal
the constructor's whatever the other generators are. The seeded identity
checks draw a batch of trials this way, one generator per trial, and
validate the stacks with the constructors' rules.

A random channel is the Q factor of the QR decomposition of one Ginibre
draw: the Householder factor has orthonormal columns for every draw, so
channels are never redrawn. A random observable whitens its draws by the
inverse square root of their sum, and a generator whose sum is singular
within ``atol`` draws again (at most ``_RETRIES`` times, then
``RuntimeError``), alone: the other generators' draws stand.

The generators of a batch of seed tuples ``(*prefix, t)``, one per ``t`` in
a range below ``2**32`` (so each ``t`` is one word), are made in two steps.
``_trial_states`` hashes the tuples' entropy words (``SeedSequence``'s: each
int as little-endian 32-bit words) as one uint32 array, with numpy's
``SeedSequence`` algorithm written over its rows (stable under NEP 19),
into one PCG64 seed state per tuple. ``_generators`` seeds one PCG64
``Generator`` from each state. Each generator's state equals
``default_rng(seed tuple)``'s, and a state can seed any number of fresh
generators without a second hash.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channels import Channel
from .effects import Effect, Observable, OutcomeMap, State, StochasticMatrix, _distinct_labels
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


# numpy's SeedSequence: a pool of 4 uint32 words, and its hash constants
_MASK32 = 0xFFFFFFFF
_TRIAL_LIMIT = 1 << 32  # a trial index is one entropy word
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` values of a hash constant, ``init · multᵏ``
    mod 2³², as a uint32 column. Computed with Python ints: numpy warns when
    a uint32 scalar product overflows."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


# the constants of the pool's first fill and its pairwise mixing (16 hashes),
# and of generate_state(4, uint64) (8 hashes); they do not depend on the words
_POOL_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2)
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)
_STATE_CYCLE = np.arange(8) % _POOL_SIZE


def _hashed(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of the ``k`` rows of ``values`` by ``k``
    successive steps of a hash constant (``k + 1`` values)."""
    values = (values ^ constants[:-1]) * constants[1:]
    values ^= values >> _XSHIFT
    return values


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_MULT_L
    x -= y * _MIX_MULT_R
    x ^= x >> _XSHIFT
    return x


def _seed_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of an
    ``(n, L)`` uint32 array of entropy words, ``L >= 4``, as an ``(n, 4)``
    uint64 array: numpy's algorithm, in uint32 array arithmetic over the
    rows."""
    words = words.T
    pool = _hashed(words[:_POOL_SIZE], _POOL_CONSTANTS[: _POOL_SIZE + 1])
    # each word hashed into every other one, in order: the hashes of one
    # source word take successive constants
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        first = _POOL_SIZE + src * len(dst)
        constants = _POOL_CONSTANTS[first : first + len(dst) + 1]
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], constants))
    # each word past the pool's size is hashed into all of it
    extra = len(words) - _POOL_SIZE
    constants = _hash_constants(int(_POOL_CONSTANTS[-1, 0]), _MULT_A, _POOL_SIZE * extra)
    for i in range(extra):
        step = constants[i * _POOL_SIZE : (i + 1) * _POOL_SIZE + 1]
        pool = _mixed(pool, _hashed(words[_POOL_SIZE + i], step))
    # 8 uint32 words, paired little-endian into 4 uint64 words
    out = _hashed(pool[_STATE_CYCLE], _STATE_CONSTANTS).astype(np.uint64)
    return (out[0::2] | out[1::2] << 32).T


def _int_words(x: int) -> list[int]:
    """The entropy words SeedSequence makes of a non-negative int: its
    little-endian 32-bit words, 0 as one zero word."""
    if x < 0:
        raise ValueError(f"seed entries must be non-negative, got {x}")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _trial_states(prefix: Sequence[int], trials: range) -> np.ndarray:
    """The PCG64 seed state of ``default_rng((*prefix, t))`` for each ``t``
    in ``trials`` (a nonempty range of step 1 inside ``[0, _TRIAL_LIMIT)``),
    as an ``(len(trials), 4)`` uint64 array: the rows share the prefix's
    words, end in their trial's one word, and are hashed as one array."""
    if trials.start < 0 or trials.stop > _TRIAL_LIMIT:
        raise ValueError(f"trial indices must lie in [0, 2**32), got {trials}")
    head = [w for x in prefix for w in _int_words(x)]
    words = np.full((len(trials), len(head) + 1), head + [0], dtype=np.uint32)
    words[:, -1] = np.arange(trials.start, trials.stop, dtype=np.uint32)
    return _seed_states(words)


class _SeedState(ISeedSequence):
    """A seed sequence that holds one precomputed PCG64 seed state. PCG64
    reads the array ``generate_state(4, np.uint64)`` returns through its data
    pointer, unchecked, so that is the one request it answers, always with
    the row ``_generators`` gives it: a C-contiguous native uint64 array of
    shape ``(4,)``."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("this seed sequence holds only the state generate_state(4, np.uint64)")
        return self._state


def _generators(states: np.ndarray) -> list[np.random.Generator]:
    """One fresh PCG64 generator per row of an ``(n, 4)`` uint64 array of
    seed states (``_trial_states``)."""
    states = np.ascontiguousarray(states, dtype=np.uint64)
    if states.ndim != 2 or states.shape[1] != 4:
        raise ValueError(f"PCG64 seed states have shape (n, 4), got {states.shape}")
    return [np.random.Generator(np.random.PCG64(_SeedState(s))) for s in states]


def _draw_ginibre(rngs: Sequence[np.random.Generator], n: int, rows: int, cols: int) -> np.ndarray:
    """``n`` Ginibre matrices per generator, as one ``(len(rngs), n, rows, cols)`` stack."""
    z = np.empty((len(rngs), n, 2, rows, cols))
    for out, rng in zip(z, rngs):
        rng.standard_normal(out=out)
    return z[:, :, 0] + 1j * z[:, :, 1]


def _draw_states(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    g = _draw_ginibre(rngs, 1, dim, dim)[:, 0]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def _draw_effects(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    g = _draw_ginibre(rngs, 1, dim, dim)[:, 0]
    u = np.array([rng.uniform(0.0, 1.0) for rng in rngs])
    pos = g @ g.conj().swapaxes(-1, -2)
    return (u / np.linalg.eigvalsh(pos).max(axis=-1))[:, None, None] * pos


def _draw_observables(
    rngs: Sequence[np.random.Generator], dim: int, n_outcomes: int, atol: float = DEFAULT_ATOL
) -> np.ndarray:
    if n_outcomes < 1:
        raise ValueError("need at least one outcome")

    def draw(rngs):
        g = _draw_ginibre(rngs, n_outcomes, dim, dim)
        gs = g @ g.conj().swapaxes(-1, -2)
        return (gs, *np.linalg.eigh(gs.sum(axis=1)))

    gs, evals, evecs = draw(rngs)
    pending = np.flatnonzero(~(evals.min(axis=-1) > atol))
    for _ in range(_RETRIES):
        if not len(pending):
            break
        gs[pending], evals[pending], evecs[pending] = draw([rngs[i] for i in pending])
        pending = pending[~(evals[pending].min(axis=-1) > atol)]
    if len(pending):
        raise RuntimeError("random observable generation kept hitting a singular normalizer")
    inv_sqrt = evecs @ (np.eye(dim) * evals[:, None, :] ** -0.5) @ evecs.conj().swapaxes(-1, -2)
    return inv_sqrt[:, None] @ gs @ inv_sqrt[:, None]


def _draw_channels(
    rngs: Sequence[np.random.Generator], dim_in: int, dim_out: int, n_kraus: int
) -> np.ndarray:
    if n_kraus * dim_out < dim_in:
        raise ValueError("need n_kraus * dim_out >= dim_in for a trace-preserving map")
    g = _draw_ginibre(rngs, 1, n_kraus * dim_out, dim_in)[:, 0]
    # the Householder Q factor has orthonormal columns whatever the rank of g
    return np.linalg.qr(g).Q.reshape(len(rngs), n_kraus, dim_out, dim_in)


def _draw_instruments(
    rngs: Sequence[np.random.Generator], dim_in: int, dim_out: int, n_outcomes: int, n_kraus: int = 1
) -> list[np.ndarray]:
    """One Kraus stack ``(len(rngs), n_kraus, dim_out, dim_in)`` per outcome:
    a random channel's operators, partitioned evenly."""
    kraus = _draw_channels(rngs, dim_in, dim_out, n_outcomes * n_kraus)
    return list(kraus.reshape(len(rngs), n_outcomes, n_kraus, dim_out, dim_in).swapaxes(0, 1))


def _draw_stochastic(rngs: Sequence[np.random.Generator], n_sources: int, n_targets: int) -> np.ndarray:
    return np.stack([rng.dirichlet(np.ones(n_targets), size=n_sources) for rng in rngs])


def _draw_surjections(rngs: Sequence[np.random.Generator], n_sources: int, n_targets: int) -> np.ndarray:
    """Target positions ``(len(rngs), n_sources)`` of uniform random surjections."""
    if n_sources < n_targets:
        raise ValueError("a surjection needs at least as many sources as targets")
    out = []
    for rng in rngs:
        while True:
            picks = rng.integers(0, n_targets, size=n_sources)
            if set(picks.tolist()) == set(range(n_targets)):
                out.append(picks)
                break
    return np.stack(out)


def random_state(dim: int, seed: int | np.random.Generator) -> State:
    """Ginibre-ensemble density operator: ``G G† / tr(G G†)``."""
    return State(_draw_states([as_rng(seed)], dim)[0])


def random_pure_state(dim: int, seed: int | np.random.Generator) -> State:
    return State.pure(_draw_ginibre([as_rng(seed)], 1, dim, 1).reshape(-1))


def random_effect(dim: int, seed: int | np.random.Generator) -> Effect:
    """Random effect: a Ginibre PSD matrix scaled into ``[0, I]``."""
    return Effect(_draw_effects([as_rng(seed)], dim)[0])


def random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a Ginibre matrix with phase fixing."""
    q, r = np.linalg.qr(_draw_ginibre([as_rng(seed)], 1, dim, dim)[0, 0])
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_observable(
    dim: int, n_outcomes: int, seed: int | np.random.Generator, atol: float = DEFAULT_ATOL
) -> Observable:
    """Random POVM: draw PSD ``G_x`` and whiten by the inverse square root
    of their sum, ``A_x = S^{-1/2} G_x S^{-1/2}``."""
    effects = _draw_observables([as_rng(seed)], dim, n_outcomes, atol)[0]
    return Observable(tuple(f"x{i}" for i in range(n_outcomes)), effects, atol)


def random_channel(
    dim_in: int,
    dim_out: int,
    n_kraus: int,
    seed: int | np.random.Generator,
    atol: float = DEFAULT_ATOL,
) -> Channel:
    """Random channel: orthonormalize a stacked Ginibre matrix and slice it
    into ``n_kraus`` blocks of shape ``dim_out × dim_in``."""
    return Channel._checked(_draw_channels([as_rng(seed)], dim_in, dim_out, n_kraus)[0], atol)


def random_instrument(
    dim_in: int,
    dim_out: int,
    n_outcomes: int,
    seed: int | np.random.Generator,
    kraus_per_outcome: int = 1,
    atol: float = DEFAULT_ATOL,
) -> Instrument:
    """Random instrument: a random channel with ``n_outcomes * kraus_per_outcome``
    Kraus operators, partitioned evenly into the outcome operations (checked
    once, as a family)."""
    stacks = _draw_instruments([as_rng(seed)], dim_in, dim_out, n_outcomes, kraus_per_outcome)
    return Instrument._from_kraus(tuple(f"x{i}" for i in range(n_outcomes)), [s[0] for s in stacks], atol)


def random_holevo_spec(
    dim_in: int,
    dim_out: int,
    n_outcomes: int,
    seed: int | np.random.Generator,
    atol: float = DEFAULT_ATOL,
) -> HolevoSpec:
    """Random measure-and-prepare data: a random observable and one random
    state per outcome, checked once, as a family."""
    rng = as_rng(seed)
    obs = random_observable(dim_in, n_outcomes, rng, atol)
    states = [_draw_states([rng], dim_out)[0] for _ in range(n_outcomes)]
    return HolevoSpec(obs, states, atol)


def random_stochastic_matrix(
    sources: Sequence[str], targets: Sequence[str], seed: int | np.random.Generator
) -> StochasticMatrix:
    """Row-stochastic kernel with Dirichlet-uniform rows."""
    w = _draw_stochastic([as_rng(seed)], len(sources), len(targets))[0]
    return StochasticMatrix(tuple(sources), tuple(targets), w)


def random_surjection(
    sources: Sequence[str], targets: Sequence[str], seed: int | np.random.Generator
) -> OutcomeMap:
    """Uniform random surjection from distinct sources onto targets."""
    sources = tuple(sources)
    _distinct_labels(sources, "OutcomeMap")
    targets = tuple(targets)
    picks = _draw_surjections([as_rng(seed)], len(sources), len(targets))[0]
    return OutcomeMap({s: targets[p] for s, p in zip(sources, picks)}, targets)
