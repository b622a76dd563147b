"""Registry of executable identities and the batch check runner.

Every structural identity the library guarantees is registered here once,
under a descriptive name, with a one-line statement and a runner: the
decorator ``@_identity(name, statement)`` on the runner registers it, in
definition order (the order of ``registered_identities()``), and a name
registered twice raises ``ValueError``. A runner
evaluates the identity on a batch of seeded random instances, one generator
per instance, and yields, for each part it compares, an array with one
absolute deviation per instance. ``run_checks`` sweeps the registry over
dimensions and trials, runs the trials of one identity at one dimension as
consecutive batches of ``BATCH_SIZE`` instances, the last one shorter,
folds the yielded deviations once per instance (an instance that raises,
yields a non-finite value or yields nothing fails) and assembles a
deterministic report: identical inputs give byte-identical JSON (elapsed
times are kept out of the JSON for that reason).

Each instance gets a generator whose state equals ``default_rng`` of its
seed tuple ``(seed, crc32(name), dim, trial)``. The trials of a batch are a
range whose bounds are computed one batch at a time (``_batches``), and
``rand._trial_states`` hashes all the batch's tuples at once into one seed
state per instance, from which ``rand._generators`` makes the generators.
A batched runner draws each object of a batch through ``qcond.rand``'s raw
``_draw_*`` functions, from the same stream as the public constructors,
checks each stack with the library's own validators (every member, at the
library's default tolerance, with the constructors' messages) and computes
through the library's own kernels, which broadcast over the batch axis. An
instance's deviations do not depend on its batch: a batch of one gives the
same bits. A batch that raises is rerun instance by instance, on fresh
generators from the states already hashed, so one bad instance fails
alone. Every registered identity runs this way.

Runners compare through two comparators only: ``_dev`` for arrays (each
instance's largest entrywise deviation) and the map deviations
(``map_deviation``, ``instrument_deviation``, ``bi_instrument_deviation``)
for maps.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import zlib
from dataclasses import asdict, dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .channels import (
    Channel,
    _completed,
    _conditioned,
    _superoperator_deviation,
    map_deviation,
)
from .effects import (
    _MIXTURE_RULE,
    _effect_family,
    _indicator,
    _kernel_weights,
    _mixture,
    _require_effects,
    _require_states,
    _require_surjective,
)
from .instruments import (
    Instrument,
    _factored_probability,
    _given_grid,
    _holevo_composed,
    _holevo_instrument,
    bi_instrument_deviation,
    given_instrument,
    instrument_deviation,
)
from .linalg import DEFAULT_ATOL, kron, require_tolerance, weighted_sum
from .measurement import (
    _bi_readout,
    _dual_on_product,
    _grams,
    _holevo_dual_effects,
    _holevo_model,
    _lifted_kraus,
    _outcome_weights,
    _pointer_grid,
    _probe_readout,
    _pure_probe_states,
    _reduced_readout,
    _separable_instrument,
)
from .rand import (
    _TRIAL_LIMIT,
    _draw_channels,
    _draw_effects,
    _draw_ginibre,
    _draw_instruments,
    _draw_observables,
    _draw_states,
    _draw_stochastic,
    _draw_surjections,
    _generators,
    _trial_states,
)

__all__ = [
    "IdentityCheck",
    "IdentityResult",
    "CheckReport",
    "registered_identities",
    "resolve_suite",
    "run_checks",
]

# (one generator per instance of a batch, dimension) -> for each compared
# part, an array with one deviation per instance
Runner = Callable[[Sequence[np.random.Generator], int], Iterator[np.ndarray]]

# Most instances one runner call holds: the memory of a batch is bounded
# whatever the trial count. The trials of one identity at one dimension
# split into consecutive batches of BATCH_SIZE, the last one shorter; the
# canonical 100 trials run as one batch per identity and dimension. The
# largest batches are holevo-separable's and holevo-composition's: under
# tracemalloc, run_checks of one identity at dimension 3 with 100 trials
# peaks at about 5.2 and 3.8 MiB, and measurement-pointer's at 1.4 MiB
# (numpy 2.4).
BATCH_SIZE = 100


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    statement: str
    runner: Runner


@dataclass
class IdentityResult:
    name: str
    statement: str
    dims: list[int]
    instances: int
    max_deviation: float
    tolerance: float
    passed: bool
    elapsed_seconds: float


@dataclass
class CheckReport:
    suite: list[str]
    trials: int
    dims: list[int]
    seed: int
    tolerance: float
    results: list[IdentityResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> str:
        """Machine-readable report; deterministic for identical inputs
        (elapsed times are excluded on purpose)."""
        payload = {
            "suite": self.suite,
            "trials": self.trials,
            "dims": self.dims,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "results": [
                {k: v for k, v in asdict(r).items() if k != "elapsed_seconds"}
                for r in self.results
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        lines = [
            f"suite={','.join(self.suite)} trials={self.trials} "
            f"dims={self.dims} seed={self.seed} tol={self.tolerance:g}",
            f"{'identity':<32} {'instances':>9} {'max deviation':>14} {'time [s]':>9}  result",
        ]
        for r in self.results:
            verdict = "pass" if r.passed else "FAIL"
            lines.append(
                f"{r.name:<32} {r.instances:>9} {r.max_deviation:>14.3e} "
                f"{r.elapsed_seconds:>9.2f}  {verdict}"
            )
        lines.append("all passed" if self.passed else "FAILURES present")
        return "\n".join(lines) + "\n"


_REGISTRY: dict[str, IdentityCheck] = {}


def _identity(name: str, statement: str) -> Callable[[Runner], Runner]:
    """Register the decorated runner as the identity ``name``, stated by
    ``statement``: the registry holds the identities in definition order,
    and a name registered twice raises ``ValueError``."""

    def register(runner: Runner) -> Runner:
        if name in _REGISTRY:
            raise ValueError(f"identity {name!r} is registered twice")
        _REGISTRY[name] = IdentityCheck(name, statement, runner)
        return runner

    return register


def _subsets(labels: Sequence) -> list[tuple]:
    return list(chain.from_iterable(combinations(labels, k) for k in range(len(labels) + 1)))


# The batched runners below evaluate one identity on a batch of instances:
# each draw takes one object per generator, each stack is checked by the
# rule of the object it stands for (through the library's own validators,
# at the library's default tolerance, as the objects would be), and each
# part yields one deviation per instance.


def _dev(a: np.ndarray, b: np.ndarray | float) -> np.ndarray:
    """Each instance's largest entrywise deviation between two stacks (or a
    stack and a scalar): the one array comparator of the runners."""
    diff = np.abs(a - b)
    return diff.reshape(len(diff), -1).max(axis=1)


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def _uniforms(rngs: Sequence[np.random.Generator], low: float, high: float) -> np.ndarray:
    return np.array([rng.uniform(low, high) for rng in rngs])


def _states(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    return _require_states(_draw_states(rngs, dim), DEFAULT_ATOL)


def _state_stack(rngs: Sequence[np.random.Generator], dim: int, n: int) -> np.ndarray:
    """``n`` states per generator, drawn one after the other: ``(b, n, d, d)``."""
    return np.stack([_states(rngs, dim) for _ in range(n)], axis=1)


def _effects(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    return _require_effects(_draw_effects(rngs, dim), DEFAULT_ATOL)


def _observables(stack: np.ndarray) -> np.ndarray:
    """A batch ``(b, n, d, d)`` of observables, checked as ``Observable``s."""
    return _effect_family("Observable", stack, stack.shape[1:2], DEFAULT_ATOL, stack.shape[:1])


def _bi_observables(grid: np.ndarray) -> np.ndarray:
    """A batch ``(b, n1, n2, d, d)`` of grids, checked as ``BiObservable``s."""
    return _effect_family("BiObservable", grid, grid.shape[1:3], DEFAULT_ATOL, grid.shape[:1])


def _random_observables(rngs: Sequence[np.random.Generator], dim: int, n: int) -> np.ndarray:
    return _observables(_draw_observables(rngs, dim, n))


def _channels(rngs: Sequence[np.random.Generator], dim_in: int, dim_out: int, n: int) -> Channel:
    return Channel._checked(_draw_channels(rngs, dim_in, dim_out, n), DEFAULT_ATOL)


# the outcome labels of ``random_observable`` and ``random_instrument``
_LABELS = ("x0", "x1")


def _instruments(rngs: Sequence[np.random.Generator], dim_in: int, dim_out: int, n: int) -> Instrument:
    """A batch of ``random_instrument``s with one Kraus operator per outcome."""
    stacks = _draw_instruments(rngs, dim_in, dim_out, n)
    return Instrument._from_kraus(tuple(f"x{i}" for i in range(n)), stacks, DEFAULT_ATOL)


def _kernels(w: np.ndarray) -> np.ndarray:
    return _kernel_weights(w, DEFAULT_ATOL)


def _post_processed(obs: np.ndarray, w: np.ndarray) -> np.ndarray:
    return _observables(weighted_sum(w, obs))


def _parted(obs: np.ndarray, f: np.ndarray, targets: tuple[str, ...]) -> np.ndarray:
    """Coarse-graining along surjections given by target positions ``f``."""
    _require_surjective(f, targets)
    return _post_processed(obs, _kernels(_indicator(f, len(targets))))


def _conditioned_observables(ch: Channel, obs: np.ndarray) -> np.ndarray:
    return _observables(_conditioned(ch, obs, DEFAULT_ATOL))


@_identity("postprocess-part-compose", "post-processing twice equals one post-processing by the composed "
           "kernel; coarse-graining twice equals the composed surjection")
def _run_postprocess_part_compose(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    obs = _random_observables(rngs, dim, 4)
    lam = _kernels(_draw_stochastic(rngs, 4, 3))
    mu = _kernels(_draw_stochastic(rngs, 3, 2))
    yield _dev(
        _post_processed(_post_processed(obs, lam), mu), _post_processed(obs, _kernels(lam @ mu))
    )
    u_labels, v_labels = ("u0", "u1", "u2"), ("v0", "v1")
    f = _draw_surjections(rngs, 4, 3)
    g = _draw_surjections(rngs, 3, 2)
    f_then_g = np.take_along_axis(g, f, axis=-1)
    yield _dev(_parted(_parted(obs, f, u_labels), g, v_labels), _parted(obs, f_then_g, v_labels))


@_identity("dual-map", "tr[rho I*(a)] == tr[I(rho) a]; the dual adds over summable effects and fixes the "
           "identity exactly when the map is trace preserving")
def _run_dual_map(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ch = _channels(rngs, dim, dim + 1, 2)
    rho = _states(rngs, dim)
    a = _effects(rngs, dim + 1)
    image = ch._dual_effects(a, DEFAULT_ATOL)
    yield _dev(_trace(rho @ image), _trace(ch.apply_matrix(rho) @ a))
    b_obs = _random_observables(rngs, dim + 1, 3)
    e0, e1 = b_obs[:, 0], b_obs[:, 1]
    yield _dev(ch.dual_matrix(e0 + e1), ch.dual_matrix(e0) + ch.dual_matrix(e1))
    yield _dev(ch.dual_matrix(np.eye(dim + 1)), np.eye(dim))


@_identity("sequential-dual-contravariance", "(I then J)*(b) == I*(J*(b)) for operations in sequence")
def _run_contravariance(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    first = _channels(rngs, dim, dim + 1, 2).scaled(_uniforms(rngs, 0.7, 1.0))
    second = _channels(rngs, dim + 1, dim, 2).scaled(_uniforms(rngs, 0.7, 1.0))
    b = _effects(rngs, dim)
    yield _dev(first.then(second).dual_matrix(b), first.dual_matrix(second.dual_matrix(b)))


@_identity("conditioning-affine", "conditioning commutes with affine combinations of observables")
def _run_conditioning_affine(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ch = _channels(rngs, dim, dim + 1, 2)
    a1 = _random_observables(rngs, dim + 1, 3)
    a2 = _random_observables(rngs, dim + 1, 3)
    w = _uniforms(rngs, 0.0, 1.0)
    weights = _kernel_weights(np.stack([w, 1.0 - w], axis=-1), DEFAULT_ATOL, *_MIXTURE_RULE)
    lhs = _conditioned_observables(ch, _observables(_mixture(weights, np.stack([a1, a2], axis=1))))
    conditioned = [_conditioned_observables(ch, a) for a in (a1, a2)]
    rhs = _observables(_mixture(weights, np.stack(conditioned, axis=1)))
    yield _dev(lhs, rhs)


@_identity("subnormalized-completion", "B_x = b_x + (I - sum b)/n is an observable; conditioning B "
           "reproduces the conditioned b_x whenever the residual's dual vanishes")
def _run_subnormalized_completion(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    dim2 = dim + 1
    # the channel complete_subnormalized takes, drawn (and checked as a
    # channel) to keep each instance's stream; the completion does not read it
    _channels(rngs, dim, dim2, 2)
    family = _random_observables(rngs, dim2, 3)[:, :2]
    completed = _observables(_completed(family, DEFAULT_ATOL))
    yield _dev(completed, family + (np.eye(dim2) - family.sum(axis=1))[:, None] / family.shape[1])
    yield _dev(completed.sum(axis=1), np.eye(dim2))
    # engineered instance: channel range inside a proper subspace, residual
    # supported on its complement, so the residual's dual vanishes exactly
    small = _channels(rngs, dim, dim, 2).kraus_stack
    zero_row = np.zeros(small.shape[:2] + (1, dim))
    lifted = Channel._checked(np.concatenate([small, zero_row], axis=-2), DEFAULT_ATOL)
    sub = _random_observables(rngs, dim, 2)
    bs = np.zeros(sub.shape[:2] + (dim2, dim2), dtype=complex)
    bs[..., :dim, :dim] = sub
    conditioned = _conditioned_observables(lifted, _observables(_completed(bs, DEFAULT_ATOL)))
    for i in range(bs.shape[1]):
        yield _dev(conditioned[:, i], lifted._dual_effects(bs[:, i], DEFAULT_ATOL))


@_identity("given-observable-marginals", "marginals of (B given I) are the measured observable and B "
           "conditioned by the total channel; product-set probabilities factor through the updated state")
def _run_given_marginals(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ins = _instruments(rngs, dim, dim + 1, 3)
    b_obs = _random_observables(rngs, dim + 1, 2)
    grid = _effect_family("BiObservable", _given_grid(ins, b_obs), (3, 2), DEFAULT_ATOL, (len(rngs),))
    m1, m2 = _observables(grid.sum(axis=2)), _observables(grid.sum(axis=1))
    yield _dev(m1, _observables(ins._measured_stack()))
    yield _dev(m2, _conditioned_observables(ins.total_channel(), b_obs))
    rho = _states(rngs, dim)
    branch = np.stack([op.apply_matrix(rho) for op in ins.ops], axis=1)
    overlaps = _trace(branch[:, :, None] @ b_obs[:, None]).real
    # every pair of nonempty outcome subsets (an empty one has probability 0)
    for s1 in _subsets(range(3))[1:]:
        for s2 in _subsets(range(2))[1:]:
            sigma = branch[:, list(s1)].sum(axis=1)
            factored = _factored_probability(sigma, b_obs[:, list(s2)].sum(axis=1), DEFAULT_ATOL)
            double = overlaps[:, list(s1)][:, :, list(s2)].reshape(len(rngs), -1).sum(axis=1)
            yield _dev(factored, double)


@_identity("conditioned-set-closure", "conditioning commutes with post-processing and with taking parts")
def _run_closure(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ch = _channels(rngs, dim, dim + 1, 2)
    a_obs = _random_observables(rngs, dim + 1, 3)
    lam = _kernels(_draw_stochastic(rngs, 3, 2))
    conditioned = _conditioned_observables(ch, a_obs)
    yield _dev(
        _conditioned_observables(ch, _post_processed(a_obs, lam)), _post_processed(conditioned, lam)
    )
    u_labels = ("u0", "u1")
    f = _draw_surjections(rngs, 3, 2)
    yield _dev(_parted(conditioned, f, u_labels), _conditioned_observables(ch, _parted(a_obs, f, u_labels)))


@_identity("holevo-composition", "two measure-and-prepare stages compose to a measure-and-prepare grid with "
           "effects tr(alpha_x B_y) A_x and prepared states beta_y")
def _run_holevo_composition(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    a, alphas = _random_observables(rngs, dim, 2), _state_stack(rngs, dim + 1, 2)
    b, betas = _random_observables(rngs, dim + 1, 2), _state_stack(rngs, dim, 2)
    first = _holevo_instrument(_LABELS, a, alphas, DEFAULT_ATOL)
    second = _holevo_instrument(_LABELS, b, betas, DEFAULT_ATOL)
    yield _dev(_observables(first._measured_stack()), a)
    # the stages are dropped as soon as they are read
    composed = _holevo_composed(_LABELS, _LABELS, a, alphas, b, betas, DEFAULT_ATOL)
    given = given_instrument(first, second)
    del second
    e = _effects(rngs, dim + 1)
    coeff = _trace(alphas @ e[:, None]).real
    for x, op in enumerate(first.ops):
        yield _dev(op.dual_matrix(e), coeff[:, x, None, None] * a[:, x])
    del first
    yield bi_instrument_deviation(composed, given)
    del given
    rho = _states(rngs, dim)
    px = _trace(rho[:, None] @ a).real
    overlaps = _trace(alphas[:, :, None] @ b[:, None]).real
    for x, op in enumerate(composed.marginal1().ops):
        expected = px[:, x, None, None] * (overlaps[:, x, :, None, None] * betas).sum(axis=1)
        yield _dev(op.apply_matrix(rho), expected)
    weights = (px[:, :, None] * overlaps).sum(axis=1)
    for y, op in enumerate(composed.marginal2().ops):
        yield _dev(op.apply_matrix(rho), weights[:, y, None, None] * betas[:, y])


@_identity("measurement-pointer", "the pointer observable equals the outcome-wise measured effect of the "
           "measured instrument and sum_i K_i†(I⊗P_y)K_i; the interaction marginal is probe-independent")
def _run_measurement_pointer(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ins = _instruments(rngs, dim, 2 * dim, 2)
    probe = _random_observables(rngs, 2, 2)
    probe3 = _random_observables(rngs, 2, 3)
    rho = _states(rngs, dim)
    grid = _bi_observables(_pointer_grid(ins, probe))
    pointer = _observables(grid.sum(axis=1))
    measured = _probe_readout(ins, _LABELS, probe, DEFAULT_ATOL)
    yield _dev(pointer, _require_effects(measured._measured_stack(), DEFAULT_ATOL))
    kraus = ins.total_channel().kraus_stack[:, None]
    lifted = kron(np.eye(dim), probe)[:, :, None]
    yield _dev(pointer, (kraus.conj().mT @ lifted @ kraus).sum(axis=2))
    marginal = _observables(grid.sum(axis=2))
    yield _dev(marginal, _observables(ins._measured_stack()))
    grid3 = _bi_observables(_pointer_grid(ins, probe3))
    yield _dev(_observables(grid3.sum(axis=2)), marginal)
    bi_ins = _bi_readout(ins, _LABELS, probe, DEFAULT_ATOL)
    for x, row in enumerate(bi_ins.ops):
        for y, op in enumerate(row):
            lhs = _trace(rho @ grid[:, x, y]).real
            yield _dev(lhs, _trace(op.apply_matrix(rho)).real)
    yield instrument_deviation(measured, bi_ins.marginal2())


@_identity("kraus-separable", "separable-channel shortcuts (dual on product effects, measured instrument, "
           "pointer observable) match the partial-trace pipeline; tr(rho_i P_y) is row-stochastic")
def _run_kraus_separable(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    """Each instance draws its Kraus count first; the instances of one count
    run as one batch, and their deviations go back to their places."""
    counts = np.array([rng.integers(1, 4) for rng in rngs])
    parts: list[np.ndarray] = []
    for n in np.unique(counts):
        members = np.flatnonzero(counts == n)
        group = list(_kraus_separable_parts([rngs[i] for i in members], dim, int(n)))
        parts = parts or [np.empty(len(rngs)) for _ in group]
        for whole, part in zip(parts, group):
            whole[members] = part
    yield from parts


def _kraus_separable_parts(rngs: Sequence[np.random.Generator], dim: int, n: int) -> Iterator[np.ndarray]:
    dim_probe = 2
    factors = _channels(rngs, dim, dim, n).kraus_stack
    states = _state_stack(rngs, dim_probe, n)
    total = Channel._checked(_lifted_kraus(factors, states, DEFAULT_ATOL), DEFAULT_ATOL)
    # the superoperator of rho -> sum_i K_i rho K_i† ⊗ rho_i, entry by entry
    formula = np.einsum("...iab,...icd,...ipq->...apcqbd", factors, factors.conj(), states)
    superop = total.superoperator()
    yield _superoperator_deviation(superop - formula.reshape(superop.shape), dim)
    a = _effects(rngs, dim)
    b = _effects(rngs, dim_probe)
    closed = _require_effects(_dual_on_product(factors, states, a, b), DEFAULT_ATOL)
    yield _dev(closed, total._dual_effects(kron(a, b), DEFAULT_ATOL))
    probe = _random_observables(rngs, dim_probe, 2)
    interaction = Instrument(("u",), (total,))
    w = _outcome_weights(states, probe)
    closed_ins = _separable_instrument(_LABELS, factors, w, DEFAULT_ATOL)
    yield instrument_deviation(closed_ins, _probe_readout(interaction, _LABELS, probe, DEFAULT_ATOL))
    pointer = _observables(weighted_sum(w, _grams(factors)))
    yield _dev(pointer, _observables(_bi_observables(_pointer_grid(interaction, probe)).sum(axis=1)))
    yield _dev(w.sum(axis=-1), 1.0)
    yield _dev(pointer, _post_processed(_observables(_grams(factors)), _kernels(w)))


@_identity("simple-kraus-separable", "lifted operators phi -> A_i phi ⊗ psi_i realize the separable channel "
           "with pure probe states")
def _run_simple_separable(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    dim_probe = 2
    factors = _channels(rngs, dim, dim, 2).kraus_stack
    # one norm per vector: a batched norm rounds differently
    pairs = _draw_ginibre(rngs, 2, dim_probe, 1)[..., 0]
    vecs = np.array([[v / np.linalg.norm(v) for v in pair] for pair in pairs])
    states = _require_states(_pure_probe_states(vecs, DEFAULT_ATOL), DEFAULT_ATOL)
    total = Channel._checked(_lifted_kraus(factors, states, DEFAULT_ATOL), DEFAULT_ATOL)
    lifted = Channel._checked(kron(factors, vecs[..., None]), DEFAULT_ATOL)
    yield map_deviation(total, lifted)
    phi1 = _draw_ginibre(rngs, 1, dim, 1)[:, 0, :, 0]
    phi2 = _draw_ginibre(rngs, 1, dim_probe, 1)[:, 0, :, 0]
    product = (phi1[:, :, None] * phi2[:, None, :]).reshape(len(rngs), 1, -1, 1)
    overlaps = (vecs.conj() * phi2[:, None]).sum(axis=-1)
    expected = overlaps[..., None] * (factors.conj().mT @ phi1[:, None, :, None])[..., 0]
    yield _dev(lifted.kraus_stack.conj().mT @ product, expected[..., None])


@_identity("holevo-separable", "all six closed-form quantities of a product-state measure-and-prepare model "
           "match the partial-trace pipeline; tr(gamma_x P_y) is row-stochastic")
def _run_holevo_separable(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    """Each closed-form instrument is dropped after its part (the reduced
    one first; the probe-indexed one is made from the grid after the grid's
    part): a batch holds one generic readout at a time beside what is still
    to be compared."""
    dim_probe = 2
    a = _random_observables(rngs, dim, 2)
    betas = _state_stack(rngs, dim, 2)
    gammas = _state_stack(rngs, dim_probe, 2)
    probe = _random_observables(rngs, dim_probe, 2)
    e = _effects(rngs, dim * dim_probe)
    w, bi_ins, reduced, grid, pointer = _holevo_model(
        _LABELS, _LABELS, a, betas, gammas, probe, DEFAULT_ATOL
    )
    products = _require_states(kron(betas, gammas), DEFAULT_ATOL)
    interaction = _holevo_instrument(_LABELS, a, products, DEFAULT_ATOL)
    yield instrument_deviation(reduced, _reduced_readout(interaction, dim_probe, DEFAULT_ATOL))
    del reduced
    yield bi_instrument_deviation(bi_ins, _bi_readout(interaction, _LABELS, probe, DEFAULT_ATOL))
    ins = bi_ins.marginal2(DEFAULT_ATOL)
    del bi_ins
    yield instrument_deviation(ins, _probe_readout(interaction, _LABELS, probe, DEFAULT_ATOL))
    del ins
    closed = _require_effects(_holevo_dual_effects(a, products, e[:, None]), DEFAULT_ATOL)
    generic = [op._dual_effects(e, DEFAULT_ATOL) for op in interaction.ops]
    yield _dev(closed, np.stack(generic, axis=1))
    model_grid = _bi_observables(_pointer_grid(interaction, probe))
    yield _dev(_bi_observables(grid), model_grid)
    yield _dev(_observables(pointer), _observables(model_grid.sum(axis=1)))
    yield _dev(w.sum(axis=-1), 1.0)


def registered_identities() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def resolve_suite(names: str | Sequence[str]) -> list[str]:
    """Expand a suite spec: identity names and the keyword ``all``, which
    stands for the whole registry wherever it appears (a repeated name is
    kept at its first occurrence only; an empty spec means ``all``). An
    unknown name raises ``ValueError``, beside ``all`` too."""
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    names = list(dict.fromkeys(names or ["all"]))
    unknown = [n for n in names if n not in _REGISTRY and n != "all"]
    if unknown:
        raise ValueError(f"unknown identity name(s): {', '.join(sorted(unknown))}")
    return list(_REGISTRY) if "all" in names else names


def _batches(trials: int, size: int) -> Iterator[range]:
    """The trials ``0, ..., trials - 1`` as consecutive ranges of ``size``,
    the last one shorter, made one at a time."""
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


def _instance_deviations(runner: Runner, states: np.ndarray, dim: int) -> np.ndarray:
    """Each instance's deviation: the largest of its parts, ``inf`` when one
    is not finite or there are none.

    The instances run as one batch, one per row of ``states``, each on a
    fresh generator seeded from its row (``rand._generators``). If the batch
    raises (a violated construction invariant, an unobserved outcome, a
    failed factorization, ...), each instance reruns alone on a fresh
    generator from the same row, and only those that raise alone count as
    ``inf``.
    """
    worst = np.zeros(len(states))
    parts = 0
    try:
        for part in runner(_generators(states), dim):
            part = np.asarray(part, dtype=float)
            if part.shape != worst.shape:
                raise ValueError(f"a part has shape {part.shape}, expected {worst.shape}")
            worst = np.maximum(worst, part)
            parts += 1
    except Exception:
        if len(states) == 1:
            return np.array([math.inf])
        return np.concatenate([_instance_deviations(runner, row, dim) for row in states[:, None]])
    if not parts:
        return np.full(len(states), math.inf)
    return np.where(np.isfinite(worst), worst, math.inf)


def _integer(value, what: str) -> int:
    """``value`` as an ``int``; ``ValueError`` naming ``what`` unless it is
    an integer (of Python or numpy) and not a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def run_checks(
    suite: str | Sequence[str],
    trials: int,
    dims: Iterable[int],
    seed: int,
    tol: float = DEFAULT_ATOL,
) -> CheckReport:
    """Run each selected identity on ``trials`` random instances per dimension.

    Instances are seeded independently from ``(seed, identity, dim, trial)``,
    so reports are deterministic and order-independent. Results are sorted by
    identity name; a repeated name or dimension counts once, at its first
    occurrence. ``trials=0`` gives an empty (vacuously passing) report; a
    ``trials``, ``seed`` or dimension that is not an integer (a boolean
    included), a negative ``trials`` or ``seed``, ``trials >= 2**32`` and a
    dimension below 1 raise ``ValueError``.
    An instance's deviation is the largest its runner yields. An instance
    that raises any ``Exception`` (a violated construction invariant
    included), yields a non-finite deviation or yields nothing counts as
    failed, with deviation ``inf``, and the run continues; ``tol`` must be
    finite and positive.
    """
    tol = require_tolerance(tol)
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if trials >= _TRIAL_LIMIT:
        raise ValueError(f"trials must be below 2**32, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    names = resolve_suite(suite)
    dims = list(dict.fromkeys(_integer(d, "dimension") for d in dims))
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive")
    results: list[IdentityResult] = []
    if trials > 0:
        for name in sorted(names):
            check = _REGISTRY[name]
            key = zlib.crc32(name.encode("utf-8"))
            start = time.perf_counter()
            max_dev = 0.0
            count = 0
            for dim in dims:
                for batch in _batches(trials, BATCH_SIZE):
                    states = _trial_states((seed, key, dim), batch)
                    devs = _instance_deviations(check.runner, states, dim)
                    max_dev = max(max_dev, float(devs.max()))
                    count += len(devs)
            elapsed = time.perf_counter() - start
            results.append(
                IdentityResult(
                    name=name,
                    statement=check.statement,
                    dims=dims,
                    instances=count,
                    max_deviation=max_dev,
                    tolerance=tol,
                    passed=max_dev <= tol,
                    elapsed_seconds=elapsed,
                )
            )
    return CheckReport(
        suite=names, trials=trials, dims=dims, seed=seed, tolerance=tol, results=results
    )
