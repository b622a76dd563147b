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

Each batch of one identity at one dimension is a task. The tasks are
numbered largest dimension first, then by identity name, then by batch,
and run on ``W`` workers, one per CPU the process may run on. Each worker
claims the next unclaimed task number from one counter shared by the run's
workers, runs that batch and claims again, so a worker that is free takes
the next task, the largest dimensions first. Worker 0 is the calling
process; the others are children forked for the run, each folding its
tasks per identity into a maximum deviation, an instance count and seconds,
which it sends back through a pipe. The parent merges the folds by an exact
maximum and integer sums, so the report has the same bytes whatever ``W``
and whichever worker ran a task. ``W`` is 1, and the same loop runs in
process, in task order, on one CPU, without ``os.fork`` and in a process
that already runs a second OS thread (a multi-threaded BLAS included),
where forking is unsafe.

Each instance gets a generator whose state equals ``default_rng`` of its
seed tuple ``(seed, crc32(name), dim, trial)``. The trials of a batch are a
range whose bounds are computed from its task number alone (``_tasks``), and
``rand._trial_states`` hashes all the batch's tuples at once into one seed
state per instance, from which ``rand._generators`` makes the generators.
A batched runner draws each object of a batch through ``qcond.rand``'s raw
``_draw_*`` functions, from the same stream as the public ``random_*``
constructors, and makes one labelled public object of the batch (a
``State``, ``Effect``, ``Observable``, ``StochasticMatrix``, ``Channel``,
``Instrument`` or ``MeasurementModel`` holding it, checked member by member
by its constructor). Its outcome labels are fixed per identity and not in
sorted order. It calls the public functions on the whole batch
(``post_process``, ``StochasticMatrix.then``, ``OutcomeMap.to_stochastic``
and ``OutcomeMap.then``, ``condition_observable``, ``affine_combination``,
``given_observable``, ``Instrument.measured_observable`` and the
``MeasurementModel`` readouts), so the gate runs the label logic users
call. An instance's deviations do not depend on its batch: a batch of one
gives the same bits. A batch that raises is rerun instance by instance, on
fresh generators from the states already hashed, so one bad instance fails
alone. Every registered identity runs this way.

These stay on private kernels, each for one reason: the separable closed
forms (``qcond.measurement``'s ``_lifted_kraus``, ``_dual_on_product``,
``_separable_instrument``, ``_pure_probe_states``, ``_grams``,
``_holevo_model`` and ``_holevo_dual_effects``, and the weights
``instruments._outcome_weights``),
because their agreement with the generic pipeline is what the separable
identities check; the Holevo instruments (``_holevo_instrument``,
``_holevo_composed``), because ``HolevoSpec`` holds one spec;
``_factored_probability``, because ``given_distribution`` reads one state;
``_completed``, because ``complete_subnormalized`` takes one family of
single effects; and ``_superoperator_deviation``, because a superoperator's
formula is no map.

Runners compare through three comparators only: ``_dev`` for arrays (each
instance's largest entrywise deviation), ``observable_deviation`` for
observables and the map deviations (``map_deviation``,
``instrument_deviation``, on one axis or a grid) for maps.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import signal
import time
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

import numpy as np

# each private name below stays on its kernel for the reason the module
# docstring gives; the rand ones seed and draw a batch of the random_* streams
from .channels import Channel, _completed, _superoperator_deviation, condition_observable, map_deviation
from .effects import (Effect, Observable, OutcomeMap, State, StochasticMatrix, affine_combination,
                      observable_deviation, post_process)
from .instruments import (Instrument, _factored_probability, _holevo_composed, _holevo_instrument,
                          _outcome_weights, given_instrument, given_observable, instrument_deviation)
from .linalg import DEFAULT_ATOL, kron, require_tolerance, weighted_sum
from .measurement import (MeasurementModel, _dual_on_product, _grams, _holevo_dual_effects, _holevo_model,
                          _lifted_kraus, _pure_probe_states, _separable_instrument)
from .rand import (_TRIAL_LIMIT, _draw_channels, _draw_effects, _draw_ginibre, _draw_instruments,
                   _draw_observables, _draw_states, _draw_stochastic, _draw_surjections, _generators,
                   _trial_states)

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
# canonical 100 trials run as one batch per identity and dimension. Each
# worker process runs one batch at a time, so a run holds at most one
# batch per worker. The
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


def _json_result(r: IdentityResult) -> dict:
    fields = {k: v for k, v in asdict(r).items() if k != "elapsed_seconds"}
    if not math.isfinite(r.max_deviation):
        fields["max_deviation"] = None
    return fields


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
        (elapsed times are excluded on purpose). Strict JSON: a non-finite
        ``max_deviation`` (a failed instance) is written as ``null``."""
        payload = {
            "suite": self.suite,
            "trials": self.trials,
            "dims": self.dims,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "results": [_json_result(r) for r in self.results],
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"

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
# each draw takes one object per generator, and each batch of draws becomes
# one batched public object (State, Effect, Observable, StochasticMatrix,
# Channel, Instrument, MeasurementModel), checked by its constructor at the
# library's default tolerance. Each runner fixes its outcome labels, not in
# sorted order, so that the label logic runs too. Each part yields one
# deviation per instance.


def _dev(a: np.ndarray, b: np.ndarray | float) -> np.ndarray:
    """Each instance's largest entrywise deviation between two stacks (or a
    stack and a scalar): the one array comparator of the runners."""
    diff = np.abs(a - b)
    return diff.reshape(len(diff), -1).max(axis=1)


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def _uniforms(rngs: Sequence[np.random.Generator], low: float, high: float) -> np.ndarray:
    """One ``rng.uniform(low, high)`` per generator, with its bits."""
    return low + (high - low) * np.array([rng.random() for rng in rngs])


def _states(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    return State(_draw_states(rngs, dim)).matrix


def _state_stack(rngs: Sequence[np.random.Generator], dim: int, n: int) -> np.ndarray:
    """``n`` states per generator, drawn one after the other: ``(b, n, d, d)``."""
    return np.stack([_states(rngs, dim) for _ in range(n)], axis=1)


def _effects(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    return Effect(_draw_effects(rngs, dim)).matrix


def _observable_batch(rngs: Sequence[np.random.Generator], labels: tuple[str, ...], dim: int) -> Observable:
    """A batch of ``random_observable``s on ``labels``."""
    return Observable(labels, _draw_observables(rngs, dim, len(labels)))


def _channels(rngs: Sequence[np.random.Generator], dim_in: int, dim_out: int, n: int) -> Channel:
    return Channel(_draw_channels(rngs, dim_in, dim_out, n))


def _instruments(
    rngs: Sequence[np.random.Generator], labels: tuple[str, ...], dim_in: int, dim_out: int
) -> Instrument:
    """A batch of ``random_instrument``s on ``labels``, one Kraus operator per
    outcome, made as ``random_instrument`` makes one: by ``_from_kraus``,
    checked once, from the family's total."""
    return Instrument._from_kraus(labels, _draw_instruments(rngs, dim_in, dim_out, len(labels)), DEFAULT_ATOL)


def _surjections(
    rngs: Sequence[np.random.Generator], sources: tuple[str, ...], targets: tuple[str, ...]
) -> OutcomeMap:
    """A batch of ``random_surjection``s from ``sources`` onto ``targets``."""
    labels = np.array(targets)[_draw_surjections(rngs, len(sources), len(targets))]
    return OutcomeMap(dict(zip(sources, labels.T)), targets)


@_identity("postprocess-part-compose", "post-processing twice equals one post-processing by the composed "
           "kernel; coarse-graining twice equals the composed surjection")
def _run_postprocess_part_compose(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    a, u, v = ("a2", "a0", "a3", "a1"), ("u1", "u2", "u0"), ("v1", "v0")
    obs = _observable_batch(rngs, a, dim)
    lam = StochasticMatrix(a, u, _draw_stochastic(rngs, 4, 3))
    mu = StochasticMatrix(u, v, _draw_stochastic(rngs, 3, 2))
    yield observable_deviation(post_process(post_process(obs, lam), mu), post_process(obs, lam.then(mu)))
    f, g = _surjections(rngs, a, u), _surjections(rngs, u, v)
    twice = post_process(post_process(obs, f.to_stochastic(a)), g.to_stochastic(u))
    yield observable_deviation(twice, post_process(obs, f.then(g).to_stochastic(a)))


@_identity("dual-map", "tr[rho I*(a)] == tr[I(rho) a]; the dual adds over summable effects and fixes the "
           "identity exactly when the map is trace preserving")
def _run_dual_map(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ch = _channels(rngs, dim, dim + 1, 2)
    rho = _states(rngs, dim)
    a = _effects(rngs, dim + 1)
    image = ch._dual_effects(a, DEFAULT_ATOL)
    yield _dev(_trace(rho @ image), _trace(ch.apply_matrix(rho) @ a))
    b_obs = _observable_batch(rngs, ("b2", "b0", "b1"), dim + 1).effect_stack
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
    labels = ("c1", "c2", "c0")
    ch = _channels(rngs, dim, dim + 1, 2)
    a1 = _observable_batch(rngs, labels, dim + 1)
    a2 = _observable_batch(rngs, labels, dim + 1)
    w = _uniforms(rngs, 0.0, 1.0)
    weights = np.stack([w, 1.0 - w], axis=-1)
    lhs = condition_observable(ch, affine_combination([a1, a2], weights))
    rhs = affine_combination([condition_observable(ch, a) for a in (a1, a2)], weights)
    yield observable_deviation(lhs, rhs)


@_identity("subnormalized-completion", "B_x = b_x + (I - sum b)/n is an observable; conditioning B "
           "reproduces the conditioned b_x whenever the residual's dual vanishes")
def _run_subnormalized_completion(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    dim2 = dim + 1
    labels = ("t1", "t0")
    # the channel complete_subnormalized takes, drawn (and checked as a
    # channel) to keep each instance's stream; the completion does not read it
    _channels(rngs, dim, dim2, 2)
    family = _observable_batch(rngs, ("s2", "s0", "s1"), dim2).effect_stack[:, :2]
    completed = Observable(labels, _completed(family, DEFAULT_ATOL)).effect_stack
    yield _dev(completed, family + (np.eye(dim2) - family.sum(axis=1))[:, None] / family.shape[1])
    yield _dev(completed.sum(axis=1), np.eye(dim2))
    # engineered instance: channel range inside a proper subspace, residual
    # supported on its complement, so the residual's dual vanishes exactly
    small = _channels(rngs, dim, dim, 2).kraus_stack
    zero_row = np.zeros(small.shape[:2] + (1, dim))
    lifted = Channel(np.concatenate([small, zero_row], axis=-2))
    sub = _observable_batch(rngs, labels, dim).effect_stack
    bs = np.zeros(sub.shape[:2] + (dim2, dim2), dtype=complex)
    bs[..., :dim, :dim] = sub
    conditioned = condition_observable(lifted, Observable(labels, _completed(bs, DEFAULT_ATOL))).effect_stack
    for i in range(bs.shape[1]):
        yield _dev(conditioned[:, i], lifted._dual_effects(bs[:, i], DEFAULT_ATOL))


@_identity("given-observable-marginals", "marginals of (B given I) are the measured observable and B "
           "conditioned by the total channel; product-set probabilities factor through the updated state")
def _run_given_marginals(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ins = _instruments(rngs, ("i2", "i0", "i1"), dim, dim + 1)
    b_obs = _observable_batch(rngs, ("b1", "b0"), dim + 1)
    grid = given_observable(b_obs, ins)
    yield observable_deviation(grid.marginal(0), ins.measured_observable())
    yield observable_deviation(grid.marginal(1), condition_observable(ins.total_channel(), b_obs))
    rho = _states(rngs, dim)
    b = b_obs.effect_stack
    branch = np.stack([op.apply_matrix(rho) for op in ins.ops], axis=1)
    overlaps = _trace(branch[:, :, None] @ b[:, None]).real
    # every pair of nonempty outcome subsets (an empty one has probability 0)
    for s1 in _subsets(range(3))[1:]:
        for s2 in _subsets(range(2))[1:]:
            sigma = branch[:, list(s1)].sum(axis=1)
            factored = _factored_probability(sigma, b[:, list(s2)].sum(axis=1), DEFAULT_ATOL)
            double = overlaps[:, list(s1)][:, :, list(s2)].reshape(len(rngs), -1).sum(axis=1)
            yield _dev(factored, double)


@_identity("conditioned-set-closure", "conditioning commutes with post-processing and with taking parts")
def _run_closure(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    a, u = ("a1", "a2", "a0"), ("u1", "u0")
    ch = _channels(rngs, dim, dim + 1, 2)
    a_obs = _observable_batch(rngs, a, dim + 1)
    lam = StochasticMatrix(a, u, _draw_stochastic(rngs, 3, 2))
    conditioned = condition_observable(ch, a_obs)
    yield observable_deviation(condition_observable(ch, post_process(a_obs, lam)), post_process(conditioned, lam))
    f = _surjections(rngs, a, u).to_stochastic(a)
    yield observable_deviation(post_process(conditioned, f), condition_observable(ch, post_process(a_obs, f)))


# the outcome labels of both stages of holevo-composition
_LABELS = ("x0", "x1")


@_identity("holevo-composition", "two measure-and-prepare stages compose to a measure-and-prepare grid with "
           "effects tr(alpha_x B_y) A_x and prepared states beta_y")
def _run_holevo_composition(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    a, alphas = _observable_batch(rngs, _LABELS, dim).effect_stack, _state_stack(rngs, dim + 1, 2)
    b, betas = _observable_batch(rngs, _LABELS, dim + 1).effect_stack, _state_stack(rngs, dim, 2)
    first = _holevo_instrument(_LABELS, a, alphas, DEFAULT_ATOL)
    second = _holevo_instrument(_LABELS, b, betas, DEFAULT_ATOL)
    yield _dev(first.measured_observable().effect_stack, a)
    # the stages are dropped as soon as they are read
    composed = _holevo_composed(_LABELS, _LABELS, a, alphas, b, betas, DEFAULT_ATOL)
    given = given_instrument(first, second)
    del second
    e = _effects(rngs, dim + 1)
    coeff = _trace(alphas @ e[:, None]).real
    for x, op in enumerate(first.ops):
        yield _dev(op.dual_matrix(e), coeff[:, x, None, None] * a[:, x])
    del first
    yield instrument_deviation(composed, given)
    del given
    rho = _states(rngs, dim)
    px = _trace(rho[:, None] @ a).real
    overlaps = _trace(alphas[:, :, None] @ b[:, None]).real
    for x, op in enumerate(composed.marginal(0).ops):
        expected = px[:, x, None, None] * (overlaps[:, x, :, None, None] * betas).sum(axis=1)
        yield _dev(op.apply_matrix(rho), expected)
    weights = (px[:, :, None] * overlaps).sum(axis=1)
    for y, op in enumerate(composed.marginal(1).ops):
        yield _dev(op.apply_matrix(rho), weights[:, y, None, None] * betas[:, y])


@_identity("measurement-pointer", "the pointer observable equals the outcome-wise measured effect of the "
           "measured instrument and sum_i K_i†(I⊗P_y)K_i; the interaction marginal is probe-independent")
def _run_measurement_pointer(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    ins = _instruments(rngs, ("m1", "m0"), dim, 2 * dim)
    probe = _observable_batch(rngs, ("p1", "p0"), 2)
    probe3 = _observable_batch(rngs, ("q2", "q0", "q1"), 2)
    rho = _states(rngs, dim)
    model = MeasurementModel(dim, 2, ins, probe)
    grid = model.measured_bi_observable()
    pointer = grid.marginal(1)
    measured = model.measured_instrument()
    yield observable_deviation(pointer, measured.measured_observable())
    kraus = ins.total_channel().kraus_stack[:, None]
    lifted = kron(np.eye(dim), probe.effect_stack)[:, :, None]
    yield _dev(pointer.effect_stack, (kraus.conj().mT @ lifted @ kraus).sum(axis=2))
    marginal = grid.marginal(0)
    yield observable_deviation(marginal, ins.measured_observable())
    grid3 = MeasurementModel(dim, 2, ins, probe3).measured_bi_observable()
    yield observable_deviation(grid3.marginal(0), marginal)
    bi_ins = model.measured_bi_instrument()
    for x, row in enumerate(bi_ins.ops):
        for y, op in enumerate(row):
            lhs = _trace(rho @ grid.effect_stack[:, x, y]).real
            yield _dev(lhs, _trace(op.apply_matrix(rho)).real)
    yield instrument_deviation(measured, bi_ins.marginal(1))


@_identity("kraus-separable", "separable-channel shortcuts (dual on product effects, measured instrument, "
           "pointer observable) match the partial-trace pipeline; tr(rho_i P_y) is row-stochastic")
def _run_kraus_separable(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    """Each instance draws its Kraus count first; the instances of one count
    run as one batch, and their deviations go back to their places."""
    counts = np.array([rng.integers(1, 4) for rng in rngs])
    parts: list[np.ndarray] = []
    # not np.unique, which imports numpy.ma on its first call
    for n in sorted(set(counts.tolist())):
        members = np.flatnonzero(counts == n)
        group = list(_kraus_separable_parts([rngs[i] for i in members], dim, n))
        parts = parts or [np.empty(len(rngs)) for _ in group]
        for whole, part in zip(parts, group):
            whole[members] = part
    yield from parts


def _kraus_separable_parts(rngs: Sequence[np.random.Generator], dim: int, n: int) -> Iterator[np.ndarray]:
    dim_probe = 2
    factors = _channels(rngs, dim, dim, n).kraus_stack
    states = _state_stack(rngs, dim_probe, n)
    total = Channel(_lifted_kraus(factors, states, DEFAULT_ATOL))
    # the superoperator of rho -> sum_i K_i rho K_i† ⊗ rho_i, entry by entry
    formula = np.einsum("...iab,...icd,...ipq->...apcqbd", factors, factors.conj(), states)
    superop = total.superoperator()
    yield _superoperator_deviation(superop - formula.reshape(superop.shape), dim)
    a = _effects(rngs, dim)
    b = _effects(rngs, dim_probe)
    closed = Effect(_dual_on_product(factors, states, a, b)).matrix
    yield _dev(closed, total._dual_effects(kron(a, b), DEFAULT_ATOL))
    probe = _observable_batch(rngs, ("p1", "p0"), dim_probe)
    model = MeasurementModel(dim, dim_probe, Instrument(("u",), (total,)), probe)
    w = _outcome_weights(states, probe.effect_stack)
    closed_ins = _separable_instrument(probe.outcomes, factors, w, DEFAULT_ATOL)
    yield instrument_deviation(closed_ins, model.measured_instrument())
    pointer = Observable(probe.outcomes, weighted_sum(w, _grams(factors)))
    yield observable_deviation(pointer, model.measured_pointer_observable())
    yield _dev(w.sum(axis=-1), 1.0)
    k = ("k2", "k0", "k1")[:n]
    base = Observable(k, _grams(factors))
    yield observable_deviation(pointer, post_process(base, StochasticMatrix(k, probe.outcomes, w)))


@_identity("simple-kraus-separable", "lifted operators phi -> A_i phi ⊗ psi_i realize the separable channel "
           "with pure probe states")
def _run_simple_separable(rngs: Sequence[np.random.Generator], dim: int) -> Iterator[np.ndarray]:
    dim_probe = 2
    factors = _channels(rngs, dim, dim, 2).kraus_stack
    # one norm per vector: a batched norm rounds differently
    pairs = _draw_ginibre(rngs, 2, dim_probe, 1)[..., 0]
    vecs = np.array([[v / np.linalg.norm(v) for v in pair] for pair in pairs])
    states = State(_pure_probe_states(vecs, DEFAULT_ATOL)).matrix
    total = Channel(_lifted_kraus(factors, states, DEFAULT_ATOL))
    lifted = Channel(kron(factors, vecs[..., None]))
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
    x, y = ("x1", "x0"), ("y1", "y0")
    a = _observable_batch(rngs, x, dim).effect_stack
    betas = _state_stack(rngs, dim, 2)
    gammas = _state_stack(rngs, dim_probe, 2)
    probe = _observable_batch(rngs, y, dim_probe)
    e = _effects(rngs, dim * dim_probe)
    w, bi_ins, reduced, grid, pointer = _holevo_model(x, y, a, betas, gammas, probe.effect_stack, DEFAULT_ATOL)
    products = State(kron(betas, gammas)).matrix
    interaction = _holevo_instrument(x, a, products, DEFAULT_ATOL)
    model = MeasurementModel(dim, dim_probe, interaction, probe)
    yield instrument_deviation(reduced, model.reduced_instrument())
    del reduced
    yield instrument_deviation(bi_ins, model.measured_bi_instrument())
    ins = bi_ins.marginal(1, DEFAULT_ATOL)
    del bi_ins
    yield instrument_deviation(ins, model.measured_instrument())
    del ins
    closed = Effect(_holevo_dual_effects(a, products, e[:, None])).matrix
    generic = [op._dual_effects(e, DEFAULT_ATOL) for op in interaction.ops]
    yield _dev(closed, np.stack(generic, axis=1))
    generic_grid = model.measured_bi_observable()
    yield observable_deviation(Observable((x, y), grid), generic_grid)
    yield observable_deviation(Observable(y, pointer), generic_grid.marginal(1))
    yield _dev(w.sum(axis=-1), 1.0)


def registered_identities() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def resolve_suite(names: str | Sequence[str] | None) -> list[str]:
    """Expand a suite spec: identity names and the keyword ``all``, which
    stands for the whole registry wherever it appears (a repeated name is
    kept at its first occurrence only; an empty spec or ``None`` means
    ``all``). Any iterable of names is a spec, a numpy array included. An
    unknown name raises ``ValueError``, beside ``all`` too, and so does an
    entry that is not a string."""
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    names = list(() if names is None else names) or ["all"]
    unknown = {str(n) for n in names if not isinstance(n, str) or (n not in _REGISTRY and n != "all")}
    if unknown:
        raise ValueError(f"unknown identity name(s): {', '.join(sorted(unknown))}")
    names = list(dict.fromkeys(names))
    return list(_REGISTRY) if "all" in names else names


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


def _tasks(
    names: Sequence[str], dims: Sequence[int], trials: int, numbers: Iterable[int]
) -> Iterator[tuple[str, int, range]]:
    """The ``(identity, dimension, batch)`` of each task number in
    ``numbers``, made one at a time. Task numbers order a run's tasks
    largest dimension first, then by identity name, then by batch, where
    the batches are the trials ``0, ..., trials - 1`` as consecutive ranges
    of ``BATCH_SIZE``, the last one shorter. A task is computed from its
    number alone, so nothing the size of the run is made."""
    names, dims = sorted(names), sorted(dims, reverse=True)
    batches = -(-trials // BATCH_SIZE)
    for number in numbers:
        block, batch = divmod(number, batches)
        dim, name = divmod(block, len(names))
        start = batch * BATCH_SIZE
        yield names[name], dims[dim], range(start, min(start + BATCH_SIZE, trials))


def _claims(counter: int, worker: int, tasks: int) -> Iterator[int]:
    """The task numbers below ``tasks`` that ``worker`` claims, one at a
    time, each when the previous one is done, from ``counter``: a file
    shared by a run's workers, whose bytes 0-7 hold the next unclaimed
    number and bytes ``8 * (worker + 1)`` onwards how many tasks ``worker``
    has claimed. A claim reads and advances the next number under an
    exclusive ``fcntl.lockf`` lock, which the kernel drops when its holder
    dies, so a worker killed while it claims holds up no other."""
    import fcntl  # POSIX only; only a run that forks claims

    claimed = 0
    while True:
        fcntl.lockf(counter, fcntl.LOCK_EX)
        try:
            number = int.from_bytes(os.pread(counter, 8, 0), "little")
            os.pwrite(counter, (number + 1).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(counter, fcntl.LOCK_UN)
        if number >= tasks:
            return
        claimed += 1
        os.pwrite(counter, claimed.to_bytes(8, "little"), 8 * (worker + 1))
        yield number


def _merge(folded: dict[str, list], name: str, max_dev: float, count: int, seconds: float) -> None:
    """Fold one identity's share into ``folded[name]`` = ``[max deviation,
    instances, seconds]``: an exact ``max`` and an integer sum, so the order
    of the shares changes no reported bit."""
    acc = folded.setdefault(name, [0.0, 0, 0.0])
    acc[0] = max(acc[0], max_dev)
    acc[1] += count
    acc[2] += seconds


def _fold(tasks: Iterable[tuple[str, int, range]], seed: int) -> tuple[int, dict[str, list]]:
    """Run ``tasks`` and fold them per identity (``_merge``): the number of
    tasks run and the folded shares."""
    folded: dict[str, list] = {}
    done = 0
    for name, dim, batch in tasks:
        start = time.perf_counter()
        states = _trial_states((seed, zlib.crc32(name.encode("utf-8")), dim), batch)
        devs = _instance_deviations(_REGISTRY[name].runner, states, dim)
        _merge(folded, name, float(devs.max()), len(devs), time.perf_counter() - start)
        done += 1
    return done, folded


def _worker_count() -> int:
    """The processes a check run spreads over: the CPUs this process may
    run on, or 1 without ``os.fork`` (or the ``os.memfd_create`` that holds
    the workers' task counter) or where forking is unsafe, i.e. where the
    process runs a second OS thread (a multi-threaded BLAS, a
    ``threading.Thread``) or its threads cannot be counted."""
    if not all(hasattr(os, call) for call in ("fork", "sched_getaffinity", "memfd_create")):
        return 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return 1
    return len(os.sched_getaffinity(0)) if threads == 1 else 1


@contextmanager
def _interrupts_held():
    """Hold ``SIGINT`` back for the block, so that a child is never forked
    or reaped without the parent's record of it changing too; an interrupt
    that arrives meanwhile is raised when the block ends."""
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _child(read: int, write: int, mask, tasks: Iterable[tuple[str, int, range]], seed: int) -> NoReturn:
    """A forked worker: run ``tasks``, send the fold to the parent as JSON
    through the pipe's ``write`` end and end with ``os._exit``, with status
    0 only when all of it was written. A child never returns into its
    caller, flushes the parent's stdio buffers or runs ``atexit`` handlers."""
    status = 1
    try:
        os.close(read)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        payload = memoryview(json.dumps(_fold(tasks, seed)).encode("ascii"))
        while payload:
            payload = payload[os.write(write, payload):]
        status = 0
    finally:
        os._exit(status)


def _read_to_end(read: int) -> bytes:
    chunks = []
    while chunk := os.read(read, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _share(pid: int, status: int, payload: bytes, expected: int) -> dict[str, list]:
    """The fold a child sent, if it exited with status 0 after sending the
    ``expected`` number of tasks, those it claimed; ``RuntimeError`` naming
    its status otherwise."""
    if status != 0:
        raise RuntimeError(f"check worker {pid} exited with status {status}")
    try:
        done, folded = json.loads(payload)
    except (TypeError, ValueError):
        done, folded = None, {}
    if done != expected:
        raise RuntimeError(f"check worker {pid} exited with status 0 but sent incomplete results")
    return folded


def _spread(names: Sequence[str], dims: Sequence[int], trials: int, seed: int) -> dict[str, list]:
    """Run every task of a run and fold them per identity.

    ``W = _worker_count()`` workers run the tasks (at most one worker per
    task): worker 0 is this process, and each other worker is a child
    forked for this run, which sends the number of tasks it ran and its
    fold back through a pipe. With ``W = 1`` the tasks run in process in
    task-number order; otherwise each worker claims the next task number
    whenever it is free (``_claims``), so the tasks start in number order
    and a worker that its batches or the host slow down runs fewer of them.
    Every batch runs as it would in one process, so the merged fold has the
    same bits whatever ``W`` and whichever worker ran which task. A child
    that exits with another status than 0 or sends another count than the
    tasks it claimed, and workers that ran another total than the run's
    tasks, raise ``RuntimeError``. On any exception, an interrupt included,
    the children not yet reaped are killed and reaped before it propagates,
    so no process outlives the call.
    """
    tasks = len(dims) * len(names) * -(-trials // BATCH_SIZE)
    workers = min(_worker_count(), tasks)
    if workers == 1:
        return _fold(_tasks(names, dims, trials, range(tasks)), seed)[1]
    counter = os.memfd_create("qcond-task-counter")
    reads: list[int] = []  # the read end of each child's pipe, in worker order
    unreaped: dict[int, int] = {}  # child pid -> its worker index
    try:
        for worker in range(1, workers):
            with _interrupts_held() as mask:
                read, write = os.pipe()
                reads.append(read)
                try:
                    pid = os.fork()
                    if pid == 0:
                        share = _tasks(names, dims, trials, _claims(counter, worker, tasks))
                        _child(read, write, mask, share, seed)
                    unreaped[pid] = worker
                finally:
                    os.close(write)
        done, folded = _fold(_tasks(names, dims, trials, _claims(counter, 0, tasks)), seed)
        for pid, worker in list(unreaped.items()):
            payload = _read_to_end(reads[worker - 1])
            with _interrupts_held():
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del unreaped[pid]
            claimed = int.from_bytes(os.pread(counter, 8, 8 * (worker + 1)), "little")
            for name, share in _share(pid, status, payload, claimed).items():
                _merge(folded, name, *share)
            done += claimed
        if done != tasks:
            raise RuntimeError(f"check workers ran {done} of {tasks} tasks")
    finally:
        os.close(counter)
        for read in reads:
            os.close(read)
        for pid in unreaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return folded


def run_checks(
    suite: str | Sequence[str] | None,
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
    included), a negative ``trials`` or ``seed``, ``trials >= 2**32``, no
    dimension at all and a dimension below 1 raise ``ValueError``.
    An instance's deviation is the largest its runner yields. An instance
    that raises any ``Exception`` (a violated construction invariant
    included), yields a non-finite deviation or yields nothing counts as
    failed, with deviation ``inf``, and the run continues; ``tol`` must be
    finite and positive.

    The batches run spread over the CPUs the process may use, in forked
    worker processes (``_spread``), with the same report bytes as in one
    process. A worker that dies or sends incomplete results raises
    ``RuntimeError``; no worker outlives the call. An identity's
    ``elapsed_seconds`` is the summed time of its batches, not wall time.
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
    if not dims:
        raise ValueError("dims must name at least one dimension")
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive")
    results: list[IdentityResult] = []
    if trials > 0:
        folded = _spread(names, dims, trials, seed)
        for name in sorted(names):
            max_dev, count, elapsed = folded[name]
            results.append(
                IdentityResult(
                    name=name,
                    statement=_REGISTRY[name].statement,
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
