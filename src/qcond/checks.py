"""Registry of executable identities and the batch check runner.

Every structural identity the library guarantees is registered here once,
under a descriptive name, with a one-line statement and a runner that
evaluates it on one seeded random instance and reports the worst absolute
deviation. ``run_checks`` sweeps the registry over dimensions and trials and
assembles a deterministic report: identical inputs give byte-identical JSON
(elapsed times are kept out of the JSON for that reason).
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .channels import (
    Channel,
    LinearMap,
    condition_observable,
    complete_subnormalized,
    map_deviation,
)
from .effects import (
    StochasticMatrix,
    affine_combination,
    bi_observable_deviation,
    marginals,
    observable_deviation,
    part,
    post_process,
)
from .instruments import (
    bi_instrument_deviation,
    given_distribution,
    given_instrument,
    given_observable,
    holevo_compose,
    holevo_instrument,
    instrument_deviation,
)
from .linalg import DEFAULT_ATOL, kron, max_abs_diff, require_tolerance
from .measurement import (
    HolevoSeparableSpec,
    KrausSeparableChannel,
    MeasurementModel,
    holevo_model_quantities,
)
from .rand import (
    random_channel,
    random_effect,
    random_holevo_spec,
    random_instrument,
    random_observable,
    random_state,
    random_stochastic_matrix,
    random_surjection,
)

__all__ = [
    "IdentityCheck",
    "IdentityResult",
    "CheckReport",
    "REGISTRY",
    "registered_identities",
    "resolve_suite",
    "run_checks",
]

Runner = Callable[[np.random.Generator, int, float], float]


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
                {
                    "name": r.name,
                    "statement": r.statement,
                    "dims": r.dims,
                    "instances": r.instances,
                    "max_deviation": r.max_deviation,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
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


def _worst(*devs: float) -> float:
    """The largest deviation; NaN when any is NaN (``max`` would drop it)."""
    return math.nan if any(d != d for d in devs) else max(devs)


def _subsets(labels: Sequence[str]) -> list[tuple[str, ...]]:
    return list(chain.from_iterable(combinations(labels, k) for k in range(len(labels) + 1)))


def _embed_square(m: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=complex)
    out[: m.shape[0], : m.shape[1]] = m
    return out


def _run_postprocess_part_compose(rng: np.random.Generator, dim: int, atol: float) -> float:
    obs = random_observable(dim, 4, rng)
    lam = random_stochastic_matrix(obs.outcomes, ("y0", "y1", "y2"), rng)
    mu = random_stochastic_matrix(lam.targets, ("z0", "z1"), rng)
    dev = observable_deviation(
        post_process(post_process(obs, lam), mu), post_process(obs, lam.then(mu))
    )
    f = random_surjection(obs.outcomes, ("u0", "u1", "u2"), rng)
    g = random_surjection(f.targets, ("v0", "v1"), rng)
    return _worst(dev, observable_deviation(part(part(obs, f), g), part(obs, f.then(g))))


def _run_dual_map(rng: np.random.Generator, dim: int, atol: float) -> float:
    ch = random_channel(dim, dim + 1, 2, rng)
    rho = random_state(dim, rng)
    a = random_effect(dim + 1, rng)
    dev = abs(
        np.trace(rho.matrix @ ch.dual_apply(a).matrix) - np.trace(ch.apply(rho) @ a.matrix)
    )
    b_obs = random_observable(dim + 1, 3, rng)
    e0, e1 = b_obs.effects[0].matrix, b_obs.effects[1].matrix
    dev = _worst(dev, max_abs_diff(ch.dual_matrix(e0 + e1), ch.dual_matrix(e0) + ch.dual_matrix(e1)))
    return _worst(dev, max_abs_diff(ch.dual_matrix(np.eye(dim + 1)), np.eye(dim)))


def _run_contravariance(rng: np.random.Generator, dim: int, atol: float) -> float:
    first = random_channel(dim, dim + 1, 2, rng).scaled(float(rng.uniform(0.7, 1.0)))
    second = random_channel(dim + 1, dim, 2, rng).scaled(float(rng.uniform(0.7, 1.0)))
    b = random_effect(dim, rng)
    return max_abs_diff(
        first.then(second).dual_matrix(b.matrix),
        first.dual_matrix(second.dual_matrix(b.matrix)),
    )


def _run_conditioning_affine(rng: np.random.Generator, dim: int, atol: float) -> float:
    ch = random_channel(dim, dim + 1, 2, rng)
    a1 = random_observable(dim + 1, 3, rng)
    a2 = random_observable(dim + 1, 3, rng)
    w = float(rng.uniform(0.0, 1.0))
    lhs = condition_observable(ch, affine_combination([a1, a2], [w, 1.0 - w]))
    rhs = affine_combination(
        [condition_observable(ch, a1), condition_observable(ch, a2)], [w, 1.0 - w]
    )
    return observable_deviation(lhs, rhs)


def _run_subnormalized_completion(rng: np.random.Generator, dim: int, atol: float) -> float:
    dim2 = dim + 1
    ch = random_channel(dim, dim2, 2, rng)
    family = random_observable(dim2, 3, rng).effects[:2]
    completed = complete_subnormalized(ch, family)
    dev = max_abs_diff(sum(e.matrix for e in completed.effects), np.eye(dim2))
    # engineered instance: channel range inside a proper subspace, residual
    # supported on its complement, so the residual's dual vanishes exactly
    small = random_channel(dim, dim, 2, rng)
    lifted = Channel(tuple(np.vstack([k, np.zeros((1, dim))]) for k in small.kraus))
    sub = random_observable(dim, 2, rng)
    bs = [_embed_square(e.matrix, dim2) for e in sub.effects]
    completed2 = complete_subnormalized(lifted, bs)
    conditioned = condition_observable(lifted, completed2)
    for label, b in zip(completed2.outcomes, bs):
        dev = _worst(
            dev,
            max_abs_diff(conditioned.effect(label).matrix, lifted.dual_apply(b).matrix),
        )
    return dev


def _run_given_marginals(rng: np.random.Generator, dim: int, atol: float) -> float:
    ins = random_instrument(dim, dim + 1, 3, rng)
    b_obs = random_observable(dim + 1, 2, rng)
    grid = given_observable(b_obs, ins)
    m1, m2 = marginals(grid)
    dev = observable_deviation(m1, ins.measured_observable())
    dev = _worst(dev, observable_deviation(m2, condition_observable(ins.total_channel(), b_obs)))
    rho = random_state(dim, rng)
    branch = {x: ins.op(x).apply(rho) for x in ins.outcomes}
    for s1 in _subsets(ins.outcomes):
        for s2 in _subsets(b_obs.outcomes):
            factored = given_distribution(b_obs, ins, rho, s1, s2)
            double = sum(
                float(np.trace(branch[x] @ b_obs.effect(y).matrix).real)
                for x in s1
                for y in s2
            )
            dev = _worst(dev, abs(factored - double))
    return dev


def _run_closure(rng: np.random.Generator, dim: int, atol: float) -> float:
    ch = random_channel(dim, dim + 1, 2, rng)
    a_obs = random_observable(dim + 1, 3, rng)
    lam = random_stochastic_matrix(a_obs.outcomes, ("y0", "y1"), rng)
    dev = observable_deviation(
        condition_observable(ch, post_process(a_obs, lam)),
        post_process(condition_observable(ch, a_obs), lam),
    )
    f = random_surjection(a_obs.outcomes, ("u0", "u1"), rng)
    return _worst(
        dev,
        observable_deviation(
            part(condition_observable(ch, a_obs), f),
            condition_observable(ch, part(a_obs, f)),
        ),
    )


def _run_holevo_composition(rng: np.random.Generator, dim: int, atol: float) -> float:
    first = random_holevo_spec(dim, dim + 1, 2, rng)
    second = random_holevo_spec(dim + 1, dim, 2, rng)
    ins_first = holevo_instrument(first)
    ins_second = holevo_instrument(second)
    dev = observable_deviation(ins_first.measured_observable(), first.observable)
    b = random_effect(dim + 1, rng)
    for x, op in zip(first.observable.outcomes, ins_first.ops):
        coeff = float(np.trace(first.state(x).matrix @ b.matrix).real)
        formula = coeff * first.observable.effect(x).matrix
        dev = _worst(dev, max_abs_diff(op.dual_matrix(b.matrix), formula))
    composed = holevo_compose(second, first)
    dev = _worst(dev, bi_instrument_deviation(composed, given_instrument(ins_first, ins_second)))
    rho = random_state(dim, rng)
    m1 = composed.marginal1()
    m2 = composed.marginal2()
    b_obs = second.observable
    for x in first.observable.outcomes:
        px = float(np.trace(rho.matrix @ first.observable.effect(x).matrix).real)
        alpha = first.state(x)
        expected = px * sum(
            float(np.trace(alpha.matrix @ b_obs.effect(y).matrix).real) * second.state(y).matrix
            for y in b_obs.outcomes
        )
        dev = _worst(dev, max_abs_diff(m1.op(x).apply(rho), expected))
    for y in b_obs.outcomes:
        weight = sum(
            float(np.trace(rho.matrix @ first.observable.effect(x).matrix).real)
            * float(np.trace(first.state(x).matrix @ b_obs.effect(y).matrix).real)
            for x in first.observable.outcomes
        )
        dev = _worst(dev, max_abs_diff(m2.op(y).apply(rho), weight * second.state(y).matrix))
    return dev


def _run_measurement_pointer(rng: np.random.Generator, dim: int, atol: float) -> float:
    dim_probe = 2
    ins = random_instrument(dim, dim * dim_probe, 2, rng)
    probe = random_observable(dim_probe, 2, rng)
    model = MeasurementModel(dim, dim_probe, ins, probe)
    bi_obs = model.measured_bi_observable()
    pointer = model.measured_pointer_observable()
    meas_ins = model.measured_instrument()
    dev = 0.0
    for y in probe.outcomes:
        dev = _worst(
            dev,
            max_abs_diff(pointer.effect(y).matrix, meas_ins.op(y).measured_effect().matrix),
        )
    total = ins.total_channel()
    eye = np.eye(dim)
    for y in probe.outcomes:
        lifted = kron(eye, probe.effect(y).matrix)
        formula = sum(k.conj().T @ lifted @ k for k in total.kraus)
        dev = _worst(dev, max_abs_diff(pointer.effect(y).matrix, formula))
    dev = _worst(dev, observable_deviation(bi_obs.marginal1(), ins.measured_observable()))
    probe2 = random_observable(dim_probe, 3, rng)
    bi_obs2 = MeasurementModel(dim, dim_probe, ins, probe2).measured_bi_observable()
    dev = _worst(dev, observable_deviation(bi_obs2.marginal1(), bi_obs.marginal1()))
    rho = random_state(dim, rng)
    bi_ins = model.measured_bi_instrument()
    for x in ins.outcomes:
        for y in probe.outcomes:
            lhs = float(np.trace(rho.matrix @ bi_obs.effect(x, y).matrix).real)
            rhs = float(np.trace(bi_ins.op(x, y).apply(rho)).real)
            dev = _worst(dev, abs(lhs - rhs))
    return _worst(dev, instrument_deviation(meas_ins, bi_ins.marginal2()))


def _run_kraus_separable(rng: np.random.Generator, dim: int, atol: float) -> float:
    dim_probe = 2
    n = int(rng.integers(1, 4))
    base = random_channel(dim, dim, n, rng)
    ks = KrausSeparableChannel(
        base.kraus, tuple(random_state(dim_probe, rng) for _ in range(n))
    )
    total = ks.total_channel()
    formula_map = LinearMap.from_action(
        lambda m: sum(
            kron(k @ m @ k.conj().T, s.matrix) for k, s in zip(ks.factors, ks.probe_states)
        ),
        dim,
        dim * dim_probe,
    )
    dev = map_deviation(total, formula_map)
    a = random_effect(dim, rng)
    b = random_effect(dim_probe, rng)
    dev = _worst(
        dev,
        max_abs_diff(
            ks.dual_on_product(a, b).matrix,
            total.dual_apply(kron(a.matrix, b.matrix)).matrix,
        ),
    )
    probe = random_observable(dim_probe, 2, rng)
    model = ks.model(probe)
    dev = _worst(dev, instrument_deviation(ks.measured_instrument(probe), model.measured_instrument()))
    dev = _worst(
        dev,
        observable_deviation(ks.pointer_observable(probe), model.measured_pointer_observable()),
    )
    w = ks.outcome_weights(probe)
    dev = _worst(dev, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
    base_obs = ks.base_observable()
    kernel = StochasticMatrix(base_obs.outcomes, probe.outcomes, w)
    return _worst(dev, observable_deviation(ks.pointer_observable(probe), post_process(base_obs, kernel)))


def _run_simple_separable(rng: np.random.Generator, dim: int, atol: float) -> float:
    dim_probe = 2
    n = 2
    base = random_channel(dim, dim, n, rng)
    vecs = []
    for _ in range(n):
        v = rng.standard_normal(dim_probe) + 1j * rng.standard_normal(dim_probe)
        vecs.append(v / np.linalg.norm(v))
    ks = KrausSeparableChannel.simple(base.kraus, vecs)
    lifted = Channel(tuple(kron(a, v.reshape(-1, 1)) for a, v in zip(base.kraus, vecs)))
    dev = map_deviation(ks.total_channel(), lifted)
    phi1 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi2 = rng.standard_normal(dim_probe) + 1j * rng.standard_normal(dim_probe)
    product = np.kron(phi1, phi2)
    for a, v in zip(base.kraus, vecs):
        k = kron(a, v.reshape(-1, 1))
        expected = np.vdot(v, phi2) * (a.conj().T @ phi1)
        dev = _worst(dev, float(np.max(np.abs(k.conj().T @ product - expected))))
    return dev


def _run_holevo_separable(rng: np.random.Generator, dim: int, atol: float) -> float:
    dim_probe = 2
    n = 2
    spec = HolevoSeparableSpec(
        random_observable(dim, n, rng),
        tuple(random_state(dim, rng) for _ in range(n)),
        tuple(random_state(dim_probe, rng) for _ in range(n)),
    )
    probe = random_observable(dim_probe, 2, rng)
    quantities = holevo_model_quantities(spec, probe)
    model = spec.model(probe)
    a = random_effect(dim * dim_probe, rng)
    dev = 0.0
    for x in spec.observable.outcomes:
        dev = _worst(
            dev,
            max_abs_diff(
                quantities.dual_effect(x, a).matrix,
                model.interaction.op(x).dual_apply(a).matrix,
            ),
        )
    dev = _worst(dev, bi_instrument_deviation(quantities.bi_instrument, model.measured_bi_instrument()))
    dev = _worst(dev, instrument_deviation(quantities.instrument, model.measured_instrument()))
    dev = _worst(dev, instrument_deviation(quantities.reduced_instrument, model.reduced_instrument()))
    dev = _worst(
        dev,
        bi_observable_deviation(quantities.bi_observable, model.measured_bi_observable()),
    )
    dev = _worst(
        dev,
        observable_deviation(quantities.pointer_observable, model.measured_pointer_observable()),
    )
    return _worst(dev, float(np.max(np.abs(quantities.outcome_weights.sum(axis=1) - 1.0))))


REGISTRY: dict[str, IdentityCheck] = {
    check.name: check
    for check in [
        IdentityCheck(
            "postprocess-part-compose",
            "post-processing twice equals one post-processing by the composed kernel; "
            "coarse-graining twice equals the composed surjection",
            _run_postprocess_part_compose,
        ),
        IdentityCheck(
            "dual-map",
            "tr[rho I*(a)] == tr[I(rho) a]; the dual adds over summable effects and "
            "fixes the identity exactly when the map is trace preserving",
            _run_dual_map,
        ),
        IdentityCheck(
            "sequential-dual-contravariance",
            "(I then J)*(b) == I*(J*(b)) for operations in sequence",
            _run_contravariance,
        ),
        IdentityCheck(
            "conditioning-affine",
            "conditioning commutes with affine combinations of observables",
            _run_conditioning_affine,
        ),
        IdentityCheck(
            "subnormalized-completion",
            "B_x = b_x + (I - sum b)/n is an observable; conditioning B reproduces the "
            "conditioned b_x whenever the residual's dual vanishes",
            _run_subnormalized_completion,
        ),
        IdentityCheck(
            "given-observable-marginals",
            "marginals of (B given I) are the measured observable and B conditioned by "
            "the total channel; product-set probabilities factor through the updated state",
            _run_given_marginals,
        ),
        IdentityCheck(
            "conditioned-set-closure",
            "conditioning commutes with post-processing and with taking parts",
            _run_closure,
        ),
        IdentityCheck(
            "holevo-composition",
            "two measure-and-prepare stages compose to a measure-and-prepare grid with "
            "effects tr(alpha_x B_y) A_x and prepared states beta_y",
            _run_holevo_composition,
        ),
        IdentityCheck(
            "measurement-pointer",
            "the pointer observable equals the outcome-wise measured effect of the "
            "measured instrument and sum_i K_i†(I⊗P_y)K_i; the interaction marginal "
            "is probe-independent",
            _run_measurement_pointer,
        ),
        IdentityCheck(
            "kraus-separable",
            "separable-channel shortcuts (dual on product effects, measured instrument, "
            "pointer observable) match the partial-trace pipeline; tr(rho_i P_y) is "
            "row-stochastic",
            _run_kraus_separable,
        ),
        IdentityCheck(
            "simple-kraus-separable",
            "lifted operators phi -> A_i phi ⊗ psi_i realize the separable channel with "
            "pure probe states",
            _run_simple_separable,
        ),
        IdentityCheck(
            "holevo-separable",
            "all six closed-form quantities of a product-state measure-and-prepare model "
            "match the partial-trace pipeline; tr(gamma_x P_y) is row-stochastic",
            _run_holevo_separable,
        ),
    ]
}


def registered_identities() -> tuple[str, ...]:
    return tuple(REGISTRY)


def resolve_suite(names: str | Sequence[str]) -> list[str]:
    """Expand a suite spec: the keyword ``all`` or explicit identity names."""
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    names = list(names)
    if names in (["all"], []):
        return list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown identity name(s): {', '.join(sorted(unknown))}")
    return names


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
    identity name. ``trials=0`` yields an empty (vacuously passing) report;
    a negative ``trials`` raises ``ValueError``.
    An instance that raises any ``Exception`` (a violated construction
    invariant included) or yields a non-finite deviation counts as failed,
    with deviation ``inf``, and the run continues; ``tol`` must be finite
    and positive.
    """
    tol = require_tolerance(tol)
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    names = resolve_suite(suite)
    dims = list(dims)
    if any(d < 1 for d in dims):
        raise ValueError("dimensions must be positive")
    results: list[IdentityResult] = []
    if trials > 0:
        for name in sorted(names):
            check = REGISTRY[name]
            key = zlib.crc32(name.encode("utf-8"))
            start = time.perf_counter()
            max_dev = 0.0
            count = 0
            for dim in dims:
                for trial in range(trials):
                    rng = np.random.default_rng([seed, key, dim, trial])
                    try:
                        dev = float(check.runner(rng, dim, tol))
                    except Exception:
                        # an instance that raises (a violated construction
                        # invariant, an unobserved outcome, a failed
                        # factorization) fails; the rest of the run goes on
                        dev = math.inf
                    max_dev = max(max_dev, dev if math.isfinite(dev) else math.inf)
                    count += 1
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
