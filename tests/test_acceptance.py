"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each criterion runs 100 seeded random instances at desk-scale dimensions and
prints one pass/fail line. Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they appear.
"""

import json
import subprocess
import sys

import numpy as np

from qcond.channels import (
    Channel,
    condition_observable,
    complete_subnormalized,
)
from qcond.effects import (
    observable_deviation,
    part,
    post_process,
)
from qcond.instruments import (
    given_distribution,
    given_instrument,
    given_observable,
    holevo_compose,
    holevo_instrument,
    instrument_deviation,
)
from qcond.checks import registered_identities
from qcond.linalg import max_abs_diff
from qcond.measurement import (
    HolevoSeparableSpec,
    KrausSeparableChannel,
    holevo_model_quantities,
)
from qcond.rand import (
    random_channel,
    random_effect,
    random_holevo_spec,
    random_instrument,
    random_observable,
    random_state,
    random_stochastic_matrix,
    random_surjection,
)

TRIALS = 100
TOL = 1e-9


def _report(criterion: str, max_dev: float, tol: float, extra: str = "") -> None:
    passed = max_dev <= tol
    tail = f" {extra}" if extra else ""
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: max deviation {max_dev:.3e} "
          f"(tolerance {tol:g}){tail}")
    assert passed, f"{criterion} exceeded tolerance: {max_dev:.3e} > {tol:g}"


def _rng(criterion: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([2026, criterion, trial])


def test_criterion_01_duality():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(1, trial)
        ch = random_channel(2, 3, 2, rng)
        rho = random_state(2, rng)
        a = random_effect(3, rng)
        lhs = np.trace(rho.matrix @ ch.dual_apply(a).matrix)
        rhs = np.trace(ch.apply(rho) @ a.matrix)
        dev = max(dev, abs(lhs - rhs))
    _report("criterion-01 duality", dev, TOL)


def test_criterion_02_morphism_iff_channel():
    dev = 0.0
    worst_gap = np.inf
    for trial in range(TRIALS):
        rng = _rng(2, trial)
        dim = 2 + trial % 3
        ch = random_channel(dim, dim + 1, 2, rng)
        dev = max(dev, max_abs_diff(ch.dual_matrix(np.eye(dim + 1)), np.eye(dim)))
        shrunk = ch.scaled(0.9)
        gap = max_abs_diff(shrunk.dual_matrix(np.eye(dim + 1)), np.eye(dim))
        worst_gap = min(worst_gap, gap)
    assert worst_gap >= 1e-2, f"sub-normalized operations too close to unit-preserving: {worst_gap:.3e}"
    _report("criterion-02 morphism-iff-channel", dev, TOL,
            extra=f"(sub-normalized gap >= {worst_gap:.3e})")


def test_criterion_03_contravariance():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(3, trial)
        dim = 2 + trial % 3
        first = random_channel(dim, dim + 1, 2, rng).scaled(float(rng.uniform(0.6, 1.0)))
        second = random_channel(dim + 1, dim, 2, rng).scaled(float(rng.uniform(0.6, 1.0)))
        b = random_effect(dim, rng)
        lhs = first.then(second).dual_matrix(b.matrix)
        rhs = first.dual_matrix(second.dual_matrix(b.matrix))
        dev = max(dev, max_abs_diff(lhs, rhs))
    _report("criterion-03 contravariance", dev, TOL)


def test_criterion_04_subnormalized_completion():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(4, trial)
        dim = 2 + trial % 3
        # unconditional validity on a generic sub-normalized family
        ch = random_channel(dim, dim + 1, 2, rng)
        family = random_observable(dim + 1, 3, rng).effects[:2]
        completed = complete_subnormalized(ch, family)
        dev = max(dev, max_abs_diff(sum(e.matrix for e in completed.effects), np.eye(dim + 1)))
        # engineered family whose residual has a vanishing dual image
        small = random_channel(dim, dim, 2, rng)
        lifted = Channel(tuple(np.vstack([k, np.zeros((1, dim))]) for k in small.kraus_stack))
        sub = random_observable(dim, 2, rng)
        bs = []
        for e in sub.effects:
            big = np.zeros((dim + 1, dim + 1), dtype=complex)
            big[:dim, :dim] = e.matrix
            bs.append(big)
        completed2 = complete_subnormalized(lifted, bs)
        conditioned = condition_observable(lifted, completed2)
        for label, b in zip(completed2.outcomes, bs):
            dev = max(dev, max_abs_diff(conditioned.effect(label).matrix,
                                        lifted.dual_apply(b).matrix))
    _report("criterion-04 subnormalized-completion", dev, TOL)


def test_criterion_05_given_observable_marginals():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(5, trial)
        dim = 2 + trial % 3
        n_i = 2 + trial % 2  # |outcome spaces| <= 3
        n_b = 3 - trial % 2
        ins = random_instrument(dim, dim + 1, n_i, rng)
        obs = random_observable(dim + 1, n_b, rng)
        grid = given_observable(obs, ins)
        m1, m2 = grid.marginal(0), grid.marginal(1)
        dev = max(dev, observable_deviation(m1, ins.measured_observable()))
        dev = max(dev, observable_deviation(m2, condition_observable(ins.total_channel(), obs)))
        rho = random_state(dim, rng)
        branch = {x: ins.op(x).apply(rho) for x in ins.outcomes}
        subsets1 = [tuple(ins.outcomes[i] for i in range(n_i) if mask >> i & 1)
                    for mask in range(1 << n_i)]
        subsets2 = [tuple(obs.outcomes[i] for i in range(n_b) if mask >> i & 1)
                    for mask in range(1 << n_b)]
        for s1 in subsets1:
            for s2 in subsets2:
                factored = given_distribution(obs, ins, rho, s1, s2)
                double = sum(np.trace(branch[x] @ obs.effect(y).matrix).real
                             for x in s1 for y in s2)
                dev = max(dev, abs(factored - double))
    _report("criterion-05 given-observable-marginals", dev, TOL)


def test_criterion_06_conditioning_closures():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(6, trial)
        dim = 2 + trial % 3
        ch = random_channel(dim, dim + 1, 2, rng)
        a_obs = random_observable(dim + 1, 3, rng)
        lam = random_stochastic_matrix(a_obs.outcomes, ("y0", "y1"), rng)
        dev = max(dev, observable_deviation(
            condition_observable(ch, post_process(a_obs, lam)),
            post_process(condition_observable(ch, a_obs), lam),
        ))
    for trial in range(TRIALS):
        rng = _rng(6, TRIALS + trial)
        dim = 2 + trial % 3
        ch = random_channel(dim, dim + 1, 2, rng)
        a_obs = random_observable(dim + 1, 3, rng)
        f = random_surjection(a_obs.outcomes, ("u0", "u1"), rng)
        dev = max(dev, observable_deviation(
            part(condition_observable(ch, a_obs), f),
            condition_observable(ch, part(a_obs, f)),
        ))
    _report("criterion-06 conditioning-closures", dev, TOL)


def test_criterion_07_holevo_composition():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(7, trial)
        dim = 2 + trial % 2
        first = random_holevo_spec(dim, dim + 1, 2, rng)
        second = random_holevo_spec(dim + 1, dim, 2, rng)
        closed = holevo_compose(second, first)
        generic = given_instrument(holevo_instrument(first), holevo_instrument(second))
        dev = max(dev, instrument_deviation(closed, generic))
        rho = random_state(dim, rng)
        m1, m2 = closed.marginal(0), closed.marginal(1)
        b_obs = second.observable
        for x in first.observable.outcomes:
            px = np.trace(rho.matrix @ first.observable.effect(x).matrix).real
            alpha = first.state(x)
            expected = px * sum(
                np.trace(alpha.matrix @ b_obs.effect(y).matrix).real * second.state(y).matrix
                for y in b_obs.outcomes
            )
            dev = max(dev, max_abs_diff(m1.op(x).apply(rho), expected))
        for y in b_obs.outcomes:
            weight = sum(
                np.trace(rho.matrix @ first.observable.effect(x).matrix).real
                * np.trace(first.state(x).matrix @ b_obs.effect(y).matrix).real
                for x in first.observable.outcomes
            )
            dev = max(dev, max_abs_diff(m2.op(y).apply(rho), weight * second.state(y).matrix))
    _report("criterion-07 holevo-composition", dev, TOL)


def test_criterion_08_kraus_separable():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(8, trial)
        n = 1 + trial % 3
        base = random_channel(2, 2, n, rng)
        ks = KrausSeparableChannel(base.kraus_stack, tuple(random_state(2, rng) for _ in range(n)))
        total = ks.total_channel()
        a = random_effect(2, rng)
        b = random_effect(2, rng)
        dev = max(dev, max_abs_diff(
            ks.dual_on_product(a, b).matrix,
            total.dual_apply(np.kron(a.matrix, b.matrix)).matrix,
        ))
        probe = random_observable(2, 2, rng)
        model = ks.model(probe)
        dev = max(dev, instrument_deviation(
            ks.measured_instrument(probe), model.measured_instrument()))
        dev = max(dev, observable_deviation(
            ks.pointer_observable(probe), model.measured_pointer_observable()))
        w = ks.outcome_weights(probe)
        dev = max(dev, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
    _report("criterion-08 kraus-separable", dev, TOL)


def test_criterion_09_holevo_separable():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(9, trial)
        dim = 2 + trial % 2
        spec = HolevoSeparableSpec(
            random_observable(dim, 2, rng),
            tuple(random_state(dim, rng) for _ in range(2)),
            tuple(random_state(2, rng) for _ in range(2)),
        )
        probe = random_observable(2, 2, rng)
        q = holevo_model_quantities(spec, probe)
        model = spec.model(probe)
        a = random_effect(dim * 2, rng)
        for x in spec.observable.outcomes:
            dev = max(dev, max_abs_diff(
                q.dual_effect(x, a).matrix,
                model.interaction.op(x).dual_apply(a).matrix,
            ))
        dev = max(dev, instrument_deviation(q.bi_instrument, model.measured_bi_instrument()))
        dev = max(dev, instrument_deviation(q.instrument, model.measured_instrument()))
        dev = max(dev, instrument_deviation(q.reduced_instrument, model.reduced_instrument()))
        dev = max(dev, observable_deviation(q.bi_observable, model.measured_bi_observable()))
        dev = max(dev, observable_deviation(
            q.pointer_observable, model.measured_pointer_observable()))
        dev = max(dev, float(np.max(np.abs(q.outcome_weights.sum(axis=1) - 1.0))))
    _report("criterion-09 holevo-separable", dev, TOL)


def test_criterion_10_composition_laws_pure_arithmetic():
    dev = 0.0
    for trial in range(TRIALS):
        rng = _rng(10, trial)
        dim = 2 + trial % 3
        obs = random_observable(dim, 4, rng)
        lam = random_stochastic_matrix(obs.outcomes, ("y0", "y1", "y2"), rng)
        mu = random_stochastic_matrix(lam.targets, ("z0", "z1"), rng)
        dev = max(dev, observable_deviation(
            post_process(post_process(obs, lam), mu),
            post_process(obs, lam.then(mu)),
        ))
        f = random_surjection(obs.outcomes, ("u0", "u1", "u2"), rng)
        g = random_surjection(f.targets, ("v0", "v1"), rng)
        dev = max(dev, observable_deviation(part(part(obs, f), g), part(obs, f.then(g))))
    _report("criterion-10 composition-laws", dev, 1e-12)


def test_criterion_11_cli_end_to_end():
    args = [sys.executable, "-m", "qcond.cli", "check", "--suite", "all",
            "--trials", "100", "--dims", "2..3", "--seed", "7", "--format", "json"]
    first = subprocess.run(args, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    payload = json.loads(first.stdout)
    names = {entry["name"] for entry in payload["results"]}
    assert names == set(registered_identities())
    worst = 0.0
    for entry in payload["results"]:
        assert entry["max_deviation"] < entry["tolerance"], entry
        worst = max(worst, entry["max_deviation"])
    second = subprocess.run(args, capture_output=True, text=True)
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout, "JSON report is not byte-identical across reruns"
    _report("criterion-11 cli-end-to-end", worst, TOL,
            extra="(byte-identical rerun, every identity listed)")
