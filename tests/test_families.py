"""Batched family construction: operation families checked once, from their
total, dual images in one product, and Holevo grids built from one
decomposition of each effect and each state."""

from functools import partial

import numpy as np
import pytest

from qcond.channels import (
    Channel,
    Operation,
    map_deviation,
)
from qcond.effects import Observable, State
from qcond.errors import InvariantViolation
from qcond.instruments import (
    HolevoSpec,
    Instrument,
    _holevo_family,
    condition_instrument,
    given_instrument,
    holevo_compose,
    holevo_instrument,
    holevo_operation,
    instrument_deviation,
)
from qcond.linalg import hermitian_part
from qcond.measurement import (
    HolevoSeparableSpec,
    KrausSeparableChannel,
    MeasurementModel,
    holevo_model_quantities,
)
from qcond.rand import random_channel, random_holevo_spec, random_instrument, random_observable, random_state
from qcond.scenario import Scenario, load_scenario, save_scenario

from factorizations import watch_factorizations, watch_trace_rules
from pinned import assert_pinned

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def _complex_stack(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))


@pytest.mark.parametrize("batched", [False, True])
def test_dual_images_match_per_matrix_duals(batched):
    rng = np.random.default_rng(5)
    for dim_in, dim_out, n_kraus in [(2, 3, 2), (3, 2, 2), (1, 4, 3)]:
        ops = [random_channel(dim_in, dim_out, n_kraus, rng).scaled(0.8) for _ in range(3)]
        mats = _complex_stack(rng, 4, dim_out)  # neither Hermitian nor positive
        expected = [hermitian_part(np.stack([op.dual_matrix(m) for m in mats])) for op in ops]
        if batched:  # one product for the whole batch, member by member
            batch = Operation._checked(np.stack([op.kraus_stack for op in ops]), 1e-9)
            got = batch._dual_images(mats[None])
        else:
            got = [op._dual_images(mats) for op in ops]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def _rank_deficient_spec(dim: int, states) -> HolevoSpec:
    """Projective measurement on ``dim`` (every effect has rank one)."""
    effects = np.stack([np.diag(np.eye(dim)[i]).astype(complex) for i in range(dim)])
    obs = Observable(tuple(f"x{i}" for i in range(dim)), effects)
    return HolevoSpec(obs, tuple(states))


def test_holevo_instrument_entries_match_holevo_operation():
    rng = np.random.default_rng(11)
    specs = [random_holevo_spec(3, 2, 3, rng),
             _rank_deficient_spec(2, [random_state(3, rng), State.pure([1.0, 0.0, 0.0])])]
    for spec in specs:
        ins = holevo_instrument(spec)
        for e, s, op in zip(spec.observable.effects, spec.states, ins.ops):
            assert map_deviation(op, holevo_operation(e, s)) <= 1e-12


def test_holevo_compose_entries_match_holevo_operation():
    # alpha_0 = |0><0| and B_0 = |1><1| give a zero coefficient tr(alpha_0 B_0);
    # the first stage's effects are rank-one projectors.
    rng = np.random.default_rng(12)
    first = _rank_deficient_spec(2, [State(PROJ0), random_state(2, rng)])
    second = HolevoSpec(Observable(("y0", "y1"), (PROJ1, PROJ0)),
                        (random_state(3, rng), State.pure([0.0, 1.0, 1.0])))
    composed = holevo_compose(second, first)
    for x, (alpha, ax) in enumerate(zip(first.states, first.observable.effect_stack)):
        for y, (by, beta) in enumerate(zip(second.observable.effect_stack, second.states)):
            coeff = float(np.trace(alpha.matrix @ by).real)
            expected = holevo_operation(coeff * ax, beta)
            assert map_deviation(composed.ops[x][y], expected) <= 1e-12
    assert np.count_nonzero(composed.ops[0][0].kraus_stack) == 0


def test_holevo_model_grid_matches_holevo_operation():
    # gamma_0 = |0><0| against P_1 = |1><1| gives a zero outcome weight.
    rng = np.random.default_rng(13)
    obs = Observable(("a0", "a1"), (PROJ0, PROJ1))
    spec = HolevoSeparableSpec(obs, (random_state(2, rng), random_state(2, rng)),
                               (State(PROJ0), random_state(2, rng)))
    probe = Observable(("p0", "p1"), (PROJ0, PROJ1))
    q = holevo_model_quantities(spec, probe)
    assert q.outcome_weights[0, 1] == 0.0
    for x in range(2):
        for y in range(2):
            expected = holevo_operation(q.outcome_weights[x, y] * obs.effect_stack[x],
                                        spec.base_states[x])
            assert map_deviation(q.bi_instrument.ops[x][y], expected) <= 1e-12
        assert map_deviation(q.reduced_instrument.ops[x],
                             holevo_operation(obs.effect_stack[x], spec.base_states[x])) <= 1e-12


def test_family_members_keep_their_class():
    rng = np.random.default_rng(14)
    ch = random_channel(2, 2, 2, rng)
    single = Instrument(("u",), (ch,))
    assert type(given_instrument(single, single).ops[0][0]) is Channel
    ins = random_instrument(2, 2, 2, rng)
    assert all(type(op) is Operation for row in given_instrument(single, ins).ops for op in row)
    assert all(type(op) is Operation for op in condition_instrument(ch, ins).ops)
    assert type(condition_instrument(ch, single).ops[0]) is Channel
    for op, ref in zip(condition_instrument(ch, ins).ops, ins.ops):
        assert map_deviation(op, ch.then(ref)) == 0.0


def test_operation_family_rejects_an_over_scaled_member():
    good = random_channel(2, 2, 2, 15).kraus_stack / np.sqrt(2)
    assert len(Instrument._from_kraus(("a", "b"), [good, good], 1e-9).ops) == 2
    assert len(Instrument._from_kraus((("x",), ("a", "b")), [good, good], 1e-9).ops[0]) == 2
    with pytest.raises(InvariantViolation, match="total channel"):
        Instrument._from_kraus(("a", "b"), [good, 1.5 * good], 1e-9)
    with pytest.raises(InvariantViolation, match="total channel"):
        Instrument._from_kraus((("x",), ("a", "b")), [good, 1.5 * good], 1e-9)
    # a Channel member is checked for sum K†K == I when its family is admitted
    channels = tuple(Channel._unchecked(k) for k in (good * np.sqrt(2), good))
    with pytest.raises(InvariantViolation, match="trace preservation"):
        Instrument(("a", "b"), channels, 1e-9)
    with pytest.raises(InvariantViolation, match="trace preservation"):
        Instrument((("x",), ("a", "b")), (channels,), 1e-9)


def test_a_lone_channel_member_is_checked_once_as_the_total():
    # a one-member family's total is its member: the total's check is the
    # only one, and its error is the one raised
    lone = Channel._unchecked(random_channel(2, 2, 2, 15).kraus_stack / np.sqrt(2))
    total = InvariantViolation("Instrument", "total channel", "sum K†K must equal I")
    assert_pinned(lambda: Instrument(("a",), (lone,), 1e-9), total)
    assert_pinned(lambda: Instrument((("x",), ("a",)), ((lone,),), 1e-9), total)


def test_holevo_family_rejects_an_over_scaled_member():
    effects = np.stack([PROJ0, 1.5 * PROJ1])
    states = np.stack([PROJ0, PROJ1])
    idx = np.arange(2)
    with pytest.raises(InvariantViolation, match="total channel"):
        Instrument._from_kraus(("a", "b"), _holevo_family(effects, states, idx, idx, np.ones(2), 1e-9), 1e-9)
    with pytest.raises(InvariantViolation, match="total channel"):
        stacks = _holevo_family(effects[:1], states, [0, 0], idx, np.array([1.0, 1.5]), 1e-9)
        Instrument._from_kraus((("x",), ("a", "b")), stacks, 1e-9)


def test_composed_and_marginal_families_reject_an_over_scaled_member():
    # 1.1 I is trace non-increasing only at a loose tolerance; a family built
    # from it at the default tolerance must reject it.
    loose = 0.5
    big = Operation([1.1 * np.eye(2)], loose)
    ident = Channel.identity(2)
    with pytest.raises(InvariantViolation, match="total channel"):
        condition_instrument(ident, Instrument(("x",), (big,), loose))
    with pytest.raises(InvariantViolation, match="total channel"):
        given_instrument(Instrument(("u",), (ident,)), Instrument(("x",), (big,), loose))
    grid = Instrument((("x0",), ("y0", "y1")), ((big, big.scaled(0.01, loose)),), loose)
    with pytest.raises(InvariantViolation, match="total channel"):
        grid.marginal(0)


def test_total_keeps_the_family_tolerance():
    loose = 0.5
    big = Operation([np.sqrt(1.2) * np.eye(2)], loose)
    for total in (Instrument(("x",), (big,), loose).total_channel(),
                  Instrument((("x",), ("y",)), ((big,),), loose).total_channel()):
        np.testing.assert_allclose(total.kraus_stack, big.kraus_stack, rtol=0, atol=0)
        assert type(total) is Channel
        assert total.kraus_stack.tobytes() == big.kraus_stack.tobytes()


@pytest.fixture()
def spectral_calls(monkeypatch):
    """Counts of the ``eigh``, ``eigvalsh`` and ``cholesky`` calls of the
    factorization kernel."""
    counts = {"eigh": 0, "eigvalsh": 0, "cholesky": 0}
    watch_factorizations(monkeypatch, lambda name, m, out: counts.__setitem__(name, counts[name] + 1))
    return counts


def test_holevo_compose_decomposes_each_effect_and_state_at_most_once(monkeypatch):
    rng = np.random.default_rng(16)
    first = random_holevo_spec(2, 3, 2, rng)
    second = random_holevo_spec(3, 2, 3, rng)
    decomposed = []
    watch_factorizations(monkeypatch, lambda name, m, out: name == "eigh" and decomposed.append(m.shape))
    composed = holevo_compose(second, first)
    assert (len(composed.axes[0]), len(composed.axes[1])) == (2, 3)
    # one batched eigh of the first stage's two effects and one of the second
    # stage's three states, both on the qubit: counted through the kernel, so
    # a decomposition made outside it fails here
    assert decomposed == [(2, 2, 2), (3, 2, 2)]


def test_random_instrument_spectral_checks_do_not_grow_with_outcomes(spectral_calls):
    totals = []
    for n_outcomes in (2, 4, 7):
        spectral_calls.update(eigh=0, eigvalsh=0, cholesky=0)
        random_instrument(2, 3, n_outcomes, 17)
        totals.append(sum(spectral_calls.values()))
    assert totals[0] == totals[1] == totals[2]


def _specs(n: int, rng: np.random.Generator) -> tuple[list, list]:
    """``n`` raw (writable) states on a qubit, and each spec class built from
    them, as a call with no arguments, with the number of state families it
    holds."""
    obs = random_observable(2, n, rng)
    raw = [np.array(random_state(2, rng).matrix) for _ in range(n)]
    factors = tuple(random_channel(2, 2, n, rng).kraus_stack)
    return raw, [(partial(HolevoSpec, obs, raw), 1),
                 (partial(HolevoSeparableSpec, obs, raw, raw), 2),
                 (partial(KrausSeparableChannel, factors, raw), 1)]


@pytest.mark.parametrize("n", [2, 4])
def test_each_spec_checks_each_state_family_with_one_factorization(n, spectral_calls):
    for build, families in _specs(n, np.random.default_rng(20))[1]:
        spectral_calls.update(eigh=0, eigvalsh=0, cholesky=0)
        build()
        # one factorization per state family; no eigenvalue fallback
        assert spectral_calls == {"eigh": 0, "eigvalsh": 0, "cholesky": families}


def test_specs_check_a_given_state_again_at_their_tolerance():
    loose = State(np.diag([1.2, -0.2]), 0.5)
    good = State(PROJ0)
    obs = Observable(("a0", "a1"), (PROJ0, PROJ1))
    builds = [partial(HolevoSpec, obs, (good, loose)),
              partial(HolevoSeparableSpec, obs, (good, loose), (good, good)),
              partial(HolevoSeparableSpec, obs, (good, good), (good, loose)),
              partial(KrausSeparableChannel, (PROJ0, PROJ1), (good, loose))]
    for build in builds:
        build(atol=0.5)
        with pytest.raises(InvariantViolation, match="State: violated invariant 'positive'"):
            build()


def test_spec_states_are_read_only_views_of_the_stack():
    raw, builds = _specs(3, np.random.default_rng(21))
    holevo, separable, kraus = (build() for build, _ in builds)
    views = [(holevo._states, holevo.states), (separable._base, separable.base_states),
             (separable._probe, separable.probe_states), (kraus._states, kraus.probe_states)]
    for stack, states in views:
        assert stack.shape == (3, 2, 2) and not stack.flags.writeable
        assert not any(np.shares_memory(stack, r) for r in raw)
        for i, s in enumerate(states):
            assert isinstance(s, State)
            assert np.shares_memory(s.matrix, stack[i])
            np.testing.assert_array_equal(s.matrix, raw[i])
            with pytest.raises(ValueError):
                s.matrix[0, 0] = 0.5
    assert holevo.state("x1") is holevo.states[1]
    assert all(np.shares_memory(k, kraus._factors[i]) for i, k in enumerate(kraus.factors))


LOOSE = 0.5


def _model(ins: Instrument) -> MeasurementModel:
    return MeasurementModel(2, 2, ins, Observable(("p0", "p1"), (PROJ0, PROJ1)))


def _saved(ins: Instrument, path) -> str:
    save_scenario(Scenario(instruments={"ins": ins}), path)
    return path


# Each entry: the output dimension of the instrument it starts from, and a
# function that prepares everything from that instrument and returns the
# family's construction as a call with no arguments.
FAMILY_PATHS = {
    "measured_instrument": (4, lambda ins, path: _model(ins).measured_instrument),
    "measured_bi_instrument": (4, lambda ins, path: _model(ins).measured_bi_instrument),
    "reduced_instrument": (4, lambda ins, path: _model(ins).reduced_instrument),
    "given_instrument": (2, lambda ins, path: partial(given_instrument, ins, ins)),
    # the first marginal of a two-axis instrument
    "marginal1": (2, lambda ins, path: partial(Instrument(
        (ins.outcomes, ("y",)), tuple((op,) for op in ins.ops), LOOSE).marginal, 0)),
    "holevo_instrument": (2, lambda ins, path: partial(holevo_instrument, HolevoSpec(
        ins.measured_observable(LOOSE), (State(PROJ0), State(PROJ1)), LOOSE))),
    "loaded_instrument": (2, lambda ins, path: partial(load_scenario, _saved(ins, path))),
}


@pytest.fixture()
def trace_rules(monkeypatch):
    """The family totals whose trace rules were decided, in order."""
    totals = []
    watch_trace_rules(monkeypatch, totals.append)
    return totals


@pytest.mark.parametrize("path_name", FAMILY_PATHS)
def test_each_family_checks_its_trace_condition_with_one_eigvalsh(path_name, spectral_calls, trace_rules, tmp_path):
    dim_out, prepare = FAMILY_PATHS[path_name]
    ins = random_instrument(2, dim_out, 2, 18, kraus_per_outcome=2)
    build = prepare(ins, tmp_path / "good.json")
    spectral_calls.update(eigvalsh=0, cholesky=0)
    trace_rules.clear()
    build()
    # one decision of the family total's trace rules, which its entrywise
    # deviation certifies: no factorization, no eigenvalue fallback
    assert len(trace_rules) == 1
    assert (spectral_calls["cholesky"], spectral_calls["eigvalsh"]) == (0, 0)
    # every operation scaled by 1.1, admitted at a loose tolerance: the
    # family built from it at the default tolerance rejects it
    big = Instrument(ins.outcomes, tuple(op.scaled(1.1, LOOSE) for op in ins.ops), LOOSE)
    with pytest.raises(ValueError, match="total channel"):
        prepare(big, tmp_path / "big.json")()


def test_a_family_total_beyond_the_margin_is_decided_by_one_cholesky(spectral_calls, trace_rules):
    atol = 1e-9
    ins = random_instrument(2, 2, 2, 18, kraus_per_outcome=2)
    # the total, (1 - atol/4)·I up to rounding, deviates from I by more than
    # the margin, atol/(2(d + 2)) = atol/8, and by less than atol
    ops = tuple(op.scaled(np.sqrt(1 - atol / 4)) for op in ins.ops)
    spectral_calls.update(eigvalsh=0, cholesky=0)
    trace_rules.clear()
    Instrument(ins.outcomes, ops, atol)
    (total,) = trace_rules
    assert atol / 8 < np.abs(total - np.eye(2)).max() < atol
    # one factorization certifies sum K†K <= I; no eigenvalue fallback
    assert (spectral_calls["cholesky"], spectral_calls["eigvalsh"]) == (1, 0)


def test_batched_superoperators_and_map_deviations_are_per_member():
    rng = np.random.default_rng(19)
    kraus = np.stack([random_channel(2, 3, 2, rng).kraus_stack for _ in range(3)])
    other = np.stack([random_channel(2, 3, 2, rng).kraus_stack for _ in range(3)])
    p, q = Channel._checked(kraus, 1e-9), Channel._checked(other, 1e-9)
    for member, k in zip(p.superoperator(), kraus):
        assert member.tobytes() == Channel(k).superoperator().tobytes()
    devs = map_deviation(p, q)
    assert devs.tolist() == [map_deviation(Channel(a), Channel(b)) for a, b in zip(kraus, other)]
    assert map_deviation(p, p).tolist() == [0.0] * 3
    ins_p = Instrument._from_kraus(("a", "b"), [kraus[:, :1], kraus[:, 1:]], 1e-9)
    ins_q = Instrument._from_kraus(("a", "b"), [other[:, :1], other[:, 1:]], 1e-9)
    single = [
        instrument_deviation(Instrument._from_kraus(("a", "b"), [a[:1], a[1:]], 1e-9),
                             Instrument._from_kraus(("a", "b"), [b[:1], b[1:]], 1e-9))
        for a, b in zip(kraus, other)
    ]
    assert instrument_deviation(ins_p, ins_q).tolist() == single
    grid_p = Instrument._from_kraus((("x",), ("a", "b")), [kraus[:, :1], kraus[:, 1:]], 1e-9)
    grid_q = Instrument._from_kraus((("x",), ("a", "b")), [other[:, :1], other[:, 1:]], 1e-9)
    assert instrument_deviation(grid_p, grid_q).tolist() == single
