"""Tests for instruments, two-axis instruments and Holevo constructions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcond.channels as channels
import qcond.effects as effects
import qcond.instruments as instruments
import qcond.linalg as linalg
from qcond.channels import (
    Channel,
    Operation,
    _choi_kraus,
    _require_trace_non_increasing,
    _require_trace_preserving,
    condition_observable,
    map_deviation,
    map_sum,
)
from qcond.effects import (
    Observable,
    OutcomeMap,
    State,
    StochasticMatrix,
    affine_combination,
    observable_deviation,
    observable_distribution,
    outcome_probabilities,
    part,
    post_process,
)
from qcond.errors import InvariantViolation, OutcomeNotObserved
from qcond.instruments import (
    HolevoSpec,
    Instrument,
    _holevo_family,
    condition_instrument,
    given_distribution,
    given_instrument,
    given_observable,
    holevo_compose,
    holevo_instrument,
    holevo_operation,
    instrument_deviation,
)
from qcond.measurement import (
    HolevoSeparableSpec,
    KrausSeparableChannel,
    MeasurementModel,
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
    random_unitary,
)

from factorizations import watch_factorizations
from map_oracles import deviation_from, remixed, tabulated
from pinned import assert_pinned

PROJ0 = np.diag([1.0, 0.0]).astype(complex)
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def lueders_qubit() -> Instrument:
    return Instrument(("x0", "x1"), (Operation([PROJ0]), Operation([PROJ1])))


def test_instrument_validation():
    with pytest.raises(InvariantViolation, match="total channel"):
        Instrument(("a", "b"), (Operation([PROJ0]), Operation([PROJ0 / 2])))
    with pytest.raises(InvariantViolation, match="one operation"):
        Instrument(("a", "b"), (Operation([PROJ0]),))


def test_total_channel_singleton():
    ch = random_channel(2, 3, 2, 0)
    ins = Instrument(("only",), (ch,))
    assert map_deviation(ins.total_channel(), ch) < 1e-14


def test_total_channel_lueders():
    ins = lueders_qubit()
    total = ins.total_channel()
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = random_state(2, rng)
        expected = PROJ0 @ rho.matrix @ PROJ0 + PROJ1 @ rho.matrix @ PROJ1
        np.testing.assert_allclose(total.apply(rho), expected, atol=1e-14)


def test_total_channel_holevo_formula():
    rng = np.random.default_rng(2)
    spec = random_holevo_spec(2, 3, 2, rng)
    total = holevo_instrument(spec).total_channel()
    for _ in range(5):
        rho = random_state(2, rng)
        expected = sum(
            np.trace(rho.matrix @ spec.observable.effect(x).matrix).real * spec.state(x).matrix
            for x in spec.observable.outcomes
        )
        np.testing.assert_allclose(total.apply(rho), expected, atol=1e-11)


def test_measured_observable_lueders():
    ins = lueders_qubit()
    obs = ins.measured_observable()
    np.testing.assert_allclose(obs.effect("x0").matrix, PROJ0, atol=1e-14)
    np.testing.assert_allclose(obs.effect("x1").matrix, PROJ1, atol=1e-14)


def test_measured_observable_single_channel():
    ins = Instrument(("u",), (random_channel(3, 2, 2, 2),))
    np.testing.assert_allclose(ins.measured_observable().effects[0].matrix, np.eye(3), atol=1e-12)


def test_updated_state_lueders_fixed_point():
    ins = lueders_qubit()
    out = ins.updated_state("x0", State(PROJ0))
    np.testing.assert_allclose(out.matrix, PROJ0, atol=1e-14)


def test_updated_state_unobserved_outcome():
    ins = lueders_qubit()
    with pytest.raises(OutcomeNotObserved):
        ins.updated_state("x1", State(PROJ0))


def test_updated_state_holevo_prepares_target():
    rng = np.random.default_rng(3)
    spec = random_holevo_spec(2, 3, 2, rng)
    ins = holevo_instrument(spec)
    rho = random_state(2, rng)
    for label in spec.observable.outcomes:
        out = ins.updated_state(label, rho)
        np.testing.assert_allclose(out.matrix, spec.state(label).matrix, atol=1e-10)


def test_instrument_distribution_sums_to_one():
    rng = np.random.default_rng(4)
    ins = random_instrument(2, 3, 3, rng)
    rho = random_state(2, rng)
    assert ins.subset_probability(ins.outcomes, rho) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# (B given I): observables on two outcome axes
# ---------------------------------------------------------------------------

def test_given_observable_marginals():
    rng = np.random.default_rng(5)
    ins = random_instrument(2, 3, 3, rng)
    obs = random_observable(3, 2, rng)
    grid = given_observable(obs, ins)
    assert observable_deviation(grid.marginal(0), ins.measured_observable()) < 1e-12
    assert (
        observable_deviation(grid.marginal(1), condition_observable(ins.total_channel(), obs))
        < 1e-12
    )


def test_given_observable_trivial_columns():
    rng = np.random.default_rng(6)
    ins = random_instrument(2, 3, 2, rng)
    grid = given_observable(Observable.trivial(3, "y"), ins)
    measured = ins.measured_observable()
    for x in ins.outcomes:
        np.testing.assert_allclose(
            grid.effect(x, "y").matrix, measured.effect(x).matrix, atol=1e-12
        )


def test_given_distribution_normalization_and_empty():
    rng = np.random.default_rng(7)
    ins = random_instrument(2, 3, 2, rng)
    obs = random_observable(3, 2, rng)
    rho = random_state(2, rng)
    full = given_distribution(obs, ins, rho, ins.outcomes, obs.outcomes)
    assert full == pytest.approx(1.0, abs=1e-10)
    assert given_distribution(obs, ins, rho, (), obs.outcomes) == 0.0


def test_given_distribution_rejects_an_observable_of_another_dimension():
    obs, ins, rho = random_observable(3, 2, 1), random_instrument(2, 2, 2, 0), random_state(2, 2)
    with pytest.raises(ValueError, match="dimension mismatch: observable 3 vs instrument output 2"):
        given_distribution(obs, ins, rho, ["x0"], ["x0"])


def test_given_distribution_matches_double_sum():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ins = random_instrument(2, 3, 2, rng)
        obs = random_observable(3, 3, rng)
        rho = random_state(2, rng)
        s1 = ("x0",)
        s2 = ("x0", "x2")
        factored = given_distribution(obs, ins, rho, s1, s2)
        double = sum(
            np.trace(ins.op(x).apply(rho) @ obs.effect(y).matrix).real for x in s1 for y in s2
        )
        assert factored == pytest.approx(double, abs=1e-11)


def test_given_distribution_unknown_labels():
    ins = random_instrument(2, 3, 2, 9)
    obs = random_observable(3, 2, 10)
    rho = random_state(2, 11)
    with pytest.raises(ValueError, match="unknown outcome"):
        given_distribution(obs, ins, rho, ("nope",), obs.outcomes)


# ---------------------------------------------------------------------------
# conditioning instruments
# ---------------------------------------------------------------------------

def test_condition_instrument_identity():
    rng = np.random.default_rng(12)
    jns = random_instrument(2, 3, 2, rng)
    out = condition_instrument(Channel.identity(2), jns)
    assert instrument_deviation(out, jns) < 1e-14


@pytest.mark.parametrize("projective", [False, True])
def test_condition_instrument_rejects_a_map_that_is_not_trace_preserving(projective):
    # a uniformly shrunk channel, or a projection that preserves no trace
    # but that of |0><0|
    qmap = Operation((np.diag([1.0, 0.0]),)) if projective else random_channel(2, 2, 2, 14).scaled(0.9)
    with pytest.raises(InvariantViolation, match="channel"):
        condition_instrument(qmap, random_instrument(2, 2, 2, 15))


def test_condition_instrument_unitary_conjugation():
    rng = np.random.default_rng(13)
    u = random_unitary(2, rng)
    ch = Channel.unitary(u)
    jns = lueders_qubit()
    out = condition_instrument(ch, jns)
    rho = random_state(2, rng)
    for label, proj in zip(("x0", "x1"), (PROJ0, PROJ1)):
        expected = proj @ u @ rho.matrix @ u.conj().T @ proj
        np.testing.assert_allclose(out.op(label).apply(rho), expected, atol=1e-12)


def test_conditioned_instrument_measures_conditioned_observable():
    rng = np.random.default_rng(14)
    ch = random_channel(2, 3, 2, rng)
    jns = random_instrument(3, 2, 2, rng)
    out = condition_instrument(ch, jns)
    expected = condition_observable(ch, jns.measured_observable())
    assert observable_deviation(out.measured_observable(), expected) < 1e-12


def test_given_instrument_marginals():
    rng = np.random.default_rng(15)
    ins = random_instrument(2, 3, 2, rng)
    jns = random_instrument(3, 2, 2, rng)
    grid = given_instrument(ins, jns)
    m2 = grid.marginal(1)
    conditioned = condition_instrument(ins.total_channel(), jns)
    assert instrument_deviation(m2, conditioned) < 1e-12
    m1 = grid.marginal(0)
    jtotal = jns.total_channel()
    for x in ins.outcomes:
        assert map_deviation(m1.op(x), ins.op(x).then(jtotal)) < 1e-12


def test_given_instrument_singleton_second_stage():
    rng = np.random.default_rng(16)
    ins = random_instrument(2, 3, 2, rng)
    ch = random_channel(3, 2, 2, rng)
    jns = Instrument(("only",), (ch,))
    grid = given_instrument(ins, jns)
    for x in ins.outcomes:
        assert map_deviation(grid.op(x, "only"), ins.op(x).then(ch)) < 1e-13


def test_compositions_make_each_member_superoperator_once(monkeypatch):
    # Holevo members keep d_in·d_out Kraus operators, so every pair takes the
    # Choi path of _composed
    rng = np.random.default_rng(19)
    ins = holevo_instrument(random_holevo_spec(4, 5, 3, rng))
    jns = holevo_instrument(random_holevo_spec(5, 4, 3, rng))
    ch = random_channel(4, 4, 2, rng)
    pairs = {(x, y): ins.op(x).then(jns.op(y)).kraus_stack for x in ins.outcomes for y in jns.outcomes}
    conditioned = {x: ch.then(ins.op(x)).kraus_stack for x in ins.outcomes}
    calls = []
    superoperator = Operation.superoperator
    monkeypatch.setattr(Operation, "superoperator", lambda op: calls.append(op) or superoperator(op))
    grid = given_instrument(ins, jns)
    assert len(calls) == 3 + 3
    calls.clear()
    out = condition_instrument(ch, ins)
    assert len(calls) == 1 + 3
    # the same bits as composing each pair on its own
    for (x, y), stack in pairs.items():
        assert grid.op(x, y).kraus_stack.tobytes() == stack.tobytes()
    for x, stack in conditioned.items():
        assert out.op(x).kraus_stack.tobytes() == stack.tobytes()


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_given_instrument_entries_are_the_thens_of_their_pairs_bit_for_bit():
    # dephasing members: two of the four products |i><i| |j><j| are exactly
    # zero, and a single then leaves them out as the family's entries do
    dephasing = Operation([np.sqrt(0.5) * PROJ0, np.sqrt(0.5) * PROJ1])
    ins = Instrument(("a", "b"), (dephasing, dephasing))
    grid = given_instrument(ins, ins)
    for x in ins.outcomes:
        for y in ins.outcomes:
            expected = ins.op(x).then(ins.op(y)).kraus_stack
            assert expected.shape == (2, 2, 2)
            assert _same_bits(grid.op(x, y).kraus_stack, expected)


@pytest.mark.parametrize("n_kraus, per_outcome", [(1, 1), (2, 2), (4, 3)])
def test_conditioned_members_are_the_channels_thens_bit_for_bit(n_kraus, per_outcome):
    # the product path, at its bound, and the Choi path
    rng = np.random.default_rng(31)
    ch = random_channel(2, 2, n_kraus, rng)
    ins = random_instrument(2, 2, 3, rng, per_outcome)
    out = condition_instrument(ch, ins)
    for op, member in zip(ins.ops, out.ops, strict=True):
        expected = ch.then(op)
        assert type(member) is type(expected)
        assert _same_bits(member.kraus_stack, expected.kraus_stack)


def test_compositions_raise_one_dimension_mismatch_message():
    ch = random_channel(2, 3, 2, 32)
    ins = random_instrument(2, 2, 2, 33)
    message = r"^dimension mismatch in composition: 3 -> 2$"
    with pytest.raises(ValueError, match=message):
        ch.then(ins.ops[0])
    with pytest.raises(ValueError, match=message):
        condition_instrument(ch, ins)
    with pytest.raises(ValueError, match=message):
        given_instrument(Instrument(("u",), (ch,)), ins)


# ---------------------------------------------------------------------------
# Holevo instruments
# ---------------------------------------------------------------------------

def test_holevo_operation_matches_formula():
    rng = np.random.default_rng(17)
    e = random_effect(3, rng)
    sigma = random_state(2, rng)
    op = holevo_operation(e, sigma)
    for _ in range(5):
        rho = random_state(3, rng)
        expected = np.trace(rho.matrix @ e.matrix).real * sigma.matrix
        np.testing.assert_allclose(op.apply(rho), expected, atol=1e-12)


def _measure_and_prepare(e: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    return tabulated(lambda m: np.trace(m @ e) * sigma, e.shape[0], sigma.shape[0])


def test_holevo_operation_zero_effect():
    sigma = State.maximally_mixed(3)
    op = holevo_operation(np.zeros((2, 2)), sigma)
    rho = random_state(2, 18)
    np.testing.assert_allclose(op.apply(rho), np.zeros((3, 3)), atol=1e-15)
    assert op.kraus_stack.shape == (1, 3, 2)
    assert not op.kraus_stack.any()
    assert deviation_from(op, _measure_and_prepare(np.zeros((2, 2)), sigma.matrix)) == 0.0


def test_holevo_operation_reproduces_measure_and_prepare():
    rng = np.random.default_rng(70)
    u = random_unitary(3, rng)
    rank_two = u @ np.diag([0.7, 0.2, 0.0]) @ u.conj().T
    pure = State.pure(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    mixed = random_state(2, rng)
    for e, sigma in [(rank_two, mixed), (random_effect(3, rng).matrix, pure), (rank_two, pure)]:
        op = holevo_operation(e, sigma)
        assert deviation_from(op, _measure_and_prepare(e, sigma.matrix)) <= 1e-12
    assert holevo_operation(rank_two, pure).kraus_stack.shape == (2, 2, 3)


def test_holevo_operation_kraus_order():
    # effect eigenvector major, state eigenvector minor
    e = np.diag([0.25, 0.0, 0.5]).astype(complex)
    sigma = np.diag([0.75, 0.25]).astype(complex)
    expected = [
        np.sqrt(a * p) * np.outer(np.eye(2)[k], np.eye(3)[j])
        for j, a in [(0, 0.25), (2, 0.5)]
        for k, p in [(1, 0.25), (0, 0.75)]
    ]
    np.testing.assert_allclose(holevo_operation(e, sigma).kraus_stack, expected, atol=1e-15)


def test_a_batch_of_holevo_families_is_stored_without_a_copy():
    # every entry is its own contiguous array, which Operation._build keeps
    # as given: no member is copied out of a larger result, and no member
    # keeps another's memory alive
    rng = np.random.default_rng(34)
    specs = [random_holevo_spec(3, 4, 2, rng) for _ in range(5)]
    effects = np.stack([spec.observable.effect_stack for spec in specs])
    states = np.stack([np.stack([st.matrix for st in spec.states]) for spec in specs])
    stacks = _holevo_family(effects, states, [0, 1], [0, 1], np.ones(2), 1e-9)
    ins = Instrument._from_kraus(("x0", "x1"), stacks, 1e-9)
    assert all(op.kraus_stack is stack and stack.flags.c_contiguous for op, stack in zip(ins.ops, stacks))
    assert not np.shares_memory(*stacks)
    assert map_deviation(Operation(stacks[1][2]), holevo_instrument(specs[2]).ops[1]) < 1e-12


def test_holevo_dual_formula():
    rng = np.random.default_rng(19)
    spec = random_holevo_spec(2, 3, 2, rng)
    ins = holevo_instrument(spec)
    b = random_effect(3, rng)
    for label, op in zip(ins.outcomes, ins.ops):
        coeff = np.trace(spec.state(label).matrix @ b.matrix).real
        expected = coeff * spec.observable.effect(label).matrix
        np.testing.assert_allclose(op.dual_matrix(b.matrix), expected, atol=1e-12)


def test_holevo_dual_unit_gives_observable():
    rng = np.random.default_rng(20)
    spec = random_holevo_spec(3, 2, 3, rng)
    ins = holevo_instrument(spec)
    assert observable_deviation(ins.measured_observable(), spec.observable) < 1e-12


def test_holevo_dual_projective_maximally_mixed():
    # A projective qubit, alpha_x = I/2: dual at |0><0| is A_x / 2
    spec = HolevoSpec(
        Observable(("x0", "x1"), (PROJ0, PROJ1)),
        (State.maximally_mixed(2), State.maximally_mixed(2)),
    )
    ins = holevo_instrument(spec)
    for label, proj in zip(("x0", "x1"), (PROJ0, PROJ1)):
        np.testing.assert_allclose(
            ins.op(label).dual_matrix(PROJ0), proj / 2.0, atol=1e-14
        )


def test_holevo_output_trace_is_outcome_probability():
    rng = np.random.default_rng(21)
    spec = random_holevo_spec(2, 3, 2, rng)
    ins = holevo_instrument(spec)
    rho = random_state(2, rng)
    for label in ins.outcomes:
        expected = np.trace(rho.matrix @ spec.observable.effect(label).matrix).real
        assert np.trace(ins.op(label).apply(rho)).real == pytest.approx(expected, abs=1e-12)


def test_holevo_compose_equals_generic():
    rng = np.random.default_rng(22)
    first = random_holevo_spec(2, 3, 2, rng)
    second = random_holevo_spec(3, 2, 2, rng)
    closed = holevo_compose(second, first)
    generic = given_instrument(holevo_instrument(first), holevo_instrument(second))
    assert instrument_deviation(closed, generic) < 1e-11


def _products(first: Operation, second: Operation) -> np.ndarray:
    """All products ``L_b K_a`` of two Kraus lists, uncompressed."""
    products = np.einsum("mab,nbc->mnac", second.kraus_stack, first.kraus_stack)
    return products.reshape(-1, second.dim_out, first.dim_in)


def test_holevo_given_instrument_members_have_d_squared_operators():
    rng = np.random.default_rng(23)
    first = holevo_instrument(random_holevo_spec(3, 4, 2, rng))
    second = holevo_instrument(random_holevo_spec(4, 3, 2, rng))
    grid = given_instrument(first, second)
    for x, iop in zip(first.outcomes, first.ops):
        for y, jop in zip(second.outcomes, second.ops):
            assert len(iop.kraus_stack) * len(jop.kraus_stack) == 144
            member = grid.op(x, y)
            assert len(member.kraus_stack) == 9
            assert map_deviation(member, Operation(_products(iop, jop))) <= 1e-12


def test_condition_instrument_members_have_at_most_d_out_times_d_in_operators():
    rng = np.random.default_rng(24)
    ch = random_channel(2, 3, 4, rng)
    ins = holevo_instrument(random_holevo_spec(3, 2, 2, rng))
    out = condition_instrument(ch, ins)
    for op, member in zip(ins.ops, out.ops):
        assert len(ch.kraus_stack) * len(op.kraus_stack) == 24
        assert len(member.kraus_stack) == 4
        assert map_deviation(member, Operation(_products(ch, op))) <= 1e-12


def test_holevo_compose_measures_product_grid():
    rng = np.random.default_rng(23)
    first = random_holevo_spec(2, 3, 2, rng)
    second = random_holevo_spec(3, 2, 2, rng)
    closed = holevo_compose(second, first)
    for x in first.observable.outcomes:
        for y in second.observable.outcomes:
            coeff = np.trace(
                first.state(x).matrix @ second.observable.effect(y).matrix
            ).real
            expected = coeff * first.observable.effect(x).matrix
            np.testing.assert_allclose(
                closed.op(x, y).measured_effect().matrix, expected, atol=1e-11
            )


def test_holevo_compose_trivial_second_observable():
    rng = np.random.default_rng(24)
    first = random_holevo_spec(2, 3, 2, rng)
    delta = random_state(2, rng)
    second = HolevoSpec(Observable.trivial(3, "y"), (delta,))
    closed = holevo_compose(second, first)
    rho = random_state(2, rng)
    for x in first.observable.outcomes:
        px = np.trace(rho.matrix @ first.observable.effect(x).matrix).real
        np.testing.assert_allclose(closed.op(x, "y").apply(rho), px * delta.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# conditioned-set closure invariants
# ---------------------------------------------------------------------------

def test_closure_under_post_processing():
    rng = np.random.default_rng(25)
    for _ in range(10):
        ch = random_channel(2, 3, 2, rng)
        a_obs = random_observable(3, 3, rng)
        lam = random_stochastic_matrix(a_obs.outcomes, ("y0", "y1"), rng)
        lhs = condition_observable(ch, post_process(a_obs, lam))
        rhs = post_process(condition_observable(ch, a_obs), lam)
        assert observable_deviation(lhs, rhs) < 1e-12


def test_part_commutes_with_conditioning():
    rng = np.random.default_rng(26)
    for _ in range(10):
        ch = random_channel(2, 3, 2, rng)
        a_obs = random_observable(3, 3, rng)
        f = random_surjection(a_obs.outcomes, ("u0", "u1"), rng)
        lhs = part(condition_observable(ch, a_obs), f)
        rhs = condition_observable(ch, part(a_obs, f))
        assert observable_deviation(lhs, rhs) < 1e-12


def test_bi_instrument_validation():
    rng = np.random.default_rng(27)
    ch = random_channel(2, 2, 2, rng)
    half = ch.scaled(np.sqrt(0.5))
    Instrument((("x0",), ("y0", "y1")), ((half, half),))
    with pytest.raises(InvariantViolation, match="total channel"):
        Instrument((("x0",), ("y0", "y1")), ((half, half.scaled(0.5)),))


def test_bi_instrument_dimensions_are_those_of_its_operations():
    half = random_channel(2, 3, 2, 28).scaled(np.sqrt(0.5))
    grid = Instrument((("x0",), ("y0", "y1")), ((half, half),))
    assert (grid.dim_in, grid.dim_out) == (2, 3)


def _overfull_kraus_pair(atol: float = 1e-9, dim: int = 2) -> tuple[Operation, Operation]:
    """Two operations, each trace non-increasing, whose Gram matrices sum to
    ``I + eps J`` (``J`` all ones, ``eps = 0.9 atol``): within ``atol`` of
    ``I`` entrywise, but with top eigenvalue ``1 + dim eps > 1 + atol``."""
    eps = 0.9 * atol
    half = (np.eye(dim) + eps * np.ones((dim, dim))) / 2
    evals, evecs = np.linalg.eigh(half)
    root = evecs @ np.diag(np.sqrt(evals)) @ evecs.conj().T
    return Operation([root]), Operation([root])


def test_family_total_must_lie_below_identity():
    atol = 1e-9
    a, b = _overfull_kraus_pair(atol)
    total = sum(op.kraus_stack[0].conj().T @ op.kraus_stack[0] for op in (a, b))
    assert np.max(np.abs(total - np.eye(2))) <= atol
    assert np.linalg.eigvalsh(total).max() > 1.0 + atol
    with pytest.raises(InvariantViolation, match="total channel"):
        Instrument(("x0", "x1"), (a, b), atol)
    with pytest.raises(InvariantViolation, match="total channel"):
        Instrument((("x0",), ("y0", "y1")), ((a, b),), atol)


def _with_gram(total: np.ndarray) -> Operation:
    """A zero operation (a batch, for a stack) whose cached Gram matrix is
    replaced by ``total``: a lone member, whose Gram matrix is the total of
    its family, which need not be Hermitian or finite here."""
    op = Operation._unchecked(np.zeros(total.shape[:-2] + (1,) + total.shape[-2:]))
    op._gram = total
    return op


def _outcome(call):
    """The type and message of what ``call()`` raises, or None."""
    try:
        call()
    except Exception as error:
        return type(error), str(error)
    return None


def _two_step(total: np.ndarray, atol: float) -> None:
    """The trace rules of a family total as two steps, positivity and then
    the entrywise rule, each run on its own."""
    _require_trace_non_increasing(total, atol, "Instrument", "total channel")
    _require_trace_preserving(total, atol, "Instrument", "total channel")


def _admitted(total: np.ndarray, atol: float = 1e-9):
    """What admitting a lone member of Gram matrix ``total`` raises (or
    None), and whether the trace rules ran a positivity test: whether they
    declined the certificate."""
    tested = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channels, "is_psd", lambda m, tol: tested.append(m) or linalg.is_psd(m, tol))
        outcome = _outcome(lambda: instruments._admit_family("Instrument", (_with_gram(total),), atol))
    return outcome, bool(tested)


def _certified_is_sound(total: np.ndarray, atol: float = 1e-9) -> bool:
    """Admit a lone member of Gram matrix ``total``: True when its trace
    rules were certified, after checking that both rules then hold, its
    Cholesky factorization certifying positivity for every member; False
    when they were declined, after checking that the outcome is the two-step
    rule's."""
    outcome, declined = _admitted(total, atol)
    if declined:
        assert outcome == _outcome(lambda: _two_step(total, atol))
        return False
    assert outcome is None
    fallbacks = []
    with pytest.MonkeyPatch.context() as patch:
        watch_factorizations(patch, lambda name, m, out: name == "eigvalsh" and fallbacks.append(m))
        assert linalg.is_psd(np.eye(total.shape[-1]) - total, atol)
    assert fallbacks == []
    assert linalg._near_identity(total, atol)
    return True


@st.composite
def _perturbed_identities(draw):
    """``I + e`` for one matrix or a batch, at ``d = 1..8``: ``e`` dense,
    diagonal or one entry, Hermitian or not, each member's largest entry
    modulus drawn from ``[0, 2·atol]``."""
    d = draw(st.integers(1, 8))
    n = draw(st.sampled_from([None, 1, 2, 5]))
    shape = (d, d) if n is None else (n, d, d)
    pattern = draw(st.sampled_from(["dense", "diagonal", "entry"]))
    hermitian = draw(st.booleans())
    scales = np.array(draw(st.lists(st.floats(0.0, 2e-9), min_size=n or 1, max_size=n or 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    if pattern == "diagonal":
        e = e * np.eye(d)
    elif pattern == "entry":
        e = e * (np.arange(d * d) == rng.integers(d * d)).reshape(d, d)
    if hermitian:
        e = e + e.conj().swapaxes(-1, -2)
    peak = np.abs(e).max(axis=(-2, -1), keepdims=True)
    e = e * (scales.reshape(peak.shape) / np.where(peak > 0, peak, 1.0))
    return np.eye(d) + e


@settings(max_examples=400, deadline=None)
@given(_perturbed_identities())
def test_certified_trace_rules_hold_and_declined_ones_are_the_two_step_rule(total):
    _certified_is_sound(total)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_an_overfull_total_within_atol_entrywise_is_declined_and_rejected(dim):
    a, b = _overfull_kraus_pair(1e-9, dim)
    total = a._gram + b._gram
    outcome, declined = _admitted(total)
    assert declined and outcome[0] is InvariantViolation and "sum K†K must be <= I" in outcome[1]
    assert not _certified_is_sound(total)
    with pytest.raises(InvariantViolation, match=r"sum K†K must be <= I"):
        Instrument(("x0", "x1"), (a, b))


def test_a_one_dimensional_imaginary_deviation_at_the_margin():
    atol = 1e-9
    # the largest eps with (d + 2)·eps <= atol/2 at d = 1
    eps = atol / 6
    while 3 * eps > atol / 2:
        eps = np.nextafter(eps, 0.0)
    while 3 * np.nextafter(eps, 1.0) <= atol / 2:
        eps = np.nextafter(eps, 1.0)
    at, above = (np.array([[1 + 1j * e]]) for e in (eps, np.nextafter(eps, 1.0)))
    assert _certified_is_sound(at, atol)
    # declined just above the margin, and admitted by the two rules: the
    # Hermiticity test of 1 - total reads 2·eps
    assert not _certified_is_sound(above, atol)
    assert _admitted(above, atol) == (None, True)
    # an imaginary deviation above atol/2, entrywise within atol, fails the
    # Hermiticity test
    outcome, declined = _admitted(np.array([[1 + 0.6j * atol]]), atol)
    assert declined and "sum K†K must be <= I" in outcome[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_non_finite_totals_are_declined_and_rejected(bad, batch):
    total = np.broadcast_to(np.eye(2, dtype=complex), batch + (2, 2)).copy()
    total[..., 0, 1] = bad
    outcome, declined = _admitted(total)
    assert declined and outcome[0] is InvariantViolation and "sum K†K must be <= I" in outcome[1]
    assert not _certified_is_sound(total)


@pytest.mark.parametrize("last, message", [
    (np.eye(3) + 0.9e-9 * np.ones((3, 3)), "sum K†K must be <= I"),
    ((1 - 2e-9) * np.eye(3), "sum K†K must equal I"),
])
def test_a_batch_whose_last_member_alone_is_off(last, message):
    total = np.stack([np.eye(3), np.eye(3) + 1e-12, (1 - 1e-11) * np.eye(3), last]).astype(complex)
    outcome, declined = _admitted(total)
    assert declined and message in outcome[1]
    assert not _certified_is_sound(total)
    # the first three members alone are certified
    assert _certified_is_sound(total[:3])


def _partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose of the right factor of C² ⊗ C²."""
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


_Z = np.diag([1.0, -1.0])


@pytest.mark.parametrize("qmap", [
    tabulated(_partial_transpose, 4, 4),
    tabulated(lambda m: m.T, 2, 2),
    # The identity plus i·(a trace-annihilating map): the Hermitian part of
    # its Choi matrix is the identity channel's, the matrix is not Hermitian.
    tabulated(lambda m: m + 1j * np.trace(_Z @ m) * _Z, 2, 2),
])
def test_trace_preserving_map_that_is_not_completely_positive_is_rejected(qmap):
    # Every superoperator is trace preserving (the trace row maps onto the
    # trace row), so only the Choi check, which guards compositions, can
    # tell that it is not an operation's.
    d = round(np.sqrt(np.sqrt(qmap.size)))
    trace_row = np.eye(d).reshape(-1)
    np.testing.assert_allclose(trace_row @ qmap, trace_row, rtol=0, atol=1e-15)
    with pytest.raises(InvariantViolation, match="completely positive"):
        _choi_kraus(qmap, d, d, 1e-9)
    with pytest.raises(InvariantViolation, match="completely positive"):
        _choi_kraus(np.stack([tabulated(lambda m: m, d, d), qmap]), d, d, 1e-9)


def test_zero_tabulated_member_is_admitted():
    # the zero superoperator factors into one zero Kraus operator, which an
    # instrument admits as a member
    zero = Operation._checked(_choi_kraus(np.zeros((9, 4)), 3, 2, 1e-9), 1e-9)
    assert zero.kraus_stack.shape == (1, 3, 2)
    assert not zero.kraus_stack.any()
    ins = Instrument(("x0", "x1"), (random_channel(2, 3, 2, 72), zero))
    assert ins.op("x1") is zero


def test_remixed_members_are_stored_as_given():
    # members given by other Kraus lists of the same maps are kept as given
    rng = np.random.default_rng(73)
    ins = random_instrument(2, 3, 3, rng, kraus_per_outcome=2)
    other = Instrument(ins.outcomes, tuple(remixed(op, rng) for op in ins.ops))
    assert [op.kraus_stack.shape[0] for op in other.ops] == [3, 3, 3]
    assert instrument_deviation(other, ins) < 1e-12
    assert map_deviation(other.total_channel(), ins.total_channel()) < 1e-12


def test_condition_instrument_by_remixed_channel_matches_original():
    # conditioning depends on the channel, not on its Kraus list
    rng = np.random.default_rng(74)
    ch = random_channel(2, 3, 2, rng)
    ins = random_instrument(3, 2, 3, rng)
    other = condition_instrument(remixed(ch, rng), ins)
    assert instrument_deviation(other, condition_instrument(ch, ins)) < 1e-12


@pytest.mark.parametrize("make", [
    lambda ch: Instrument(("a",), (np.eye(2),)),
    lambda ch: Instrument((("a",), ("b",)), ((ch.kraus_stack,),)),
    lambda ch: condition_instrument(ch.superoperator(), random_instrument(2, 2, 2, 76)),
    lambda ch: map_sum([ch, ch.kraus_stack]),
], ids=["instrument", "bi-instrument", "condition_instrument", "map_sum"])
def test_maps_that_are_not_operations_are_rejected_with_type_error(make):
    with pytest.raises(TypeError, match="Kraus-form operations"):
        make(random_channel(2, 2, 2, 75))


def test_composition_validates_at_the_callers_tolerance():
    loose = 0.5
    ins = Instrument(("x",), (Operation((np.sqrt(1.2) * np.eye(2),), loose),), loose)
    grid = given_instrument(ins, ins, atol=loose)
    np.testing.assert_allclose(grid.op("x", "x").kraus_stack[0], 1.2 * np.eye(2), atol=1e-15)
    conditioned = condition_instrument(Channel.identity(2), ins, atol=loose)
    assert map_deviation(conditioned.op("x"), ins.op("x")) < 1e-15


def test_deviation_helpers_propagate_nan(monkeypatch):
    import qcond.instruments as instruments

    ins = random_instrument(2, 2, 3, 50)
    grid = given_instrument(ins, ins)
    assert instrument_deviation(ins, ins) == 0.0
    devs = iter([0.0, float("nan")] + [0.0] * 20)
    monkeypatch.setattr(instruments, "map_deviation", lambda p, q: next(devs))
    assert np.isnan(instrument_deviation(ins, ins))
    devs = iter([0.0, 0.5, float("nan")] + [0.0] * 20)
    assert np.isnan(instrument_deviation(grid, grid))


# instruments C² -> C³ and C² -> C², and a Holevo spec C³ -> C²
_WIDE = random_instrument(2, 3, 2, 81)
_SQUARE = random_instrument(2, 2, 2, 82)
_SPEC = random_holevo_spec(3, 2, 2, 83)


@pytest.mark.parametrize("call, expected", [
    (lambda: Instrument(("a", "b"), (_SQUARE.ops[0], _WIDE.ops[0])),
     InvariantViolation("Instrument", "uniform dimensions", "got [(2, 2), (2, 3)]")),
    (lambda: Instrument((("x",), ("a", "b")), ((Channel.identity(2),),)),
     InvariantViolation("Instrument", "grid shape", "expected grid (1, 2)")),
    (lambda: _holevo_family(PROJ0[None], PROJ0[None], [0], [0], np.array([-1.0]), 1e-9),
     InvariantViolation("effect", "positive", "eigenvalue -1.000e+00")),
    (lambda: holevo_compose(_SPEC, _SPEC), ValueError("dimension mismatch: 2 -> 3")),
    (lambda: instrument_deviation(_SQUARE, Instrument(("y0", "y1"), _SQUARE.ops)),
     ValueError("instruments must share the same ordered outcome labels")),
    (lambda: instrument_deviation(given_instrument(_SQUARE, _SQUARE),
                                  given_instrument(_SQUARE, Instrument(("y0", "y1"), _SQUARE.ops))),
     ValueError("instruments must share the same ordered outcome labels")),
], ids=["family-dimensions", "grid-shape", "negative-weight", "holevo-compose-dimensions", "deviation-labels",
        "bi-deviation-labels"])
def test_instrument_argument_checks(call, expected):
    assert_pinned(call, expected)


# ---------------------------------------------------------------------------
# families on two outcome axes
# ---------------------------------------------------------------------------

# an instrument C² -> C² and an observable on C², each on two outcome axes,
# and a two-axis instrument C² -> C⁴ (an interaction's dimensions)
_INS_GRID = given_instrument(_SQUARE, _SQUARE)
_OBS_GRID = _INS_GRID.measured_observable()
_WIDE_GRID = given_instrument(_SQUARE, random_instrument(2, 4, 2, 84))
_RHO = State.maximally_mixed(2)
_KERNEL = StochasticMatrix(("x0", "x1"), ("y",), np.ones((2, 1)))

# every public function that reads one outcome axis, given a two-axis family
ONE_AXIS_READERS = {
    "Observable.index": lambda: _OBS_GRID.index("x0"),
    "Instrument.index": lambda: _INS_GRID.index("x0"),
    "n_outcomes": lambda: _OBS_GRID.n_outcomes,
    "effect_over": lambda: _OBS_GRID.effect_over(()),
    "outcome_probabilities": lambda: outcome_probabilities(_RHO, _OBS_GRID),
    "observable_distribution": lambda: observable_distribution(_RHO, _OBS_GRID),
    "post_process": lambda: post_process(_OBS_GRID, _KERNEL),
    "part": lambda: part(_OBS_GRID, OutcomeMap({"x0": "y", "x1": "y"})),
    "affine_combination": lambda: affine_combination([_OBS_GRID, _OBS_GRID], [0.5, 0.5]),
    "updated_state": lambda: _INS_GRID.updated_state("x0", _RHO),
    "subset_probability": lambda: _INS_GRID.subset_probability((), _RHO),
    "given_observable(observable)": lambda: given_observable(_OBS_GRID, _SQUARE),
    "given_observable(instrument)": lambda: given_observable(_SQUARE.measured_observable(), _INS_GRID),
    "given_distribution(observable)": lambda: given_distribution(_OBS_GRID, _SQUARE, _RHO, (), ()),
    "given_distribution(instrument)": lambda: given_distribution(
        _SQUARE.measured_observable(), _INS_GRID, _RHO, (), ()),
    "given_instrument(first)": lambda: given_instrument(_INS_GRID, _SQUARE),
    "given_instrument(second)": lambda: given_instrument(_SQUARE, _INS_GRID),
    "condition_instrument": lambda: condition_instrument(Channel.identity(2), _INS_GRID),
    "MeasurementModel(interaction)": lambda: MeasurementModel(2, 2, _WIDE_GRID, _SQUARE.measured_observable()),
    "MeasurementModel(probe)": lambda: MeasurementModel(2, 1, _SQUARE, Observable(
        (("a",), ("b",)), np.ones((1, 1, 1, 1)))),
    "HolevoSpec": lambda: HolevoSpec(_OBS_GRID, [_RHO] * 4),
    "HolevoSeparableSpec": lambda: HolevoSeparableSpec(_OBS_GRID, [_RHO] * 4, [_RHO] * 4),
    "KrausSeparableChannel.outcome_weights": lambda: KrausSeparableChannel(
        (np.eye(2),), (_RHO,)).outcome_weights(_OBS_GRID),
    "holevo_model_quantities": lambda: holevo_model_quantities(
        HolevoSeparableSpec(_SQUARE.measured_observable(), [_RHO] * 2, [_RHO] * 2), _OBS_GRID),
}


@pytest.mark.parametrize("name", list(ONE_AXIS_READERS))
def test_a_one_axis_reader_rejects_a_grid_with_value_error(name):
    # through the one guard, before any label logic could fail otherwise or
    # return a dict keyed by label tuples
    with pytest.raises(Exception) as info:
        ONE_AXIS_READERS[name]()
    assert type(info.value) is ValueError
    assert str(info.value).endswith("on 2 outcome axes: expected one axis")


def test_a_grid_keeps_one_label_tuple_per_axis_and_looks_up_one_label_per_axis():
    assert _INS_GRID.outcomes == _INS_GRID.axes == (("x0", "x1"), ("x0", "x1"))
    assert _SQUARE.axes == (_SQUARE.outcomes,)
    assert _INS_GRID.op("x1", "x0") is _INS_GRID.ops[1][0]
    assert _OBS_GRID.effect("x1", "x0") is _OBS_GRID.effects[1][0]
    # one label tuple given as the one axis of a grid is that axis
    assert Observable((("a", "b"),), (PROJ0, PROJ1)).outcomes == ("a", "b")
    for call, message in [(lambda: _OBS_GRID.effect("x0", "z"), "unknown outcome pair ('x0', 'z')"),
                          (lambda: _INS_GRID.op("x0"), "expected one label per outcome axis (2), got 1")]:
        assert_pinned(call, ValueError(message))


def test_marginals_sum_the_other_axis_with_the_bits_of_the_grid():
    stack = _OBS_GRID.effect_stack
    assert _OBS_GRID.marginal(0).effect_stack.tobytes() == stack.sum(axis=1).tobytes()
    assert _OBS_GRID.marginal(-1).effect_stack.tobytes() == stack.sum(axis=0).tobytes()
    for axis, rows in [(0, _INS_GRID.ops), (1, tuple(zip(*_INS_GRID.ops)))]:
        marginal = _INS_GRID.marginal(axis)
        assert marginal.outcomes == _INS_GRID.axes[axis]
        for op, row in zip(marginal.ops, rows):
            expected = np.concatenate([member.kraus_stack for member in row])
            assert op.kraus_stack.tobytes() == expected.tobytes()
    with pytest.raises(IndexError):
        _INS_GRID.marginal(2)


def test_functions_of_any_stack_take_a_grid():
    ch = random_channel(2, 2, 2, 85)
    conditioned = condition_observable(ch, _OBS_GRID)
    assert conditioned.axes == _OBS_GRID.axes
    assert observable_deviation(conditioned.marginal(1), condition_observable(ch, _OBS_GRID.marginal(1))) < 1e-12
    total = _SQUARE.total_channel()
    assert map_deviation(_INS_GRID.total_channel(), total.then(total)) < 1e-12
    joint = given_observable(_SQUARE.measured_observable(), _SQUARE)
    assert observable_deviation(_OBS_GRID, joint) < 1e-12


def test_a_grid_may_have_more_than_two_axes():
    quarter = np.eye(2) / 8
    cube = Observable((("a", "b"), ("c", "d"), ("e", "f")), np.broadcast_to(quarter, (2, 2, 2, 2, 2)))
    assert cube.effect("b", "c", "f").matrix.tolist() == quarter.tolist()
    assert cube.marginal(1).effect_stack.tobytes() == cube.effect_stack.sum(axis=(0, 2)).tobytes()


def test_an_instrument_parses_its_labels_once(monkeypatch):
    # _from_kraus (every library-made instrument) and the constructor parse
    # the outcome labels once per construction, for one axis and for a grid
    calls = []
    parse = effects._outcome_axes

    def counted(labels, kind):
        calls.append(kind)
        return parse(labels, kind)

    monkeypatch.setattr(effects, "_outcome_axes", counted)
    monkeypatch.setattr(instruments, "_outcome_axes", counted)
    ins = random_instrument(2, 2, 2, 0)
    stacks = [op.kraus_stack for op in ins.ops]
    for make in (
        lambda: Instrument._from_kraus(("b", "a"), stacks, 1e-9),
        lambda: Instrument._from_kraus((("r",), ("b", "a")), stacks, 1e-9),
        lambda: Instrument(("b", "a"), ins.ops),
        lambda: Instrument((("r",), ("b", "a")), (ins.ops,)),
    ):
        calls.clear()
        made = make()
        assert calls == ["Instrument"]
        assert made.op(*(axis[0] for axis in made.axes)) is made._ops[0]
    with pytest.raises(InvariantViolation, match="one operation per outcome"):
        Instrument._from_kraus(("a", "b", "c"), stacks, 1e-9)
    with pytest.raises(InvariantViolation, match="grid shape"):
        Instrument._from_kraus((("r", "s"), ("b", "a")), stacks, 1e-9)
