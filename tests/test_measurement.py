"""Tests for measurement models and the separable fast paths."""

import tracemalloc
import weakref

import numpy as np
import pytest

import qcond.measurement as measurement
from qcond.channels import Channel, Operation, _joined, map_deviation
from qcond.effects import (
    Observable,
    State,
    StochasticMatrix,
    bi_observable_deviation,
    observable_deviation,
    post_process,
)
from qcond.errors import InvariantViolation
from qcond.instruments import BiInstrument, Instrument, bi_instrument_deviation, instrument_deviation
from qcond.linalg import clipped_eigh, kron, partial_trace_right
from qcond.measurement import (
    HolevoSeparableSpec,
    KrausSeparableChannel,
    MeasurementModel,
    _bi_readout,
    _lifted_kraus,
    _probe_readout,
    _reduced_readout,
    _separable_instrument,
    holevo_model_quantities,
)
from qcond.rand import (
    random_channel,
    random_effect,
    random_instrument,
    random_observable,
    random_state,
)

from map_oracles import deviation_from, remixed, tabulated
from pinned import assert_pinned


def random_model(dim_base, dim_probe, n_interaction, n_probe, rng) -> MeasurementModel:
    ins = random_instrument(dim_base, dim_base * dim_probe, n_interaction, rng)
    probe = random_observable(dim_probe, n_probe, rng)
    return MeasurementModel(dim_base, dim_probe, ins, probe)


def test_model_validation():
    ins = random_instrument(2, 4, 2, 0)
    probe = random_observable(2, 2, 1)
    MeasurementModel(2, 2, ins, probe)
    with pytest.raises(InvariantViolation, match="interaction output"):
        MeasurementModel(2, 3, ins, random_observable(3, 2, 2))
    with pytest.raises(InvariantViolation, match="probe dimension"):
        MeasurementModel(2, 2, ins, random_observable(3, 2, 3))


def test_bi_instrument_trivial_probe_reduces():
    rng = np.random.default_rng(4)
    ins = random_instrument(2, 4, 2, rng)
    model = MeasurementModel(2, 2, ins, Observable.trivial(2, "y"))
    bi = model.measured_bi_instrument()
    reduced = model.reduced_instrument()
    for x in ins.outcomes:
        assert map_deviation(bi.op(x, "y"), reduced.op(x)) < 1e-12


@pytest.mark.parametrize("dim_base,dim_probe", [(2, 2), (2, 3), (3, 2)])
def test_bi_instrument_against_partial_trace_oracle(dim_base, dim_probe):
    # unequal factors catch a readout that swaps the base and probe axes
    rng = np.random.default_rng(5)
    model = random_model(dim_base, dim_probe, 2, 2, rng)
    bi = model.measured_bi_instrument()
    for _ in range(5):
        rho = random_state(dim_base, rng)
        for x in model.interaction.outcomes:
            sigma = model.interaction.op(x).apply(rho)
            for y in model.probe.outcomes:
                lifted = kron(np.eye(dim_base), model.probe.effect(y).matrix)
                prod = sigma @ lifted
                oracle = np.zeros((dim_base, dim_base), dtype=complex)
                for i in range(dim_base):
                    for j in range(dim_base):
                        for k in range(dim_probe):
                            oracle[i, j] += prod[i * dim_probe + k, j * dim_probe + k]
                np.testing.assert_allclose(bi.op(x, y).apply(rho), oracle, atol=1e-12)


@pytest.mark.parametrize("dim_base,dim_probe", [(2, 2), (2, 3), (3, 2)])
def test_readout_of_remixed_interaction_matches_original(dim_base, dim_probe):
    rng = np.random.default_rng(51)
    model = random_model(dim_base, dim_probe, 2, 3, rng)
    ins = model.interaction
    # the readouts depend on the interaction, not on its Kraus lists
    other_ins = Instrument(ins.outcomes, tuple(remixed(op, rng) for op in ins.ops))
    other = MeasurementModel(dim_base, dim_probe, other_ins, model.probe)
    bi = bi_instrument_deviation(other.measured_bi_instrument(), model.measured_bi_instrument())
    assert bi < 1e-12
    assert instrument_deviation(other.measured_instrument(), model.measured_instrument()) < 1e-12
    assert instrument_deviation(other.reduced_instrument(), model.reduced_instrument()) < 1e-12


def test_readout_memory_stays_near_one_superoperator(monkeypatch):
    # The superoperator of the total map at dim_base 16, dim_probe 2 is
    # (32²×16²) complex = 4 MiB; the readout may not build a d²×d²
    # intermediate on top of it.
    rng = np.random.default_rng(52)
    random_model(16, 2, 2, 2, rng).measured_instrument()
    model = random_model(16, 2, 2, 2, rng)
    tracemalloc.start()
    try:
        model.measured_instrument()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    # The readout works on Kraus operators: no operation builds its
    # superoperator.
    calls = []
    superoperator = Operation.superoperator
    monkeypatch.setattr(Operation, "superoperator", lambda op: calls.append(op) or superoperator(op))
    model.measured_instrument()
    model.measured_bi_instrument()
    model.reduced_instrument()
    assert calls == []


def test_bi_instrument_first_marginal_is_reduced_instrument():
    rng = np.random.default_rng(6)
    model = random_model(2, 2, 2, 2, rng)
    assert instrument_deviation(model.measured_bi_instrument().marginal1(), model.reduced_instrument()) < 1e-12


def test_measured_instrument_is_second_marginal():
    rng = np.random.default_rng(7)
    model = random_model(2, 2, 2, 2, rng)
    assert instrument_deviation(model.measured_instrument(), model.measured_bi_instrument().marginal2()) < 1e-12


def test_measured_instrument_trivial_probe():
    rng = np.random.default_rng(8)
    ins = random_instrument(3, 6, 2, rng)
    model = MeasurementModel(3, 2, ins, Observable.trivial(2, "y"))
    meas = model.measured_instrument()
    assert meas.outcomes == ("y",)
    total = ins.total_channel()
    expected = tabulated(lambda m: partial_trace_right(total.apply_matrix(m), 3, 2), 3, 3)
    assert deviation_from(meas.op("y"), expected) < 1e-12


def test_measured_instrument_outputs_normalize():
    rng = np.random.default_rng(9)
    model = random_model(2, 2, 2, 3, rng)
    meas = model.measured_instrument()
    rho = random_state(2, rng)
    total = sum(np.trace(meas.op(y).apply(rho)).real for y in meas.outcomes)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_bi_observable_marginal_and_probe_independence():
    rng = np.random.default_rng(10)
    ins = random_instrument(2, 4, 2, rng)
    probe_a = random_observable(2, 2, rng)
    probe_b = random_observable(2, 3, rng)
    bi_a = MeasurementModel(2, 2, ins, probe_a).measured_bi_observable()
    bi_b = MeasurementModel(2, 2, ins, probe_b).measured_bi_observable()
    measured = ins.measured_observable()
    assert observable_deviation(bi_a.marginal1(), measured) < 1e-12
    assert observable_deviation(bi_b.marginal1(), measured) < 1e-12


def test_bi_observable_trivial_probe_rows():
    rng = np.random.default_rng(11)
    ins = random_instrument(2, 4, 2, rng)
    model = MeasurementModel(2, 2, ins, Observable.trivial(2, "y"))
    bi = model.measured_bi_observable()
    measured = ins.measured_observable()
    for x in ins.outcomes:
        np.testing.assert_allclose(
            bi.effect(x, "y").matrix, measured.effect(x).matrix, atol=1e-12
        )


def test_bi_observable_trace_duality():
    rng = np.random.default_rng(12)
    model = random_model(2, 2, 2, 2, rng)
    bi_obs = model.measured_bi_observable()
    bi_ins = model.measured_bi_instrument()
    for _ in range(5):
        rho = random_state(2, rng)
        for x in model.interaction.outcomes:
            for y in model.probe.outcomes:
                lhs = np.trace(rho.matrix @ bi_obs.effect(x, y).matrix).real
                rhs = np.trace(bi_ins.op(x, y).apply(rho)).real
                assert abs(lhs - rhs) < 1e-11


def test_pointer_observable_trivial_probe():
    rng = np.random.default_rng(13)
    ins = random_instrument(2, 4, 2, rng)
    model = MeasurementModel(2, 2, ins, Observable.trivial(2, "y"))
    pointer = model.measured_pointer_observable()
    np.testing.assert_allclose(pointer.effect("y").matrix, np.eye(2), atol=1e-12)


def test_pointer_observable_kraus_sum_formula():
    rng = np.random.default_rng(14)
    model = random_model(2, 2, 2, 2, rng)
    pointer = model.measured_pointer_observable()
    total = model.interaction.total_channel()
    for y in model.probe.outcomes:
        lifted = kron(np.eye(2), model.probe.effect(y).matrix)
        formula = sum(k.conj().T @ lifted @ k for k in total.kraus)
        np.testing.assert_allclose(pointer.effect(y).matrix, formula, atol=1e-12)


def test_pointer_observable_is_measured_effect_of_instrument():
    rng = np.random.default_rng(15)
    model = random_model(2, 2, 2, 3, rng)
    pointer = model.measured_pointer_observable()
    meas = model.measured_instrument()
    for y in model.probe.outcomes:
        np.testing.assert_allclose(
            pointer.effect(y).matrix, meas.op(y).measured_effect().matrix, atol=1e-12
        )


PROJECTIVE_QUBIT = Observable(("p0", "p1"), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


@pytest.mark.parametrize("make", [
    lambda rng: random_model(2, 2, 2, 2, rng),
    lambda rng: random_model(2, 3, 2, 3, rng),
    lambda rng: MeasurementModel(2, 2, random_instrument(2, 4, 2, rng), PROJECTIVE_QUBIT),
    lambda rng: MeasurementModel(
        3, 2, random_instrument(3, 6, 3, rng, kraus_per_outcome=3), random_observable(2, 2, rng)
    ),
    lambda rng: KrausSeparableChannel(
        random_channel(2, 2, 2, rng).kraus, tuple(random_state(3, rng) for _ in range(2))
    ).model(random_observable(3, 3, rng)),
], ids=["2-outcome-probe", "3-outcome-probe", "zero-eigenvalue-probe", "several-kraus", "kraus-separable"])
def test_pointer_observable_is_the_bi_observables_second_marginal_bit_for_bit(make):
    model = make(np.random.default_rng(16))
    pointer = model.measured_pointer_observable()
    marginal = model.measured_bi_observable().marginal2()
    assert pointer.outcomes == marginal.outcomes == model.probe.outcomes
    assert pointer.effect_stack.tobytes() == marginal.effect_stack.tobytes()


def test_pointer_observable_is_validated(monkeypatch):
    # a planted defect in the grid the pointer observable sums: one entry
    # scaled by 1.5 breaks the normalization, which the returned
    # observable's construction must catch
    grid_of = measurement._pointer_grid

    def defective(interaction, probe):
        grid = grid_of(interaction, probe)
        grid[0, 0] *= 1.5
        return grid

    model = random_model(2, 2, 2, 2, np.random.default_rng(17))
    model.measured_pointer_observable()
    monkeypatch.setattr(measurement, "_pointer_grid", defective)
    with pytest.raises(InvariantViolation, match="Observable"):
        model.measured_pointer_observable()


# ---------------------------------------------------------------------------
# Kraus-separable channels
# ---------------------------------------------------------------------------

def test_kraus_separable_validation():
    with pytest.raises(InvariantViolation, match="normalization"):
        KrausSeparableChannel((np.eye(2) / 2,), (State.maximally_mixed(2),))


def test_kraus_separable_attach_ancilla():
    psi = State.pure([1.0, 0.0])
    ks = KrausSeparableChannel((np.eye(2),), (psi,))
    rng = np.random.default_rng(16)
    rho = random_state(2, rng)
    np.testing.assert_allclose(
        ks.total_channel().apply(rho), kron(rho.matrix, psi.matrix), atol=1e-13
    )


def test_kraus_separable_action_formula():
    rng = np.random.default_rng(17)
    base = random_channel(2, 2, 3, rng)
    ks = KrausSeparableChannel(base.kraus, tuple(random_state(2, rng) for _ in range(3)))
    formula = tabulated(
        lambda m: sum(
            kron(k @ m @ k.conj().T, s.matrix) for k, s in zip(ks.factors, ks.probe_states)
        ),
        2,
        4,
    )
    assert deviation_from(ks.total_channel(), formula) < 1e-12


def test_kraus_separable_dual_product_effects():
    rng = np.random.default_rng(18)
    base = random_channel(2, 2, 2, rng)
    ks = KrausSeparableChannel(base.kraus, tuple(random_state(2, rng) for _ in range(2)))
    total = ks.total_channel()
    np.testing.assert_allclose(
        ks.dual_on_product(np.eye(2), np.eye(2)).matrix, np.eye(2), atol=1e-12
    )
    for _ in range(5):
        a = random_effect(2, rng)
        b = random_effect(2, rng)
        generic = total.dual_apply(kron(a.matrix, b.matrix))
        np.testing.assert_allclose(ks.dual_on_product(a, b).matrix, generic.matrix, atol=1e-11)


def test_kraus_separable_instrument_and_pointer_match_pipeline():
    rng = np.random.default_rng(19)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        base = random_channel(2, 2, n, rng)
        ks = KrausSeparableChannel(base.kraus, tuple(random_state(2, rng) for _ in range(n)))
        probe = random_observable(2, 2, rng)
        model = ks.model(probe)
        assert instrument_deviation(ks.measured_instrument(probe), model.measured_instrument()) < 1e-11
        assert (
            observable_deviation(ks.pointer_observable(probe), model.measured_pointer_observable())
            < 1e-11
        )
        w = ks.outcome_weights(probe)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(n), atol=1e-11)


def test_kraus_separable_pointer_is_post_processing():
    rng = np.random.default_rng(20)
    base = random_channel(2, 2, 2, rng)
    ks = KrausSeparableChannel(base.kraus, tuple(random_state(2, rng) for _ in range(2)))
    probe = random_observable(2, 3, rng)
    base_obs = ks.base_observable()
    kernel = StochasticMatrix(base_obs.outcomes, probe.outcomes, ks.outcome_weights(probe))
    assert (
        observable_deviation(ks.pointer_observable(probe), post_process(base_obs, kernel)) < 1e-11
    )


def test_simple_separable_prepares_pure_ancilla():
    ks = KrausSeparableChannel.simple([np.eye(2)], [[1.0, 0.0]])
    rho = random_state(2, 21)
    expected = kron(rho.matrix, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(ks.total_channel().apply(rho), expected, atol=1e-13)


def test_simple_separable_adjoint_action():
    rng = np.random.default_rng(22)
    base = random_channel(2, 2, 2, rng)
    vecs = []
    for _ in range(2):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vecs.append(v / np.linalg.norm(v))
    phi1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    for a, v in zip(base.kraus, vecs):
        lifted = kron(a, v.reshape(-1, 1))
        lhs = lifted.conj().T @ np.kron(phi1, phi2)
        rhs = np.vdot(v, phi2) * (a.conj().T @ phi1)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_simple_separable_equals_lifted_channel():
    rng = np.random.default_rng(23)
    base = random_channel(3, 3, 2, rng)
    vecs = []
    for _ in range(2):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vecs.append(v / np.linalg.norm(v))
    ks = KrausSeparableChannel.simple(base.kraus, vecs)
    lifted = Channel(tuple(kron(a, v.reshape(-1, 1)) for a, v in zip(base.kraus, vecs)))
    assert map_deviation(ks.total_channel(), lifted) < 1e-12


def test_simple_separable_rejects_unnormalized_vectors():
    base = random_channel(2, 2, 1, 24)
    with pytest.raises(InvariantViolation, match="unit probe"):
        KrausSeparableChannel.simple(base.kraus, [[2.0, 0.0]])


def test_unnormalized_probe_vector_error_names_its_norm():
    base = random_channel(2, 2, 2, 25)
    with pytest.raises(InvariantViolation, match=r"'unit probe vectors' \(norm 1\.5\)$"):
        KrausSeparableChannel.simple(base.kraus, [[1.0, 0.0], [0.0, 1.5j]])


# ---------------------------------------------------------------------------
# Holevo-separable models
# ---------------------------------------------------------------------------

def separable_spec(rng, dim_base=2, dim_probe=2, n=2) -> HolevoSeparableSpec:
    return HolevoSeparableSpec(
        random_observable(dim_base, n, rng),
        tuple(random_state(dim_base, rng) for _ in range(n)),
        tuple(random_state(dim_probe, rng) for _ in range(n)),
    )


def test_holevo_separable_rejects_base_states_of_another_dimension():
    rng = np.random.default_rng(24)
    with pytest.raises(InvariantViolation, match="base dimension"):
        HolevoSeparableSpec(
            random_observable(3, 2, rng),
            tuple(random_state(2, rng) for _ in range(2)),
            tuple(random_state(2, rng) for _ in range(2)),
        )


def test_holevo_separable_trivial_probe():
    rng = np.random.default_rng(25)
    spec = separable_spec(rng)
    q = holevo_model_quantities(spec, Observable.trivial(2, "y"))
    np.testing.assert_allclose(q.pointer_observable.effect("y").matrix, np.eye(2), atol=1e-12)


def test_holevo_separable_identical_probe_states_smear():
    rng = np.random.default_rng(26)
    gamma = random_state(2, rng)
    spec = HolevoSeparableSpec(
        random_observable(2, 2, rng),
        tuple(random_state(2, rng) for _ in range(2)),
        (gamma, gamma),
    )
    probe = random_observable(2, 2, rng)
    q = holevo_model_quantities(spec, probe)
    for y in probe.outcomes:
        smear = np.trace(gamma.matrix @ probe.effect(y).matrix).real
        np.testing.assert_allclose(
            q.pointer_observable.effect(y).matrix, smear * np.eye(2), atol=1e-11
        )


def test_holevo_separable_matches_generic_pipeline():
    rng = np.random.default_rng(27)
    for _ in range(5):
        spec = separable_spec(rng)
        probe = random_observable(2, 2, rng)
        q = holevo_model_quantities(spec, probe)
        model = spec.model(probe)
        a = random_effect(4, rng)
        for x in spec.observable.outcomes:
            np.testing.assert_allclose(
                q.dual_effect(x, a).matrix,
                model.interaction.op(x).dual_apply(a).matrix,
                atol=1e-11,
            )
        assert bi_instrument_deviation(q.bi_instrument, model.measured_bi_instrument()) < 1e-11
        assert instrument_deviation(q.instrument, model.measured_instrument()) < 1e-11
        assert instrument_deviation(q.reduced_instrument, model.reduced_instrument()) < 1e-11
        assert bi_observable_deviation(q.bi_observable, model.measured_bi_observable()) < 1e-11
        assert (
            observable_deviation(q.pointer_observable, model.measured_pointer_observable())
            < 1e-11
        )
        np.testing.assert_allclose(q.outcome_weights.sum(axis=1), np.ones(2), atol=1e-11)


def test_holevo_separable_pointer_is_post_processing_of_interaction_observable():
    rng = np.random.default_rng(28)
    spec = separable_spec(rng)
    probe = random_observable(2, 3, rng)
    q = holevo_model_quantities(spec, probe)
    kernel = StochasticMatrix(spec.observable.outcomes, probe.outcomes, q.outcome_weights)
    assert (
        observable_deviation(q.pointer_observable, post_process(spec.observable, kernel)) < 1e-11
    )


def test_projective_probe_readout_drops_zero_kraus_operators():
    # each projector's factor has one zero column; the readout keeps one
    # operator per interaction Kraus operator and nonzero column only
    ins = random_instrument(2, 4, 2, 11)
    probe = Observable(("p0", "p1"), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    model = MeasurementModel(2, 2, ins, probe)
    measured = model.measured_instrument()
    kraus = ins.total_channel().kraus_stack
    eye = np.eye(2)
    for y, p in zip(probe.outcomes, probe.effect_stack):
        evals, evecs = np.linalg.eigh(p)
        factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        # one readout operator per eigenvector, zero ones included
        every_column = np.stack(
            [kron(eye, factor[:, j].conj()[None, :]) @ k for k in kraus for j in range(2)]
        )
        op = measured.op(y)
        assert len(op.kraus_stack) * 2 == len(every_column)
        assert np.all(np.abs(op.kraus_stack).reshape(len(op.kraus_stack), -1).max(axis=1) > 0)
        assert map_deviation(op, Operation(every_column)) <= 1e-12


def test_zero_probe_effect_keeps_one_zero_readout_operator():
    ins = random_instrument(2, 4, 2, 12)
    probe = Observable(("p0", "p1"), [np.eye(2), np.zeros((2, 2))])
    measured = MeasurementModel(2, 2, ins, probe).measured_instrument()
    (zero,) = measured.op("p1").kraus_stack
    assert not zero.any()
    assert len(measured.op("p0").kraus_stack) == 2 * len(ins.total_channel().kraus_stack)


def test_a_batched_readout_matches_each_model_and_keeps_its_zero_columns():
    # a projective probe: one zero factor column per effect, which one model
    # leaves out and a batch keeps, so every member has as many operators
    probe = Observable(("p0", "p1"), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    instruments = [random_instrument(2, 4, 2, seed) for seed in (21, 22, 23)]
    kraus = [np.stack([ins.ops[x].kraus_stack for ins in instruments]) for x in range(2)]
    batch = Instrument._from_kraus(("x0", "x1"), kraus, 1e-9)
    stacks = np.stack([probe.effect_stack] * 3)
    grid = _bi_readout(batch, probe.outcomes, stacks, 1e-9)
    for i, ins in enumerate(instruments):
        single = MeasurementModel(2, 2, ins, probe).measured_bi_instrument()
        for row, single_row in zip(grid.ops, single.ops):
            for op, ref in zip(row, single_row):
                assert op.kraus_stack.shape[1:] == (2 * len(ref.kraus_stack), 2, 2)
                assert map_deviation(Operation(op.kraus_stack[i]), ref) <= 1e-12


def _per_effect_readout(stacks, factors):
    """The readout Kraus stacks as one contraction per interaction stack and
    probe factor ``B`` (``P = B B†``), ``K``-major: the reference that the
    readout must keep bit for bit."""
    db, dp = stacks[0].shape[-1], factors.shape[-1]
    conj = factors.conj()
    lead = np.broadcast_shapes(conj.shape[:-3], stacks[0].shape[:-3])
    readout = []
    for k in stacks:
        kraus = k.reshape(k.shape[:-2] + (db, dp, db))
        for y in range(conj.shape[-3]):
            out = np.empty(lead + (k.shape[-3], dp, db, db), dtype=complex)
            np.einsum("...wj,...nawb->...njab", conj[..., y, :, :], kraus, out=out)
            readout.append(out.reshape(lead + (-1, db, db)))
    return readout


def _members_of(family):
    return [op for row in family.ops for op in (row if isinstance(family, BiInstrument) else (row,))]


def _probe_effects(kind, dp, seed):
    if kind == "random":
        return random_observable(dp, 2, seed).effect_stack
    # a rank-one projector and its complement, or the identity and zero
    first = np.diag([1.0] + [0.0] * (dp - 1)) if kind == "projective" else np.eye(dp)
    return np.stack([first, np.eye(dp) - first]).astype(complex)


@pytest.mark.parametrize("kind", ["random", "projective", "zero"])
@pytest.mark.parametrize("dp", [2, 3])
@pytest.mark.parametrize("batch", [1, 3])
def test_every_readout_keeps_the_bits_of_the_per_effect_contraction(batch, dp, kind):
    seeds = range(91, 91 + batch)
    instruments = [random_instrument(2, 2 * dp, 2, s) for s in seeds]
    probes = [_probe_effects(kind, dp, s) for s in seeds]
    if batch == 1:
        interaction, probe = instruments[0], probes[0]
    else:
        kraus = [np.stack([ins.ops[x].kraus_stack for ins in instruments]) for x in range(2)]
        interaction, probe = Instrument._from_kraus(("x0", "x1"), kraus, 1e-9), np.stack(probes)
    stacks = [op.kraus_stack for op in interaction.ops]
    evals, evecs = clipped_eigh(probe, 1e-9, "effect")
    factors = evecs * np.sqrt(evals)[..., None, :]
    outcomes = ("p0", "p1")
    readouts = [
        (_bi_readout(interaction, outcomes, probe, 1e-9),
         BiInstrument._from_kraus(interaction.outcomes, outcomes, _per_effect_readout(stacks, factors), 1e-9)),
        (_probe_readout(interaction, outcomes, probe, 1e-9),
         Instrument._from_kraus(outcomes, _per_effect_readout([_joined(interaction.ops)], factors), 1e-9)),
        (_reduced_readout(interaction, dp, 1e-9),
         Instrument._from_kraus(interaction.outcomes, _per_effect_readout(stacks, np.eye(dp)[None] + 0j), 1e-9)),
    ]
    for got, expected in readouts:
        assert type(got) is type(expected)
        for op, ref in zip(_members_of(got), _members_of(expected), strict=True):
            assert op.kraus_stack.shape == ref.kraus_stack.shape
            assert op.kraus_stack.tobytes() == ref.kraus_stack.tobytes()


def test_the_probe_readout_frees_the_total_before_building_the_family(monkeypatch):
    # a batch's total Kraus stack is as large as the whole readout
    interaction, probe = random_instrument(2, 4, 2, 95), random_observable(2, 2, 96)
    totals, alive = [], []
    joined, from_kraus = measurement._joined, Instrument._from_kraus.__func__

    def tracked(ops):
        total = joined(ops)
        totals.append(weakref.ref(total))
        return total

    def admitted(cls, *args):
        alive.append(totals[0]() is not None)
        return from_kraus(cls, *args)

    monkeypatch.setattr(measurement, "_joined", tracked)
    monkeypatch.setattr(Instrument, "_from_kraus", classmethod(admitted))
    _probe_readout(interaction, probe.outcomes, probe.effect_stack, 1e-9)
    assert alive == [False]


def test_separable_channel_drops_zero_kraus_operators_and_a_batch_keeps_them():
    # every weight w[i, y] is 0 or 1: each outcome's second operator is zero
    factors = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    states = factors.copy()
    channel = KrausSeparableChannel(tuple(factors), tuple(states))
    probe = Observable(("p0", "p1"), tuple(factors))
    for op in channel.measured_instrument(probe).ops:
        assert np.abs(op.kraus_stack).reshape(len(op.kraus_stack), -1).max(axis=1).min() > 0
    batch = _separable_instrument(probe.outcomes, np.stack([factors] * 3), np.stack([np.eye(2)] * 3), 1e-9)
    for op in batch.ops:
        zero = ~op.kraus_stack.any(axis=(-2, -1))
        assert op.kraus_stack.shape == (3, 2, 2, 2) and zero.sum(axis=1).tolist() == [1, 1, 1]
    # a zero factor lifts to zero operators at every positive probe weight
    zero_factor = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
    lifted = KrausSeparableChannel(tuple(zero_factor), tuple(states)).lifted_kraus()
    assert len(lifted) == 1 and np.abs(lifted[0]).max() > 0
    batched = _lifted_kraus(np.stack([zero_factor] * 3), np.stack([states] * 3), 1e-9)
    assert batched.shape == (3, 4, 4, 2) and not batched[:, 2:].any()


def test_separable_model_checks_its_channel_once(monkeypatch):
    # the lifted channel is checked as the one member of the model's family,
    # not also on its own: one positivity test of sum K†K <= I
    import qcond.channels as channels

    rng = np.random.default_rng(41)
    base = random_channel(2, 2, 3, rng)
    ks = KrausSeparableChannel(base.kraus, tuple(random_state(2, rng) for _ in range(3)))
    probe = random_observable(2, 2, rng)
    (member,) = ks.model(probe).interaction.ops
    total = ks.total_channel().kraus_stack
    assert type(member) is Channel
    assert member.kraus_stack.shape == total.shape and member.kraus_stack.tobytes() == total.tobytes()
    calls = []
    is_psd = channels.is_psd
    monkeypatch.setattr(channels, "is_psd", lambda *args: calls.append(args) or is_psd(*args))
    ks.model(probe)
    assert len(calls) == 1


_INTERACTION = random_instrument(2, 4, 2, 85)
_SEPARABLE = KrausSeparableChannel((np.eye(2),), (State.maximally_mixed(2),))
_HOLEVO = HolevoSeparableSpec(Observable.trivial(2), (State.maximally_mixed(2),), (State.maximally_mixed(2),))


@pytest.mark.parametrize("call, expected", [
    (lambda: MeasurementModel(3, 2, _INTERACTION, random_observable(2, 2, 86)),
     InvariantViolation("MeasurementModel", "interaction input dimension")),
    (lambda: KrausSeparableChannel((), ()), InvariantViolation("KrausSeparableChannel", "nonempty factor list")),
    (lambda: KrausSeparableChannel((np.eye(2), np.eye(3)), (State.maximally_mixed(2),) * 2),
     InvariantViolation("KrausSeparableChannel", "square factors of equal dimension")),
    (lambda: KrausSeparableChannel.simple([np.eye(2)], [[1.0, 0.0], [0.0, 1.0]]),
     InvariantViolation("KrausSeparableChannel", "one probe vector per operator")),
    (lambda: _SEPARABLE.outcome_weights(Observable.trivial(3)), ValueError("probe observable dimension mismatch")),
    (lambda: holevo_model_quantities(_HOLEVO, Observable.trivial(3)),
     ValueError("probe observable dimension mismatch")),
], ids=["interaction-input", "no-factors", "factor-shapes", "probe-vectors", "separable-probe", "holevo-probe"])
def test_model_argument_checks(call, expected):
    assert_pinned(call, expected)
