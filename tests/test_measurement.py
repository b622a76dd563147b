"""Tests for measurement models and the separable fast paths."""

import tracemalloc

import numpy as np
import pytest

from qcond.channels import Channel, LinearMap, Operation, map_deviation
from qcond.effects import (
    Observable,
    State,
    StochasticMatrix,
    bi_observable_deviation,
    observable_deviation,
    post_process,
)
from qcond.errors import InvariantViolation
from qcond.instruments import Instrument, bi_instrument_deviation, instrument_deviation
from qcond.linalg import kron, partial_trace_right
from qcond.measurement import (
    HolevoSeparableSpec,
    KrausSeparableChannel,
    MeasurementModel,
    holevo_model_quantities,
)
from qcond.rand import (
    random_channel,
    random_effect,
    random_instrument,
    random_observable,
    random_state,
)


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
def test_readout_of_tabulated_interaction_matches_kraus_form(dim_base, dim_probe):
    rng = np.random.default_rng(51)
    model = random_model(dim_base, dim_probe, 2, 3, rng)
    ins = model.interaction
    tabulated_ins = Instrument(ins.outcomes, tuple(LinearMap.of(op) for op in ins.ops))
    tabulated = MeasurementModel(dim_base, dim_probe, tabulated_ins, model.probe)
    assert all(isinstance(op, Operation) for op in tabulated.interaction.ops)
    bi = bi_instrument_deviation(tabulated.measured_bi_instrument(), model.measured_bi_instrument())
    assert bi < 1e-12
    assert instrument_deviation(tabulated.measured_instrument(), model.measured_instrument()) < 1e-12
    assert instrument_deviation(tabulated.reduced_instrument(), model.reduced_instrument()) < 1e-12


def test_readout_memory_stays_near_one_superoperator():
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
    # The readout works on Kraus operators: no interaction member builds
    # its superoperator.
    model.measured_bi_instrument()
    model.reduced_instrument()
    assert all(op._superop is None for op in model.interaction.ops)


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
    total = ins.total()
    expected = LinearMap.from_action(
        lambda m: partial_trace_right(total.apply_matrix(m), 3, 2), 3, 3
    )
    assert map_deviation(meas.op("y"), expected) < 1e-12


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
    formula = LinearMap.from_action(
        lambda m: sum(
            kron(k @ m @ k.conj().T, s.matrix) for k, s in zip(ks.factors, ks.probe_states)
        ),
        2,
        4,
    )
    assert map_deviation(ks.total_channel(), formula) < 1e-12


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
