"""Tests for Kraus operations, channels, duals and conditioning."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import qcond
from qcond.channels import (
    Channel,
    Operation,
    _superoperator_deviation,
    complete_subnormalized,
    condition_effect,
    condition_observable,
    map_deviation,
    map_sum,
    sequential_product,
)
from qcond.checks import run_checks
from qcond.effects import Effect, Observable, State, observable_deviation
from qcond.errors import InvariantViolation, ScenarioError
from qcond.linalg import max_abs_diff
from qcond.rand import (
    random_channel,
    random_effect,
    random_observable,
    random_state,
    random_unitary,
)
from qcond.scenario import load_scenario

from map_oracles import remixed, tabulated
from pinned import assert_pinned

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
COLLAPSE = Operation([np.array([[1, 0], [0, 0]], complex), np.array([[0, 1], [0, 0]], complex)])


def test_operation_validation():
    with pytest.raises(InvariantViolation, match="trace non-increasing"):
        Operation([2.0 * np.eye(2)])
    with pytest.raises(InvariantViolation, match="nonempty"):
        Operation([])
    with pytest.raises(InvariantViolation, match="uniform"):
        Operation([np.eye(2), np.eye(3)])


def _zero_dimensional_scenario_channel(tmp_path: Path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"objects": {"c": {"type": "channel", "kraus": [[[]]]}}}))
    return load_scenario(path)


@pytest.mark.parametrize("make,message", [
    (lambda _: State(np.zeros((0, 0))), "square"),
    (lambda _: Effect(np.zeros((0, 0))), "square"),
    (lambda _: Observable(("a",), np.zeros((1, 0, 0))), "square"),
    (lambda _: Operation(np.zeros((1, 0, 2))), "nonempty Kraus stack"),
    (lambda _: Operation(np.zeros((1, 2, 0))), "nonempty Kraus stack"),
    (lambda _: Channel.identity(0), "nonempty Kraus stack"),
    (lambda _: random_channel(0, 2, 1, 1), "nonempty Kraus stack"),
    (_zero_dimensional_scenario_channel, "object 'c': .*nonempty Kraus stack"),
], ids=["state", "effect", "observable", "operation-into-0", "operation-from-0", "identity", "random",
        "scenario"])
def test_zero_dimensions_are_rejected(make, message, tmp_path):
    # InvariantViolation, or the ScenarioError that a scenario file's
    # loader (and so ``qcond validate``) turns it into
    with pytest.raises((InvariantViolation, ScenarioError), match=message):
        make(tmp_path)


def test_channel_validation():
    Channel([np.eye(2)])
    with pytest.raises(InvariantViolation, match="trace preservation"):
        Channel([np.eye(2) / 2])
    with pytest.raises(InvariantViolation, match="unitary"):
        Channel.unitary(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_apply_identity_channel():
    rho = random_state(3, 0)
    np.testing.assert_allclose(Channel.identity(3).apply(rho), rho.matrix)


def test_apply_bit_flip():
    flip = Channel.unitary(PAULI_X)
    np.testing.assert_allclose(flip.apply(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))


def test_apply_collapse_channel():
    # oracle: sum_i K_i rho K_i† collapses any qubit state onto |0><0|
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = random_state(2, rng)
        expected = sum(k @ rho.matrix @ k.conj().T for k in COLLAPSE.kraus)
        out = COLLAPSE.apply(rho)
        np.testing.assert_allclose(out, expected, atol=1e-14)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_dual_identity_channel():
    a = random_effect(3, 2)
    np.testing.assert_allclose(Channel.identity(3).dual_apply(a).matrix, a.matrix, atol=1e-14)


def test_dual_collapse_channel():
    # hand evaluation: dual of the collapse channel at |0><0| is the identity
    out = COLLAPSE.dual_apply(np.diag([1.0, 0.0]))
    np.testing.assert_allclose(out.matrix, np.eye(2), atol=1e-14)


def test_dual_unit_for_channels():
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3), (3, 2)):
        ch = random_channel(*dims, 2, rng)
        np.testing.assert_allclose(
            ch.dual_apply(np.eye(dims[1])).matrix, np.eye(dims[0]), atol=1e-12
        )


def test_measured_effect():
    assert max_abs_diff(Channel.identity(2).measured_effect().matrix, np.eye(2)) < 1e-14
    half = Operation([np.eye(2) / np.sqrt(2)])
    np.testing.assert_allclose(half.measured_effect().matrix, np.eye(2) / 2, atol=1e-14)
    proj = Operation([np.diag([1.0, 0.0])])
    np.testing.assert_allclose(proj.measured_effect().matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_trace_of_operation_output_matches_measured_effect():
    rng = np.random.default_rng(4)
    op = random_channel(2, 3, 2, rng).scaled(0.8)
    e = op.measured_effect()
    for _ in range(10):
        rho = random_state(2, rng)
        assert abs(np.trace(op.apply(rho)) - np.trace(rho.matrix @ e.matrix)) < 1e-12


def test_sequential_identity():
    rng = np.random.default_rng(5)
    op = random_channel(2, 3, 2, rng)
    assert map_deviation(Channel.identity(2).then(op), op) < 1e-14
    assert map_deviation(op.then(Channel.identity(3)), op) < 1e-14


def test_sequential_unitaries_compose():
    rng = np.random.default_rng(6)
    u = random_unitary(3, rng)
    v = random_unitary(3, rng)
    seq = sequential_product(Channel.unitary(u), Channel.unitary(v))
    assert isinstance(seq, Channel)
    assert map_deviation(seq, Channel.unitary(v @ u)) < 1e-13


def _products(first: Operation, second: Operation) -> np.ndarray:
    """All products ``L_b K_a`` of two Kraus lists, uncompressed."""
    products = np.einsum("...mab,...nbc->...mnac", second.kraus_stack, first.kraus_stack)
    return products.reshape(products.shape[:-4] + (-1, second.dim_out, first.dim_in))


def test_long_compositions_keep_at_most_d_out_times_d_in_operators():
    rng = np.random.default_rng(61)
    first = random_channel(3, 2, 4, rng)
    second = random_channel(2, 3, 3, rng)
    seq = first.then(second)
    assert isinstance(seq, Channel)
    assert len(seq.kraus) == 9 < 4 * 3
    assert map_deviation(seq, Operation(_products(first, second))) <= 1e-12


def test_short_compositions_are_the_products_bit_for_bit():
    rng = np.random.default_rng(62)
    first = random_channel(2, 3, 2, rng)
    second = random_channel(3, 2, 2, rng)
    seq = first.then(second)
    assert len(seq.kraus) == 4 == 2 * 2
    assert seq.kraus_stack.tobytes() == _products(first, second).tobytes()


@pytest.mark.parametrize("n_kraus", [1, 3])
def test_a_batch_of_compositions_gives_each_member_its_own_bits(n_kraus):
    # n_kraus 1: the products (1 <= 4); 3: the Choi factorization (9 > 4)
    rng = np.random.default_rng(63)
    firsts = [random_channel(2, 2, n_kraus, rng) for _ in range(3)]
    seconds = [random_channel(2, 2, n_kraus, rng) for _ in range(3)]
    batch = Channel._checked(np.stack([c.kraus_stack for c in firsts]), 1e-9).then(
        Channel._checked(np.stack([c.kraus_stack for c in seconds]), 1e-9)
    )
    for i, (first, second) in enumerate(zip(firsts, seconds)):
        assert batch.kraus_stack[i].tobytes() == first.then(second).kraus_stack.tobytes()


def test_a_rank_deficient_composition_drops_zero_operators_unless_batched():
    # dephasing with three Kraus operators, then a reset to |0>: the reset
    # channel, of Kraus rank 2, where the Choi factorization gives 4
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    dephase = Channel([p0, np.sqrt(0.5) * p1, np.sqrt(0.5) * p1])
    reset = Channel([np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])])
    single = dephase.then(reset)
    assert len(single.kraus) == 2 and single.kraus_stack.any(axis=(1, 2)).all()
    assert map_deviation(single, reset) <= 1e-15
    batch = Channel._checked(dephase.kraus_stack[None], 1e-9).then(
        Channel._checked(reset.kraus_stack[None], 1e-9)
    )
    assert batch.kraus_stack.shape == (1, 4, 2, 2)
    assert batch.kraus_stack.any(axis=(2, 3)).sum() == 2


def test_dual_contravariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        first = random_channel(2, 3, 2, rng).scaled(float(rng.uniform(0.6, 1.0)))
        second = random_channel(3, 2, 2, rng).scaled(float(rng.uniform(0.6, 1.0)))
        b = random_effect(2, rng)
        lhs = first.then(second).dual_matrix(b.matrix)
        rhs = first.dual_matrix(second.dual_matrix(b.matrix))
        assert max_abs_diff(lhs, rhs) < 1e-12


def test_duality_random_triples():
    rng = np.random.default_rng(8)
    for dim in (2, 3):
        for _ in range(25):
            ch = random_channel(dim, dim + 1, 2, rng)
            rho = random_state(dim, rng)
            a = random_effect(dim + 1, rng)
            lhs = np.trace(rho.matrix @ ch.dual_apply(a).matrix)
            rhs = np.trace(ch.apply(rho) @ a.matrix)
            assert abs(lhs - rhs) < 1e-12


def test_dual_additive():
    rng = np.random.default_rng(9)
    for _ in range(10):
        ch = random_channel(2, 3, 2, rng)
        obs = random_observable(3, 3, rng)
        e0, e1 = obs.effects[0].matrix, obs.effects[1].matrix
        assert (
            max_abs_diff(ch.dual_matrix(e0 + e1), ch.dual_matrix(e0) + ch.dual_matrix(e1)) < 1e-13
        )


def test_morphism_iff_trace_preserving():
    rng = np.random.default_rng(10)
    ch = random_channel(2, 3, 2, rng)
    assert ch.is_trace_preserving(1e-9)
    shrunk = ch.scaled(0.9)
    dev = max_abs_diff(shrunk.dual_matrix(np.eye(3)), np.eye(2))
    assert dev >= 1e-2  # fails the unit-preservation check by a wide margin


def test_unitary_conditioning_round_trip():
    rng = np.random.default_rng(11)
    u = random_unitary(3, rng)
    ch = Channel.unitary(u)
    a = random_effect(3, rng)
    conjugated = u @ a.matrix @ u.conj().T
    np.testing.assert_allclose(condition_effect(ch, conjugated).matrix, a.matrix, atol=1e-12)


def test_condition_effect_requires_channel():
    op = Operation([np.eye(2) / 2])
    with pytest.raises(InvariantViolation, match="channel"):
        condition_effect(op, Effect(np.eye(2) / 2))


def test_condition_effect_affine():
    rng = np.random.default_rng(12)
    ch = random_channel(2, 3, 2, rng)
    b1 = random_effect(3, rng)
    b2 = random_effect(3, rng)
    lam = 0.3
    mixed = lam * b1.matrix + (1 - lam) * b2.matrix
    lhs = condition_effect(ch, mixed).matrix
    rhs = lam * condition_effect(ch, b1).matrix + (1 - lam) * condition_effect(ch, b2).matrix
    assert max_abs_diff(lhs, rhs) < 1e-13


def test_condition_observable():
    rng = np.random.default_rng(13)
    ch = random_channel(2, 3, 2, rng)
    obs = random_observable(3, 3, rng)
    out = condition_observable(ch, obs)
    assert out.dim == 2 and out.outcomes == obs.outcomes
    for label, e in zip(obs.outcomes, obs.effects):
        expected = sum(k.conj().T @ e.matrix @ k for k in ch.kraus)
        np.testing.assert_allclose(out.effect(label).matrix, expected, atol=1e-12)
    # identity channel leaves the observable alone; trivial observable maps to itself
    assert observable_deviation(condition_observable(Channel.identity(3), obs), obs) < 1e-14
    trivial = Observable.trivial(3)
    np.testing.assert_allclose(
        condition_observable(ch, trivial).effects[0].matrix, np.eye(2), atol=1e-12
    )


def test_distribution_transfer_through_channel():
    rng = np.random.default_rng(14)
    ch = random_channel(2, 3, 2, rng)
    obs = random_observable(3, 2, rng)
    rho = random_state(2, rng)
    conditioned = condition_observable(ch, obs)
    out_state = ch.apply(rho)
    for label in obs.outcomes:
        lhs = np.trace(rho.matrix @ conditioned.effect(label).matrix)
        rhs = np.trace(out_state @ obs.effect(label).matrix)
        assert abs(lhs - rhs) < 1e-12


def test_complete_subnormalized_zero_residual():
    rng = np.random.default_rng(15)
    ch = random_channel(2, 3, 2, rng)
    obs = random_observable(3, 2, rng)
    out = complete_subnormalized(ch, obs.effects, labels=obs.outcomes)
    assert observable_deviation(out, obs) < 1e-14


def test_complete_subnormalized_uniform_split():
    ch = random_channel(2, 2, 2, 16)
    out = complete_subnormalized(ch, [np.eye(2) / 4, np.eye(2) / 4])
    for e in out.effects:
        np.testing.assert_allclose(e.matrix, np.eye(2) / 2, atol=1e-14)


def test_complete_subnormalized_random_family():
    rng = np.random.default_rng(17)
    for _ in range(10):
        ch = random_channel(2, 3, 2, rng)
        family = random_observable(3, 3, rng).effects[:2]
        out = complete_subnormalized(ch, family)
        total = sum(e.matrix for e in out.effects)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-12)


def test_complete_subnormalized_rejects_oversized_family():
    ch = random_channel(2, 2, 2, 18)
    with pytest.raises(InvariantViolation, match="sub-normalized"):
        complete_subnormalized(ch, [np.eye(2) / 2, np.eye(2) * 0.75])


def test_complete_subnormalized_rejects_a_non_effect_member():
    # the sum diag(0.1, 0.2) lies below I, but b_0 is not positive
    family = [np.diag([-0.1, 0.0]), np.diag([0.2, 0.2])]
    with pytest.raises(InvariantViolation, match="completion"):
        complete_subnormalized(Channel.identity(2), family)
    with pytest.raises(InvariantViolation, match="completion"):
        complete_subnormalized(Channel.identity(2), [np.diag([1.2, 0.0]), np.zeros((2, 2))])


def test_subnormalized_completion_identity_still_passes():
    report = run_checks("subnormalized-completion", trials=20, dims=[2, 3], seed=3)
    assert report.passed


@pytest.mark.parametrize("dim_in,dim_out,n_kraus", [(2, 3, 2), (3, 2, 1), (1, 3, 2), (4, 8, 3)])
def test_linear_map_matches_operation(dim_in, dim_out, n_kraus):
    # the superoperator, the deviation and the dual agree with the linear
    # map tabulated from the action on the matrix units
    rng = np.random.default_rng(19)
    # the first n_kraus operators of a channel form an operation of any shape
    ch = random_channel(dim_in, dim_out, n_kraus + dim_in, rng)
    op = Operation(ch.kraus[:n_kraus])
    s = op.superoperator()
    assert not s.flags.writeable
    table = tabulated(op.apply_matrix, dim_in, dim_out)
    assert max_abs_diff(s, table) < 1e-14
    assert _superoperator_deviation(s - table, dim_in) < 1e-14
    # the Hilbert–Schmidt dual of the tabulated map: S† applied to vec(m)
    a = random_effect(dim_out, rng)
    m = rng.standard_normal((dim_out, dim_out)) + 1j * rng.standard_normal((dim_out, dim_out))
    for x in (a.matrix, m):
        dual = (table.conj().T @ x.reshape(-1)).reshape(dim_in, dim_in)
        assert max_abs_diff(op.dual_matrix(x), dual) <= 1e-13


def _complex_stack(rng: np.random.Generator, shape: tuple, d: int) -> np.ndarray:
    return rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))


def _each(kernel, mats: np.ndarray) -> np.ndarray:
    """``kernel`` applied matrix by matrix over the leading axes of ``mats``."""
    d = mats.shape[-1]
    images = [kernel(m) for m in mats.reshape(-1, d, d)]
    return np.stack(images).reshape(mats.shape[:-2] + images[0].shape)


@pytest.mark.parametrize("kind", ["operation", "channel"])
@pytest.mark.parametrize("own", [(2,), (3,), (1,), (2, 3)])
def test_kernels_map_each_matrix_of_an_own_stack(kind, own):
    # the channel has 2 Kraus operators: own stacks of 2 matrices must not be
    # read as one matrix per Kraus operator
    rng = np.random.default_rng(63)
    ch = random_channel(2, 3, 2, rng)
    qmap = {"operation": ch.scaled(0.8), "channel": ch}[kind]
    for kernel, d in ((qmap.apply_matrix, 2), (qmap.dual_matrix, 3)):
        mats = _complex_stack(rng, own, d)
        np.testing.assert_allclose(kernel(mats), _each(kernel, mats), rtol=0, atol=1e-13)


def test_batch_kernels_broadcast_one_matrix_and_map_member_stacks():
    rng = np.random.default_rng(64)
    members = [random_channel(2, 3, 2, rng) for _ in range(3)]
    batch = Channel._checked(np.stack([c.kraus_stack for c in members]), 1e-9)
    for name, d in (("apply_matrix", 2), ("dual_matrix", 3)):
        kernel = getattr(batch, name)
        per_member = _complex_stack(rng, (3,), d)
        stacks = _complex_stack(rng, (3, 4), d)
        one = _complex_stack(rng, (), d)
        for got, want in (
            (kernel(per_member), [getattr(c, name)(m) for c, m in zip(members, per_member)]),
            (kernel(stacks), [_each(getattr(c, name), s) for c, s in zip(members, stacks)]),
            (kernel(one), [getattr(c, name)(one) for c in members]),
        ):
            np.testing.assert_allclose(got, np.stack(want), rtol=0, atol=1e-13)


def _held_bytes(op: Operation) -> int:
    """Bytes of the distinct arrays an operation's attributes hold (views
    counted once, with the array they view)."""
    bases, todo = {}, list(vars(op).values())
    while todo:
        value = todo.pop()
        if isinstance(value, dict):
            todo.extend(value.values())
        elif isinstance(value, tuple):
            todo.extend(value)
        elif isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            bases[id(value)] = value.nbytes
    return sum(bases.values())


def test_an_operation_holds_only_its_stack_and_gram_matrix():
    # every kernel is a function of the four fields: no read leaves an
    # operand or a superoperator behind, whatever the argument's own axes
    op = random_channel(3, 4, 2, 63)
    batch = Operation._checked(np.stack([op.kraus_stack] * 3), 1e-9)
    for each, lead in ((op, ()), (batch, (3,))):
        each.superoperator()
        each.is_trace_preserving()
        each.dual_matrix(np.eye(4))
        each.apply_matrix(np.eye(3))
        each.apply_matrix(np.zeros(lead + (2, 3, 3)))
        each.dual_matrix(np.zeros(lead + (5, 2, 4, 4)))
        each.apply_matrix(np.zeros(lead + (5, 2, 3, 3)))
        assert sorted(vars(each)) == ["_gram", "_stack", "dim_in", "dim_out"]
        assert _held_bytes(each) == each.kraus_stack.nbytes + each._gram.nbytes


def test_map_sum_concatenates_kraus_lists():
    op = random_channel(2, 2, 1, 20).scaled(np.sqrt(0.5))
    total = map_sum([op, op])
    assert type(total) is Operation
    np.testing.assert_array_equal(total.kraus_stack, np.concatenate([op.kraus_stack] * 2))
    assert total.is_trace_preserving(1e-9)
    with pytest.raises(InvariantViolation, match="trace non-increasing"):
        map_sum([op, op, op])


def test_map_deviation_dimension_mismatch():
    with pytest.raises(ValueError):
        map_deviation(Channel.identity(2), Channel.identity(3))


def test_map_deviation_propagates_nan():
    # map_deviation is _superoperator_deviation of the difference, which the
    # checks also call directly: a NaN entry is a NaN deviation, never 0
    diff = np.zeros((4, 4))
    diff[1, 2] = np.nan
    assert np.isnan(_superoperator_deviation(diff, 2))
    batch = _superoperator_deviation(np.stack([np.zeros((4, 4)), diff]), 2)
    assert np.isnan(batch).tolist() == [False, True]


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda ch, m: ch.then(m), "then"),
        (lambda ch, m: sequential_product(ch, m), "sequential_product"),
        (lambda ch, m: sequential_product(m, ch), "sequential_product"),
        (lambda ch, m: map_deviation(ch, m), "map_deviation"),
        (lambda ch, m: map_deviation(m, ch), "map_deviation"),
    ],
    ids=["then", "sequential_product-second", "sequential_product-first", "map_deviation-second",
         "map_deviation-first"],
)
def test_composition_and_deviation_take_only_operations(call, kind):
    with pytest.raises(TypeError, match=f"^{kind} takes Kraus-form operations, got ndarray$"):
        call(Channel.identity(2), np.eye(2))


def test_conditioning_works_for_remixed_kraus_lists_alike():
    # conditioning depends on the map, not on its Kraus list
    rng = np.random.default_rng(60)
    ch = random_channel(2, 3, 2, rng)
    obs = random_observable(3, 3, rng)
    kraus = condition_observable(ch, obs)
    other = condition_observable(remixed(ch, rng), obs)
    assert observable_deviation(kraus, other) < 1e-12
    for label, e in zip(obs.outcomes, obs.effects):
        np.testing.assert_allclose(kraus.effect(label).matrix, ch.dual_apply(e).matrix, atol=1e-13)
    with pytest.raises(ValueError, match="dimension mismatch"):
        condition_observable(ch, random_observable(2, 2, rng))


def test_operations_are_made_only_inside_operation():
    # library code makes an operation through Operation._checked or
    # _unchecked; object.__new__ and _build appear nowhere else
    inside = inspect.getsource(Operation)
    assert inside.count("object.__new__(") == 1 and inside.count("._build(") == 2
    for path in sorted(Path(qcond.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "channels.py":
            assert text.count(inside) == 1
            text = text.replace(inside, "")
        assert "._build(" not in text, path.name
        # the one other object.__new__ makes state and effect views
        # (linalg._Validated._view)
        assert text.count("object.__new__(") == (path.name == "linalg.py"), path.name


# a channel C² -> C³ and one on C²
_WIDE = random_channel(2, 3, 1, 80)
_SQUARE = Channel.identity(2)


@pytest.mark.parametrize("call, expected", [
    (lambda: _WIDE.apply(np.eye(3)), ValueError("dimension mismatch: expected 2, got (3, 3)")),
    (lambda: _WIDE.dual_apply(np.eye(2)), ValueError("dimension mismatch: expected 3, got (2, 2)")),
    (lambda: map_sum([]), ValueError("cannot sum an empty list of maps")),
    (lambda: map_sum([_SQUARE, _WIDE]), ValueError("summands must share dimensions, got [(2, 2), (2, 3)]")),
    (lambda: complete_subnormalized(_SQUARE, []), ValueError("need at least one effect to complete")),
    (lambda: complete_subnormalized(_SQUARE, [np.eye(3) / 2]),
     ValueError("effects must live on the channel's output space")),
], ids=["apply", "dual-apply", "empty-sum", "sum-dimensions", "no-effects", "effect-dimension"])
def test_channel_argument_checks(call, expected):
    assert_pinned(call, expected)
