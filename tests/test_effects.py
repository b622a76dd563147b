"""Tests for states, effects, observables and classical processing."""

import numpy as np
import pytest

from qcond.effects import (
    BiObservable,
    Effect,
    Observable,
    OutcomeMap,
    State,
    StochasticMatrix,
    affine_combination,
    bi_observable_deviation,
    born_probability,
    certify_coexistence,
    marginals,
    observable_deviation,
    observable_distribution,
    outcome_probabilities,
    part,
    post_process,
)
from qcond.errors import InvariantViolation
from qcond.instruments import HolevoSpec
from qcond.rand import random_observable, random_state, random_stochastic_matrix

from pinned import assert_pinned

PROJ0 = np.diag([1.0, 0.0])
PROJ1 = np.diag([0.0, 1.0])


def qubit_basis_observable():
    return Observable(("x0", "x1"), (PROJ0, PROJ1))


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def test_state_validation():
    State(np.eye(2) / 2)
    with pytest.raises(InvariantViolation, match="unit trace"):
        State(np.eye(2))
    with pytest.raises(InvariantViolation, match="positive"):
        State(np.diag([1.5, -0.5]))
    with pytest.raises(InvariantViolation, match="square"):
        State(np.ones((2, 3)))


def test_state_constructors():
    psi = State.pure([1.0, 1.0])
    np.testing.assert_allclose(psi.matrix, np.full((2, 2), 0.5), atol=1e-15)
    np.testing.assert_allclose(State.maximally_mixed(3).matrix, np.eye(3) / 3)


def test_state_matrix_is_read_only():
    rho = State.maximally_mixed(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_effect_validation():
    Effect(np.eye(2) / 2)
    with pytest.raises(InvariantViolation, match="between zero and identity"):
        Effect(2.0 * np.eye(2))
    with pytest.raises(InvariantViolation):
        Effect(np.array([[0, 1], [0, 0]]))


def test_effect_complement():
    e = Effect(np.diag([0.25, 0.75]))
    np.testing.assert_allclose(e.complement().matrix, np.diag([0.75, 0.25]))


def test_observable_validation():
    obs = qubit_basis_observable()
    assert obs.dim == 2 and obs.n_outcomes == 2
    with pytest.raises(InvariantViolation, match="normalization"):
        Observable(("a", "b"), (PROJ0, 0.99 * PROJ1))
    with pytest.raises(InvariantViolation, match="distinct"):
        Observable(("a", "a"), (PROJ0, PROJ1))
    with pytest.raises(ValueError):
        obs.effect("nope")


def test_observable_effect_over_subset():
    rng = np.random.default_rng(30)
    obs = random_observable(3, 4, rng)
    combined = obs.effect_over(("x1", "x3"))
    np.testing.assert_allclose(
        combined.matrix, obs.effects[1].matrix + obs.effects[3].matrix, atol=1e-13
    )
    np.testing.assert_allclose(obs.effect_over(obs.outcomes).matrix, np.eye(3), atol=1e-11)


def test_bi_observable_validation_and_lookup():
    half = np.eye(2) / 4
    grid = BiObservable(("x0", "x1"), ("y0", "y1"), ((half, half), (half, half)))
    assert grid.dim == 2
    np.testing.assert_allclose(grid.effect("x1", "y0").matrix, half)
    with pytest.raises(InvariantViolation, match="normalization"):
        BiObservable(("x0",), ("y0",), ((Effect(np.eye(2) / 2),),))


def test_bi_observable_flatten_is_part_preimage():
    rng = np.random.default_rng(8)
    a = random_observable(2, 2, rng)
    lam = random_stochastic_matrix(("y0", "y1"), ("y0", "y1"), rng)
    # commuting construction: C_xy = A_x * w_y with sum_y w_y = 1
    w = np.array([0.3, 0.7])
    grid = BiObservable(
        a.outcomes,
        ("y0", "y1"),
        tuple(tuple(w[j] * e.matrix for j in range(2)) for e in a.effects),
    )
    flat = grid.flatten()
    assert flat.outcomes == ("x0⊗y0", "x0⊗y1", "x1⊗y0", "x1⊗y1")
    back1 = part(flat, OutcomeMap({f"{x}⊗{y}": x for x in a.outcomes for y in ("y0", "y1")}, a.outcomes))
    assert observable_deviation(back1, grid.marginal1()) < 1e-12


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def test_born_probability_aligned_projector():
    assert born_probability(State(PROJ0), Effect(PROJ0)) == pytest.approx(1.0)


def test_born_probability_extremes():
    rho = random_state(3, 10)
    assert born_probability(rho, Effect(np.zeros((3, 3)))) == pytest.approx(0.0, abs=1e-12)
    assert born_probability(rho, Effect(np.eye(3))) == pytest.approx(1.0, abs=1e-12)


def test_born_probability_maximally_mixed():
    # oracle: tr((I/2) |0><0|) = 0.5
    assert born_probability(State.maximally_mixed(2), Effect(PROJ0)) == pytest.approx(0.5)


def test_born_probability_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        born_probability(State.maximally_mixed(2), Effect(np.eye(3) / 2))


@pytest.mark.parametrize("dims", [(1, 2), (2, 3)])
def test_deviations_reject_observables_of_another_dimension(dims):
    # the stacks of two dimensions must not broadcast against each other
    small, large = (Observable.trivial(d, "u") for d in dims)
    with pytest.raises(ValueError, match="^observables must share the same dimension$"):
        observable_deviation(small, large)
    grids = [BiObservable(("u",), ("v",), ((obs.effect_stack[0],),)) for obs in (small, large)]
    with pytest.raises(ValueError, match="^bi-observables must share the same dimension$"):
        bi_observable_deviation(*grids)


def test_observable_distribution():
    rho = State(np.diag([0.3, 0.7]))
    obs = qubit_basis_observable()
    assert observable_distribution(rho, obs, ()) == 0.0
    assert observable_distribution(rho, obs) == pytest.approx(1.0)
    assert observable_distribution(rho, obs, ("x0",)) == pytest.approx(0.3)
    with pytest.raises(ValueError, match="unknown outcome"):
        observable_distribution(rho, obs, ("bogus",))


def test_distribution_normalization_random():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        rho = random_state(dim, rng)
        obs = random_observable(dim, 3, rng)
        probs = outcome_probabilities(rho, obs)
        assert all(-1e-9 <= p <= 1 + 1e-9 for p in probs.values())
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_outcome_probabilities_are_the_per_outcome_values_bit_for_bit(dim):
    # the reference is the per-outcome formula tr(rho A_x), one matrix at a time
    rng = np.random.default_rng(12 + dim)
    for n in (1, 3, 7):
        rho = random_state(dim, rng)
        obs = random_observable(dim, n, rng)
        per_outcome = [float(np.trace(rho.matrix @ e.matrix).real) for e in obs.effects]
        assert [born_probability(rho, e) for e in obs.effects] == per_outcome
        probs = outcome_probabilities(rho, obs)
        assert list(probs) == list(obs.outcomes)
        assert list(probs.values()) == per_outcome
        subset = obs.outcomes[::-2]
        assert observable_distribution(rho, obs, subset) == sum(probs[x] for x in subset)


@pytest.mark.parametrize("rho, message", [
    (2 * np.eye(2), r"range \[0, 1\]' \(value 2\)"),
    (np.diag([2.0, 0.5j]), r"range \[0, 1\]' \(value 2\)"),
    (np.diag([0.5j, 2.0]), r"real value' \(imag 5\.000e-01\)"),
], ids=["twice-identity", "range-then-imag", "imag-then-range"])
def test_probabilities_of_a_non_state_raise_as_per_outcome_checks_do(rho, message):
    # the first offending outcome in label order names the error, with the
    # check a per-outcome loop makes first (real, then range)
    obs = qubit_basis_observable()
    with pytest.raises(InvariantViolation, match=message):
        [born_probability(rho, e) for e in obs.effects]
    with pytest.raises(InvariantViolation, match=message):
        outcome_probabilities(rho, obs)
    with pytest.raises(InvariantViolation, match=message):
        observable_distribution(rho, obs)
    # a subset checks only its own outcomes
    assert observable_distribution(np.diag([2.0, 0.5]), obs, ("x1",)) == 0.5


# ---------------------------------------------------------------------------
# post-processing, parts, marginals
# ---------------------------------------------------------------------------

def test_post_process_identity_kernel():
    obs = qubit_basis_observable()
    out = post_process(obs, StochasticMatrix.identity(obs.outcomes))
    assert observable_deviation(out, obs) == 0.0


def test_post_process_total_coarse_graining():
    obs = qubit_basis_observable()
    out = post_process(obs, StochasticMatrix.coarse_graining(obs.outcomes))
    assert out.n_outcomes == 1
    np.testing.assert_allclose(out.effects[0].matrix, np.eye(2))


def test_post_process_dense_sum_oracle():
    rng = np.random.default_rng(12)
    obs = random_observable(3, 3, rng)
    lam = random_stochastic_matrix(obs.outcomes, ("y0", "y1", "y2"), rng)
    out = post_process(obs, lam)
    for j, y in enumerate(lam.targets):
        expected = sum(lam.weights[i, j] * obs.effects[i].matrix for i in range(3))
        np.testing.assert_allclose(out.effect(y).matrix, expected, atol=1e-12)


def test_post_process_rejects_mismatched_rows():
    obs = qubit_basis_observable()
    lam = StochasticMatrix(("a", "b"), ("y0",), np.ones((2, 1)))
    with pytest.raises(ValueError, match="indexed by"):
        post_process(obs, lam)


def test_stochastic_matrix_row_sum_violation():
    with pytest.raises(InvariantViolation, match="row normalization"):
        StochasticMatrix(("a",), ("y0", "y1"), np.array([[0.5, 0.4]]))
    with pytest.raises(InvariantViolation, match="entries"):
        StochasticMatrix(("a",), ("y0", "y1"), np.array([[1.4, -0.4]]))


def test_stochastic_matrix_clamps_rounding():
    lam = StochasticMatrix(("a",), ("y0", "y1"), np.array([[1.0 + 5e-13, -5e-13]]))
    assert lam.weights[0, 1] == 0.0
    assert lam.weights[0, 0] <= 1.0


def test_part_identity():
    obs = qubit_basis_observable()
    f = OutcomeMap({"x0": "x0", "x1": "x1"})
    assert observable_deviation(part(obs, f), obs) == 0.0


def test_part_pairwise_collapse():
    rng = np.random.default_rng(13)
    obs = random_observable(3, 4, rng)
    f = OutcomeMap({"x0": "lo", "x1": "lo", "x2": "hi", "x3": "hi"}, ("lo", "hi"))
    out = part(obs, f)
    np.testing.assert_allclose(
        out.effect("lo").matrix, obs.effects[0].matrix + obs.effects[1].matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        out.effect("hi").matrix, obs.effects[2].matrix + obs.effects[3].matrix, atol=1e-12
    )


def test_part_of_part_is_composed_part():
    rng = np.random.default_rng(14)
    obs = random_observable(2, 4, rng)
    f = OutcomeMap({"x0": "a", "x1": "a", "x2": "b", "x3": "c"}, ("a", "b", "c"))
    g = OutcomeMap({"a": "u", "b": "u", "c": "v"}, ("u", "v"))
    assert observable_deviation(part(part(obs, f), g), part(obs, f.then(g))) < 1e-12


def test_outcome_map_requires_surjectivity():
    with pytest.raises(InvariantViolation, match="surjective"):
        OutcomeMap({"x0": "a"}, ("a", "b"))


def test_outcome_map_names_values_outside_its_targets():
    with pytest.raises(InvariantViolation, match="values in targets") as info:
        OutcomeMap({"a": "z", "b": "y"}, targets=("y",))
    assert "['z']" in str(info.value)


def test_outcome_map_labels_are_strings_whether_targets_are_inferred_or_given():
    inferred = OutcomeMap({"a": 1, "b": 2})
    given = OutcomeMap({"a": 1, "b": 2}, targets=(1, 2))
    for f in (inferred, given):
        assert f.mapping == {"a": "1", "b": "2"}
        assert f.targets == ("1", "2")
        assert f.to_stochastic(("a", "b")).targets == f.targets
    assert OutcomeMap({0: "u", 1: "v"}).domain == ("0", "1")
    with pytest.raises(InvariantViolation, match="distinct outcome labels"):
        OutcomeMap({1: "u", "1": "u"})


def test_part_requires_total_map():
    obs = qubit_basis_observable()
    with pytest.raises(ValueError, match="total"):
        part(obs, OutcomeMap({"x0": "a"}, ("a",)))


def test_marginals_product_grid():
    rng = np.random.default_rng(15)
    a = random_observable(3, 2, rng)
    w = np.array([0.25, 0.35, 0.40])
    grid = BiObservable(
        a.outcomes,
        ("y0", "y1", "y2"),
        tuple(tuple(w[j] * e.matrix for j in range(3)) for e in a.effects),
    )
    m1, m2 = marginals(grid)
    assert observable_deviation(m1, a) < 1e-12
    for j, y in enumerate(("y0", "y1", "y2")):
        np.testing.assert_allclose(m2.effect(y).matrix, w[j] * np.eye(3), atol=1e-12)


def test_marginals_degenerate_axis():
    b = random_observable(2, 3, 16)
    grid = BiObservable(("only",), b.outcomes, (tuple(b.effects),))
    m1, m2 = marginals(grid)
    assert m1.n_outcomes == 1
    np.testing.assert_allclose(m1.effects[0].matrix, np.eye(2), atol=1e-12)
    assert observable_deviation(m2, b) < 1e-12


def test_marginals_are_valid_observables():
    rng = np.random.default_rng(17)
    a = random_observable(2, 2, rng)
    lam = random_stochastic_matrix(a.outcomes, ("y0", "y1"), rng)
    grid = BiObservable(
        a.outcomes,
        ("y0", "y1"),
        tuple(tuple(lam.weights[i, j] * a.effects[i].matrix for j in range(2)) for i in range(2)),
    )
    m1, m2 = marginals(grid)  # constructors validate normalization
    assert m1.n_outcomes == 2 and m2.n_outcomes == 2


# ---------------------------------------------------------------------------
# affine combinations and coexistence
# ---------------------------------------------------------------------------

def test_affine_combination_extreme_weights():
    rng = np.random.default_rng(18)
    a = random_observable(2, 2, rng)
    b = random_observable(2, 2, rng)
    assert observable_deviation(affine_combination([a, b], [1.0, 0.0]), a) == 0.0
    assert observable_deviation(affine_combination([a, a], [0.5, 0.5]), a) < 1e-15


def test_affine_combination_entrywise():
    rng = np.random.default_rng(19)
    a = random_observable(2, 2, rng)
    b = random_observable(2, 2, rng)
    mixed = affine_combination([a, b], [0.25, 0.75])
    for k in range(2):
        np.testing.assert_allclose(
            mixed.effects[k].matrix,
            0.25 * a.effects[k].matrix + 0.75 * b.effects[k].matrix,
            atol=1e-12,
        )


def test_affine_combination_rejects_bad_weights():
    a = qubit_basis_observable()
    with pytest.raises(InvariantViolation, match="sum to 1"):
        affine_combination([a, a], [0.5, 0.4])
    with pytest.raises(InvariantViolation, match="weights"):
        affine_combination([a, a], [1.5, -0.5])


def test_certify_coexistence_commuting_projectors():
    a = qubit_basis_observable()
    b = Observable(("y0", "y1"), (PROJ0, PROJ1))
    grid = BiObservable(
        a.outcomes,
        b.outcomes,
        tuple(tuple(ax.matrix @ by.matrix for by in b.effects) for ax in a.effects),
    )
    assert certify_coexistence(a, b, grid)


def test_certify_coexistence_rejects_perturbed_marginal():
    a = qubit_basis_observable()
    b = Observable(("y0", "y1"), (PROJ0, PROJ1))
    grid = BiObservable(
        a.outcomes,
        b.outcomes,
        tuple(tuple(ax.matrix @ by.matrix for by in b.effects) for ax in a.effects),
    )
    a_shifted = Observable(
        a.outcomes, (np.diag([1.0 - 1e-3, 1e-3]), np.diag([1e-3, 1.0 - 1e-3]))
    )
    assert not certify_coexistence(a_shifted, b, grid)


def test_certify_coexistence_trivial():
    a = Observable.trivial(2, "x")
    b = Observable.trivial(2, "y")
    grid = BiObservable(("x",), ("y",), ((np.eye(2),),))
    assert certify_coexistence(a, b, grid)


def test_post_process_of_post_process_composes():
    rng = np.random.default_rng(20)
    for _ in range(10):
        obs = random_observable(3, 3, rng)
        lam = random_stochastic_matrix(obs.outcomes, ("y0", "y1", "y2"), rng)
        mu = random_stochastic_matrix(lam.targets, ("z0", "z1"), rng)
        lhs = post_process(post_process(obs, lam), mu)
        rhs = post_process(obs, lam.then(mu))
        assert observable_deviation(lhs, rhs) < 1e-12


# ---------------------------------------------------------------------------
# the stacked family representation and its one validator
# ---------------------------------------------------------------------------

def _as_observable(labels, effects):
    return Observable(labels, effects)


def _as_bi_observable(labels, effects):
    # the whole family as the one row of a grid
    return BiObservable(("r",), labels, (tuple(effects),))


NAN_PROJ0 = np.array([[1.0, np.nan], [0.0, 0.0]])
SKEW = np.array([[0.0, 0.5], [0.0, 0.0]])

REJECTIONS = [
    ("nan entry", ("a", "b"), (NAN_PROJ0, PROJ1), "finite entries"),
    ("1-D input", ("a", "b"), (np.array([1.0, 0.0]), np.array([0.0, 1.0])), "two-dimensional"),
    ("non-square", ("a", "b"), (np.ones((2, 3)) / 2, np.ones((2, 3)) / 2), "square"),
    ("mixed dimensions", ("a", "b"), (np.eye(2), np.zeros((3, 3))), "uniform dimension"),
    ("non-Hermitian", ("a", "b"), (PROJ0 + SKEW, PROJ1 - SKEW), "between zero and identity"),
    (
        "eigenvalue below 0",
        ("a", "b", "c"),
        (np.diag([-0.2, 0.3]), np.diag([0.6, 0.3]), np.diag([0.6, 0.4])),
        "between zero and identity",
    ),
    (
        "eigenvalue above 1",
        ("a", "b"),
        (np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])),
        "between zero and identity",
    ),
    ("sum is not I", ("a", "b"), (PROJ0, 0.99 * PROJ1), "normalization"),
    ("duplicate labels", ("a", "a"), (PROJ0, PROJ1), "distinct"),
    ("empty labels", (), (), "nonempty"),
]


@pytest.mark.parametrize(
    "build", [_as_observable, _as_bi_observable], ids=["Observable", "BiObservable"]
)
@pytest.mark.parametrize("case", REJECTIONS, ids=[r[0] for r in REJECTIONS])
def test_family_constructors_reject(build, case):
    _, labels, effects, invariant = case
    with pytest.raises(InvariantViolation, match=invariant) as err:
        build(labels, effects)
    assert err.value.kind == build(("a", "b"), (PROJ0, PROJ1)).__class__.__name__


STACKABLE = [r for r in REJECTIONS if r[0] not in ("mixed dimensions", "empty labels")]


@pytest.mark.parametrize("case", STACKABLE, ids=[r[0] for r in STACKABLE])
def test_family_constructors_reject_stacked_arrays(case):
    _, labels, effects, invariant = case
    stack = np.stack(effects)
    with pytest.raises(InvariantViolation, match=invariant):
        Observable(labels, stack)
    with pytest.raises(InvariantViolation, match=invariant):
        BiObservable(("r",), labels, stack[None])


def test_family_constructors_reject_a_wrong_outcome_count():
    with pytest.raises(InvariantViolation, match="one effect per outcome"):
        Observable(("a", "b", "c"), (PROJ0, PROJ1))
    with pytest.raises(InvariantViolation, match="one effect per outcome"):
        Observable(("a", "b", "c"), np.stack([PROJ0, PROJ1]))
    with pytest.raises(InvariantViolation, match="grid shape"):
        BiObservable(("r", "s"), ("a", "b"), ((PROJ0, PROJ1),))
    with pytest.raises(InvariantViolation, match="grid shape"):
        BiObservable(("r",), ("a", "b"), ((PROJ0,),))


def test_effects_are_read_only_views_of_the_stack():
    obs = random_observable(3, 4, 40)
    stack = obs.effect_stack
    assert stack.shape == (4, 3, 3) and not stack.flags.writeable
    for i, e in enumerate(obs.effects):
        assert isinstance(e, Effect)
        assert np.shares_memory(e.matrix, stack[i])
        np.testing.assert_array_equal(e.matrix, stack[i])
        with pytest.raises(ValueError):
            e.matrix[0, 0] = 0.5
    assert obs.effect("x2") is obs.effects[2]
    halves = np.stack([stack[:2], stack[2:]], axis=1)
    grid = BiObservable(obs.outcomes[:2], ("y0", "y1"), halves)
    assert grid.effect_stack.shape == (2, 2, 3, 3) and not grid.effect_stack.flags.writeable
    assert np.shares_memory(grid.effect("x1", "y0").matrix, grid.effect_stack[1, 0])


def test_effect_objects_raw_matrices_and_arrays_give_equal_stacks():
    obs = random_observable(2, 3, 41)
    raw = [np.array(e.matrix) for e in obs.effects]
    from_raw = Observable(obs.outcomes, raw)
    from_effects = Observable(obs.outcomes, tuple(Effect(m) for m in raw))
    stacked = np.stack(raw)
    from_array = Observable(obs.outcomes, stacked)
    np.testing.assert_array_equal(from_raw.effect_stack, from_effects.effect_stack)
    np.testing.assert_array_equal(from_raw.effect_stack, from_array.effect_stack)
    stacked[0] = 0.0  # the observable owns its copy
    np.testing.assert_array_equal(from_array.effect_stack[0], raw[0])


def test_family_validation_is_one_batched_factorization(monkeypatch):
    shapes = {"cholesky": [], "eigvalsh": []}
    for name, calls in shapes.items():
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, _fn=fn, _calls=calls: _calls.append(m.shape) or _fn(m))
    obs = Observable(("a", "b", "c"), (PROJ0 / 2, PROJ1, PROJ0 / 2))
    obs.effects, obs.effect("b"), obs.effect_stack
    # both bounds of all three effects in one call, and no eigenvalue fallback
    assert shapes == {"cholesky": [(2, 3, 2, 2)], "eigvalsh": []}


def test_stochastic_matrix_rejects_nan():
    with pytest.raises(InvariantViolation, match="finite entries"):
        StochasticMatrix(("a", "b"), ("y",), np.array([[np.nan], [1.0]]))


def test_affine_combination_rejects_nonfinite_weights():
    rng = np.random.default_rng(42)
    a = random_observable(2, 2, rng)
    b = random_observable(2, 2, rng)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvariantViolation, match="finite entries"):
            affine_combination([a, b], [bad, 1.0])


# observables with two outcomes on C² and on C³, and one with other labels
_BASIS = Observable(("x0", "x1"), (PROJ0, PROJ1))
_WIDE = Observable(("x0", "x1"), (np.eye(3) / 2, np.eye(3) / 2))
_RELABELED = Observable(("y0", "y1"), (PROJ0, PROJ1))
_GRID = BiObservable(("x0", "x1"), ("y",), ((PROJ0,), (PROJ1,)))
_MIXED = [State.maximally_mixed(d) for d in (2, 3)]


@pytest.mark.parametrize("call, expected", [
    (lambda: State.pure([0.0, 0.0]), InvariantViolation("State", "nonzero vector")),
    (lambda: Effect.identity(2).matrix.tolist(), [[1, 0], [0, 1]]),
    (lambda: HolevoSpec(_BASIS, _MIXED[:1]), InvariantViolation("HolevoSpec", "state count", "expected 2, got 1")),
    (lambda: HolevoSpec(_BASIS, _MIXED),
     InvariantViolation("HolevoSpec", "uniform dimension", "shapes [(2, 2), (3, 3)]")),
    (lambda: StochasticMatrix(("a", "b"), ("c",), np.full((2, 2), 0.5)),
     InvariantViolation("StochasticMatrix", "shape", "expected (2, 1), got (2, 2)")),
    (lambda: StochasticMatrix.identity(["a"]).then(StochasticMatrix.identity(["b"])),
     ValueError("kernel composition requires matching intermediate outcomes")),
    (lambda: OutcomeMap({}), InvariantViolation("OutcomeMap", "nonempty domain")),
    (lambda: OutcomeMap({"a": "y"})("b"), ValueError("unknown outcome label 'b'")),
    (lambda: OutcomeMap({"a": "y", "b": "z", "c": "y"}).preimage("y"), ("a", "c")),
    (lambda: affine_combination([], []), ValueError("need one weight per observable")),
    (lambda: affine_combination([_BASIS, _RELABELED], [0.5, 0.5]),
     ValueError("observables must share the same ordered outcome labels")),
    (lambda: affine_combination([_BASIS, _WIDE], [0.5, 0.5]),
     ValueError("observables must share the same dimension")),
    (lambda: certify_coexistence(_RELABELED, Observable.trivial(2, "y"), _GRID), False),
    (lambda: certify_coexistence(_WIDE, Observable.trivial(2, "y"), _GRID), False),
    (lambda: observable_deviation(_BASIS, _RELABELED),
     ValueError("observables must share the same ordered outcome labels")),
    (lambda: bi_observable_deviation(_GRID, BiObservable(("x0", "x1"), ("z",), ((PROJ0,), (PROJ1,)))),
     ValueError("bi-observables must share the same ordered outcome labels")),
], ids=["pure-zero", "identity-effect", "state-count", "state-dimensions", "kernel-shape", "kernel-composition",
        "empty-map", "unknown-label", "preimage", "no-weights", "mixture-labels", "mixture-dimensions",
        "certificate-labels", "certificate-dimensions", "deviation-labels", "bi-deviation-labels"])
def test_effect_family_argument_checks(call, expected):
    assert_pinned(call, expected)
