"""Kernel tests: adjoint, Kronecker products, partial trace, positivity."""

import numpy as np
import pytest

from qcond import Effect, Instrument, Observable, Operation, State
from qcond.errors import InvariantViolation
from qcond.linalg import (
    adjoint,
    as_complex_matrix,
    hermitian_part,
    hermitized_matrix_units,
    is_effect_matrix,
    is_hermitian,
    is_psd,
    kron,
    max_abs_diff,
    partial_trace_right,
    require_tolerance,
)
from qcond.rand import random_effect, random_state

from pinned import assert_pinned


def _rand(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_adjoint_nilpotent():
    np.testing.assert_array_equal(adjoint([[0, 1], [0, 0]]), [[0, 0], [1, 0]])


def test_adjoint_identity():
    np.testing.assert_array_equal(adjoint(np.eye(3)), np.eye(3))


def test_adjoint_conjugates():
    np.testing.assert_array_equal(adjoint([[1j]]), [[-1j]])


def test_adjoint_involution():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = _rand(rng, 3, 4)
        np.testing.assert_array_equal(adjoint(adjoint(m)), m)


def test_kron_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    np.testing.assert_array_equal(
        kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), np.diag([0.0, 1.0, 0.0, 0.0])
    )


def test_kron_equals_numpy_kron():
    rng = np.random.default_rng(5)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for a, b in [
        (cplx(2, 3), cplx(4, 1)),
        (cplx(1, 5), cplx(3, 2)),
        (cplx(3, 3), cplx(2, 1)),  # operator ⊗ column vector, as in lifted Kraus factors
        (cplx(3, 1), cplx(1, 2)),
        (np.eye(2), np.arange(6.0).reshape(2, 3)),
    ]:
        out = kron(a, b)
        assert out.dtype == complex
        assert np.array_equal(out, np.kron(a, b))
    rho, e = random_state(3, rng), random_effect(2, rng)
    assert np.array_equal(kron(rho, e), np.kron(rho.matrix, e.matrix))


def test_kron_on_stacks_is_matrix_by_matrix_with_broadcast_leading_axes():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 2, 3, 2)) + 1j * rng.standard_normal((4, 2, 3, 2))
    b = rng.standard_normal((2, 2, 1)) + 1j * rng.standard_normal((2, 2, 1))
    out = kron(a, b)
    assert out.shape == (4, 2, 6, 2)
    for i in range(4):
        for j in range(2):
            assert np.array_equal(out[i, j], np.kron(a[i, j], b[j]))


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = _rand(rng, 2, 2), _rand(rng, 2, 2)
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_kron_associative():
    # exact for exactly-representable entries
    rng = np.random.default_rng(2)
    a = rng.integers(-3, 4, size=(2, 2)).astype(complex)
    b = rng.integers(-3, 4, size=(2, 3)).astype(complex)
    c = rng.integers(-3, 4, size=(3, 2)).astype(complex)
    np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
    # and within rounding for generic complex entries
    a, b, c = _rand(rng, 2, 2), _rand(rng, 2, 3), _rand(rng, 3, 2)
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-13)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    g = _rand(rng, 3, 3)
    rho = g @ g.conj().T
    s = _rand(rng, 2, 2)
    sigma = s @ s.conj().T
    sigma /= np.trace(sigma)
    np.testing.assert_allclose(partial_trace_right(kron(rho, sigma), 3, 2), rho, atol=1e-12)


def test_partial_trace_identity():
    np.testing.assert_array_equal(partial_trace_right(np.eye(4), 2, 2), 2.0 * np.eye(2))


def test_partial_trace_index_oracle():
    # entry (i, j) must equal sum_k m[(i, k), (j, k)]
    rng = np.random.default_rng(5)
    g = _rand(rng, 4, 4)
    h = (g + g.conj().T) / 2
    oracle = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                oracle[i, j] += h[i * 2 + k, j * 2 + k]
    np.testing.assert_allclose(partial_trace_right(h, 2, 2), oracle, atol=1e-13)


def test_partial_trace_of_kron_scales_by_trace():
    rng = np.random.default_rng(21)
    for dl, dr in ((2, 2), (3, 2), (2, 3)):
        a, b = _rand(rng, dl, dl), _rand(rng, dr, dr)
        np.testing.assert_allclose(
            partial_trace_right(kron(a, b), dl, dr), np.trace(b) * a, atol=1e-12
        )


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_partial_trace_preserves_trace(dims):
    rng = np.random.default_rng(6)
    dl, dr = dims
    m = _rand(rng, dl * dr, dl * dr)
    assert abs(np.trace(partial_trace_right(m, dl, dr)) - np.trace(m)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(InvariantViolation):
        partial_trace_right(np.eye(5), 2, 2)


def test_is_psd_cases():
    assert is_psd(np.diag([1.0, 0.0]))
    assert not is_psd(np.diag([1.0, -1e-3]), atol=1e-9)
    assert not is_psd(np.array([[0, 1], [0, 0]]))


def test_is_effect_cases():
    assert is_effect_matrix(np.eye(2) / 2)
    assert is_effect_matrix(np.eye(3) / 2)
    assert not is_effect_matrix(2.0 * np.eye(2))
    assert is_effect_matrix(np.diag([1.0, 0.0, 1.0]))


def test_effect_complement_closure():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(10):
            g = _rand(rng, dim, dim)
            pos = g @ g.conj().T
            e = pos / (np.linalg.eigvalsh(pos).max() * rng.uniform(1.0, 3.0))
            assert is_effect_matrix(e)
            assert is_effect_matrix(np.eye(dim) - e)


def test_is_hermitian_tolerance():
    m = np.array([[1.0, 1e-12j], [0.0, 1.0]])
    assert is_hermitian(m, atol=1e-9)
    assert not is_hermitian(m, atol=1e-15)


def test_hermitized_basis():
    for dim in (2, 3):
        basis = hermitized_matrix_units(dim)
        assert len(basis) == dim * dim
        for b in basis:
            np.testing.assert_array_equal(b, b.conj().T)
        # the basis spans: stack as vectors and check rank
        stacked = np.stack([b.reshape(-1) for b in basis])
        assert np.linalg.matrix_rank(stacked) == dim * dim


def test_as_complex_matrix_rejects_bad_input():
    with pytest.raises(InvariantViolation):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(InvariantViolation):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_max_abs_diff():
    assert max_abs_diff(np.eye(2), np.eye(2)) == 0.0
    assert max_abs_diff(np.eye(2), np.zeros((2, 2))) == 1.0


def test_require_tolerance():
    assert require_tolerance(1e-9) == 1e-9
    assert require_tolerance("1e-3") == 1e-3
    for bad in (float("inf"), float("-inf"), float("nan"), 0, -1e-9, "abc", None):
        with pytest.raises(ValueError, match="tolerance"):
            require_tolerance(bad)


def test_is_effect_matrix_on_a_stack():
    good = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
    assert is_effect_matrix(good)
    assert not is_effect_matrix(np.stack([np.eye(2) / 2, 2.0 * np.eye(2)]))
    assert not is_effect_matrix(np.stack([np.eye(2) / 2, [[0.5, 0.5], [0.0, 0.5]]]))
    assert not is_effect_matrix(np.full((2, 2), np.nan))


def test_is_psd_on_a_stack():
    good = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.zeros((2, 2))])
    assert is_psd(good)
    assert not is_psd(np.stack([np.eye(2), np.diag([1.0, -1e-3])]))
    assert not is_psd(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
    assert not is_psd(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
    assert not is_psd(np.ones((2, 2, 3)))


# Verdicts of the factorization certificate against the eigenvalue rule.

ATOL = 1e-9
# each bound of [-atol, 1 + atol], at it and at ±1e-4·atol and ±0.5·atol
# from it, and the exact ends 0 and 1 of [0, I]
PLACEMENTS = [b + f * ATOL for b in (-ATOL, 1.0 + ATOL) for f in (0.0, 1e-4, -1e-4, 0.5, -0.5)] + [0.0, 1.0]


def _eigenvalue_rule(m: np.ndarray, upper: bool) -> bool:
    """The exact verdict: the spectrum of ``(m + m†)/2`` at or above
    ``-atol`` (and, with ``upper``, at or below ``1 + atol``)."""
    evals = np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0)
    return bool(evals.min() >= -ATOL and (not upper or evals.max() <= 1.0 + ATOL))


def _unitary(rng, dim):
    q, r = np.linalg.qr(_rand(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _placed(rng, dim, value, rotated):
    """A Hermitian matrix with eigenvalue ``value`` and the others drawn from
    ``[0.05, 0.95]``. ``value`` sits exactly on a (permuted) basis vector,
    unless ``rotated``, when a random unitary turns the whole spectrum."""
    evals = rng.uniform(0.05, 0.95, dim)
    evals[0] = value
    if rotated:
        u = _unitary(rng, dim)
        return (u * evals) @ u.conj().T
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = value
    u = _unitary(rng, dim - 1)
    m[1:, 1:] = (u * evals[1:]) @ u.conj().T
    perm = rng.permutation(dim)
    return m[perm][:, perm]


@pytest.fixture()
def factorizations(monkeypatch):
    """Counts of ``np.linalg.cholesky`` calls, of those that raised, and of
    ``np.linalg.eigvalsh`` calls."""
    counts = {"cholesky": 0, "failed": 0, "eigvalsh": 0}
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

    def counted_cholesky(m):
        counts["cholesky"] += 1
        try:
            return cholesky(m)
        except np.linalg.LinAlgError:
            counts["failed"] += 1
            raise

    def counted_eigvalsh(m):
        counts["eigvalsh"] += 1
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    return counts


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 8, 16, 32])
def test_positivity_verdicts_equal_the_eigenvalue_rule(dim, rotated, factorizations):
    rng = np.random.default_rng(1000 * dim + rotated)
    # a rotated eigenvalue exactly on a bound is within rounding of it
    placements = [v for v in PLACEMENTS if not (rotated and v in (-ATOL, 1.0 + ATOL))]
    for value in placements:
        m = _placed(rng, dim, value, rotated)
        stack = np.stack([_placed(rng, dim, 0.5, True) for _ in range(5)] + [m])[rng.permutation(6)]
        for probe in (m, stack):
            expected = {upper: _eigenvalue_rule(probe, upper) for upper in (False, True)}
            factorizations.update(cholesky=0, failed=0, eigvalsh=0)
            assert is_psd(probe, ATOL) == expected[False]
            assert is_effect_matrix(probe, ATOL) == expected[True]
            # one factorization per test; eigenvalues only where it failed
            assert factorizations["cholesky"] == 2
            assert factorizations["eigvalsh"] == factorizations["failed"]


def test_positivity_at_the_exact_bounds():
    assert is_psd(np.diag([1.0, -ATOL]))
    assert is_effect_matrix(np.diag([1.0 + ATOL, -ATOL]))
    assert is_effect_matrix(np.diag([1.0 + ATOL, -ATOL]).astype(complex)[None].repeat(3, axis=0))
    below, above = np.nextafter(-ATOL, -1.0), np.nextafter(1.0 + ATOL, 2.0)
    assert not is_psd(np.diag([1.0, below]))
    assert not is_effect_matrix(np.diag([1.0, below]))
    assert not is_effect_matrix(np.diag([above, 0.0]))


def test_a_stack_with_one_bad_matrix_is_rejected():
    rng = np.random.default_rng(33)
    for dim in (2, 5, 16):
        good = [_placed(rng, dim, 0.5, True) for _ in range(49)]
        for bad, upper in ((-1.5 * ATOL, False), (-1.5 * ATOL, True), (1.0 + 1.5 * ATOL, True)):
            stack = np.stack(good + [_placed(rng, dim, bad, False)])[rng.permutation(50)]
            check = is_effect_matrix if upper else is_psd
            assert check(np.stack(good)) and not check(stack)


def test_positivity_of_nan_or_non_hermitian_input_is_false():
    skew = np.array([[0.5, 0.1], [-0.1, 0.5]], dtype=complex)
    near = np.array([[0.5, 0.1 + 0.4 * ATOL], [0.1, 0.5]], dtype=complex)
    # a NaN or infinite entry alone, or a Hermitian pair of them, whose
    # Hermiticity pass meets inf - inf: False, with no warning (the suite
    # turns warnings into errors)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, -np.inf)):
        for cells in (((0, 0),), ((0, 1),), ((0, 1), (1, 0))):
            m = np.eye(2, dtype=complex) / 2
            for i, j in cells:
                m[i, j] = bad if i <= j else np.conj(bad)
            for check in (is_psd, is_effect_matrix, is_hermitian):
                assert check(m) is False
            for check in (is_psd, is_effect_matrix):
                assert check(np.stack([np.eye(2) / 2, m])) is False
    for check in (is_psd, is_effect_matrix):
        assert check(skew) is False
        assert check(near) is True


def test_positivity_rejection_messages():
    def message(fn, *args):
        with pytest.raises(InvariantViolation) as info:
            fn(*args)
        return str(info.value)

    assert message(State, np.diag([1.0 + 1e-3, -1e-3])) == "State: violated invariant 'positive'"
    assert message(Effect, np.diag([1.0 + 1e-3, 0.0])) == (
        "Effect: violated invariant 'between zero and identity'")
    assert message(Observable, ("a", "b"), (np.diag([1.1, 0.5]), np.diag([-0.1, 0.5]))) == (
        "Observable: violated invariant 'between zero and identity'")
    big = Operation(np.sqrt(1.1) * np.eye(2)[None], 0.5)
    assert message(Instrument, ("x",), (big,)) == (
        "Instrument: violated invariant 'total channel' (sum K†K must be <= I)")


@pytest.mark.parametrize("call, expected", [
    (lambda: hermitian_part(np.ones(3)), InvariantViolation("matrix", "two-dimensional", "got ndim=1")),
    (lambda: is_hermitian(np.zeros((2, 3))), False),
], ids=["vector", "non-square"])
def test_matrix_argument_checks(call, expected):
    assert_pinned(call, expected)
