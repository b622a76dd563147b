"""Kernel tests: Kronecker products, partial trace, positivity."""

import importlib.util
import math
import sys
import warnings

import numpy as np
import pytest

import qcond.linalg as linalg
from qcond import (
    Channel,
    Effect,
    HolevoSeparableSpec,
    HolevoSpec,
    Instrument,
    KrausSeparableChannel,
    Observable,
    Operation,
    State,
    StochasticMatrix,
)
from qcond.errors import InvariantViolation
from qcond.linalg import (
    as_complex_matrix,
    clipped_eigh,
    hermitian_part,
    hermitized_matrix_units,
    is_effect_matrix,
    is_psd,
    kron,
    max_abs_diff,
    require_tolerance,
)
from qcond.effects import born_probability
from qcond.instruments import given_distribution, holevo_operation
from qcond.rand import random_channel, random_effect, random_state

from factorizations import watch_factorizations
from map_oracles import partial_trace_right
from pinned import assert_pinned


def _rand(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


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
    # 10**400 and -10**400: integers beyond the largest double
    for bad in (float("inf"), float("-inf"), float("nan"), 0, -1e-9, "abc", None, 10**400, -10**400):
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


@pytest.mark.parametrize("shape", [(0, 0), (0, 2, 2), (3, 0, 0)], ids=["0x0", "no-matrix", "three-0x0"])
def test_positivity_of_input_with_no_entries_is_true(shape):
    # no matrix, or matrices with no entries: nothing to violate
    assert is_psd(np.zeros(shape))
    assert is_effect_matrix(np.zeros(shape))


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


def failed(factor: np.ndarray) -> bool:
    """True iff a Cholesky factorization failed: its output holds NaN."""
    return bool(np.isnan(factor).any())


@pytest.fixture()
def factorizations(monkeypatch):
    """Counts of the kernel's Cholesky factorizations, of those that failed
    (NaN output), and of its ``eigvalsh`` and ``eigh`` calls."""
    counts = {"cholesky": 0, "failed": 0, "eigvalsh": 0, "eigh": 0}

    def counted(name, m, out):
        counts[name] += 1
        counts["failed"] += name == "cholesky" and failed(out)

    watch_factorizations(monkeypatch, counted)
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
            factorizations.update(cholesky=0, failed=0, eigvalsh=0, eigh=0)
            assert is_psd(probe, ATOL) == expected[False]
            assert is_effect_matrix(probe, ATOL) == expected[True]
            # one factorization per test; eigenvalues only where it failed
            assert factorizations["cholesky"] == 2
            assert factorizations["eigvalsh"] == factorizations["failed"]
            assert factorizations["eigh"] == 0


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
            for check in (is_psd, is_effect_matrix):
                assert check(m) is False
                assert check(np.stack([np.eye(2) / 2, m])) is False
    for check in (is_psd, is_effect_matrix):
        assert check(skew) is False
        assert check(near) is True


def _shifted(m: np.ndarray, upper: bool) -> np.ndarray:
    """The stack that ``is_psd`` (``upper`` False) or ``is_effect_matrix``
    factorizes: ``2h + 2·atol·I`` and ``(2 + 2·atol)·I - 2h`` for ``h``
    the symmetrization of ``m``."""
    twice = m + m.conj().swapaxes(-1, -2)
    eye = np.eye(m.shape[-1])
    lower = twice + 2.0 * ATOL * eye
    return np.stack([lower, (2.0 + 2.0 * ATOL) * eye - twice]) if upper else lower[None]


def _spectral_stack(rng, dim, kind):
    """Five Hermitian matrices: spectra in [0.05, 0.95] ("positive definite"),
    with an exact 0 and 1 rotated ("singular psd"), with -0.3 ("indefinite"),
    or four of the first and one of the third ("mixed")."""
    values = {"positive definite": [], "singular psd": [0.0, 1.0], "indefinite": [-0.3]}
    kinds = ["positive definite"] * 4 + ["indefinite"] if kind == "mixed" else [kind] * 5
    mats = []
    for k in kinds:
        evals = rng.uniform(0.05, 0.95, dim)
        evals[: len(values[k])] = values[k]
        u = _unitary(rng, dim)
        mats.append((u * evals) @ u.conj().T)
    return np.stack(mats)


@pytest.mark.parametrize("kind", ["positive definite", "singular psd", "indefinite", "mixed"])
@pytest.mark.parametrize("dim", [2, 3, 5])
def test_positivity_certificates_are_what_numpys_cholesky_factors(kind, dim, monkeypatch):
    rng = np.random.default_rng(dim)
    m = _spectral_stack(rng, dim, kind)
    for upper, check in ((False, is_psd), (True, is_effect_matrix)):
        try:
            reference = np.linalg.cholesky(_shifted(m, upper))
        except np.linalg.LinAlgError:
            reference = None
        # the atol shift makes a singular positive stack definite
        assert (reference is not None) == (kind in ("positive definite", "singular psd"))
        seen = []
        with monkeypatch.context() as patch:
            watch_factorizations(patch, lambda name, a, out: seen.append((name, out)))
            verdict = check(m, ATOL)
        assert seen[0][0] == "cholesky"
        assert failed(seen[0][1]) == (reference is None)
        if reference is None:
            # one eigenvalue fallback decides, as the rule does
            assert [name for name, _ in seen] == ["cholesky", "eigvalsh"]
            assert verdict is _eigenvalue_rule(m, upper) is False
        else:
            assert len(seen) == 1 and verdict is True
            assert seen[0][1].tobytes() == reference.tobytes()


def test_a_failing_factorization_lets_no_warning_escape():
    # indefinite stacks, one whose factorization also overflows, and one
    # whose symmetrization overflows
    huge = np.array([[1e200, 1e300], [1e300, 1e200]], dtype=complex)
    overflowing = np.array([[1e308, 0.0], [0.0, -1e308]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (np.diag([1.0, -1.0]), huge, overflowing, np.stack([np.eye(2) / 2, huge])):
            assert is_psd(m) is False
            assert is_effect_matrix(m) is False


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 5, 5), (2, 3, 4, 4)])
def test_clipped_eigh_keeps_numpys_eigh_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = g + g.conj().swapaxes(-1, -2)
    evals, evecs = np.linalg.eigh(hermitian_part(m))
    # a tolerance wider than the spectrum: nothing raises, negatives clip
    got_vals, got_vecs = clipped_eigh(m, float(np.abs(evals).max()) + 1.0)
    assert got_vals.tobytes() == np.maximum(evals, 0.0).tobytes()
    assert got_vecs.tobytes() == evecs.tobytes()
    assert got_vals.dtype == float and got_vecs.dtype == complex


def test_a_failed_eigendecomposition_raises_as_numpys_does(monkeypatch):
    # a stand-in gufunc that fails as numpy's does: NaN output and the
    # invalid-value flag raised
    def failing(m, *, signature):
        np.sqrt(np.array(-1.0))
        return np.full(m.shape[:-1], np.nan), np.full(m.shape, np.nan + 0j)

    monkeypatch.setitem(linalg._GUFUNCS, "eigh", (failing, "D->dD"))
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        clipped_eigh(np.eye(2))


def _outcome(fn, *args):
    """``fn(*args)``'s result as bytes, or its exception's type and message."""
    try:
        result = fn(*args)
    except (InvariantViolation, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return [np.asarray(r).tobytes() for r in result] if isinstance(result, tuple) else result


def test_without_numpys_private_linalg_module_the_public_functions_decide(monkeypatch):
    # qcond.linalg executed afresh where numpy.linalg._umath_linalg cannot be
    # imported
    monkeypatch.delattr(np.linalg, "_umath_linalg")
    monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
    spec = importlib.util.find_spec("qcond.linalg")
    fallback = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fallback)
    assert fallback._umath_linalg is None and fallback._GUFUNCS is fallback._PUBLIC
    rng = np.random.default_rng(41)
    below, above = np.nextafter(-ATOL, -1.0), np.nextafter(1.0 + ATOL, 2.0)
    nan = np.eye(3, dtype=complex) / 2
    nan[1, 1] = np.nan
    stacks = [_spectral_stack(rng, 3, kind) for kind in ("positive definite", "singular psd", "indefinite", "mixed")]
    stacks += [np.diag(d).astype(complex) for d in ([1.0, -ATOL], [1.0 + ATOL, -ATOL], [1.0, below], [above, 0.0])]
    stacks += [nan, np.stack([np.eye(3) / 2, nan])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in stacks:
            for name in ("is_psd", "is_effect_matrix"):
                assert getattr(fallback, name)(m, ATOL) is getattr(linalg, name)(m, ATOL)
            assert _outcome(fallback.clipped_eigh, m, ATOL) == _outcome(clipped_eigh, m, ATOL)


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
    (lambda: is_psd(np.zeros((2, 3))), False),
], ids=["vector", "non-square"])
def test_matrix_argument_checks(call, expected):
    assert_pinned(call, expected)



_HALF = np.eye(2) / 2
_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_BASIS = Observable(("a", "b"), (_P0, _P1))
_PURE = State(_P0)
_FLIP = Instrument(("a", "b"), (Operation([_P0]), Operation([np.array([[0.0, 1.0], [0.0, 0.0]])])))


# every public constructor that takes a tolerance, on valid data, the public
# positivity tests, and the queries whose first comparison against atol is in
# a shared kernel
@pytest.mark.parametrize("make", [
    lambda atol: State(_HALF, atol),
    lambda atol: State.pure([1.0, 1.0j], atol),
    lambda atol: Effect(_HALF, atol),
    lambda atol: Observable(("a", "b"), (_P0, _P1), atol),
    lambda atol: Observable((("a",), ("b", "c")), ((_P0, _P1),), atol),
    lambda atol: StochasticMatrix(("a",), ("x", "y"), [[1.0, 0.0]], atol),
    lambda atol: Operation([_P0], atol),
    lambda atol: Channel([_P0, _P1], atol),
    lambda atol: Channel.unitary(np.eye(2), atol),
    lambda atol: Instrument(("a", "b"), (Operation([_P0]), Operation([_P1])), atol),
    lambda atol: Instrument((("a",), ("b", "c")), ((Operation([_P0]), Operation([_P1])),), atol),
    lambda atol: HolevoSpec(_BASIS, (_PURE, _PURE), atol),
    lambda atol: KrausSeparableChannel((_P0, _P1), (_PURE, _PURE), atol),
    lambda atol: KrausSeparableChannel.simple((_P0, _P1), ([1.0, 0.0], [0.0, 1.0]), atol),
    lambda atol: HolevoSeparableSpec(_BASIS, (_PURE, _PURE), (_PURE, _PURE), atol),
    # (the ids "BiObservable" and "BiInstrument" name the two-axis families)
    lambda atol: is_psd(_HALF, atol),
    lambda atol: is_effect_matrix(_HALF, atol),
    lambda atol: _FLIP.updated_state("a", _HALF, atol),
    lambda atol: given_distribution(_BASIS, _FLIP, _PURE, ("a",), ("a",), atol),
    lambda atol: born_probability(_PURE, Effect(_P0), atol),
    lambda atol: holevo_operation(_P0, _PURE, atol),
    lambda atol: random_channel(2, 2, 3, 0).then(random_channel(2, 2, 3, 1), atol),
], ids=["State", "State.pure", "Effect", "Observable", "BiObservable", "StochasticMatrix", "Operation",
        "Channel", "Channel.unitary", "Instrument", "BiInstrument", "HolevoSpec", "KrausSeparableChannel",
        "KrausSeparableChannel.simple", "HolevoSeparableSpec", "is_psd", "is_effect_matrix",
        "updated_state", "given_distribution", "born_probability", "holevo_operation", "then-by-choi"])
@pytest.mark.parametrize("atol", [math.inf, math.nan, 0.0, -1e-9, 10**400],
                         ids=["inf", "nan", "zero", "negative", "huge-int"])
def test_a_tolerance_that_is_not_finite_and_positive_is_rejected(make, atol):
    make(1e-9)
    with pytest.raises(ValueError) as info:
        make(atol)
    assert type(info.value) is ValueError
    assert str(info.value) == f"tolerance must be finite and positive, got {atol!r}"
