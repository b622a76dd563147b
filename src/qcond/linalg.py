"""Dense complex-matrix kernel used by every other module.

Conventions fixed here and inherited everywhere else:

* matrices are 2-D ``numpy`` arrays of ``complex128`` in row-major order;
* Kronecker products follow the row-major block convention of ``numpy.kron``
  (the left factor's indices are the major ones);
* composite spaces are laid out left ⊗ right and the partial trace is only
  ever taken over the *right* factor;
* tolerances are absolute, a single ``atol`` with default ``1e-9``:
  entrywise on matrices, and on the spectrum in the positivity tests, where
  one batched Cholesky factorization certifies and the eigenvalue rule
  decides what it does not certify.
* a validated value (``State``, ``Effect``) is read as its stored
  read-only matrix and never checked again; a raw array is coerced and
  checked once per call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any

import numpy as np

from .errors import InvariantViolation

__all__ = [
    "DEFAULT_ATOL",
    "adjoint",
    "as_complex_matrix",
    "hermitian_part",
    "hermitized_matrix_units",
    "is_effect_matrix",
    "is_hermitian",
    "is_psd",
    "kron",
    "max_abs_diff",
    "partial_trace_right",
]

DEFAULT_ATOL = 1e-9


def require_tolerance(value: Any, what: str = "tolerance") -> float:
    """``value`` as a float tolerance; ``ValueError`` unless finite and positive."""
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
    return tol


def coerce_matrix(m: Any) -> np.ndarray:
    """Cheap coercion to a 2-D complex array (no finiteness check).

    Accepts anything ``numpy`` can convert plus the wrapper types of this
    package (objects exposing a ``matrix`` attribute).
    """
    m = getattr(m, "matrix", m)
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise InvariantViolation("matrix", "two-dimensional", f"got ndim={arr.ndim}")
    return arr


class _Validated:
    """What the validated value types (``State``, ``Effect``) share: a
    read-only ``matrix``, checked once, when the value was made."""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def _view(cls, matrix: np.ndarray):
        """Wrap an already validated matrix (a row of a family stack, or a
        fresh array checked by the caller), made read-only, without checking
        or copying it."""
        matrix.setflags(write=False)
        view = object.__new__(cls)
        object.__setattr__(view, "matrix", matrix)
        return view


def as_complex_matrix(m: Any) -> np.ndarray:
    """Coerce ``m`` to a finite 2-D complex array (construction boundary).

    A validated value is read as its stored read-only matrix and not checked
    again; anything else is coerced and checked for finite entries."""
    if isinstance(m, _Validated):
        return m.matrix
    return _require_finite(coerce_matrix(m))


def _require_finite(m: np.ndarray, kind: str = "matrix") -> np.ndarray:
    """The one finiteness rule of every construction boundary: ``m`` (an
    array of any shape) unchanged, unless an entry is NaN or infinite."""
    if not np.isfinite(m).all():
        raise InvariantViolation(kind, "finite entries")
    return m


def frozen_copy(m: np.ndarray) -> np.ndarray:
    """Return a C-contiguous read-only copy, for immutable value types."""
    out = np.array(m, dtype=complex, order="C")
    out.setflags(write=False)
    return out


def adjoint(m: Any) -> np.ndarray:
    """Conjugate transpose. An exact involution: ``adjoint(adjoint(m)) == m``."""
    return coerce_matrix(m).conj().T


def kron(a: Any, b: Any) -> np.ndarray:
    """Kronecker product, left factor major (row-major block convention).

    One broadcast product, entry for entry equal to ``numpy.kron``; on
    stacks ``(..., r, c)`` matrix by matrix, with the leading axes
    broadcast.
    """
    a = _matrix_stack(a)
    b = _matrix_stack(b)
    (r1, c1), (r2, c2) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (r1 * r2, c1 * c2))


def weighted_sum(w: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``out[y] = sum_x w[x, y] stack[x]``: one product on the flattened stack.

    ``w`` has shape ``batch + (n, m)`` and ``stack`` shape ``batch + (n,) +
    item``, for leading batch axes ``batch`` (none for one family); the
    result has shape ``batch + (m,) + item``.
    """
    w = np.asarray(w)
    lead = w.ndim - 1
    out = np.swapaxes(w, -1, -2) @ stack.reshape(stack.shape[:lead] + (-1,))
    return out.reshape(w.shape[:-2] + w.shape[-1:] + stack.shape[lead:])


def partial_trace_right(m: Any, dim_left: int, dim_right: int) -> np.ndarray:
    """Trace out the right tensor factor of a square matrix on left ⊗ right.

    ``m`` must be ``(dim_left * dim_right)`` square; the result is
    ``dim_left`` square with entries ``out[i, j] = sum_k m[(i, k), (j, k)]``.
    The map is linear and preserves the trace.
    """
    m = coerce_matrix(m)
    d = dim_left * dim_right
    if m.shape != (d, d):
        raise InvariantViolation(
            "partial trace", "dimension product", f"expected shape {(d, d)}, got {m.shape}"
        )
    return np.einsum("ikjk->ij", m.reshape(dim_left, dim_right, dim_left, dim_right))


def _matrix_stack(m: Any) -> np.ndarray:
    """Coerce to a complex array holding one matrix or a stack ``(..., r, c)``."""
    arr = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if arr.ndim < 2:
        raise InvariantViolation("matrix", "two-dimensional", f"got ndim={arr.ndim}")
    return arr


def hermitian_part(m: Any) -> np.ndarray:
    """The symmetrization ``(m + m†)/2``, matrix-wise on a stack."""
    m = _matrix_stack(m)
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def is_hermitian(m: Any, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``max |m - m†| <= atol`` entrywise (never on NaN or infinite
    entries)."""
    m = coerce_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(m - m.conj().T))) <= atol


def _certified_positive(m: Any, atol: float, upper: bool) -> bool:
    """True iff every matrix of ``m`` (one matrix or a stack ``(..., d, d)``)
    is square and Hermitian within ``atol`` (so never on NaN or infinite
    entries), and its symmetrization ``h = (m + m†)/2`` has its spectrum at
    or above ``-atol`` (and, with ``upper``, at or below ``1 + atol``).

    The shared kernel of ``is_psd`` and ``is_effect_matrix``, which silence
    the invalid-value warning of its Hermiticity pass (``inf - inf``) on
    non-finite input. One coercion, one Hermiticity pass and one batched
    Cholesky factorization of the shifted stack ``h + atol·I`` (and
    ``(1 + atol)·I - h``, in the same buffer), which certifies every bound
    strictly inside it. The eigenvalue rule decides only when a
    factorization fails, so nothing the rule admits is rejected.
    """
    m = _matrix_stack(m)
    d = m.shape[-1]
    if m.shape[-2] != d:
        return False
    adj = m.conj().swapaxes(-1, -2)
    if not np.abs(m - adj).max() <= atol:
        return False
    # 2h + 2·atol·I and (2 + 2·atol)·I - 2h: the shifted stacks scaled by 2,
    # which changes no pivot's sign
    shifted = np.empty((1 + upper,) + m.shape, dtype=complex)
    np.add(m, adj, out=shifted[0])
    if upper:
        np.negative(shifted[0], out=shifted[1])
    flat = shifted.reshape(1 + upper, -1, d, d)
    np.add(flat, _shifts(d, atol)[: 1 + upper], out=flat)
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        evals = np.linalg.eigvalsh((m + adj) / 2.0)
    return bool(evals.min() >= -atol and (not upper or evals.max() <= 1.0 + atol))


@lru_cache(maxsize=None)
def _shifts(dim: int, atol: float) -> np.ndarray:
    """``2·atol·I`` and ``(2 + 2·atol)·I`` as a read-only ``(2, 1, dim, dim)``
    stack, cached: the diagonal shifts of ``_certified_positive``."""
    out = np.multiply.outer([[2.0 * atol], [2.0 + 2.0 * atol]], np.eye(dim)).astype(complex)
    out.setflags(write=False)
    return out


def is_psd(m: Any, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``m`` is Hermitian within ``atol`` and its spectrum is ≥ -atol.

    The test runs on the symmetrized ``(m + m†)/2`` so rounding asymmetry
    cannot flip the verdict on exact inputs. On a stack ``(..., d, d)``
    every matrix must pass: one batched Cholesky factorization of
    ``(m + m†)/2 + atol·I`` certifies them all, and the eigenvalue rule
    decides what it does not certify. NaN or infinite entries give False.
    """
    with np.errstate(invalid="ignore"):
        return _certified_positive(m, atol, upper=False)


def is_effect_matrix(m: Any, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``0 <= m <= I`` within ``atol`` (both ``m`` and ``I - m`` PSD).

    For a Hermitian matrix the two positivity conditions reduce to the
    spectrum lying in ``[-atol, 1 + atol]``. On a stack ``(..., d, d)``
    every matrix must pass: one batched Cholesky factorization certifies
    both bounds of them all, and the eigenvalue rule decides what it does
    not certify. NaN or infinite entries give False.
    """
    with np.errstate(invalid="ignore"):
        return _certified_positive(m, atol, upper=True)


def max_abs_diff(a: Any, b: Any) -> float:
    """Largest entrywise absolute deviation between two matrices, or over
    two (broadcastable) stacks of matrices."""
    return float(np.max(np.abs(_matrix_stack(a) - _matrix_stack(b))))


@lru_cache(maxsize=None)
def hermitized_matrix_units(dim: int) -> tuple[np.ndarray, ...]:
    """A Hermitian basis of ``dim**2`` matrices built from matrix units.

    Diagonal units stay as-is; each off-diagonal pair contributes the
    symmetric and antisymmetric Hermitian combinations. Linear maps that
    agree on this basis agree everywhere. Cached per dimension; the arrays
    are read-only.
    """
    basis: list[np.ndarray] = []
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            if i == j:
                e[i, i] = 1.0
            elif i < j:
                e[i, j] = 1.0
                e[j, i] = 1.0
            else:
                e[i, j] = 1.0j
                e[j, i] = -1.0j
            e.setflags(write=False)
            basis.append(e)
    return tuple(basis)


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The read-only complex identity of one dimension, cached; validation
    compares against it instead of building ``np.eye`` on every call."""
    eye = np.eye(dim, dtype=complex)
    eye.setflags(write=False)
    return eye


def _near_identity(m: np.ndarray, atol: float) -> bool:
    """True iff ``m``, or every matrix of a stack ``(..., d, d)``, equals the
    identity entrywise within ``atol``: the one comparison of the rules
    ``sum K†K == I``, ``U†U == I`` and effects summing to ``I``."""
    return bool(np.abs(m - _identity(m.shape[-1])).max() <= atol)


def clipped_eigh(m: Any, atol: float = DEFAULT_ATOL, kind: str = "operator"):
    """Hermitian eigendecomposition with tiny negative eigenvalues clipped to 0.

    Eigenvalues in ``[-atol, 0)`` are rounding noise on PSD inputs and are
    set to zero; anything below ``-atol`` raises. On a stack ``(..., d, d)``
    one batched decomposition covers every matrix.
    """
    evals, evecs = np.linalg.eigh(hermitian_part(m))
    if float(evals.min()) < -atol:
        raise InvariantViolation(kind, "positive", f"eigenvalue {evals.min():.3e}")
    return np.maximum(evals, 0.0), evecs
