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
  decides what it does not certify. A family total's trace rules, ``sum
  K†K <= I`` and ``== I``, take three tiers: its entrywise deviation ``eps``
  from ``I`` certifies both when ``(d + 2)·eps <= atol/2`` (the margin that
  ``channels._require_trace_rules`` derives), then the batched Cholesky
  factorization, then the eigenvalue rule. A ``Channel`` checked on its own
  keeps the factorization, the one positivity test that the benchmark
  harness's tracer counts under its constructor;
* every Cholesky factorization and Hermitian eigendecomposition of the
  package goes through one kernel, ``_factorized``: the gufuncs behind
  ``numpy.linalg``'s functions, with their bits, without their wrappers
  (the functions themselves, where numpy's private module cannot be
  imported);
* a validated value (``State``, ``Effect``) is read as its stored
  read-only matrix and never checked again; a raw array is coerced and
  checked once per call;
* a value type may hold a batch: the axes to the left of its own (a
  matrix's two; a family's label axes and two) form the batch, and every
  function that reads one object rejects a batch through one guard,
  ``_one_object``.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from typing import Any

import numpy as np

try:
    from numpy.linalg import _umath_linalg
except ImportError:  # a numpy that moved its private module: see _GUFUNCS
    _umath_linalg = None

from .errors import InvariantViolation

__all__ = [
    "DEFAULT_ATOL",
    "as_complex_matrix",
    "hermitian_part",
    "hermitized_matrix_units",
    "is_effect_matrix",
    "is_psd",
    "kron",
    "max_abs_diff",
]

DEFAULT_ATOL = 1e-9


def require_tolerance(value: Any, what: str = "tolerance") -> float:
    """``value`` as a float tolerance; ``ValueError`` unless finite and
    positive, and for a boolean, which is not a number here."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        tol = float(value)
    except OverflowError:  # an integer beyond the largest double
        tol = math.inf
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
    return tol


def _require_atol(atol: float) -> None:
    """:func:`require_tolerance` for a kernel's ``atol``: one comparison (exact
    on an integer too) when it holds."""
    if not 0 < atol <= sys.float_info.max:
        require_tolerance(atol)


def coerce_matrix(m: Any) -> np.ndarray:
    """Cheap coercion to a 2-D complex array (no finiteness check).

    Accepts anything ``numpy`` can convert plus the wrapper types of this
    package (objects exposing a ``matrix`` attribute).
    """
    if isinstance(m, _Validated) and m.matrix.ndim > 2:
        _one_object(m)
    arr = _matrix_stack(m)
    if arr.ndim != 2:
        raise InvariantViolation("matrix", "two-dimensional", f"got ndim={arr.ndim}")
    return arr


class _Validated:
    """What the validated value types (``State``, ``Effect``) share: a
    read-only ``matrix``, checked once, when the value was made."""

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def _batch(self) -> tuple[int, ...]:
        return self.matrix.shape[:-2]

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
    again (one value: a batch is rejected by ``_one_object``); anything else
    is coerced and checked for finite entries."""
    if isinstance(m, _Validated):
        if m.matrix.ndim > 2:
            _one_object(m)
        return m.matrix
    return _require_finite(coerce_matrix(m))


def _one_object(*values) -> None:
    """The one guard of the functions that read one object: ``ValueError``
    for a value that holds a batch (a nonempty ``_batch``)."""
    for value in values:
        if value._batch:
            raise ValueError(f"{type(value).__name__} holds a batch of shape {value._batch}: expected one object")


def _per_member(dev: np.ndarray) -> float | np.ndarray:
    """A float for one object's deviation, the array for a batch's."""
    return float(dev) if dev.ndim == 0 else dev


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


def _certified_positive(m: Any, atol: float, upper: bool) -> bool:
    """True iff every matrix of ``m`` (one matrix or a stack ``(..., d, d)``)
    is square and Hermitian within ``atol`` (so never on NaN or infinite
    entries), and its symmetrization ``h = (m + m†)/2`` has its spectrum at
    or above ``-atol`` (and, with ``upper``, at or below ``1 + atol``).

    The shared kernel of ``is_psd`` and ``is_effect_matrix``, which hold
    every floating-point warning off around it: the invalid value of its
    Hermiticity pass (``inf - inf``) on non-finite input, and the flags of a
    failed factorization. One coercion, one Hermiticity pass and one batched
    Cholesky factorization (``_factorized``) of the shifted stack
    ``h + atol·I`` (and ``(1 + atol)·I - h``, in the same buffer), which
    certifies every bound strictly inside it. A matrix whose factorization
    fails comes out NaN, and then the eigenvalue rule decides, so nothing
    the rule admits is rejected.
    """
    _require_atol(atol)
    m = _matrix_stack(m)
    d = m.shape[-1]
    if m.shape[-2] != d:
        return False
    if m.size == 0:  # no matrix, or matrices with no entries: nothing to violate
        return True
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
    # a matrix whose factorization fails is NaN, and so is the sum
    if not cmath.isnan(_factorized("cholesky", shifted).sum()):
        return True
    evals = _eigen("eigvalsh", (m + adj) / 2.0)
    return bool(evals.min() >= -atol and (not upper or evals.max() <= 1.0 + atol))


@lru_cache(maxsize=None)
def _shifts(dim: int, atol: float) -> np.ndarray:
    """``2·atol·I`` and ``(2 + 2·atol)·I`` as a read-only ``(2, 1, dim, dim)``
    stack, cached: the diagonal shifts of ``_certified_positive``."""
    out = np.multiply.outer([[2.0 * atol], [2.0 + 2.0 * atol]], np.eye(dim)).astype(complex)
    out.setflags(write=False)
    return out


@np.errstate(all="ignore")
def is_psd(m: Any, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``m`` is Hermitian within ``atol`` and its spectrum is ≥ -atol.

    The test runs on the symmetrized ``(m + m†)/2`` so rounding asymmetry
    cannot flip the verdict on exact inputs. On a stack ``(..., d, d)``
    every matrix must pass: one batched Cholesky factorization of
    ``(m + m†)/2 + atol·I`` certifies them all, and the eigenvalue rule
    decides what it does not certify. NaN or infinite entries give False;
    input with no entries gives True.
    """
    return _certified_positive(m, atol, upper=False)


@np.errstate(all="ignore")
def is_effect_matrix(m: Any, atol: float = DEFAULT_ATOL) -> bool:
    """True iff ``0 <= m <= I`` within ``atol`` (both ``m`` and ``I - m`` PSD).

    For a Hermitian matrix the two positivity conditions reduce to the
    spectrum lying in ``[-atol, 1 + atol]``. On a stack ``(..., d, d)``
    every matrix must pass: one batched Cholesky factorization certifies
    both bounds of them all, and the eigenvalue rule decides what it does
    not certify. NaN or infinite entries give False;
    input with no entries gives True.
    """
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
    _require_atol(atol)
    return bool(np.abs(m - _identity(m.shape[-1])).max() <= atol)


def clipped_eigh(m: Any, atol: float = DEFAULT_ATOL, kind: str = "operator"):
    """Hermitian eigendecomposition with tiny negative eigenvalues clipped to 0.

    Eigenvalues in ``[-atol, 0)`` are rounding noise on PSD inputs and are
    set to zero; anything below ``-atol`` raises. On a stack ``(..., d, d)``
    one batched decomposition (``_eigen``, ``numpy.linalg.eigh``'s results
    and errors) covers every matrix.
    """
    _require_atol(atol)
    evals, evecs = _eigen("eigh", hermitian_part(m))
    if float(evals.min()) < -atol:
        raise InvariantViolation(kind, "positive", f"eigenvalue {evals.min():.3e}")
    return np.maximum(evals, 0.0), evecs


def _public_cholesky(m: np.ndarray, signature: str) -> np.ndarray:
    """``np.linalg.cholesky``, NaN where it raises, as the gufunc behind it
    fails (here, the whole stack)."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return np.full(m.shape, np.nan, dtype=complex)


# numpy.linalg's public cholesky, eigh and eigvalsh, called as the gufuncs
# are: the same results and errors, at the cost of their Python wrappers,
# except that a failed Cholesky factorization makes the whole stack NaN,
# which the positivity tests read alike
_PUBLIC = {
    "cholesky": (_public_cholesky, "D->D"),
    "eigh": (lambda m, signature: np.linalg.eigh(m), "D->dD"),
    "eigvalsh": (lambda m, signature: np.linalg.eigvalsh(m), "D->d"),
}

# The gufuncs that numpy.linalg's cholesky, eigh and eigvalsh call on a
# complex stack, reading its lower triangle; the one use of numpy's private
# linalg module, and the public functions where it cannot be imported.
_GUFUNCS = _PUBLIC if _umath_linalg is None else {
    "cholesky": (_umath_linalg.cholesky_lo, "D->D"),
    "eigh": (_umath_linalg.eigh_lo, "D->dD"),
    "eigvalsh": (_umath_linalg.eigvalsh_lo, "D->d"),
}


def _factorized(name: str, m: np.ndarray):
    """``numpy.linalg.<name>`` (``cholesky``, ``eigh`` or ``eigvalsh``) of a
    complex matrix or stack ``(..., d, d)``: the gufunc it calls, so the
    same bits, without its Python wrapper, the library's one factorization
    kernel. A matrix whose factorization fails comes out NaN and raises
    numpy's invalid-value flag, which the caller's ``np.errstate`` handles
    (``_eigen`` makes it ``LinAlgError``; without the gufuncs, see
    ``_PUBLIC``)."""
    gufunc, signature = _GUFUNCS[name]
    return gufunc(m, signature=signature)


def _not_converged(*_) -> None:
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# as a decorator, an error state costs half what a with-block does
@np.errstate(call=_not_converged, invalid="call", over="ignore", divide="ignore")
def _eigen(name: str, m: np.ndarray):
    """``numpy.linalg.eigh`` or ``eigvalsh`` (``name``) of a complex matrix or
    stack, results and errors: ``_factorized`` under the error state numpy
    sets, where a failed decomposition raises ``LinAlgError``."""
    return _factorized(name, m)
