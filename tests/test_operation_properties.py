"""Property tests for the Kraus-form construction boundary and kernels.

Every rejection is exercised through both input forms of
:class:`Operation`/:class:`Channel`: a sequence of matrices and one stacked
3-D array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcond.channels import Channel, Operation
from qcond.errors import InvariantViolation
from qcond.rand import random_channel

PROPERTY = settings(max_examples=40, deadline=None, database=None)

dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
bad_values = st.sampled_from([np.nan, np.inf, -np.inf])


def forms(stack: np.ndarray) -> list:
    """The same Kraus operators as a list, a tuple and a 3-D stack."""
    return [list(stack), tuple(stack), stack]


def trace_non_increasing_stack(n: int, d_out: int, d_in: int, seed: int) -> np.ndarray:
    """A Ginibre stack scaled so that ``sum K†K`` has top eigenvalue 0.9."""
    rng = np.random.default_rng(seed)
    shape = (n, d_out, d_in)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    gram = np.einsum("kab,kac->bc", stack.conj(), stack)
    return stack * np.sqrt(0.9 / np.linalg.eigvalsh(gram).max())


@PROPERTY
@given(n=st.integers(1, 4), d_out=dims, d_in=dims, seed=seeds, data=st.data(), bad=bad_values,
       imaginary=st.booleans())
def test_non_finite_entry_is_rejected(n, d_out, d_in, seed, data, bad, imaginary):
    stack = trace_non_increasing_stack(n, d_out, d_in, seed)
    k = data.draw(st.integers(0, n - 1))
    r = data.draw(st.integers(0, d_out - 1))
    c = data.draw(st.integers(0, d_in - 1))
    (stack.imag if imaginary else stack.real)[k, r, c] = bad
    for kraus in forms(stack):
        for cls in (Operation, Channel):
            with pytest.raises(InvariantViolation, match="finite entries"):
                cls(kraus)


@PROPERTY
@given(shapes=st.lists(st.tuples(dims, dims), min_size=2, max_size=5).filter(
    lambda s: len(set(s)) > 1))
def test_ragged_kraus_shapes_are_rejected(shapes):
    # a stacked 3-D array cannot be ragged, so only the sequence forms apply
    mats = [np.zeros(shape, dtype=complex) for shape in shapes]
    for kraus in (mats, tuple(mats)):
        for cls in (Operation, Channel):
            with pytest.raises(InvariantViolation, match="uniform Kraus shape"):
                cls(kraus)


@PROPERTY
@given(d_in=dims, d_out=dims, extra=st.integers(0, 2), seed=seeds,
       delta=st.floats(min_value=1e-6, max_value=1.0))
def test_channel_scaled_up_is_rejected(d_in, d_out, extra, seed, delta):
    n = -(-d_in // d_out) + extra
    ch = random_channel(d_in, d_out, n, seed)
    scaled = (1.0 + delta) * ch.kraus_stack
    for kraus in forms(scaled):
        for cls in (Operation, Channel):
            with pytest.raises(InvariantViolation, match="trace non-increasing"):
                cls(kraus)


@PROPERTY
@given(n=st.integers(1, 4), d_out=dims, d_in=dims, seed=seeds)
def test_kernels_match_einsum_oracle(n, d_out, d_in, seed):
    stack = trace_non_increasing_stack(n, d_out, d_in, seed)
    rng = np.random.default_rng(seed + 1)
    m_in = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
    m_out = rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal((d_out, d_out))
    apply = np.einsum("kab,bc,kdc->ad", stack, m_in, stack.conj())
    dual = np.einsum("kba,bc,kcd->ad", stack.conj(), m_out, stack)
    superop = np.einsum("kab,kcd->acbd", stack, stack.conj()).reshape(d_out**2, d_in**2)
    for kraus in forms(stack):
        op = Operation(kraus)
        assert np.max(np.abs(op.apply_matrix(m_in) - apply)) <= 1e-12
        assert np.max(np.abs(op.dual_matrix(m_out) - dual)) <= 1e-12
        assert np.max(np.abs(op.superoperator() - superop)) <= 1e-12
