"""Test oracles for maps: a linear action tabulated on the matrix units, and
other Kraus lists of the same operation."""

import numpy as np

from qcond.channels import Operation, _superoperator_deviation
from qcond.rand import random_unitary


def tabulated(action, dim_in: int, dim_out: int) -> np.ndarray:
    """The superoperator (row-major vectorization) of a linear action,
    tabulated on the matrix units."""
    units = np.eye(dim_in * dim_in, dtype=complex).reshape(-1, dim_in, dim_in)
    return np.stack([np.reshape(action(u), -1) for u in units], axis=1)


def deviation_from(op: Operation, superop: np.ndarray) -> float:
    """``map_deviation`` of ``op`` from a map given by its superoperator."""
    return _superoperator_deviation(op.superoperator() - superop, op.dim_in)


def remixed(op: Operation, rng: np.random.Generator) -> Operation:
    """Another Kraus list of the map ``op``: ``K'_i = sum_j V_ij K_j`` for
    the first columns ``V`` of a random unitary, one operator longer."""
    n = op.kraus_stack.shape[0]
    return type(op)(np.tensordot(random_unitary(n + 1, rng)[:, :n], op.kraus_stack, 1))
