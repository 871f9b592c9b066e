"""The shift operator: one read-only scipy CSR matrix.

The hot operation in this package is repeated sparse products with a
Laplacian part (simplicial shifting). A single flow of shape ``(n,)`` runs as
one CSR matvec, a block of ``k`` flows of shape ``(n, k)`` as one SpMM. Both
accumulate every row in stored order, so each column of a block result is
bitwise equal to the matvec of that column alone.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# identity columns per block when a whole operator is applied column by column
IDENTITY_CHUNK = 128


def read_only(csr: sp.csr_matrix) -> sp.csr_matrix:
    """Make a shared CSR matrix's ``data``, ``indices`` and ``indptr`` read-only."""
    for array in (csr.data, csr.indices, csr.indptr):
        array.setflags(write=False)
    return csr


class ShiftMatrix:
    """Read-only CSR operator for repeated shift application.

    Wraps a copy of a scipy sparse or dense matrix whose ``data``, ``indices``
    and ``indptr`` are not writeable. ``matvec`` and ``@`` take an ``(n,)``
    vector or an ``(n, k)`` block, ``n`` being the operator's column count.
    """

    def __init__(self, matrix):
        self.csr = read_only(sp.csr_matrix(matrix, dtype=np.float64, copy=True))
        self.shape = tuple(self.csr.shape)

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(
                f"operand shape {x.shape} does not match operator {self.shape}"
            )
        return self.csr @ x

    def __matmul__(self, x):
        return self.matvec(x)


def identity_block(n: int, start: int) -> np.ndarray:
    """IDENTITY_CHUNK columns of the n x n identity from ``start`` on (fewer at the end)."""
    return np.eye(n, min(IDENTITY_CHUNK, n - start), -start)
