"""The shift operator: a product of read-only scipy CSR factors.

The hot operation in this package is repeated sparse products with a
Laplacian part (simplicial shifting). Each part is a product of two sparse
factors, L_lower = B1^T B1 and L_upper = B2 B2^T (or diagonal scalings of
them), and one shift is two rounds of sparse products through the
incidences, applied right to left: edge -> node -> edge or edge -> triangle
-> edge. A lower shift streams 4*N1 stored entries and an upper shift 6*N2,
against sum over edges (u, v) of deg u + deg v - 1 for the assembled B1^T B1.

A single flow of shape ``(n,)`` runs as one CSR matvec per factor, a block
of ``k`` flows of shape ``(n, k)`` as one SpMM per factor. Both accumulate
every row in stored order, so each column of a block result is bitwise
equal to the product with that column alone.
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
    """Read-only product of CSR factors for repeated shift application.

    ``ShiftMatrix(A, B)`` applies ``A @ (B @ x)``; one factor is one matrix.
    Each factor is a copy of a scipy sparse or dense matrix whose ``data``,
    ``indices`` and ``indptr`` are not writeable. ``matvec`` and ``@`` take an
    ``(n,)`` vector or an ``(n, k)`` block, ``n`` being the operator's column
    count.
    """

    def __init__(self, *factors):
        if not factors:
            raise ValueError("a shift operator needs at least one factor")
        self.factors = tuple(
            read_only(sp.csr_matrix(f, dtype=np.float64, copy=True)) for f in factors
        )
        for left, right in zip(self.factors, self.factors[1:]):
            if left.shape[1] != right.shape[0]:
                raise ValueError(f"factor shapes {left.shape} and {right.shape} do not chain")
        self.shape = (self.factors[0].shape[0], self.factors[-1].shape[1])

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(
                f"operand shape {x.shape} does not match operator {self.shape}"
            )
        for factor in reversed(self.factors):
            x = factor @ x
        return x

    def __matmul__(self, x):
        return self.matvec(x)


def identity_block(n: int, start: int) -> np.ndarray:
    """IDENTITY_CHUNK columns of the n x n identity from ``start`` on (fewer at the end)."""
    return np.eye(n, min(IDENTITY_CHUNK, n - start), -start)
