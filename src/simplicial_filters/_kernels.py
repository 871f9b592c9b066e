"""The shift operator: a product of read-only scipy CSR factors.

The hot operation in this package is repeated sparse products with a
Laplacian part (simplicial shifting). Each part is a product L = A B of two
sparse factors, L_lower = B1^T B1 and L_upper = B2 B2^T (or diagonal scalings
of them). One shift is two rounds of sparse products through the incidences,
applied right to left: edge -> node -> edge or edge -> triangle -> edge.

The lower filter recursions run on the nodes instead. Every power L^l f with
l >= 1 is A G^(l-1) B f with G = B A, here the node Gram B1 B1^T, which has
the same nonzero spectrum as L (Lim, "Hodge Laplacians on graphs", SIAM
Review 2020). So a recursion maps the flow onto the nodes once, steps there,
and maps back once. A node step streams N0 + 2*N1 stored entries (N0 counting
the nodes that have an edge), never more than the 4*N1 of an edge-space
lower shift, on vectors of length N0 instead of N1.

The upper recursions step on the edges, restricted to those on a triangle:
L_upper is zero on every other edge, in its rows and columns alike. The
triangle Gram B2^T B2 would store sum_e t_e^2 - 2*N2 entries, t_e being the
number of triangles on edge e, against 6*N2 for the two incidence factors:
fewer on sparse road complexes, but far more on clique-filled ones (a
complete complex on n vertices has t_e = n - 2). Leaving out the edges
without a triangle only shortens vectors and drops empty rows; on road
complexes it is a third of the edges, and their empty rows of B2 cost more
than the stored entries (at 21800 edges on a 2-CPU x86 VM, B2 y takes
about 125 us with them and 55 us without).

A single flow of shape ``(n,)`` runs as one CSR matvec per factor, a block
of ``k`` flows of shape ``(n, k)`` as one SpMM per factor. Both accumulate
every row in stored order, so each column of a block result is bitwise
equal to the product with that column alone.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

# identity columns per block when a whole operator is applied column by column
IDENTITY_CHUNK = 128


def read_only(csr: sp.csr_matrix) -> sp.csr_matrix:
    """Sort a shared CSR matrix's indices, then make its ``data``, ``indices``
    and ``indptr`` read-only.

    Sorted indices are scipy's canonical format, so operations that would
    canonicalize in place (``abs``, for one) never write to the frozen arrays.
    """
    csr.sort_indices()
    for array in (csr.data, csr.indices, csr.indptr):
        array.setflags(write=False)
    return csr


class ShiftMatrix:
    """Read-only shift operator L = A B, or one matrix L, for repeated shifting.

    Each factor is a copy of a scipy sparse or dense matrix in canonical CSR
    form whose ``data``, ``indices`` and ``indptr`` are not writeable.
    ``matvec`` and ``@`` apply the factors right to left and take an ``(n,)``
    vector or an ``(n, k)`` block, ``n`` being the operator's column count.

    The filter recursions step on ``small`` and compute L^l x as
    ``from_small(small^(l-1) to_small(x))``. Here ``small`` is L restricted to
    the rows and columns it touches (the rows of A and the columns of B that
    hold entries), built on first use, or L itself when that is all of them;
    ``to_small`` applies it to x's entries there and ``from_small`` pads its
    result back with zeros. `GramShift` steps on the other side of the
    product instead.
    """

    def __init__(self, *factors):
        if len(factors) not in (1, 2):
            raise ValueError("a shift operator is one matrix or a product of two")
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

    @functools.cached_property
    def _support(self) -> np.ndarray:
        touched = np.diff(self.factors[0].indptr) > 0
        touched[self.factors[-1].indices] = True
        return np.flatnonzero(touched)

    @functools.cached_property
    def small(self) -> ShiftMatrix:
        s = self._support
        if s.size == self.shape[0]:
            return self
        if len(self.factors) == 1:
            return ShiftMatrix(self.factors[0][s][:, s])
        a, b = self.factors
        return ShiftMatrix(a[s], b[:, s])

    def to_small(self, x: np.ndarray) -> np.ndarray:
        if self.small is self:
            return self.matvec(x)
        return self.small.matvec(x[self._support])

    def from_small(self, y: np.ndarray) -> np.ndarray:
        if self.small is self:
            return y
        out = np.zeros((self.shape[0],) + y.shape[1:])
        out[self._support] = y
        return out


class GramShift(ShiftMatrix):
    """Shift operator L = A B whose filter recursions step on G = B A.

    ``small`` is the one-factor operator G, built on first use and kept;
    ``to_small`` applies B and ``from_small`` applies A, once per series.
    Rows of B without stored entries (nodes without an edge) and the matching
    columns of A are left out: they carry nothing, and L is unchanged.
    """

    def __init__(self, a, b):
        b = sp.csr_matrix(b)
        used = np.flatnonzero(np.diff(b.indptr))
        super().__init__(sp.csr_matrix(a)[:, used], b[used])

    @functools.cached_property
    def small(self) -> ShiftMatrix:
        a, b = self.factors
        return ShiftMatrix(b @ a)

    def to_small(self, x: np.ndarray) -> np.ndarray:
        return self.factors[1] @ x

    def from_small(self, y: np.ndarray) -> np.ndarray:
        return self.factors[0] @ y


def identity_block(n: int, start: int) -> np.ndarray:
    """IDENTITY_CHUNK columns of the n x n identity from ``start`` on (fewer at the end)."""
    return np.eye(n, min(IDENTITY_CHUNK, n - start), -start)
