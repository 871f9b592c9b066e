"""The shift operator: a product of read-only scipy CSR factors.

The hot operation in this package is repeated sparse products with a
Laplacian part (simplicial shifting). Each part is a product L = A B of two
sparse factors, L_lower = B1^T B1 and L_upper = B2 B2^T (or diagonal scalings
of them). One shift is two rounds of sparse products through the incidences,
applied right to left: edge -> node -> edge or edge -> triangle -> edge. A
shift runs on the rows and columns L touches only (for L_upper the edges on
a triangle, for L_lower the nodes with an edge) and is padded back with
zeros: every row sums the same entries in the same order as on the whole
incidence, so the result is bitwise the same, and no intermediate has a row
for a node or triangle that holds nothing (21800 edges, on a 2-CPU x86 VM:
an upper shift of one flow took 152-179 us against 167-199 us on the whole
incidence in the same runs, medians of 25).

A filter recursion steps on whichever side of L = A B is cheaper. Every power
L^l f with l >= 1 is A G^(l-1) B f with G = B A, which has the same nonzero
spectrum as L (Lim, "Hodge Laplacians on graphs", SIAM Review 2020). So a
recursion either maps the flow onto G's side once, steps there and maps back
once, or steps with L itself on the rows and columns it touches. The side is
fixed when the operator is built, from counts the factors already hold.
When B has the sparsity pattern of A^T, as every Hodge part and its diagonal
scalings do, G stores at most sum_e r_e^2 - nnz(A) + n_G entries, r_e being
the entries in row e of A and n_G the columns of A that hold one. For an
incidence pair that count is exact, since two simplices share at most one
face. The recursions step on G when it is no more than nnz(A) + nnz(B), the
entries of one step with L. For the lower parts that always holds (N0 + 2*N1 against 4*N1: the
node Gram). For the upper parts it holds on road complexes (21800 edges:
13,658 entries on the 6,116 triangles against 36,696 on 14,584 edges) and
fails where cliques are filled, since a complete complex on n vertices has
n - 2 triangles on every edge (a complete 60-vertex complex: 5,885,840
against 205,320); there the recursions stay on the edges and G is never
built.

`spectral.hodge_spectrum` eigendecomposes the same small side densely, and
`spectral._projector` factors the upper one for the curl projection, so this
one rule also sizes that O(N^3) step and that sparse factorization. It
counts entries, not dimensions: the node Gram can have up to twice as many
rows as the edges (a perfect matching), and the edges on a triangle up to
three times as many as the triangles (E' <= 3*N2: a book of many triangles on
one edge beside triangles that share no edge). Where the triangle Gram is picked,
sum_e r_e^2 <= 8*N2, so N2 <= 8*E'/9 by Cauchy-Schwarz: never the larger side.
Around a filled clique the rule picks the edges, where the triangle Gram
would fill in when factored: with 25 scattered vertices of the 1088-edge road
complex joined and filled, the LU factors of its 2613 x 2613 Gram hold
4,061,303 entries against 68,245 for the upper part on the 1033 edges on a
triangle.

`ShiftMatrix.as_csr` gives the small side as one CSR matrix: the node or
triangle Gram itself, or, where cliques are filled, the product of the two
factors of the upper Laplacian on the edges on a triangle. Two edges share at
most one triangle, so no entry of that product cancels and it stores exactly
E' + nnz(A) + nnz(B) entries: each edge's diagonal, and one entry per pair of
edges on a triangle (a complete 60-vertex complex: 207,090 against the 205,320
of its two factors). On complete 40- and 60-vertex complexes one product with
it was 1.1-1.2 times faster than the two-factor product for one flow and
1.4-2.7 times for a block of 128 (2-CPU x86 VM), so the Chebyshev recursions
step on it (`design.ChebyshevFilter`), `spectral.hodge_spectrum`
eigendecomposes it, and `spectral._projector` factors it.

A single flow of shape ``(n,)`` runs as one CSR matvec per factor, a block
of ``k`` flows of shape ``(n, k)`` as one SpMM per factor. Both accumulate
every row in stored order, so each column of a block result is bitwise
equal to the product with that column alone.

A single flow multiplies a copy of a large factor with its rows stably
sorted by length, and takes the result back into the canonical row order
(the row-length sorting of SELL-C-sigma: Kreutzer et al., SIAM J. Sci.
Comput. 36(5), 2014, here on plain scipy CSR). scipy's matvec runs one loop
per row, and where row lengths vary at random, as the node degrees + 1 of
the node Gram do, the loop's exit branch is mispredicted on nearly every
row once the sequence of lengths is too long for the branch predictor to
learn. Each row keeps its entries and their order and only moves, so it sums
the same products in the same order and the result is bitwise the canonical
one. The gather back costs about 1.6 ns a row, so a small factor, whose
lengths the predictor learns, gets slower.

One order-10 LS-grid and one order-61 Chebyshev filter of one flow, on road
complexes of seed 11 (ms, the medians of two in-process runs that alternate
the variants, 2-CPU x86 VM, each filter step gathered back):

    edges   no copies   copies from 2^13 entries   a copy of every factor
    1088    1.49-2.42   1.50-2.42                  1.69-2.73
    4352    3.06-3.28   2.97-3.20                  3.17-3.43
    8704    7.08-8.08   5.41-6.45                  5.82-6.72
    21800   18.0-19.9   12.9-13.9                  12.7-14.1

So a factor keeps a copy when it stores at least ROW_ORDER_MIN_ENTRIES =
2^13 entries in rows whose lengths are not already non-decreasing. At 4352
edges that is B1 (8,704 entries) and the node Gram (10,880), not B2 on the
edges on a triangle (3,753) or the triangle Gram (2,901); at 21800 edges it
is every factor whose rows vary, the smallest being the triangle Gram
(13,658); at 1088 edges none. B1^T and B2^T (two and three entries a row)
never keep one. Blocks keep the canonical rows: a block's row gather costs
more than the order saves (the 1088-edge node Gram times 128 columns took
229 us canonical, 1135 us ordered and gathered; at 21800 edges and 16
columns, 1022 us against 3290 us).

A filter series repeats products with one matrix (a node or triangle Gram,
or a Chebyshev step matrix), so its copy also has column j renumbered to
inverse[j], the position row j took, and is P M P^T for the row order P.
Each row keeps its entries in stored order, so the renumbered indices are
not sorted (sorting them would change the order in which a row sums). A
single-flow series (`ShiftMatrix.series`) gathers the flow into that order
once, steps on the copy with no gather between steps, and gathers the sum
back once: every step adds the same products in the same order, and the
elementwise passes between steps commute with a permutation, so the sum is
bitwise the canonical recursion's. At 21800 edges a step on the renumbered
copy took 60 us against 78 us ordered and gathered back (142 us canonical)
on the node Gram, and 26 against 38 us (43 us) on the triangle Gram
(medians of 15 alternating rounds of 200 products, 2-CPU x86 VM). Such a
matrix keeps no second copy with canonical columns, so its own single-flow
``matvec`` gathers the flow in and the product back on every call.
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp

# identity columns per block when a whole operator is applied column by column
IDENTITY_CHUNK = 128
# stored entries from which a factor with rows of varying length keeps a copy
# with its rows ordered by length for single flows (see the module docstring)
ROW_ORDER_MIN_ENTRIES = 2**13


def memo(fn):
    """``fn(obj, *args)`` kept in ``obj``'s own ``__dict__`` per argument tuple:
    per object, not per value, and freed with it; pickle and copy skip it
    (``__reduce__``). A miss calls ``__wrapped__``, which a test may spy on."""

    @functools.wraps(fn)
    def memoized(obj, *args, **kwargs):
        table = vars(obj).setdefault("_memo", {})
        key = (fn, args, *kwargs.items())
        if key not in table:
            table[key] = memoized.__wrapped__(obj, *args, **kwargs)
        return table[key]

    return memoized


def read_only(shared):
    """Make a shared dense array, or a CSR matrix's ``data``, ``indices`` and
    ``indptr``, read-only, and return it.

    A CSR matrix first has its indices sorted: that is scipy's canonical
    format, so operations that would canonicalize in place (``abs``, for one)
    never write to the frozen arrays.
    """
    if sp.issparse(shared):
        shared.sort_indices()
        arrays = (shared.data, shared.indices, shared.indptr)
    else:
        arrays = (shared,)
    for array in arrays:
        array.setflags(write=False)
    return shared


class ShiftMatrix:
    """Read-only shift operator L = A B, or one matrix L, for repeated shifting.

    Each factor is a copy of a scipy sparse or dense matrix in canonical CSR
    form whose ``data``, ``indices`` and ``indptr`` are not writeable.
    ``matvec`` and ``@`` apply the factors right to left and take an ``(n,)``
    vector or an ``(n, k)`` block, ``n`` being the operator's column count.

    The filter recursions step on ``small`` and compute L^l x as
    ``from_small(small^(l-1) to_small(x))``. When ``on_gram`` is set, ``small``
    is the one-factor operator G = B A over the inner indices both factors
    use; ``to_small`` applies B and ``from_small`` applies A, once per series.
    Otherwise ``small`` is L restricted to the rows and columns it touches, or
    L itself when that is all of them; ``to_small`` applies L and keeps those
    rows, and ``from_small`` pads them back with zeros. ``gram_bound`` is the
    bound on G's stored entries that decides the side (None for one matrix).
    ``small`` is built on first use and kept.

    A single flow multiplies a read-only copy of each factor that stores at
    least ROW_ORDER_MIN_ENTRIES entries in rows of varying length, with its
    rows stably sorted by length, and takes the result back into canonical
    row order: bitwise the canonical product, without a mispredicted row loop
    (see the module docstring). The copy of one matrix that touches all of
    its indices (the Grams and the Chebyshev step matrices) has its columns
    renumbered in the same order and its rows' entries left in stored order,
    so that ``series`` runs a single-flow recursion in that order with one
    gather in and one back per series. Blocks, ``factors`` and ``as_csr``
    keep the canonical rows.
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
        if self.shape[0] != self.shape[1]:
            raise ValueError(f"a shift operator is square, not {self.shape}")
        touched = np.diff(self.factors[0].indptr) > 0
        touched[self.factors[-1].indices] = True
        # the rows and columns L touches, None when that is all of them; the
        # last factor's other columns are empty and cost nothing, so only the
        # first factor's rows are cut
        self._support = None if touched.all() else np.flatnonzero(touched)
        self.gram_bound, self.on_gram = None, False
        if len(self.factors) == 1:
            self._on_support = (_restrict(self.factors[0], self._support, None),)
        else:
            a, b = self.factors
            # inner indices used by both factors; the others carry nothing
            inner = (np.diff(b.indptr) > 0) & (np.bincount(a.indices, minlength=a.shape[1]) > 0)
            inner = None if inner.all() else np.flatnonzero(inner)
            a, b = _restrict(a, self._support, inner), _restrict(b, inner, None)
            self._on_support = (a, b)
            rows = np.diff(a.indptr).astype(np.int64)
            self.gram_bound = int(rows @ rows) - a.nnz + a.shape[1]
            self.on_gram = self.gram_bound <= a.nnz + b.nnz
        # per factor on the support, None or its copy with rows ordered by
        # length, the order and its inverse; one matrix that touches all of
        # its indices has the columns of its copy renumbered too
        self._renumbered = len(self.factors) == 1 and self._support is None
        self._ordered = tuple(_by_row_length(f, self._renumbered) for f in self._on_support)

    def __reduce__(self):  # the factors, without ``small`` or `memo` entries
        return ShiftMatrix, self.factors

    def matvec(self, x) -> np.ndarray:
        if np.iscomplexobj(x):
            raise ValueError("operand is complex; a shift operator multiplies real flows")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.shape[1]:
            raise ValueError(
                f"operand shape {x.shape} does not match operator {self.shape}"
            )
        return self._pad(self._shift(x))

    def __matmul__(self, x):
        return self.matvec(x)

    def _product(self, i: int, x: np.ndarray) -> np.ndarray:
        # factor i on the support times x
        if x.ndim == 1 and self._ordered[i] is not None:
            rows, order, inverse = self._ordered[i]
            if self._renumbered:
                x = x.take(order)
            return (rows @ x).take(inverse)
        return self._on_support[i] @ x

    def series(self, x: np.ndarray):
        """``(step, x, back)`` for a recursion of products with this operator:
        ``step`` is one product, taking and giving flows in the order the
        recursion runs in, ``x`` the flow in that order, and ``back`` takes a
        result of steps and elementwise passes back to canonical order.

        A single flow on one matrix with a row-ordered copy runs in the copy's
        row order, with one gather in and one back per series; anything else
        steps with ``matvec`` in canonical order.
        """
        if x.ndim == 1 and self._renumbered and self._ordered[0] is not None:
            rows, order, inverse = self._ordered[0]
            return rows.__matmul__, x.take(order), lambda y: y.take(inverse)
        return self.matvec, x, lambda y: y

    def _shift(self, x: np.ndarray) -> np.ndarray:
        # L x on the support
        for i in reversed(range(len(self._on_support))):
            x = self._product(i, x)
        return x

    def _pad(self, y: np.ndarray) -> np.ndarray:
        if self._support is None:
            return y
        out = np.zeros((self.shape[0],) + y.shape[1:])
        out[self._support] = y
        return out

    @functools.cached_property
    def small(self) -> ShiftMatrix:
        *head, last = self._on_support
        last = _restrict(last, None, self._support)
        if self.on_gram:
            return ShiftMatrix(last @ head[0])
        return self if self._support is None else ShiftMatrix(*head, last)

    def as_csr(self) -> sp.csr_matrix:
        """L as one read-only CSR matrix: the one factor, or the product of the two."""
        if len(self.factors) == 1:
            return self.factors[0]
        a, b = self.factors
        return read_only(sp.csr_matrix(a @ b))

    def to_small(self, x: np.ndarray) -> np.ndarray:
        if self.on_gram:
            return self._product(1, x)
        return self._shift(x)

    def from_small(self, y: np.ndarray) -> np.ndarray:
        if self.on_gram:
            y = self._product(0, y)
        return self._pad(y)


def _restrict(m: sp.csr_matrix, rows, cols) -> sp.csr_matrix:
    """m restricted to the given row and column indices (None keeps them all)."""
    if rows is None and cols is None:
        return m
    if rows is not None:
        m = m[rows]
    if cols is not None:
        m = m[:, cols]
    return read_only(m)


def _by_row_length(m: sp.csr_matrix, renumber: bool):
    """m with its rows stably sorted by length, the order and the inverse
    order that takes its products back to m's rows, all read-only; None when
    m stores fewer than ROW_ORDER_MIN_ENTRIES entries or its row lengths never
    decrease. With ``renumber`` (m square) column j becomes column inverse[j],
    and each row keeps its entries in stored order."""
    if m.nnz < ROW_ORDER_MIN_ENTRIES:
        return None
    lengths = np.diff(m.indptr)
    if np.all(lengths[1:] >= lengths[:-1]):
        return None
    order = np.argsort(lengths, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    rows = m[order]
    if renumber:
        # not through read_only, whose sort_indices would change the order in
        # which each row sums
        indices = inverse.take(rows.indices).astype(rows.indices.dtype)
        rows = sp.csr_matrix((rows.data, indices, rows.indptr), shape=rows.shape)
    for array in (rows.data, rows.indices, rows.indptr, order, inverse):
        array.setflags(write=False)
    return rows, order, inverse


def identity_block(n: int, start: int) -> np.ndarray:
    """IDENTITY_CHUNK columns of the n x n identity from ``start`` on (fewer at the end)."""
    return np.eye(n, min(IDENTITY_CHUNK, n - start), -start)
