"""The shift operator: one read-only scipy CSR matrix, or a Gram product of one,
and the accumulating step of the filter series.

The hot operation in this package is repeated sparse products with a
Laplacian part (simplicial shifting). Each part is L = c F F^T for one sparse
factor F and a scalar c: L_lower = B1^T B1 (F = B1^T, c = 1), L_upper =
B2 B2^T (F = B2, c = 1) and the degree-normalized parts of
`spectral._normalized_operators`. The operator keeps A = sqrt(c) F and its
exact transpose, so every product of the two is a Gram product, symmetric to
the last bit; a c on A^T alone, or on the product, breaks that or rounds the
kernel off the exact 2-cycles that the curl projection filters on the edges.
One shift is two rounds of sparse products, A^T then A: edge -> node -> edge
or edge -> triangle -> edge. It runs on the rows and columns L touches only
(the rows of F with entries: for L_upper the edges on a triangle) and is
padded back with zeros: every row sums the same entries in the same order as
on the whole incidence, so the result is bitwise the same, and no
intermediate has a row for a node or triangle that holds nothing (21800
edges, on a 2-CPU x86 VM: an upper shift of one flow took 152-179 us against
167-199 us on the whole incidence in the same runs, medians of 25).

A filter recursion steps on whichever side of L is cheaper. Every power L^l f
with l >= 1 is A G^(l-1) A^T f with G = A^T A, which has the same nonzero
spectrum as L (Lim, "Hodge Laplacians on graphs", SIAM Review 2020). So a
recursion either maps the flow onto G's side once, steps there and maps back
once, or steps with L itself on the rows and columns it touches. The side is
fixed when the operator is built, from counts F already holds: G stores at
most sum_e r_e^2 - nnz(F) + n_G entries, r_e being the entries in row e of F
and n_G the columns of F that hold one, exactly that many for an incidence,
since two simplices share at most one face. The recursions step on G when
it is no more than 2 nnz(F), the entries of one step with L. For the lower
parts that always holds (N0 + 2*N1 against 4*N1: the node Gram). For the
upper parts it holds on road complexes (21800 edges: 13,658 entries on the
6,116 triangles against 36,696 on 14,584 edges) and fails where cliques are
filled, since a complete complex on n vertices has n - 2 triangles on every
edge (a complete 60-vertex complex: 5,885,840 against 205,320); there the
recursions stay on the edges and G is never built.

`spectral.hodge_spectrum` eigendecomposes the same small side densely,
`design.estimate_lambda_max` power-iterates on it (through ``to_small`` and
``series``, with no edge-space product), and `spectral._projector` factors
the upper one for the curl projection, so this one rule also sizes that
O(N^3) step and that sparse factorization. It
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

`ShiftMatrix.small` is one CSR matrix everywhere: the node or triangle Gram
itself, or, where cliques are filled, A A^T on the edges on a triangle (which
``as_csr`` of the operator gives on all the edges). Every such side is a
Gram product, so it is exactly symmetric: `spectral._lambda_max` runs
Lanczos on it. Two edges share at most one
triangle, so no entry of A A^T cancels and it stores exactly E' + 2 nnz(F)
entries: each edge's diagonal, and one entry per pair of edges on a triangle
(a complete 60-vertex complex: 207,090 against the 205,320 of A and A^T). On
complete 40- and 60-vertex complexes one product with it was 1.1-1.2 times
faster than the two-factor product for one flow and 1.4-2.7 times for a
block of 128 (2-CPU x86 VM), so every series steps on it (the monomial and
Chebyshev filters and the power iterations), `spectral.hodge_spectrum`
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

A filter series repeats products with one matrix M (a node or triangle Gram,
A A^T on the edges on a triangle, or a Chebyshev step matrix), and each of
its steps adds one product into an array the recursion already holds:
Horner's rule for monomial taps (`filters.FilterCoefficients`), Clenshaw's
backward recurrence for Chebyshev series (`design.ChebyshevFilter`, after
Clenshaw, Math. Tables Aids Comput. 9, 1955) and a zero-filled buffer for
the power iterations. ``ShiftMatrix.series`` gives that step as
``add(v, out)``, which computes out += M v in place through ``csr_matvec``
(a flow) and ``csr_matvecs`` (a block) of ``scipy.sparse._sparsetools``, a
private scipy module: they are the kernels behind scipy's own CSR ``@``,
which calls them on a zero-filled result. Each starts a row from out's value
and adds its entries' products in stored order, the block kernel column by
column, so a block column is still bitwise the single-flow result, and a
zero-filled out gets bitwise scipy's product. A step thus pays one kernel
call, with no scipy dispatch and no fresh zeroed result, plus one
elementwise pass for Horner (out = a_l x) and two for Clenshaw (a scaled
copy of b into a held buffer, then the subtraction of u_{k+2}: numpy has no
fused three-operand pass), where the forward Chebyshev recursion took four
passes around a fresh product. At 21800 edges, seed 11 (medians of 15
rounds of 200, 2-CPU x86 VM), a step with the triangle step matrix (13,658
entries on 6,116 rows) took 12-20 us against 16-24 us for ``@`` on the same
copy, and the two passes 4-6 us; on the node step matrix (54,500 entries,
10,900 rows) 41-67 us against 56-59 us, and the passes 6-7 us. The kernels
check no bounds, and cast or copy an operand of another dtype or layout on
every call, so ``series`` checks its flow once and ``add`` refuses a ``v``
or ``out`` that does not match it, or that share memory.

The row-ordered copy of one matrix also has column j renumbered to
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
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

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
    """Read-only shift operator for repeated shifting: ``ShiftMatrix(M)`` is
    one square matrix L = M (a Gram, a Chebyshev step matrix), and
    ``ShiftMatrix(F, c)`` the Laplacian part L = c F F^T.

    ``factors`` is ``(M,)`` or ``(A, A^T)`` with A = sqrt(c) F (see the module
    docstring), copies in canonical CSR form whose ``data``, ``indices`` and
    ``indptr`` are not writeable. ``matvec`` and ``@`` apply them right to
    left to an ``(n,)`` vector or an ``(n, k)`` block.

    The filter recursions step on ``small``, built on first use and kept, and
    compute L^l x as ``from_small(small^(l-1) to_small(x))``. With ``on_gram``
    set, ``small`` is G = A^T A over the columns of F with entries, entered by
    ``to_small`` (A^T) and left by ``from_small`` (A) once per series; else it
    is L = A A^T on the rows of F with entries, as one matrix, and
    ``to_small`` applies L and keeps those rows, which ``from_small`` pads
    back with zeros. One matrix is its own ``small``, so ``small`` is always
    one matrix, and ``series`` runs on it. ``gram_bound`` is the
    bound on G's stored entries that decides the side (None for one matrix).

    A single flow multiplies a read-only copy of each factor that stores at
    least ROW_ORDER_MIN_ENTRIES entries in rows of varying length, with its
    rows stably sorted by length, and takes the result back into canonical
    row order: bitwise the canonical product, without a mispredicted row loop
    (see the module docstring). The copy of one matrix M has its columns
    renumbered in the same order and its rows' entries left in stored order,
    so that ``series`` runs a single-flow recursion in that order with one
    gather in and one back per series, each step adding one product into an
    array the recursion holds. Blocks, ``factors`` and ``as_csr``
    keep the canonical rows.
    """

    def __init__(self, matrix, scale: float | None = None):
        m = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
        self.shape, self._renumbered = (m.shape[0], m.shape[0]), scale is None
        # the rows and columns L touches, None when that is all of them
        self._support, self.gram_bound, self.on_gram = None, None, False
        if scale is None:
            if m.shape[0] != m.shape[1]:
                raise ValueError(f"a shift matrix is square, not {m.shape}")
            self.factors = self._on_support = (read_only(m),)
        else:
            if not 0.0 <= scale < np.inf:
                raise ValueError(f"L = c F F^T takes a finite c >= 0, not {scale}")
            m.data *= np.sqrt(scale)
            self.factors = (read_only(m), read_only(sp.csr_matrix(m.T)))
            # L touches the rows of F with entries; the inner indices are the
            # columns of F with entries, the others carry nothing
            touched, inner = (np.diff(f.indptr) > 0 for f in self.factors)
            self._support = None if touched.all() else np.flatnonzero(touched)
            inner = None if inner.all() else np.flatnonzero(inner)
            a, b = self._on_support = (_restrict(m, self._support, inner),
                                       _restrict(self.factors[1], inner, None))
            rows = np.diff(a.indptr).astype(np.int64)
            self.gram_bound = int(rows @ rows) - a.nnz + a.shape[1]
            self.on_gram = self.gram_bound <= a.nnz + b.nnz
        # per factor on the support, None or its copy with rows ordered by
        # length, the order and its inverse; the copy of one matrix M has its
        # columns renumbered too
        self._ordered = tuple(_by_row_length(f, self._renumbered) for f in self._on_support)

    def __reduce__(self):  # M, or A and 1, without ``small`` or `memo` entries
        return ShiftMatrix, self.factors[:1] + ((1.0,) if len(self.factors) == 2 else ())

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
        """``(add, x, back)`` for a recursion of products with this one matrix
        M: ``add(v, out)`` computes ``out += M v`` in place, taking and giving
        flows in the order the recursion runs in, ``x`` is the flow in that
        order, and ``back`` takes a result of steps and elementwise passes
        back to canonical order.

        ``add`` calls scipy's CSR kernels (``csr_matvec`` for a flow,
        ``csr_matvecs`` for a block, see the module docstring), which start
        every row from ``out``'s value and check no bounds. So ``x`` must be a
        C-contiguous float64 ``(n,)`` flow or ``(n, k)`` block, and ``add``
        refuses a ``v`` or ``out`` of another shape, dtype or layout, and an
        ``out`` that shares memory with ``v``. A single flow with a row-ordered
        copy runs in the copy's row order, with one gather in and one back per
        series; anything else steps on the canonical rows.
        """
        if len(self.factors) != 1:
            raise ValueError("a series steps on one matrix, such as an operator's small side")
        n = self.shape[0]
        if (x.dtype != np.float64 or x.ndim not in (1, 2) or x.shape[0] != n
                or not x.flags.c_contiguous):
            raise ValueError(f"a series takes a C-contiguous float64 flow of {n} rows, "
                             f"not {x.dtype} {x.shape}")
        rows, back = self.factors[0], lambda y: y
        if x.ndim == 1 and self._ordered[0] is not None:
            rows, order, inverse = self._ordered[0]
            x, back = x.take(order), lambda y: y.take(inverse)
        shape, matrix = x.shape, (rows.indptr, rows.indices, rows.data)
        if x.ndim == 1:
            kernel = functools.partial(csr_matvec, n, n, *matrix)
        else:
            kernel = functools.partial(csr_matvecs, n, n, shape[1], *matrix)

        def add(v: np.ndarray, out: np.ndarray) -> None:
            if not (v.shape == out.shape == shape and v.dtype == out.dtype == np.float64
                    and v.flags.c_contiguous and out.flags.c_contiguous) \
                    or np.may_share_memory(v, out):
                raise ValueError(f"a step adds M v of shape {shape} into another "
                                 f"C-contiguous float64 array of that shape")
            kernel(v, out)

        return add, x, back

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
        if len(self.factors) == 1:
            return self
        a, b = self._on_support
        b = _restrict(b, None, self._support)
        return ShiftMatrix(b @ a if self.on_gram else a @ b)

    def as_csr(self) -> sp.csr_matrix:
        """L as one read-only CSR matrix: M, or A A^T."""
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
