"""Hodge Laplacians and their spectral machinery.

The lower and upper Laplacian operators (`shift_operators`) and their
degree-normalized symmetric forms (`_normalized_operators`) as incidence
products; the gradient and curl frequencies, from each operator's small side
(`ShiftMatrix.small`, chosen by counting stored entries), with eigenbases of
the harmonic/gradient/curl split on demand; the simplicial Fourier transform,
divergence/curl operators, the eigen-free Hodge decomposition of edge flows by
sparse least squares, whose curl projection solves on the same small side,
and the normalized edge Laplacian used for ranking.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._kernels import ShiftMatrix, memo, read_only
from .complexes import OrientedComplex, SimplicialComplex, _hodge_parts, boundary_csr
from .errors import (
    DataError,
    DimensionMismatch,
    EigenFailure,
    NumericalError,
    SingularSystem,
)

# relative threshold separating zero (harmonic) eigenvalues from the rest
ZERO_TOL_FACTOR = 1e-8
# diagonal shift of the (possibly singular) curl Gram, relative to its largest
# row sum
CURL_SHIFT = 1e-8
# refinement steps a shifted curl solve may take before it counts as failed
REFINE_STEPS = 10
# a refinement step has converged once it moves the projection of every column
# by at most this many ulps of its norm (on the edges, plus of the move's rounding)
REFINE_ULPS = 8
# parts with fewer rows get a dense eigvalsh: ARPACK takes no 1 x 1 matrix
LANCZOS_MIN_SIZE = 2


def _check_flow(obj: SimplicialComplex | OrientedComplex, flow) -> np.ndarray:
    """An edge flow of a plain or oriented complex, of shape (N1,) or a block of
    flows (N1, k), real and finite."""
    n_edges = (obj.base if isinstance(obj, OrientedComplex) else obj).n_edges
    if np.iscomplexobj(flow):
        raise DataError("flow values must be real, not complex")
    flow = np.asarray(flow, dtype=np.float64)
    if flow.ndim not in (1, 2) or flow.shape[0] != n_edges:
        raise DimensionMismatch(
            f"flow has shape {flow.shape}, expected ({n_edges},) or ({n_edges}, k)"
        )
    if not np.all(np.isfinite(flow)):
        raise DataError("flow values must be finite")
    return flow


def _freeze(obj) -> None:
    # kept results are shared by every caller, so their arrays are read-only
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            read_only(value)


@dataclass(frozen=True)
class HodgeLaplacians:
    """Lower, upper, and total Hodge Laplacian of one simplex order."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        _freeze(self)

    @property
    def total(self) -> np.ndarray:
        return self.lower + self.upper


def hodge_laplacian(obj: SimplicialComplex | OrientedComplex, k: int = 1) -> HodgeLaplacians:
    """Dense Hodge Laplacians at order k (lower part zero for k=0, upper for k=2).

    A dense O(N_k^2) view of the sparse parts the package works on, built on
    each call: an oracle for tests and for callers that ask for dense matrices.
    """
    lower, upper = _hodge_parts(obj, k)
    return HodgeLaplacians(lower.toarray(), upper.toarray())


@dataclass(frozen=True)
class HodgeSpectrum:
    """Frequencies of the edge space, split into harmonic/gradient/curl blocks.

    The gradient frequencies are the nonzero eigenvalues of the lower
    Laplacian B1^T B1, the curl frequencies those of the upper one B2 B2^T,
    both ascending; every eigenvalue at or below ``zero_tol`` counts as zero.
    The eigenbases are built from the complex on first access and kept:
    gradient vectors are eigenvectors of the lower Laplacian, curl vectors of
    the upper one, harmonic vectors span the null space of both, and the full
    basis [U_H U_G U_C] is orthonormal. All arrays are read-only.
    """

    sc: SimplicialComplex | OrientedComplex = field(repr=False)
    lambda_gradient: np.ndarray
    lambda_curl: np.ndarray
    zero_tol: float

    def __post_init__(self):
        _freeze(self)

    @property
    def n_gradient(self) -> int:
        return len(self.lambda_gradient)

    @property
    def n_curl(self) -> int:
        return len(self.lambda_curl)

    @property
    def n_harmonic(self) -> int:
        return boundary_csr(self.sc, 1).shape[1] - self.n_gradient - self.n_curl

    @cached_property
    def u_gradient(self) -> np.ndarray:
        return _side_basis(self.sc, "gradient", self.n_gradient)

    @cached_property
    def u_curl(self) -> np.ndarray:
        return _side_basis(self.sc, "curl", self.n_curl)

    @cached_property
    def u_harmonic(self) -> np.ndarray:
        # the residual of a random block after both projections spans the
        # harmonic space; projecting twice removes what the first pass leaves
        x = np.random.default_rng(0).standard_normal(
            (boundary_csr(self.sc, 1).shape[1], self.n_harmonic)
        )
        for _ in range(2):
            x = x - _projector(self.sc, "gradient")(x) - _projector(self.sc, "curl")(x)
        return read_only(_fix_signs(np.linalg.qr(x)[0]))

    @cached_property
    def basis(self) -> np.ndarray:
        return read_only(np.hstack([self.u_harmonic, self.u_gradient, self.u_curl]))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # deterministic eigenvector signs: largest-magnitude entry made positive
    out = vectors.copy()
    if out.size:  # argmax takes no empty axis
        flip = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])] < 0
        out[:, flip] = -out[:, flip]
    return out


def _eigh(matrix: np.ndarray, vectors: bool = True):
    try:
        return np.linalg.eigh(matrix) if vectors else np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc


@memo
def _lambda_max(op: ShiftMatrix) -> float:
    """Largest eigenvalue of a Laplacian part: 0.0 if a factor is zero (a Hodge
    part is zero exactly then), else that of its symmetric ``small`` side, which
    has the part's nonzero spectrum: dense below LANCZOS_MIN_SIZE rows, else
    Lanczos (``eigsh``) on that CSR matrix, converged to rounding (Parlett, *The
    Symmetric Eigenvalue Problem*) from a fixed start vector: bitwise repeatable."""
    if not all(f.data.any() for f in op.factors):
        return 0.0
    small = op.small.as_csr()
    if small.shape[0] < LANCZOS_MIN_SIZE:
        return float(_eigh(small.toarray(), vectors=False)[-1])
    from scipy.sparse.linalg import ArpackError, eigsh

    v0 = np.random.default_rng(0).standard_normal(small.shape[0])
    try:
        return float(eigsh(small, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])
    except ArpackError as exc:  # no convergence, among others
        raise EigenFailure(f"Lanczos found no largest eigenvalue: {exc}") from exc


def _small_dense(op: ShiftMatrix) -> np.ndarray:
    """``op.small`` as one dense matrix, Fortran-ordered as LAPACK reads it."""
    return op.small.as_csr().toarray(order="F")


def _side_basis(obj: SimplicialComplex | OrientedComplex, side: str, count: int) -> np.ndarray:
    """Orthonormal eigenvectors of one side's edge-space part for its ``count``
    largest eigenvalues, from the eigenvectors v of that side's ``small``
    matrix mapped back by ``from_small``: u = F v / sqrt(lambda) when it is the
    Gram G = F^T F of the part L = F F^T."""
    op = shift_operators(obj)[side == "curl"]
    w, v = _eigh(_small_dense(op))
    w, v = w[w.size - count :], v[:, w.size - count :]
    out = op.from_small(v)
    return read_only(_fix_signs(out / np.sqrt(w) if op.on_gram else out))


@memo
def hodge_spectrum(sc: SimplicialComplex | OrientedComplex) -> HodgeSpectrum:
    """Gradient and curl frequencies of the edge space, eigenbases on demand.

    The eigenvalues come from one dense `eigvalsh` per side, of the ``small``
    matrix of that side's operator in `shift_operators`: the matrix the filter
    recursions step on, built once and kept with the operator. `ShiftMatrix`
    picks it by counting stored entries (see `_kernels`): the node Gram
    B1 B1^T on the lower side, and on the upper side the triangle Gram B2^T B2
    on road complexes or the upper Laplacian on the edges on a triangle where
    cliques are filled. Both Grams of an incidence have the same nonzero
    eigenvalues (Lim, "Hodge Laplacians on graphs", SIAM Review 2020).
    ``zero_tol`` is ZERO_TOL_FACTOR times the largest eigenvalue of either
    side, which is the largest of the total Laplacian, and the harmonic count
    is N1 minus the other two. Kept on the complex (`memo`) and freed with it.
    """
    w_grad, w_curl = (_eigh(_small_dense(op), vectors=False) for op in shift_operators(sc))
    zero_tol = ZERO_TOL_FACTOR * float(max(w_grad.max(initial=0.0), w_curl.max(initial=0.0)))
    return HodgeSpectrum(
        sc=sc,
        lambda_gradient=w_grad[w_grad > zero_tol],
        lambda_curl=w_curl[w_curl > zero_tol],
        zero_tol=zero_tol,
    )


@dataclass(frozen=True)
class Embeddings:
    """Spectral coefficients of an edge flow per subspace."""

    harmonic: np.ndarray
    gradient: np.ndarray
    curl: np.ndarray


def sft(spectrum: HodgeSpectrum, flow) -> Embeddings:
    """Project an edge flow onto the harmonic/gradient/curl eigenbases."""
    flow = _check_flow(spectrum.sc, flow)
    return Embeddings(
        harmonic=spectrum.u_harmonic.T @ flow,
        gradient=spectrum.u_gradient.T @ flow,
        curl=spectrum.u_curl.T @ flow,
    )


def inverse_sft(spectrum: HodgeSpectrum, emb: Embeddings) -> np.ndarray:
    if (
        emb.harmonic.shape != (spectrum.n_harmonic,)
        or emb.gradient.shape != (spectrum.n_gradient,)
        or emb.curl.shape != (spectrum.n_curl,)
    ):
        raise DimensionMismatch("embedding block sizes do not match the spectrum")
    return (
        spectrum.u_harmonic @ emb.harmonic
        + spectrum.u_gradient @ emb.gradient
        + spectrum.u_curl @ emb.curl
    )


def _factor(matrix: sp.spmatrix):
    """Sparse LU factorization of a symmetric positive definite matrix; a
    failure, or a non-finite entry such as an overflowed mu * P, is a
    NumericalError."""
    from scipy.sparse.linalg import splu

    matrix = sp.csc_matrix(matrix)
    if not np.all(np.isfinite(matrix.data)):
        raise NumericalError("system matrix has a non-finite entry")
    try:
        # symmetric fill-reducing order, diagonal pivots: what SPD needs
        return splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SingularSystem(f"sparse factorization failed: {exc}") from exc


@memo
def _projector(sc: SimplicialComplex, side: str, weighted: bool = False):
    """Orthogonal projector onto im(F) as a map of an (N1,) flow or (N1, k) block.

    F is the factor of that side's part c F F^T in `shift_operators` or,
    weighted, `_normalized_operators`: B1^T or R B1^T D1^-1/2 (side
    "gradient"), B2 or R^-1 B2 ("curl"). Each side solves on the operator's
    ``small`` matrix S, through ``to_small`` and ``from_small``, with one
    sparse factorization (`memo`) and no eigenbasis or dense matrix.

    Gradient side: S is the node Gram F^T F, congruent to a graph Laplacian
    whose kernel is the components' indicators, so one node per component is
    grounded, the rest is factored SPD, and y maps to F psi, S psi = F^T y.

    Curl side: S's kernel (2-cycles such as a clique-filled hollow
    tetrahedron) is not known in advance, so S + delta*I is factored and the
    solve refined until it stops moving the projection. On the triangle Gram
    S = A^T A, A = sqrt(c) F (``on_gram``, road complexes), it solves
    S psi = A^T y and returns A psi, which annihilates the kernel part of psi.
    On the edges (where cliques are filled) S is the upper part on the edges
    on a triangle and ``to_small`` gives S y; one solve would leave kernel
    noise amplified by 1/delta that nothing removes, so it refines
    S^2 u = S y with two solves per step and returns S u, padded back: the
    product by S annihilates that noise as A does on the Gram side, up to its
    own rounding, which the convergence test allows for (REFINE_ULPS).
    """
    op = (_normalized_operators if weighted else shift_operators)(sc)[side == "curl"]
    small = op.small.as_csr()
    if side == "gradient":
        from scipy.sparse.csgraph import connected_components

        _, labels = connected_components(small, directed=False)
        keep = np.ones(small.shape[0], dtype=bool)
        keep[np.unique(labels, return_index=True)[1]] = False
        if not keep.any():
            return lambda y: np.zeros_like(y)
        lu = _factor(small[keep][:, keep])

        def project_gradient(y):
            psi = op.to_small(y)
            psi[keep] = lu.solve(psi[keep])
            psi[~keep] = 0.0
            return op.from_small(psi)

        return project_gradient

    if small.shape[0] == 0:
        return lambda y: np.zeros_like(y)
    magnitude = abs(small)
    shift = CURL_SHIFT * float(magnitude.sum(axis=1).max())
    lu = _factor(small + shift * sp.identity(small.shape[0], format="csr"))
    ulps = REFINE_ULPS * np.finfo(np.float64).eps
    if op.on_gram:
        system, solve, output = (lambda u: small @ u), lu.solve, op.from_small
        noise = lambda step: 0.0
    else:
        system = lambda u: small @ (small @ u)
        solve = lambda r: lu.solve(lu.solve(r))
        output = lambda u: op.from_small(small @ u)
        # S step rounds at up to |S| |step|, and the steps' kernel parts,
        # amplified by 1/delta^2, bring that to about 8 ulps of y
        noise = lambda step: np.linalg.norm(magnitude @ np.abs(step), axis=0)

    def project(y):
        rhs = op.to_small(y)
        u = solve(rhs)
        tol = ulps * np.linalg.norm(y, axis=0)
        for _ in range(REFINE_STEPS):
            step = solve(rhs - system(u))
            u += step
            if np.all(np.linalg.norm(output(step), axis=0) <= tol + ulps * noise(step)):
                return output(u)
        raise NumericalError(
            f"curl projection did not converge in {REFINE_STEPS} refinement steps"
        )

    return project


def hodge_decompose(sc: SimplicialComplex, flow) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an edge flow, or each column of an (N1, k) block, into (gradient,
    curl, harmonic) components by sparse least squares (`_projector`)."""
    flow = _check_flow(sc, flow)
    f_gradient = _projector(sc, "gradient")(flow)
    f_curl = _projector(sc, "curl")(flow)
    f_harmonic = flow - f_gradient - f_curl
    return f_gradient, f_curl, f_harmonic


def divergence(sc: SimplicialComplex, flow) -> np.ndarray:
    """Net outflow per node: B1 @ f."""
    flow = _check_flow(sc, flow)
    return boundary_csr(sc, 1) @ flow


def curl(sc: SimplicialComplex, flow) -> np.ndarray:
    """Circulation per triangle: B2^T @ f."""
    flow = _check_flow(sc, flow)
    return boundary_csr(sc, 2).T @ flow


def _group_sorted(values: np.ndarray, tol: float) -> list[float]:
    """The means of the runs of sorted values whose gaps are at most tol."""
    values = np.sort(values)
    groups = np.split(values, np.flatnonzero(np.diff(values) > tol) + 1)
    return [float(np.mean(g)) for g in groups if g.size]


def distinct_frequencies(
    spectrum: HodgeSpectrum, grouping_tol: float = 0.0
) -> tuple[list[float], list[float]]:
    """Distinct gradient and curl frequencies under single-linkage grouping.

    A new group starts when the gap to the previous (sorted) eigenvalue
    exceeds max(grouping_tol, spectrum.zero_tol); each group is represented by
    its mean. Gaps at or below ``zero_tol`` are rounding noise of the
    eigensolver, not distinct frequencies: a repeated eigenvalue comes out as
    several values a few ulps of the largest one apart.
    """
    if not 0 <= grouping_tol < np.inf:
        raise DataError("grouping_tol must be nonnegative and finite")
    tol = max(grouping_tol, spectrum.zero_tol)
    return (
        _group_sorted(spectrum.lambda_gradient, tol),
        _group_sorted(spectrum.lambda_curl, tol),
    )


@dataclass(frozen=True)
class NormalizedLaplacian:
    """Degree-normalized edge Laplacian and its symmetrized similar form.

    lower/upper are the (generally non-symmetric) normalized parts whose sum
    has real spectrum in [0, 1]; sym_lower/sym_upper are their similarity
    transforms under W = diag(weight)^(-1/2), which are symmetric and satisfy
    sym_lower @ sym_upper = 0.
    """

    lower: np.ndarray
    upper: np.ndarray
    weight: np.ndarray
    sym_lower: np.ndarray
    sym_upper: np.ndarray

    def __post_init__(self):
        _freeze(self)

    @property
    def total(self) -> np.ndarray:
        return self.lower + self.upper


def _normalized_degrees(sc: SimplicialComplex) -> tuple[np.ndarray, np.ndarray]:
    """The diagonals (d1, d2) of the normalized edge Laplacian."""
    b1 = boundary_csr(sc, 1)
    b2 = boundary_csr(sc, 2)
    # d2: triangle-degree weights per edge, floored at 1
    d2 = np.maximum(np.diff(b2.indptr), 1).astype(np.float64)
    # d1: weighted node degrees; isolated nodes have a zero B1 row, so the
    # guard value never contributes
    d1 = 2.0 * (abs(b1) @ d2)
    d1[d1 == 0.0] = 1.0
    return d1, d2


@memo
def shift_operators(
    obj: SimplicialComplex | OrientedComplex,
) -> tuple[ShiftMatrix, ShiftMatrix]:
    """Lower/upper Laplacian operators of a complex, as incidence products.

    The lower one applies B1^T (B1 f), the upper one B2 (B2^T f); each takes an
    (N1,) flow or an (N1, k) block of flows. Their ``small`` sides, which the
    filter recursions step on, `hodge_spectrum` eigendecomposes and the curl
    projection (`_projector`) factors, are the ones `ShiftMatrix` picks: the
    node Gram B1 B1^T for the lower one, and for the upper one the triangle
    Gram B2^T B2 where it stores no more entries than B2 and B2^T, else the
    upper Laplacian on the edges on a triangle. The pair is kept on the complex
    object (`memo`), freed with it and not shared with an equal complex.
    """
    b1, b2 = boundary_csr(obj, 1), boundary_csr(obj, 2)
    return ShiftMatrix(b1.T, 1.0), ShiftMatrix(b2, 1.0)


@memo
def _normalized_operators(sc: SimplicialComplex) -> tuple[ShiftMatrix, ShiftMatrix]:
    """The symmetric normalized parts S_lower = F_l F_l^T and
    S_upper = F_u F_u^T / 3 as incidence products, F_l = R B1^T D1^-1/2 and
    F_u = R^-1 B2 with R = diag(sqrt(d2)); each steps on the side `ShiftMatrix`
    picks, as in `shift_operators`, and the weighted projections of ranking
    (`_projector`) solve on those sides.

    The normalized edge Laplacian is L_n = R (S_lower + S_upper) R^-1 (Schaub
    et al., "Random walks on simplicial complexes and the normalized Hodge
    1-Laplacian", SIAM Review 2020), so ranking solves in y = R^-1 pi.
    """
    b1, b2 = boundary_csr(sc, 1), boundary_csr(sc, 2)
    d1, d2 = _normalized_degrees(sc)
    root = np.sqrt(d2)
    return (
        ShiftMatrix(sp.diags(root) @ b1.T @ sp.diags(1.0 / np.sqrt(d1)), 1.0),
        ShiftMatrix(sp.diags(1.0 / root) @ b2, 1.0 / 3.0),
    )


def _assembled_normalized(sc: SimplicialComplex):
    """The weight d2, the symmetric parts [S_lower, S_upper] and the normalized
    parts [R S_lower R^-1, R S_upper R^-1], from `_normalized_operators`, for
    the dense views."""
    _, d2 = _normalized_degrees(sc)
    root = np.sqrt(d2)
    sym = [op.as_csr() for op in _normalized_operators(sc)]
    return d2, sym, [sp.diags(root) @ s @ sp.diags(1.0 / root) for s in sym]


def normalized_laplacian(sc: SimplicialComplex) -> NormalizedLaplacian:
    """Dense view of the normalized parts, O(N1^2) memory, built on each call:
    an oracle for tests and callers that ask for dense matrices."""
    d2, (sym_lower, sym_upper), (lower, upper) = _assembled_normalized(sc)
    return NormalizedLaplacian(
        lower.toarray(), upper.toarray(), d2, sym_lower.toarray(), sym_upper.toarray()
    )


def normalized_hodge_laplacian(sc: SimplicialComplex) -> np.ndarray:
    """Normalized edge Laplacian L_n = D2 B1^T D1^{-1} B1 + B2 D3 B2^T D2^{-1}, dense."""
    _, _, (lower, upper) = _assembled_normalized(sc)
    return (lower + upper).toarray()
