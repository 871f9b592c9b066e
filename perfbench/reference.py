"""Independent references for the output gates.

Everything here is rebuilt from ``sc.edges`` and ``sc.triangles`` with scipy,
so a gate never trusts an operator the package assembled. The floating-point
slacks are first-order a-priori rounding bounds, fixed by the formulas below
and not tuned to any seed.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as sla

UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def incidences(sc) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """B1 (-1 at u, +1 at v per edge) and B2 (+1, -1, +1 on the faces uv, uw, vw)."""
    edges = np.asarray(sc.edges, dtype=np.int64).reshape(-1, 2)
    tris = np.asarray(sc.triangles, dtype=np.int64).reshape(-1, 3)
    n0, n1, n2 = sc.vertex_count, len(edges), len(tris)
    cols = np.arange(n1)
    b1 = sp.csr_matrix(
        (np.r_[-np.ones(n1), np.ones(n1)], (np.r_[edges[:, 0], edges[:, 1]], np.r_[cols, cols])),
        shape=(n0, n1))
    # edges are sorted ascending pairs, so a face's index is a binary search
    keys = edges[:, 0] * n0 + edges[:, 1]
    faces = np.concatenate([np.searchsorted(keys, tris[:, a] * n0 + tris[:, b])
                            for a, b in ((0, 1), (0, 2), (1, 2))])
    cols = np.arange(n2)
    signs = np.r_[np.ones(n2), -np.ones(n2), np.ones(n2)]
    b2 = sp.csr_matrix((signs, (faces, np.r_[cols, cols, cols])), shape=(n1, n2))
    return b1, b2


def hodge_parts(sc) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Lower and upper Hodge 1-Laplacians B1^T B1 and B2 B2^T."""
    b1, b2 = incidences(sc)
    return (b1.T @ b1).tocsr(), (b2 @ b2.T).tocsr()


def lambda_max(op) -> float:
    """Largest eigenvalue of a symmetric operator by Lanczos (for reference only)."""
    return float(sla.eigsh(op, k=1, which="LA", return_eigenvectors=False)[0])


def row_nnz(*ops) -> int:
    return max(int(np.diff(sp.csr_matrix(op).indptr).max()) for op in ops)


def polynomial(low, up, coeffs, flow) -> tuple[np.ndarray, np.ndarray]:
    """The filter recursion over scipy CSR, and a per-entry bound on the gap
    between two evaluations of it that differ only in summation order.

    Each matvec's dot products have at most m terms and the output sums K+1
    terms, so each evaluation is within (K*m + K + 1) * u * mag of the exact
    value, mag being the recursion run on |L| and |taps| (first order).
    """
    out, mag = coeffs.h0 * flow, abs(coeffs.h0) * np.abs(flow)
    for op, taps in ((low, coeffs.alpha), (up, coeffs.beta)):
        x, ax, abs_op = flow, np.abs(flow), abs(op)
        for a in taps:
            x, ax = op @ x, abs_op @ ax
            out, mag = out + a * x, mag + abs(a) * ax
    k = max(len(coeffs.alpha), len(coeffs.beta))
    gap = 2 * (k * row_nnz(low, up) + k + 1) * UNIT_ROUNDOFF * mag
    return out, gap


def chebyshev_slack(filt, low, up) -> float:
    """Relative rounding bound of the shifted-Chebyshev recursion.

    Per step, w' = 2 (L/omega - I) w - w_prev is formed with error at most
    (m + 2) u (2 a + 1) |w|, a = ||L||_inf / omega + 1. Errors propagate through
    second-kind Chebyshev polynomials (norm <= k + 1 on the interval), so the
    series of order K with coefficients c is off by at most
    (K + 1)^2 / 2 (m + 2) u (2 a + 1) sum |c| per unit input norm.
    """
    m = row_nnz(low, up)
    total = 0.0
    for op, omega, coeffs in ((low, filt.omega_lower, filt.c_lower),
                              (up, filt.omega_upper, filt.c_upper)):
        if not coeffs:
            continue
        a = float(abs(op).sum(axis=1).max()) / omega + 1.0
        k = len(coeffs)
        total += k * k / 2 * (m + 2) * UNIT_ROUNDOFF * (2 * a + 1) * float(np.sum(np.abs(coeffs)))
    return total


def normalized_parts(sc):
    """Normalized edge Laplacian parts, their weights, and symmetrized forms,
    assembled sparse from the definition L_n = D2 B1^T D1^-1 B1 + B2 B2^T D2^-1 / 3."""
    b1, b2 = incidences(sc)
    d2 = np.maximum(np.asarray(abs(b2).sum(axis=1)).ravel(), 1.0)
    d1 = 2.0 * (abs(b1) @ d2)
    d1[d1 == 0.0] = 1.0
    core = (b1.T @ sp.diags(1.0 / d1) @ b1).tocsr()
    lower = (sp.diags(d2) @ core).tocsr()
    upper = (b2 @ b2.T @ sp.diags(1.0 / d2) / 3.0).tocsr()
    root = sp.diags(np.sqrt(d2))
    inv_root = sp.diags(1.0 / np.sqrt(d2))
    sym_lower = (root @ core @ root).tocsr()
    sym_upper = (inv_root @ b2 @ b2.T @ inv_root / 3.0).tocsr()
    return lower, upper, d2, sym_lower, sym_upper


def subspace_bases(sc, d2):
    """Orthonormal bases of the gradient and curl spaces in weighted coordinates
    y = pi / sqrt(w): range(D2^1/2 B1^T) and range(D2^-1/2 B2)."""
    b1, b2 = incidences(sc)
    root = np.sqrt(d2)[:, None]
    return (scipy.linalg.orth((b1.T.toarray()) * root),
            scipy.linalg.orth(b2.toarray() / root))
