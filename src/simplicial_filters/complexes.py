"""Order-2 simplicial complexes.

Construction and validation, signed incidence matrices, adjacency queries,
and index/orientation transforms. The reference orientation is lexicographic:
every stored simplex is an ascending vertex tuple, and incidence signs are
derived from that ordering alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from types import MappingProxyType
from typing import Iterable, Mapping, NoReturn

import numpy as np
import scipy.sparse as sp

from ._kernels import memo, read_only
from .errors import (
    DataError,
    DimensionMismatch,
    IndexOutOfRange,
    MissingFace,
    UnsupportedOrder,
)

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


@dataclass(frozen=True)
class SimplicialComplex:
    """Immutable complex of order 2: vertices, oriented edges, oriented triangles.

    Simplices are ascending vertex tuples; list positions define the simplex
    indices used by every signal and matrix in the package.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    triangles: tuple[Triangle, ...]

    def __reduce__(self):  # the fields, without ``edge_index`` or `memo` entries
        return type(self), (self.vertex_count, self.edges, self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def simplex_count(self, k: int) -> int:
        if k == 0:
            return self.vertex_count
        if k == 1:
            return self.n_edges
        if k == 2:
            return self.n_triangles
        raise UnsupportedOrder(f"order {k} not supported")

    @cached_property
    def edge_index(self) -> Mapping[Edge, int]:
        return MappingProxyType({e: i for i, e in enumerate(self.edges)})


# Edge (u, v) has the key u * N0 + v, so sorted keys are lexicographic edges;
# the largest key, N0^2 - N0 - 1, fits int64 when N0^2 does
MAX_VERTEX_COUNT = math.isqrt(np.iinfo(np.int64).max)


def _vertex(value) -> int:
    """A vertex id or count; int() would silently truncate a float or a bool."""
    if type(value) is int or isinstance(value, np.integer):  # type(True) is bool
        return int(value)
    raise DataError(f"vertex ids and counts must be integers, got {value!r}")


def _vertex_count(value) -> int:
    """A positive vertex count whose edge keys fit int64."""
    count = _vertex(value)
    if count <= 0:
        raise DataError("vertex_count must be positive")
    if count > MAX_VERTEX_COUNT:
        raise DataError(
            f"vertex_count {count} exceeds {MAX_VERTEX_COUNT}: edge keys would overflow int64"
        )
    return count


def _reject(rows, vertex_count: int, size: int) -> NoReturn:
    """Raise the error for the first malformed simplex of rows, in row order.

    Runs only after the array pass of `_simplex_array` failed, to name the
    offending value.
    """
    for raw in rows:
        try:
            t = sorted(map(_vertex, raw))
        except TypeError:  # the row itself is not a sequence of vertices
            raise DataError(f"expected a {size}-vertex simplex, got {raw!r}") from None
        if len(t) != size:
            raise DataError(f"expected a {size}-vertex simplex, got {raw!r}")
        if len(set(t)) != size:
            raise DataError(f"degenerate simplex with repeated vertex: {raw!r}")
        if t[0] < 0 or t[-1] >= vertex_count:
            raise IndexOutOfRange(
                f"simplex {raw!r} references a vertex outside [0, {vertex_count})"
            )
    raise DataError(f"expected rows of {size} integer vertices, got {type(rows).__name__}")


def _simplex_array(raw, vertex_count: int, size: int) -> np.ndarray:
    """Validated (n, size) int64 array of the raw simplices, each row ascending.

    One array pass checks what `_reject` checks row by row: integer vertices
    (bools, floats and strings are rejected by element type, since a bool
    among ints converts silently to an int64 array), rows of ``size``
    distinct vertices, all in [0, vertex_count).
    """
    rows = raw if isinstance(raw, np.ndarray) else list(raw)
    if len(rows) == 0:
        return np.empty((0, size), dtype=np.int64)
    try:
        a = np.asarray(rows)
    except ValueError:  # ragged rows
        _reject(rows, vertex_count, size)
    if (
        a.dtype.kind not in "iu"
        or a.shape != (len(rows), size)
        or not (isinstance(rows, np.ndarray) or _integer_types(rows))
    ):
        _reject(rows, vertex_count, size)
    a = np.sort(a, axis=1)
    if a[:, 0].min() < 0 or a[:, -1].max() >= vertex_count or (a[:, 1:] == a[:, :-1]).any():
        _reject(rows, vertex_count, size)
    return a.astype(np.int64, copy=False)


def _integer_types(rows) -> bool:
    return all(
        t is int or issubclass(t, np.integer)
        for t in set(map(type, chain.from_iterable(rows)))
    )


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 1-D or 2-D array, sorted lexicographically.

    A sort and a mask: np.unique's hash pass took about 8 times as long on
    the 65,000 candidate keys of a 10,900-node Delaunay graph.
    """
    a = a[np.lexsort(np.atleast_2d(a.T)[::-1])]
    cols = np.atleast_2d(a.T)
    new = np.ones(len(a), dtype=bool)
    new[1:] = (cols[:, 1:] != cols[:, :-1]).any(axis=0)
    return a[new]


def _unique_edges(edges: np.ndarray, vertex_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct edge keys u * N0 + v of validated rows, and the edges."""
    keys = _unique_rows(edges[:, 0] * vertex_count + edges[:, 1])
    return keys, np.stack(np.divmod(keys, vertex_count), axis=1)


def _clique_triangles(vertex_count: int, edges: np.ndarray) -> np.ndarray:
    """Every 3-clique of lexicographically sorted distinct edges, as an (n, 3)
    array in lexicographic order.

    A key join: for edge (u, v) the candidates w are v's larger neighbours,
    the slice of the sorted edges that start at v, and (u, v, w) is kept when
    u * N0 + w is an edge key.
    """
    keys = edges[:, 0] * vertex_count + edges[:, 1]
    lo = np.searchsorted(edges[:, 0], edges[:, 1], side="left")
    counts = np.searchsorted(edges[:, 0], edges[:, 1], side="right") - lo
    edge_of = np.repeat(np.arange(len(edges)), counts)
    # candidate j of the join sits at row lo + (j - first) of the sorted edges,
    # first being the join position of its edge's first candidate
    first = np.cumsum(counts) - counts
    cand = np.arange(counts.sum()) + np.repeat(lo - first, counts)
    u, v, w = edges[edge_of, 0], edges[edge_of, 1], edges[cand, 1]
    queries = u * vertex_count + w
    # -1 after the largest key: a sentinel that no query equals
    found = np.append(keys, -1)[np.searchsorted(keys, queries)] == queries
    return np.stack([u[found], v[found], w[found]], axis=1)


def _face_rows(keys: np.ndarray, triangles: np.ndarray, vertex_count: int) -> np.ndarray:
    """The (3, n2) edge rows of the faces (u, v), (u, w), (v, w) of each
    ascending triangle row, B2's row order, found by a search in key order,
    since a permuted edge list is unsorted; ``keys`` are the edge keys
    u * vertex_count + v in edge-list order.

    Raises MissingFace naming the first triangle with a missing face, and its
    first missing edge.
    """
    pairs = list(combinations(range(3), 2))
    faces = np.stack([triangles[:, a] * vertex_count + triangles[:, b] for a, b in pairs])
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], faces)
    found = np.append(keys[order], -1)[pos] == faces  # -1: a sentinel, as above
    if not found.all():
        i = int(np.flatnonzero(~found.all(axis=0))[0])
        a, b = pairs[int(np.flatnonzero(~found[:, i])[0])]
        tri = tuple(triangles[i].tolist())
        raise MissingFace(f"triangle {tri} needs missing edge {(tri[a], tri[b])}")
    return order[pos]


def _rows(a: np.ndarray) -> tuple:
    """The rows of an (n, d) array as a tuple of int tuples."""
    return tuple(zip(*a.T.tolist()))


def build_complex(
    vertex_count: int,
    edges: Iterable[Iterable[int]],
    triangles: Iterable[Iterable[int]] = (),
) -> SimplicialComplex:
    """Normalize, deduplicate, and validate an order-2 complex.

    Vertex tuples are sorted ascending (the reference orientation), duplicates
    are merged, and both lists come out lexicographically ordered.

    The build runs on (n, 2) and (n, 3) int64 arrays, one array pass per
    list: each row is sorted; every vertex must be an integer (bools, floats
    and strings raise DataError), every simplex must have distinct vertices
    (DataError) inside [0, vertex_count) (IndexOutOfRange). Edges are merged
    on their keys u * vertex_count + v, triangles on sorted rows, and every
    triangle must have all three of its edges present (raises MissingFace
    otherwise). The keys bound vertex_count by `MAX_VERTEX_COUNT` (about
    3.04e9), the largest count whose keys fit int64; a larger count raises
    DataError. The tuple fields of the complex are made once, at the end.
    """
    n0 = _vertex_count(vertex_count)
    keys, es = _unique_edges(_simplex_array(edges, n0, 2), n0)
    # rows, not keys u * N0^2 + v * N0 + w: those overflow int64 above about
    # 2.1 million vertices
    ts = _unique_rows(_simplex_array(triangles, n0, 3))
    _face_rows(keys, ts, n0)
    return SimplicialComplex(n0, _rows(es), _rows(ts))


def infer_triangles(vertex_count: int, edges: Iterable[Iterable[int]]) -> list[Triangle]:
    """Return every 3-clique of the edge list as a triangle, lexicographically.

    The edges are validated as in `build_complex` and merged on their keys;
    the cliques come from a key join on the sorted edge array (for each edge
    (u, v), v's larger neighbours w with (u, w) an edge), with no Python loop
    per edge.
    """
    n0 = _vertex_count(vertex_count)
    _, es = _unique_edges(_simplex_array(edges, n0, 2), n0)
    return list(_rows(_clique_triangles(n0, es)))


@dataclass(frozen=True, eq=False)
class SignedIncidence:
    """Signed incidence matrix held as one read-only CSR matrix of +-1 floats."""

    csr: sp.csr_matrix

    @property
    def rows(self) -> int:
        return self.csr.shape[0]

    @property
    def cols(self) -> int:
        return self.csr.shape[1]

    def to_dense(self) -> np.ndarray:
        """Dense integer copy, O(rows * cols): an oracle for tests."""
        return self.csr.toarray().astype(np.int64)

    def to_csr(self) -> sp.csr_matrix:
        """The shared read-only CSR matrix itself."""
        return self.csr


@memo
def incidence_matrix(obj: SimplicialComplex | OrientedComplex, k: int) -> SignedIncidence:
    """Signed incidence matrix B_k for k in {1, 2}, assembled from index arrays.

    B1 column for edge (u, v): -1 at u, +1 at v. B2 column for triangle
    (u, v, w): +1 at edge (u, v), -1 at (u, w), +1 at (v, w). Under these
    conventions B1 @ B2 is exactly zero in integer arithmetic. An oriented
    complex scales them to B1 D1 and D1 B2 D2.
    """
    sc = obj.base if isinstance(obj, OrientedComplex) else obj
    edges = np.asarray(sc.edges, dtype=np.int64).reshape(-1, 2)
    n1 = len(edges)
    if k == 1:
        rows = edges.T.ravel()
        cols = np.tile(np.arange(n1), 2)
        data = np.repeat([-1.0, 1.0], n1)
        shape = (sc.vertex_count, n1)
    elif k == 2:
        tris = np.asarray(sc.triangles, dtype=np.int64).reshape(-1, 3)
        n0, n2 = sc.vertex_count, len(tris)
        rows = _face_rows(edges[:, 0] * n0 + edges[:, 1], tris, n0).ravel()
        cols = np.tile(np.arange(n2), 3)
        data = np.repeat([1.0, -1.0, 1.0], n2)
        shape = (n1, n2)
    else:
        raise UnsupportedOrder(f"incidence matrix defined for k in {{1, 2}}, got {k}")
    if isinstance(obj, OrientedComplex):
        data *= np.asarray(obj.edge_signs, dtype=np.float64)[cols if k == 1 else rows]
        if k == 2:
            data *= np.asarray(obj.triangle_signs, dtype=np.float64)[cols]
    return SignedIncidence(read_only(sp.csr_matrix((data, (rows, cols)), shape=shape)))


@memo
def _hodge_parts(
    obj: SimplicialComplex | OrientedComplex, k: int
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Read-only sparse (lower, upper) Hodge Laplacians of order k in {0, 1, 2}.

    Lower is B_k^T B_k and upper B_{k+1} B_{k+1}^T; the lower part is zero
    for k=0 and the upper part for k=2.
    """
    if k not in (0, 1, 2):
        raise UnsupportedOrder(f"Hodge Laplacian defined for k in {{0, 1, 2}}, got {k}")
    b1 = boundary_csr(obj, 1)
    b2 = boundary_csr(obj, 2)
    if k == 0:
        parts = (sp.csr_matrix((b1.shape[0],) * 2), b1 @ b1.T)
    elif k == 1:
        parts = (b1.T @ b1, b2 @ b2.T)
    else:
        parts = (b2.T @ b2, sp.csr_matrix((b2.shape[1],) * 2))
    return tuple(read_only(sp.csr_matrix(part)) for part in parts)


@memo
def _adjacency(sc: SimplicialComplex, k: int, upper: bool) -> tuple[frozenset, ...]:
    # off-diagonal pattern of the Laplacian part; no entry cancels, because two
    # distinct simplices share at most one face and at most one coface
    part = _hodge_parts(sc, k)[int(upper)]
    ptr, idx = part.indptr, part.indices
    return tuple(
        frozenset(idx[ptr[i] : ptr[i + 1]].tolist()) - {i} for i in range(part.shape[0])
    )


def _check_simplex_index(sc: SimplicialComplex, k: int, i: int) -> None:
    if k not in (0, 1, 2):
        raise UnsupportedOrder(f"order {k} not supported")
    if not 0 <= i < sc.simplex_count(k):
        raise IndexOutOfRange(
            f"simplex index {i} outside [0, {sc.simplex_count(k)}) for order {k}"
        )


def lower_neighborhood(sc: SimplicialComplex, k: int, i: int) -> frozenset[int]:
    """Indices of k-simplices sharing a (k-1)-face with simplex i (i excluded)."""
    _check_simplex_index(sc, k, i)
    return _adjacency(sc, k, upper=False)[i]


def upper_neighborhood(sc: SimplicialComplex, k: int, i: int) -> frozenset[int]:
    """Indices of k-simplices that share a (k+1)-coface with simplex i."""
    _check_simplex_index(sc, k, i)
    return _adjacency(sc, k, upper=True)[i]


def _check_perm(perm: tuple[int, ...], n: int, label: str) -> None:
    if len(perm) != n or not np.array_equal(np.sort(np.asarray(perm)), np.arange(n)):
        raise DimensionMismatch(f"{label} is not a bijection on [0, {n})")


@dataclass(frozen=True)
class PermutationPlan:
    """Relabeling of nodes/edges/triangles.

    Gather convention: ``edge_perm[new] = old``, i.e. the simplex placed at
    new index ``i`` is the one that previously sat at ``edge_perm[i]``. The
    associated permutation matrix P_k has (P_k)[new, old] = 1.
    """

    node_perm: tuple[int, ...]
    edge_perm: tuple[int, ...]
    triangle_perm: tuple[int, ...]

    @classmethod
    def identity(cls, sc: SimplicialComplex) -> "PermutationPlan":
        return cls(
            tuple(range(sc.vertex_count)),
            tuple(range(sc.n_edges)),
            tuple(range(sc.n_triangles)),
        )

    @classmethod
    def random(cls, sc: SimplicialComplex, rng: np.random.Generator) -> "PermutationPlan":
        return cls(
            tuple(int(x) for x in rng.permutation(sc.vertex_count)),
            tuple(int(x) for x in rng.permutation(sc.n_edges)),
            tuple(int(x) for x in rng.permutation(sc.n_triangles)),
        )

    def validate(self, sc: SimplicialComplex) -> None:
        _check_perm(self.node_perm, sc.vertex_count, "node_perm")
        _check_perm(self.edge_perm, sc.n_edges, "edge_perm")
        _check_perm(self.triangle_perm, sc.n_triangles, "triangle_perm")


@dataclass(frozen=True)
class OrientationPlan:
    """Per-simplex orientation flips; node signs are implicitly all +1."""

    edge_signs: tuple[int, ...]
    triangle_signs: tuple[int, ...]

    @classmethod
    def identity(cls, sc: SimplicialComplex) -> "OrientationPlan":
        return cls((1,) * sc.n_edges, (1,) * sc.n_triangles)

    @classmethod
    def random(cls, sc: SimplicialComplex, rng: np.random.Generator) -> "OrientationPlan":
        return cls(
            tuple(int(s) for s in rng.choice((-1, 1), size=sc.n_edges)),
            tuple(int(s) for s in rng.choice((-1, 1), size=sc.n_triangles)),
        )

    def validate(self, sc: SimplicialComplex) -> None:
        if len(self.edge_signs) != sc.n_edges or len(self.triangle_signs) != sc.n_triangles:
            raise DimensionMismatch("orientation plan does not match the complex")
        if any(s not in (-1, 1) for s in self.edge_signs + self.triangle_signs):
            raise DataError("orientation signs must be +1 or -1")


def _relabel(sc: SimplicialComplex, plan: PermutationPlan) -> tuple[np.ndarray, np.ndarray]:
    """Check the plan, then gather the edges and triangles in its order as
    (n1, 2) and (n2, 3) int64 arrays of new vertex ids, each row's vertices
    in the old simplex's order: the one relabeling behind `permute` and
    `permutation_signs`."""
    plan.validate(sc)
    new_id = np.empty(sc.vertex_count, dtype=np.int64)
    new_id[np.asarray(plan.node_perm, dtype=np.int64)] = np.arange(sc.vertex_count)
    edges = np.asarray(sc.edges, dtype=np.int64).reshape(-1, 2)
    tris = np.asarray(sc.triangles, dtype=np.int64).reshape(-1, 3)
    return (
        new_id[edges[np.asarray(plan.edge_perm, dtype=np.int64)]],
        new_id[tris[np.asarray(plan.triangle_perm, dtype=np.int64)]],
    )


def permute(sc: SimplicialComplex, plan: PermutationPlan) -> SimplicialComplex:
    """Relabel simplex indices according to the plan.

    Relabeled simplices are renormalized to ascending vertex order, so a node
    relabeling that reverses the order inside a simplex flips its reference
    orientation; `permutation_signs` reports exactly those flips.
    """
    edges, tris = _relabel(sc, plan)
    return SimplicialComplex(
        sc.vertex_count, _rows(np.sort(edges, axis=1)), _rows(np.sort(tris, axis=1))
    )


def permutation_signs(sc: SimplicialComplex, plan: PermutationPlan) -> OrientationPlan:
    """Orientation flips induced by renormalizing a permuted complex.

    An edge flips when its relabeled vertices come out descending, and a
    triangle when sorting its three relabeled vertices is an odd permutation:
    an odd number of its vertex pairs (u, v), (u, w), (v, w) descend.

    With D_k built from these signs (indexed like the permuted complex), the
    permuted incidence matrices satisfy B1' = P0 B1 P1^T D1 and
    B2' = D1 P1 B2 P2^T D2 exactly.
    """
    edges, tris = _relabel(sc, plan)
    inversions = sum(tris[:, a] > tris[:, b] for a, b in combinations(range(3), 2))
    return OrientationPlan(
        tuple(np.where(edges[:, 0] < edges[:, 1], 1, -1).tolist()),
        tuple(np.where(inversions % 2 == 0, 1, -1).tolist()),
    )


@dataclass(frozen=True)
class OrientedComplex:
    """A complex whose edges/triangles carry non-reference orientations.

    Incidence matrices are the reference ones with rows/columns sign-flipped:
    B1' = B1 D1 and B2' = D1 B2 D2 (node orientations are fixed at +1).
    """

    base: SimplicialComplex
    edge_signs: tuple[int, ...]
    triangle_signs: tuple[int, ...]

    def __reduce__(self):  # the fields, without `memo` entries
        return type(self), (self.base, self.edge_signs, self.triangle_signs)


def reorient(sc: SimplicialComplex, plan: OrientationPlan) -> OrientedComplex:
    plan.validate(sc)
    return OrientedComplex(sc, plan.edge_signs, plan.triangle_signs)


def boundary_dense(obj: SimplicialComplex | OrientedComplex, k: int) -> np.ndarray:
    """Dense integer incidence matrix of a plain or oriented complex: an
    O(N_{k-1} N_k) oracle; the package works on the sparse `incidence_matrix`."""
    return incidence_matrix(obj, k).to_dense()


def boundary_csr(obj: SimplicialComplex | OrientedComplex, k: int) -> sp.csr_matrix:
    """The shared read-only CSR incidence matrix of a plain or oriented complex."""
    return incidence_matrix(obj, k).to_csr()
