"""Order-2 simplicial complexes.

Construction and validation, signed incidence matrices, adjacency queries,
and index/orientation transforms. The reference orientation is lexicographic:
every stored simplex is an ascending vertex tuple, and incidence signs are
derived from that ordering alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from ._kernels import read_only
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

    # hashed once: every lru_cache lookup keyed on a complex pays for its hash
    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.vertex_count, self.edges, self.triangles))

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

    @property
    def edge_index(self) -> Mapping[Edge, int]:
        return _edge_index(self)


@lru_cache(maxsize=256)
def _edge_index(sc: SimplicialComplex) -> Mapping[Edge, int]:
    return MappingProxyType({e: i for i, e in enumerate(sc.edges)})


def _vertex(value) -> int:
    """A vertex id or count; int() would silently truncate a float or a bool."""
    if type(value) is int or isinstance(value, np.integer):  # type(True) is bool
        return int(value)
    raise DataError(f"vertex ids and counts must be integers, got {value!r}")


def _normalize_simplex(raw, vertex_count: int, size: int) -> tuple[int, ...]:
    t = tuple(sorted(map(_vertex, raw)))
    if len(t) != size:
        raise DataError(f"expected a {size}-vertex simplex, got {raw!r}")
    if len(set(t)) != size:
        raise DataError(f"degenerate simplex with repeated vertex: {raw!r}")
    if t[0] < 0 or t[-1] >= vertex_count:
        raise IndexOutOfRange(
            f"simplex {raw!r} references a vertex outside [0, {vertex_count})"
        )
    return t


def build_complex(
    vertex_count: int,
    edges: Iterable[Iterable[int]],
    triangles: Iterable[Iterable[int]] = (),
) -> SimplicialComplex:
    """Normalize, deduplicate, and validate an order-2 complex.

    Vertex tuples are sorted ascending (the reference orientation), duplicates
    are merged, and both lists come out lexicographically ordered. Every
    triangle must have all three of its edges present (raises MissingFace
    otherwise).
    """
    vertex_count = _vertex(vertex_count)
    if vertex_count <= 0:
        raise DataError("vertex_count must be positive")
    es = sorted({_normalize_simplex(e, vertex_count, 2) for e in edges})
    ts = sorted({_normalize_simplex(t, vertex_count, 3) for t in triangles})
    edge_set = set(es)
    for (u, v, w) in ts:
        for face in ((u, v), (u, w), (v, w)):
            if face not in edge_set:
                raise MissingFace(f"triangle {(u, v, w)} needs missing edge {face}")
    return SimplicialComplex(vertex_count, tuple(es), tuple(ts))


def infer_triangles(vertex_count: int, edges: Iterable[Iterable[int]]) -> list[Triangle]:
    """Return every 3-clique of the edge list as a triangle, lexicographically."""
    es = sorted({_normalize_simplex(e, _vertex(vertex_count), 2) for e in edges})
    adjacency: dict[int, set[int]] = {}
    for u, v in es:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    out: list[Triangle] = []
    for u, v in es:
        for w in sorted(adjacency[u] & adjacency[v]):
            if w > v:
                out.append((u, v, w))
    return sorted(out)


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


@lru_cache(maxsize=256)
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
        keys = edges[:, 0] * n0 + edges[:, 1]
        faces = np.concatenate(
            [tris[:, a] * n0 + tris[:, b] for a, b in ((0, 1), (0, 2), (1, 2))]
        )
        # permute() leaves the edge list unsorted, so search in key order
        order = np.argsort(keys)
        pos = np.searchsorted(keys[order], faces)
        if faces.size and (n1 == 0 or not np.array_equal(keys[order[pos % n1]], faces)):
            raise MissingFace("a triangle of the complex has a missing edge")
        rows = order[pos]
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


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=256)
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
    if len(perm) != n or sorted(perm) != list(range(n)):
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


def permute(sc: SimplicialComplex, plan: PermutationPlan) -> SimplicialComplex:
    """Relabel simplex indices according to the plan.

    Relabeled simplices are renormalized to ascending vertex order, so a node
    relabeling that reverses the order inside a simplex flips its reference
    orientation; `permutation_signs` reports exactly those flips.
    """
    plan.validate(sc)
    inverse_node = [0] * sc.vertex_count
    for new, old in enumerate(plan.node_perm):
        inverse_node[old] = new
    new_edges = []
    for old_e in plan.edge_perm:
        u, v = sc.edges[old_e]
        new_edges.append(tuple(sorted((inverse_node[u], inverse_node[v]))))
    new_triangles = []
    for old_t in plan.triangle_perm:
        u, v, w = sc.triangles[old_t]
        new_triangles.append(
            tuple(sorted((inverse_node[u], inverse_node[v], inverse_node[w])))
        )
    return SimplicialComplex(sc.vertex_count, tuple(new_edges), tuple(new_triangles))


def permutation_signs(sc: SimplicialComplex, plan: PermutationPlan) -> OrientationPlan:
    """Orientation flips induced by renormalizing a permuted complex.

    With D_k built from these signs (indexed like the permuted complex), the
    permuted incidence matrices satisfy B1' = P0 B1 P1^T D1 and
    B2' = D1 P1 B2 P2^T D2 exactly.
    """
    plan.validate(sc)
    inverse_node = [0] * sc.vertex_count
    for new, old in enumerate(plan.node_perm):
        inverse_node[old] = new
    edge_signs = []
    for old_e in plan.edge_perm:
        u, v = sc.edges[old_e]
        edge_signs.append(1 if inverse_node[u] < inverse_node[v] else -1)
    triangle_signs = []
    for old_t in plan.triangle_perm:
        mapped = [inverse_node[x] for x in sc.triangles[old_t]]
        # parity of the 3-element sort = orientation sign of the relabeling
        inversions = sum(
            1 for a, b in combinations(range(3), 2) if mapped[a] > mapped[b]
        )
        triangle_signs.append(1 if inversions % 2 == 0 else -1)
    return OrientationPlan(tuple(edge_signs), tuple(triangle_signs))


@dataclass(frozen=True)
class OrientedComplex:
    """A complex whose edges/triangles carry non-reference orientations.

    Incidence matrices are the reference ones with rows/columns sign-flipped:
    B1' = B1 D1 and B2' = D1 B2 D2 (node orientations are fixed at +1).
    """

    base: SimplicialComplex
    edge_signs: tuple[int, ...]
    triangle_signs: tuple[int, ...]


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
