import json
import sys
import tracemalloc

import numpy as np
import pytest

import simplicial_filters as sf
from simplicial_filters import (
    DataError,
    IndexOutOfRange,
    MissingFace,
    UnsupportedOrder,
    build_complex,
    incidence_matrix,
    infer_triangles,
    lower_neighborhood,
    upper_neighborhood,
)
from simplicial_filters.complexes import (
    OrientationPlan,
    PermutationPlan,
    boundary_dense,
    permutation_signs,
)
from simplicial_filters.cli import main

from conftest import degenerate_complexes, dense_b1, dense_b2, random_complex


def test_build_normalizes_and_sorts():
    sc = build_complex(4, [(2, 1), (0, 1), (1, 2), (3, 2), (1, 3)], [(3, 1, 2)])
    assert sc.edges == ((0, 1), (1, 2), (1, 3), (2, 3))
    assert sc.triangles == ((1, 2, 3),)
    assert sc.n_edges == 4 and sc.n_triangles == 1
    assert [sc.simplex_count(k) for k in (0, 1, 2)] == [4, 4, 1]


def test_build_rejects_bad_input():
    with pytest.raises(MissingFace):
        build_complex(4, [(0, 1), (1, 2)], [(0, 1, 2)])
    with pytest.raises(IndexOutOfRange):
        build_complex(3, [(0, 5)])
    with pytest.raises(DataError):
        build_complex(3, [(1, 1)])
    with pytest.raises(DataError):
        build_complex(0, [])


@pytest.mark.parametrize("count, edges", [
    (4, [(0, 1.7), (1, 2)]),
    (4.9, [(0, 1)]),
    (4, [(True, 2)]),
    (True, []),
    (4, [("1", 2)]),
], ids=["float-vertex", "float-count", "bool-vertex", "bool-count", "text-vertex"])
def test_build_rejects_non_integral_vertices(tmp_path, count, edges):
    # int() used to truncate these: (0, 1.7) became edge (0, 1), a count of 4.9
    # became 4 and true became 1, and `scfilter info` exited 0 on such a file
    with pytest.raises(DataError):
        build_complex(count, edges)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"vertex_count": count, "edges": edges}))
    assert main(["info", "--sc", str(path)]) == 2


def test_build_accepts_numpy_integers():
    got = build_complex(np.int64(4), [(np.int32(2), np.int64(1)), np.array([0, 1]), (0, 2)],
                        [np.arange(3)])
    assert got == build_complex(4, [(1, 2), (0, 1), (0, 2)], [(0, 1, 2)])
    assert all(type(v) is int for e in got.edges for v in e)


def test_edge_index_lookup(toy):
    for i, e in enumerate(toy.edges):
        assert toy.edge_index[e] == i
    assert (0, 1) in toy.edge_index


def test_infer_triangles_matches_bruteforce(rng):
    for _ in range(20):
        sc = random_complex(rng, clique_fill=False)
        edge_set = set(sc.edges)
        expect = sorted(
            (u, v, w)
            for u in range(sc.vertex_count)
            for v in range(u + 1, sc.vertex_count)
            for w in range(v + 1, sc.vertex_count)
            if {(u, v), (u, w), (v, w)} <= edge_set
        )
        assert infer_triangles(sc.vertex_count, sc.edges) == expect


def test_incidence_signs(toy):
    b1 = incidence_matrix(toy, 1).to_dense()
    np.testing.assert_array_equal(b1, dense_b1(toy))
    b2 = incidence_matrix(toy, 2).to_dense()
    np.testing.assert_array_equal(b2, dense_b2(toy))
    # triangle (0,1,2) touches edges (0,1),(0,2),(1,2) with signs +,-,+
    col = b2[:, 0]
    assert col[toy.edge_index[(0, 1)]] == 1
    assert col[toy.edge_index[(0, 2)]] == -1
    assert col[toy.edge_index[(1, 2)]] == 1
    # empty index arrays must still give incidences of the right shape
    for sc in degenerate_complexes():
        np.testing.assert_array_equal(incidence_matrix(sc, 1).to_dense(), dense_b1(sc))
        np.testing.assert_array_equal(incidence_matrix(sc, 2).to_dense(), dense_b2(sc))


def test_boundary_of_boundary_zero(rng):
    for _ in range(20):
        sc = random_complex(rng)
        b1 = incidence_matrix(sc, 1).to_dense()
        b2 = incidence_matrix(sc, 2).to_dense()
        assert not (b1 @ b2).any()


def test_incidence_order_guard(toy):
    with pytest.raises(UnsupportedOrder):
        incidence_matrix(toy, 3)
    with pytest.raises(UnsupportedOrder):
        incidence_matrix(toy, 0)


def test_csr_matches_dense(toy):
    m = incidence_matrix(toy, 1)
    assert np.array_equal(m.to_csr().toarray(), m.to_dense())


def _cold_peak_bytes(fn) -> int:
    """Peak traced allocation of fn() with every package cache emptied first."""
    for name, module in list(sys.modules.items()):
        if name.startswith("simplicial_filters"):
            for obj in list(vars(module).values()):
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_assembly_allocates_no_dense_matrix():
    # the sparse paths must never build an N1 x N1 (or N0 x N1) dense matrix
    sc = sf.generate_road_complex(1100, 2176, 11)
    osc = sf.reorient(sc, OrientationPlan.random(sc, np.random.default_rng(0)))
    flow = np.ones(sc.n_edges)
    cases = {}
    for label, obj in (("plain", sc), ("reoriented", osc)):
        cases[f"incidences {label}"] = lambda obj=obj: [
            (incidence_matrix(obj, k), sf.boundary_csr(obj, k)) for k in (1, 2)
        ]
        cases[f"shift operators {label}"] = lambda obj=obj: sf.shift_operators(obj)
    cases["divergence and curl"] = lambda: (sf.divergence(sc, flow), sf.curl(sc, flow))
    for k in (0, 1, 2):
        cases[f"neighborhoods k={k}"] = lambda k=k: [
            f(sc, k, 0) for f in (lower_neighborhood, upper_neighborhood)
        ]
    cases["normalized operators"] = lambda: sf.spectral._normalized_operators(sc)
    # decomposition and Chebyshev ranking used to eigendecompose dense Laplacians
    cases["hodge_decompose"] = lambda: sf.hodge_decompose(sc, flow)
    cases["cheb edge_pagerank"] = lambda: sf.edge_pagerank(sc, 0.05, 7, "cheb", order=20)
    one_dense = 8 * sc.n_edges ** 2
    peaks = {name: _cold_peak_bytes(fn) / one_dense for name, fn in cases.items()}
    assert all(peak < 1 / 8 for peak in peaks.values()), peaks


def test_neighborhoods_against_bruteforce(rng):
    randoms = [random_complex(rng, max_nodes=12) for _ in range(10)]
    for sc in randoms + degenerate_complexes():
        eidx = sc.edge_index
        for i, (u, v) in enumerate(sc.edges):
            low = {
                eidx[e] for e in sc.edges
                if e != (u, v) and len({u, v} & set(e)) == 1
            }
            assert lower_neighborhood(sc, 1, i) == low
            up = set()
            for t in sc.triangles:
                if u in t and v in t:
                    for a in range(3):
                        for b in range(a + 1, 3):
                            e = (t[a], t[b])
                            if e != (u, v):
                                up.add(eidx[e])
            assert upper_neighborhood(sc, 1, i) == up
        for i in range(sc.vertex_count):
            assert lower_neighborhood(sc, 0, i) == set()
            assert upper_neighborhood(sc, 0, i) == {
                x for e in sc.edges if i in e for x in e if x != i
            }
        for i, t in enumerate(sc.triangles):
            assert lower_neighborhood(sc, 2, i) == {
                j for j, s in enumerate(sc.triangles)
                if j != i and len(set(t) & set(s)) == 2
            }
            assert upper_neighborhood(sc, 2, i) == set()


def test_neighborhood_toy_values(toy):
    eidx = toy.edge_index
    i = eidx[(4, 5)]
    assert lower_neighborhood(toy, 1, i) == {
        eidx[e] for e in [(3, 4), (2, 5), (4, 6), (5, 6)]
    }
    assert upper_neighborhood(toy, 1, i) == {eidx[(4, 6)], eidx[(5, 6)]}
    with pytest.raises(IndexOutOfRange):
        lower_neighborhood(toy, 1, toy.n_edges)


def test_node_and_triangle_neighborhoods(toy):
    assert upper_neighborhood(toy, 0, 0) == {1, 2}
    # triangle (0,1,2) shares edge (1,2) with (1,2,3)
    assert lower_neighborhood(toy, 2, 0) == {1}


def test_permute_roundtrip(rng):
    sc = random_complex(rng)
    plan = PermutationPlan.identity(sc)
    assert sf.permute(sc, plan) == sc
    plan = PermutationPlan.random(sc, rng)
    sc_p = sf.permute(sc, plan)
    assert (sc_p.n_edges, sc_p.n_triangles) == (sc.n_edges, sc.n_triangles)
    # new slot i holds the relabeled edge that sat at edge_perm[i]
    back = {old: new for new, old in enumerate(plan.node_perm)}
    expect = [
        tuple(sorted((back[u], back[v])))
        for u, v in (sc.edges[j] for j in plan.edge_perm)
    ]
    assert list(sc_p.edges) == expect


def test_permutation_composition_identity(rng):
    for _ in range(10):
        sc = random_complex(rng, max_nodes=12)
        plan = PermutationPlan.random(sc, rng)
        signs = permutation_signs(sc, plan)
        sc_p = sf.permute(sc, plan)
        b1 = incidence_matrix(sc, 1).to_dense()
        b2 = incidence_matrix(sc, 2).to_dense()
        n0, n1, n2 = sc.vertex_count, sc.n_edges, sc.n_triangles
        p0 = np.zeros((n0, n0), dtype=np.int64)
        p0[np.arange(n0), np.asarray(plan.node_perm, dtype=np.int64)] = 1
        p1 = np.zeros((n1, n1), dtype=np.int64)
        p1[np.arange(n1), np.asarray(plan.edge_perm, dtype=np.int64)] = 1
        p2 = np.zeros((n2, n2), dtype=np.int64)
        p2[np.arange(n2), np.asarray(plan.triangle_perm, dtype=np.int64)] = 1
        d1 = np.diag(np.asarray(signs.edge_signs, dtype=np.int64))
        d2 = np.diag(np.asarray(signs.triangle_signs, dtype=np.int64)).reshape(n2, n2)
        np.testing.assert_array_equal(
            incidence_matrix(sc_p, 1).to_dense(), p0 @ b1 @ p1.T @ d1
        )
        np.testing.assert_array_equal(
            incidence_matrix(sc_p, 2).to_dense(), d1 @ p1 @ b2 @ p2.T @ d2
        )


def test_reorient_scales_columns(toy, rng):
    plan = OrientationPlan.random(toy, rng)
    osc = sf.reorient(toy, plan)
    d1 = np.diag(np.asarray(plan.edge_signs))
    d2 = np.diag(np.asarray(plan.triangle_signs))
    b1 = incidence_matrix(toy, 1).to_dense()
    b2 = incidence_matrix(toy, 2).to_dense()
    np.testing.assert_array_equal(boundary_dense(osc, 1), b1 @ d1)
    np.testing.assert_array_equal(boundary_dense(osc, 2), d1 @ b2 @ d2)
    # reorientation never breaks the chain identity
    assert not (boundary_dense(osc, 1) @ boundary_dense(osc, 2)).any()


def test_plan_validation(toy):
    with pytest.raises(DataError):
        PermutationPlan((0, 1), tuple(range(toy.n_edges)),
                        tuple(range(toy.n_triangles))).validate(toy)
    with pytest.raises(DataError):
        OrientationPlan((1,) * toy.n_edges, (2,) * toy.n_triangles).validate(toy)


def test_complex_is_hashable(toy):
    assert hash(toy) == hash(sf.toy_complex())
    assert toy == sf.toy_complex()


def test_equal_complexes_hash_once_and_share_cache_entries():
    # the hash is stored per instance, so cache lookups stop rehashing the
    # simplex tuples; it must still agree between equal complexes
    a = sf.generate_road_complex(60, 130, 11)
    b = build_complex(a.vertex_count, a.edges, a.triangles)
    assert a is not b and a == b and hash(a) == hash(b)
    before = sf.shift_operators.cache_info().currsize
    assert sf.shift_operators(a) is sf.shift_operators(b)
    assert sf.shift_operators.cache_info().currsize == before + 1
    c = build_complex(a.vertex_count, a.edges[:-1])
    assert c != a and sf.shift_operators(c) is not sf.shift_operators(a)
