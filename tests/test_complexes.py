import copy
import gc
import hashlib
import json
import pickle
import tracemalloc
import weakref
from itertools import combinations

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

from conftest import (
    complete_complex,
    degenerate_complexes,
    dense_b1,
    dense_b2,
    random_complex,
)


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


def _cold_peak_bytes(fn, obj) -> int:
    """Peak traced allocation of fn(fresh), ``fresh`` a copy of the complex
    obj made beforehand: nothing is derived from it yet, so fn runs cold."""
    fresh = copy.copy(obj)
    tracemalloc.start()
    try:
        fn(fresh)
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
        cases[f"incidences {label}"] = obj, lambda obj: [
            (incidence_matrix(obj, k), sf.boundary_csr(obj, k)) for k in (1, 2)
        ]
        cases[f"shift operators {label}"] = obj, sf.shift_operators
    cases["divergence and curl"] = sc, lambda sc: (sf.divergence(sc, flow), sf.curl(sc, flow))
    for k in (0, 1, 2):
        cases[f"neighborhoods k={k}"] = sc, lambda sc, k=k: [
            f(sc, k, 0) for f in (lower_neighborhood, upper_neighborhood)
        ]
    cases["normalized operators"] = sc, sf.spectral._normalized_operators
    # decomposition and Chebyshev ranking used to eigendecompose dense Laplacians
    cases["hodge_decompose"] = sc, lambda sc: sf.hodge_decompose(sc, flow)
    cases["cheb edge_pagerank"] = sc, lambda sc: sf.edge_pagerank(sc, 0.05, 7, "cheb", order=20)
    one_dense = 8 * sc.n_edges ** 2
    peaks = {name: _cold_peak_bytes(fn, obj) / one_dense for name, (obj, fn) in cases.items()}
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


def _loop_relabel(sc, plan):
    """permute and permutation_signs written per simplex, as oracles."""
    plan.validate(sc)
    inverse_node = [0] * sc.vertex_count
    for new, old in enumerate(plan.node_perm):
        inverse_node[old] = new
    edges, edge_signs = [], []
    for old_e in plan.edge_perm:
        u, v = sc.edges[old_e]
        edges.append(tuple(sorted((inverse_node[u], inverse_node[v]))))
        edge_signs.append(1 if inverse_node[u] < inverse_node[v] else -1)
    triangles, triangle_signs = [], []
    for old_t in plan.triangle_perm:
        mapped = [inverse_node[x] for x in sc.triangles[old_t]]
        triangles.append(tuple(sorted(mapped)))
        # parity of the 3-element sort = orientation sign of the relabeling
        inversions = sum(1 for a, b in combinations(range(3), 2) if mapped[a] > mapped[b])
        triangle_signs.append(1 if inversions % 2 == 0 else -1)
    return (
        sf.SimplicialComplex(sc.vertex_count, tuple(edges), tuple(triangles)),
        OrientationPlan(tuple(edge_signs), tuple(triangle_signs)),
    )


def test_permute_and_signs_match_loop_oracle(rng):
    road = sf.generate_road_complex(1100, 2176, 11)
    for sc in degenerate_complexes() + [road, complete_complex(12)]:
        for _ in range(3):
            plan = PermutationPlan.random(sc, rng)
            expect, expect_signs = _loop_relabel(sc, plan)
            got, signs = sf.permute(sc, plan), permutation_signs(sc, plan)
            assert _fields(got) == _fields(expect) and signs == expect_signs
            assert all(type(v) is int for s in got.edges + got.triangles for v in s)
            assert all(type(x) is int for x in signs.edge_signs + signs.triangle_signs)


def test_incidence_names_the_missing_face():
    # a complex built around build_complex's check used to fail without
    # naming the triangle or its edge
    sc = sf.SimplicialComplex(3, ((0, 1), (1, 2)), ((0, 1, 2),))
    with pytest.raises(MissingFace, match=r"triangle \(0, 1, 2\) needs missing edge \(0, 2\)"):
        incidence_matrix(sc, 2)
    with pytest.raises(MissingFace, match=r"needs missing edge \(0, 2\)"):
        build_complex(3, sc.edges, sc.triangles)


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


def test_derived_data_is_kept_per_complex_object():
    # derived data lives on the object it comes from, not in a cache keyed by
    # value: a complex, plain or oriented, derives its operators once, and an
    # equal complex built apart derives its own, bitwise the same
    a = sf.generate_road_complex(60, 130, 11)
    b = build_complex(a.vertex_count, a.edges, a.triangles)
    assert a is not b and a == b and hash(a) == hash(b)
    oa = sf.reorient(a, OrientationPlan.random(a, np.random.default_rng(0)))
    for obj in (a, oa):
        assert sf.shift_operators(obj) is sf.shift_operators(obj)
    assert sf.shift_operators(b) is not sf.shift_operators(a)
    flow = np.linspace(-1.0, 1.0, a.n_edges)
    for op_a, op_b in zip(sf.shift_operators(a), sf.shift_operators(b)):
        assert (op_a @ flow).tobytes() == (op_b @ flow).tobytes()
    c = build_complex(a.vertex_count, a.edges[:-1])
    assert c != a and sf.shift_operators(c) is not sf.shift_operators(a)


def test_derived_data_is_freed_with_its_complex(monkeypatch):
    # dropping a complex frees what was derived from it and from its
    # operators; package-wide caches keyed by value used to keep all of it
    steps = []
    build_step = sf.design._step_matrix.__wrapped__

    def spy(small, omega):
        step = build_step(small, omega)
        steps.append(weakref.ref(step))
        return step

    monkeypatch.setattr(sf.design._step_matrix, "__wrapped__", spy)
    sc = sf.generate_road_complex(546, 1088, 11)
    osc = sf.reorient(sc, OrientationPlan.random(sc, np.random.default_rng(0)))
    flow = np.random.default_rng(1).standard_normal(sc.n_edges)
    for obj in (sc, osc):
        sf.apply(obj, sf.FilterCoefficients(1.0, (0.5, 0.25), (0.5, 0.25)), flow)
        assert sf.hodge_spectrum(obj).u_gradient.shape[0] == sc.n_edges
    sf.denoise(sc, flow, 0.5, "hodge_laplacian", "cheb", order=10)
    sf.hodge_decompose(sc, flow)
    sf.edge_pagerank(sc, 0.05, 0, "cheb", order=10)
    ops = sf.shift_operators(sc) + sf.shift_operators(osc) + sf.spectral._normalized_operators(sc)
    refs = steps + [weakref.ref(x) for x in (sc, osc) + ops + tuple(op.small for op in ops)]
    del sc, osc, obj, ops
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []
    # one step matrix per side of the denoising and of the ranking filter
    assert len(steps) == 4


def test_pickle_and_copy_carry_no_derived_data():
    # a pickled or copied complex or operator is what it was built from, without
    # what was derived from it (whose memo keys and mappingproxy would not pickle)
    sc = sf.toy_complex()
    osc = sf.reorient(sc, OrientationPlan.random(sc, np.random.default_rng(0)))
    flow = np.linspace(-1.0, 1.0, sc.n_edges)
    for obj in (sc, osc):
        sf.apply(obj, sf.FilterCoefficients(1.0, (0.5, 0.25), (0.5, 0.25)), flow)
        assert sf.hodge_spectrum(obj).u_gradient.shape[0] == sc.n_edges
        sf.hodge_decompose(obj, flow)
    assert sc.edge_index[sc.edges[0]] == 0
    sf.edge_pagerank(sc, 0.05, 0, "cheb", order=10)
    fields = {"vertex_count", "edges", "triangles"}
    oriented = {"base", "edge_signs", "triangle_signs"}
    for obj, names in ((sc, fields), (osc, oriented)):
        assert "_memo" in vars(obj)
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert twin == obj and twin is not obj and set(vars(twin)) == names
    for op in sf.shift_operators(sc) + sf.spectral._normalized_operators(sc):
        assert {"_memo", "small"} & set(vars(op))
        for twin in (pickle.loads(pickle.dumps(op)), copy.copy(op)):
            assert not {"_memo", "small"} & set(vars(twin))
            assert (twin @ flow).tobytes() == (op @ flow).tobytes()


# sha256 of repr((vertex_count, edges, triangles)) of generate_road_complex,
# recorded before the generator moved from tuple sets to sorted key arrays;
# every seeded complex, and so every benchmark gate, depends on them
ROAD_FINGERPRINTS = {
    (150, 300, 3): "7098d00cbd336c92798b2432207d41e8af517da6d2c137bf980ba36ecf3639a7",
    (150, 300, 5): "59854bc6313030175bbad1e1abe4b36aab0c56a72f9f308c414b753cb0ad7e2b",
    (150, 300, 11): "411e5edc6a0b1adb1caf31499b300042ef02a0a476d2b142fa054fefb430fc85",
    (150, 300, 12): "00d2217ab02e446f23d9b373a2ce595af75dd042030545c44421e32c516282b6",
    (546, 1088, 3): "f7d981def9c4c4775cb047df3bdc5d9a6044b7f0377b296c8ff6f930a34a6e6e",
    (546, 1088, 5): "f2ee1536b57ae2d0826394e68302e1b35b5d8551be3c9930b8b5b11647b0f23d",
    (546, 1088, 11): "3b4bd5acda4bca0c2b8c00d5db8bf2a02ae10bcc417b3869843dec4351f76d64",
    (546, 1088, 12): "08b902e004e7d84d6f3768f39424e49fa98c2588054213cde3f8a5d004579a6d",
    (2176, 4352, 3): "613bb2272c84432a635b0cb6b1a162830f44625b8f255214077bdc9198a469e1",
    (2176, 4352, 5): "b2a302bf2a972ec7e5a30c19b45498a90d74fe9f57d87ebc6de9bfc9c901f9e5",
    (2176, 4352, 11): "b57df8b7997b6d0ac2e39ab0e2fd3c528363e46fc1fbb1348b15f6b6fa4d96db",
    (2176, 4352, 12): "cfadf310f71a8e90ab9338aecb4556583060dbff288132e821276110e8f04423",
}


@pytest.mark.parametrize("nodes, edges, seed", list(ROAD_FINGERPRINTS))
def test_generated_complex_fingerprint(nodes, edges, seed):
    sc = sf.generate_road_complex(nodes, edges, seed)
    text = repr((sc.vertex_count, sc.edges, sc.triangles))
    assert hashlib.sha256(text.encode()).hexdigest() == ROAD_FINGERPRINTS[nodes, edges, seed]
    assert type(sc.vertex_count) is int
    assert all(type(v) is int for s in sc.edges + sc.triangles for v in s)


def _oracle_build(vertex_count, edges, triangles=()):
    """The tuple-set build: sorted distinct ascending tuples, faces checked."""
    es = sorted({tuple(sorted(map(int, e))) for e in edges})
    ts = sorted({tuple(sorted(map(int, t))) for t in triangles})
    for u, v, w in ts:
        assert {(u, v), (u, w), (v, w)} <= set(es)
    return (vertex_count, tuple(es), tuple(ts))


def _oracle_triangles(edges):
    """Every 3-clique, by brute force over pairs of one vertex's neighbours."""
    es = {tuple(sorted(map(int, e))) for e in edges}
    neighbours = {}
    for u, v in es:
        neighbours.setdefault(u, set()).add(v)
    return sorted(
        (u, v, w)
        for u, vs in neighbours.items()
        for v, w in combinations(sorted(vs), 2)
        if (v, w) in es
    )


def _fields(sc):
    return (sc.vertex_count, sc.edges, sc.triangles)


@pytest.mark.parametrize("n, triangles", [(40, 9880), (60, 34220)])
def test_infer_triangles_on_complete_graphs(n, triangles):
    edges = [(v, u) for u in range(n) for v in range(u + 1, n)]
    got = infer_triangles(n, edges)
    assert len(got) == triangles and got == _oracle_triangles(edges)
    assert _fields(build_complex(n, edges, got)) == _oracle_build(n, edges, got)


def test_builders_agree_with_tuple_oracle_on_random_input(rng):
    for _ in range(20):
        sc = random_complex(rng)
        # shuffled rows, flipped orientations and every simplex twice
        edges = [e[::-1] if rng.random() < 0.5 else e for e in sc.edges * 2]
        tris = [tuple(rng.permutation(t).tolist()) for t in sc.triangles * 2]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        assert infer_triangles(sc.vertex_count, edges) == _oracle_triangles(edges)
        got = build_complex(sc.vertex_count, edges, tris)
        assert _fields(got) == _oracle_build(sc.vertex_count, edges, tris)


def test_build_on_ids_beyond_a_cubic_key():
    # u * N0^2 + v * N0 + w would overflow int64 here; the row-wise build must not
    n = 3_000_000
    top = (n - 3, n - 2, n - 1)
    edges = [(n - 1, n - 3), (n - 2, n - 1), (n - 3, n - 2), (0, n - 1)]
    assert infer_triangles(n, edges) == _oracle_triangles(edges) == [top]
    got = build_complex(n, edges, [top[::-1]])
    assert _fields(got) == _oracle_build(n, edges, [top])
    assert incidence_matrix(got, 2).to_dense()[:, 0].tolist() == [0, 1, -1, 1]


def test_build_merges_both_orientations():
    edges = [(0, 1), (1, 0), (2, 1), (1, 2), (0, 2), (2, 0), (0, 1)]
    tris = [(2, 1, 0), (0, 1, 2), (1, 0, 2)]
    got = build_complex(3, edges, tris)
    assert _fields(got) == _oracle_build(3, edges, tris) == (3, ((0, 1), (0, 2), (1, 2)),
                                                               ((0, 1, 2),))
    assert infer_triangles(3, edges) == [(0, 1, 2)]


def test_build_on_empty_lists_and_array_rows():
    assert _fields(build_complex(4, [], [])) == (4, (), ())
    assert _fields(build_complex(4, np.empty((0, 2), dtype=np.int64))) == (4, (), ())
    assert infer_triangles(4, []) == [] and infer_triangles(4, np.empty((0, 2), int)) == []
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    expect = _oracle_build(4, edges, [(0, 1, 2)])
    for rows in (np.array(edges), np.array(edges, dtype=np.uint16), list(np.array(edges)),
                 np.array(edges)[:, ::-1]):
        assert _fields(build_complex(4, rows, np.array([[2, 0, 1]]))) == expect
        assert infer_triangles(4, rows) == [(0, 1, 2)]
    # generators are materialized once
    assert _fields(build_complex(4, (e for e in edges), iter([(0, 1, 2)]))) == expect


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2, 3)],
    [(0, 1), (1,)],
    [(0, 1), 5],
    np.array([[0, 1, 2]]),
    np.array([[0, 1.0]]),
    np.array([[True, False]]),
], ids=["triple", "single", "scalar", "array-triple", "array-float", "array-bool"])
def test_build_rejects_malformed_rows(tmp_path, edges):
    with pytest.raises(DataError):
        build_complex(4, edges)
    with pytest.raises(DataError):
        infer_triangles(4, edges)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"vertex_count": 4, "edges": np.asarray(edges, object).tolist()
                                if isinstance(edges, np.ndarray) else edges}))
    assert main(["info", "--sc", str(path)]) == 2


def test_build_rejects_counts_and_ids_beyond_int64(tmp_path):
    # a count of 2**70 used to reach incidence_matrix and exit 1 with an
    # OverflowError; the edge keys u * N0 + v bound the count
    huge = 2**70
    edges = [[0, 2**69], [0, 1], [1, 2**69]]
    with pytest.raises(DataError, match="overflow int64"):
        build_complex(huge, edges)
    with pytest.raises(DataError, match="overflow int64"):
        build_complex(sf.complexes.MAX_VERTEX_COUNT + 1, [(0, 1)])
    with pytest.raises(IndexOutOfRange):
        build_complex(10, [(0, 2**69)])
    with pytest.raises(IndexOutOfRange):
        build_complex(10, [(-(2**70), 1)])
    for extra in ({}, {"infer_triangles": True}):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"vertex_count": huge, "edges": edges, **extra}))
        assert main(["info", "--sc", str(path)]) == 2
