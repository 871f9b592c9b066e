import tracemalloc
from itertools import chain

import numpy as np
import pytest

import simplicial_filters as sf
from simplicial_filters import DimensionMismatch, hodge_laplacian, hodge_spectrum, spectral
from simplicial_filters.complexes import _hodge_parts
from simplicial_filters.spectral import ZERO_TOL_FACTOR, _projector

from conftest import (
    complete_complex,
    degenerate_complexes,
    dense_b1,
    dense_b2,
    random_complex,
    road_cases,
    road_with_clique,
)


def test_laplacian_assembly(toy):
    for sc in [toy] + degenerate_complexes():
        b1 = dense_b1(sc).astype(float)
        b2 = dense_b2(sc).astype(float)
        n0, n2 = sc.vertex_count, sc.n_triangles
        expect = {
            0: (np.zeros((n0, n0)), b1 @ b1.T),
            1: (b1.T @ b1, b2 @ b2.T),
            2: (b2.T @ b2, np.zeros((n2, n2))),
        }
        for k, (lower, upper) in expect.items():
            L = hodge_laplacian(sc, k)
            np.testing.assert_array_equal(L.lower, lower)
            np.testing.assert_array_equal(L.upper, upper)
            np.testing.assert_array_equal(L.total, lower + upper)


def test_laplacian_product_annihilates(rng):
    for _ in range(20):
        sc = random_complex(rng)
        L = hodge_laplacian(sc)
        assert np.abs(L.lower @ L.upper).max() < 1e-10


def test_spectrum_counts(rng):
    # rank counts must tile the edge space: N_H + N_G + N_C = N1
    for _ in range(10):
        sc = random_complex(rng)
        spec = hodge_spectrum(sc)
        assert spec.n_harmonic + spec.n_gradient + spec.n_curl == sc.n_edges
        b1 = sf.incidence_matrix(sc, 1).to_dense()
        assert spec.n_gradient == np.linalg.matrix_rank(b1)
        b2 = sf.incidence_matrix(sc, 2).to_dense()
        if sc.n_triangles:
            assert spec.n_curl == np.linalg.matrix_rank(b2)
        else:
            assert spec.n_curl == 0


def test_spectrum_toy_values(toy):
    spec = hodge_spectrum(toy)
    assert spec.n_harmonic == 1
    np.testing.assert_allclose(
        spec.lambda_gradient,
        [0.8143, 2.3280, 3.3139, 3.5981, 4.4575, 5.4881],
        atol=5e-5,
    )
    np.testing.assert_allclose(spec.lambda_curl, [2.0, 3.0, 4.0], atol=1e-10)
    assert spec.zero_tol == pytest.approx(ZERO_TOL_FACTOR * spec.lambda_gradient[-1])


def _oracle_frequencies(obj):
    """Nonzero eigenvalues of the dense lower and upper edge Laplacians by
    eigvalsh, under the relative zero threshold, with that threshold and the
    largest eigenvalue."""
    lap = hodge_laplacian(obj, 1)
    w_low, w_up = np.linalg.eigvalsh(lap.lower), np.linalg.eigvalsh(lap.upper)
    top = max(w_low.max(initial=0.0), w_up.max(initial=0.0))
    tol = ZERO_TOL_FACTOR * top
    return w_low[w_low > tol], w_up[w_up > tol], tol, top


def _larger_side_complexes():
    """Complexes whose small side (by stored entries) has at least as many rows
    as the other side: a path and a perfect matching (more nodes than edges), a
    triangle beside isolated vertices (three nodes, three edges), and a book of
    10 triangles on one edge (21 edges on a triangle, 10 triangles whose Gram
    stores 100 entries against 60 in B2 and B2^T)."""
    book = [(0, 1)] + [(v, p) for p in range(2, 12) for v in (0, 1)]
    return [
        sf.build_complex(6, [(i, i + 1) for i in range(5)]),
        sf.build_complex(8, [(2 * i, 2 * i + 1) for i in range(4)]),
        sf.build_complex(5, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]),
        sf.build_complex(12, book, [(0, 1, p) for p in range(2, 12)]),
    ]


def _small_rows_at_least_other(obj) -> bool:
    # on one side, the small matrix has at least as many rows as the other
    # matrix with the same nonzero spectrum: the node Gram against the edges,
    # the edges on a triangle against the triangles
    low, up = sf.shift_operators(obj)
    b1, b2 = sf.boundary_csr(obj, 1), sf.boundary_csr(obj, 2)
    on_triangle = np.count_nonzero(np.diff(b2.indptr))
    upper_other = on_triangle if up.on_gram else b2.shape[1]
    return low.small.shape[0] >= b1.shape[1] or up.small.shape[0] >= upper_other


def test_spectrum_matches_dense_oracle():
    # the frequencies come from the small side of each operator: node and
    # triangle Grams on road complexes, the edge side of the curl on a
    # complete complex, whose triangles outnumber its edges, and the larger
    # side where it stores fewer entries
    complete = complete_complex(12)
    assert complete.n_triangles > complete.n_edges
    larger = _larger_side_complexes()
    assert all(_small_rows_at_least_other(obj) for obj in larger)
    road, reoriented, permuted, *degenerate = road_cases(np.random.default_rng(11))
    # reorienting and relabeling are similarity transforms of both parts, so
    # the three road complexes share one oracle
    road_oracle = _oracle_frequencies(road)
    cases = [(obj, road_oracle) for obj in (road, reoriented, permuted)]
    cases += [(obj, _oracle_frequencies(obj)) for obj in degenerate + [complete] + larger]
    for obj, (grad, curl, tol, top) in cases:
        spec = hodge_spectrum(obj)
        n1 = sf.boundary_csr(obj, 1).shape[1]
        assert (spec.n_gradient, spec.n_curl) == (len(grad), len(curl))
        assert spec.n_harmonic == n1 - len(grad) - len(curl)
        assert spec.zero_tol == pytest.approx(tol, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(spec.lambda_gradient, grad, rtol=0, atol=1e-12 * top)
        np.testing.assert_allclose(spec.lambda_curl, curl, rtol=0, atol=1e-12 * top)
        # the bases built on first access: orthonormal, and eigenvectors of
        # their own part for the reported frequencies
        lower, upper = _hodge_parts(obj, 1)
        U = spec.basis
        assert U.shape == (n1, n1)
        np.testing.assert_allclose(U.T @ U, np.eye(n1), rtol=0, atol=1e-12)
        for part, u, lam in ((lower, spec.u_gradient, spec.lambda_gradient),
                             (upper, spec.u_curl, spec.lambda_curl),
                             (lower + upper, spec.u_harmonic, np.zeros(spec.n_harmonic))):
            assert np.abs(part @ u - u * lam).max(initial=0.0) <= 1e-12 * top


def test_spectrum_reads_the_operators_the_filters_step_on(toy, monkeypatch):
    # hodge_spectrum eigendecomposes op.small of the cached shift operators,
    # so a later filter steps on the very matrices the frequencies came from
    built = []
    init = sf.ShiftMatrix.__init__

    def counting_init(self, *factors):
        built.append(self)
        init(self, *factors)

    monkeypatch.setattr(sf.ShiftMatrix, "__init__", counting_init)
    # both complexes are built for this test: nothing is derived from them yet
    for sc in (toy, sf.generate_road_complex(546, 1088, 11)):
        built.clear()
        spec = hodge_spectrum(sc)
        ops = sf.shift_operators(sc)
        assert all(op.on_gram and "small" in vars(op) for op in ops)
        assert [id(op) for op in built] == [id(op) for op in ops + tuple(op.small for op in ops)]
        for op, lam in zip(ops, (spec.lambda_gradient, spec.lambda_curl)):
            w = np.linalg.eigvalsh(op.small.factors[0].toarray(order="F"))
            np.testing.assert_array_equal(w[w > spec.zero_tol], lam)
        # a filter and the eigenbases build no further operator
        sf.apply(sc, sf.FilterCoefficients(1.0, (0.5, 0.25), (0.5, 0.25)), np.ones(sc.n_edges))
        assert spec.u_gradient.shape == (sc.n_edges, spec.n_gradient)
        assert spec.u_curl.shape == (sc.n_edges, spec.n_curl)
        assert len(built) == 4


def _gap_groups(values, tol):
    return int(values.size and 1 + np.count_nonzero(np.diff(values) > tol))


def test_distinct_frequencies_match_dense_oracle():
    # gaps at or below zero_tol are eigensolver noise: grouped at tolerance 0,
    # the 1088-edge complex had 157 curl frequencies from a dense eigh of the
    # upper Laplacian, 181 from its eigvalsh and 188 from the triangle Gram,
    # while its true gaps are all at least 2.8e-4
    expect = {1088: (545, 97)}
    for n0, n1 in ((546, 1088), (1100, 2176)):
        sc = sf.generate_road_complex(n0, n1, 11)
        grad, curl, tol, _ = _oracle_frequencies(sc)
        dg, dc = sf.distinct_frequencies(hodge_spectrum(sc))
        counts = (len(dg), len(dc))
        assert counts == (_gap_groups(grad, tol), _gap_groups(curl, tol))
        assert counts == expect.get(n1, counts)


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_frequencies_build_no_large_side_matrix():
    # the frequencies of a road complex need no N1 x N1 matrix, and those of a
    # complete complex no N2 x N2 one (the triangle Gram there is the larger side)
    road = sf.generate_road_complex(1100, 2176, 11)
    complete = complete_complex(40)
    for sc, largest in ((road, road.n_edges), (complete, complete.n_triangles)):
        sf.boundary_csr(sc, 1), sf.boundary_csr(sc, 2)
        build = hodge_spectrum.__wrapped__  # past the cache
        peak = _peak_traced_bytes(lambda: sf.distinct_frequencies(build(sc)))
        assert peak < 8 * largest**2


def test_small_sides_are_symmetric_and_tops_take_no_edge_space_matvec(monkeypatch):
    # the normalized lower part was stored as R B1^T and D1^-1 B1 R, whose
    # small side D1^-1 B1 D2 B1^T is not symmetric (max |S - S^T| = 0.462 at
    # 1088 edges), so the tops ran Lanczos through the edge-space matvec
    calls = []
    matvec = sf.ShiftMatrix.matvec

    def spy(self, x):
        calls.append(self)
        return matvec(self, x)

    monkeypatch.setattr(sf.ShiftMatrix, "matvec", spy)
    cases = [sf.generate_road_complex(546, 1088, 11), complete_complex(12), road_with_clique()]
    for sc in cases + degenerate_complexes():
        for op in sf.shift_operators(sc) + spectral._normalized_operators(sc):
            small = op.small.as_csr()
            assert (small != small.T).nnz == 0
            calls.clear()
            spectral._lambda_max.__wrapped__(op)
            assert calls == []


def test_fix_signs_matches_the_column_loop():
    # one argmax along the columns, against the per-column loop it replaced:
    # the first largest-magnitude entry decides, and empty bases pass through
    def loop(vectors):
        out = vectors.copy()
        for j in range(out.shape[1]):
            i = int(np.argmax(np.abs(out[:, j])))
            if out[i, j] < 0:
                out[:, j] = -out[:, j]
        return out

    rng = np.random.default_rng(3)
    ties = np.array([[-2.0, 2.0, 0.0, -0.0], [2.0, -2.0, 0.0, 0.0], [1.0, 1.0, -0.0, -0.0]])
    for vectors in (ties, rng.standard_normal((7, 5)), np.asfortranarray(rng.standard_normal((6, 3))),
                    np.zeros((0, 0)), np.zeros((4, 0))):
        got = spectral._fix_signs(vectors)
        assert got.shape == vectors.shape and got.tobytes() == loop(vectors).tobytes()


def test_basis_orthonormal(toy):
    U = hodge_spectrum(toy).basis
    np.testing.assert_allclose(U.T @ U, np.eye(toy.n_edges), atol=1e-10)


def test_eigenvector_blocks_live_in_their_spaces(rng):
    sc = random_complex(rng)
    spec = hodge_spectrum(sc)
    b1 = sf.incidence_matrix(sc, 1).to_dense().astype(float)
    b2 = sf.incidence_matrix(sc, 2).to_dense().astype(float)
    # gradient vectors have no curl, curl vectors have no divergence
    if spec.n_gradient:
        assert np.abs(b2.T @ spec.u_gradient).max() < 1e-8
    if spec.n_curl:
        assert np.abs(b1 @ spec.u_curl).max() < 1e-8
    if spec.n_harmonic:
        assert np.abs(b1 @ spec.u_harmonic).max() < 1e-8
        assert np.abs(b2.T @ spec.u_harmonic).max() < 1e-8


def test_sft_roundtrip(toy, rng):
    spec = hodge_spectrum(toy)
    flow = rng.standard_normal(toy.n_edges)
    emb = sf.sft(spec, flow)
    assert emb.harmonic.shape == (spec.n_harmonic,)
    back = sf.inverse_sft(spec, emb)
    np.testing.assert_allclose(back, flow, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        sf.sft(spec, flow[:-1])


def test_decompose_matches_projectors(rng):
    randoms = (random_complex(rng) for _ in range(10))
    for sc in chain(randoms, degenerate_complexes()):
        spec = hodge_spectrum(sc)
        flow = rng.standard_normal(sc.n_edges)
        fg, fc, fh = sf.hodge_decompose(sc, flow)
        PG = spec.u_gradient @ spec.u_gradient.T
        PC = spec.u_curl @ spec.u_curl.T
        np.testing.assert_allclose(fg, PG @ flow, atol=1e-10)
        np.testing.assert_allclose(fc, PC @ flow, atol=1e-10)
        np.testing.assert_allclose(fg + fc + fh, flow, atol=1e-10)


def _weighted_oracle(sc):
    # eigenvectors of the dense symmetrized normalized parts with nonzero
    # eigenvalue, under the relative zero threshold of hodge_spectrum
    norm = sf.normalized_laplacian(sc)
    w_low, v_low = np.linalg.eigh(norm.sym_lower)
    w_up, v_up = np.linalg.eigh(norm.sym_upper)
    top = max(w_low.max(initial=0.0), w_up.max(initial=0.0))
    tol = ZERO_TOL_FACTOR * top
    return v_low[:, w_low > tol], v_up[:, w_up > tol]


def test_projectors_match_eigen_oracles(rng, monkeypatch):
    # the sparse least-squares projectors against the eigenbasis projectors, on
    # a 2176-edge complex whose curl Gram is singular (601 triangles, rank 599),
    # and on clique-filled complexes whose curl side solves on the edges on a
    # triangle: dense graphs, and the 1088-edge road complex with a scattered
    # 25-vertex clique, whose 2613 x 2613 triangle Gram fills in when factored.
    # There the projector factors the edge-side small matrix, and nothing else
    randoms = [random_complex(rng) for _ in range(10)]
    road = sf.generate_road_complex(1100, 2176, 11)
    clique = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    square = clique + [(0, 10), (10, 11), (11, 12), (0, 12)]  # a harmonic hole
    dense = [sf.build_complex(13, e, sf.infer_triangles(13, e)) for e in (clique, square)]
    dense.append(road_with_clique(25, seed=0))
    for sc in dense:
        assert not sf.shift_operators(sc)[1].on_gram
    factor, factored = spectral._factor, []

    def spy_factor(matrix):
        factored.append(matrix.shape)
        return factor(matrix)

    monkeypatch.setattr(spectral, "_factor", spy_factor)
    for sc in randoms + degenerate_complexes() + [road] + dense:
        spec = hodge_spectrum(sc)
        oracles = {False: (spec.u_gradient, spec.u_curl), True: _weighted_oracle(sc)}
        flows = rng.standard_normal((sc.n_edges, 3))
        scale = 1e-12 * np.linalg.norm(flows, axis=0)
        for weighted, bases in oracles.items():
            for side, basis in zip(("gradient", "curl"), bases):
                factored.clear()
                project = _projector.__wrapped__(sc, side, weighted)
                ops = spectral._normalized_operators if weighted else sf.shift_operators
                op = ops(sc)[1]
                if side == "curl" and not op.on_gram:
                    assert factored == [op.small.shape]
                got = project(flows)
                expect = basis @ (basis.T @ flows)
                assert np.all(np.linalg.norm(got - expect, axis=0) <= scale)
                # columns of a block project as single flows
                np.testing.assert_allclose(project(flows[:, 0]), got[:, 0],
                                           rtol=0, atol=scale[0])


def test_divergence_and_curl_definitions(toy, rng):
    flow = rng.standard_normal(toy.n_edges)
    b1 = sf.incidence_matrix(toy, 1).to_dense().astype(float)
    b2 = sf.incidence_matrix(toy, 2).to_dense().astype(float)
    np.testing.assert_allclose(sf.divergence(toy, flow), b1 @ flow, atol=1e-12)
    np.testing.assert_allclose(sf.curl(toy, flow), b2.T @ flow, atol=1e-12)


def test_distinct_frequencies_toy(toy):
    dg, dc = sf.distinct_frequencies(hodge_spectrum(toy))
    assert len(dg) == 6 and len(dc) == 3
    np.testing.assert_allclose(dc, [2.0, 3.0, 4.0], atol=1e-10)


def test_distinct_frequencies_grouping():
    # single-linkage grouping against a direct O(n^2) chain walk
    spec = hodge_spectrum(sf.toy_complex())
    for tol in (0.0, 0.5, 1.5, 10.0):
        dg, dc = sf.distinct_frequencies(spec, tol)
        for vals, groups in ((spec.lambda_gradient, dg), (spec.lambda_curl, dc)):
            chains = [[float(vals[0])]]
            for x in vals[1:]:
                if x - chains[-1][-1] <= tol:
                    chains[-1].append(float(x))
                else:
                    chains.append([float(x)])
            assert len(groups) == len(chains)
            for g, chain in zip(groups, chains):
                assert g == pytest.approx(np.mean(chain))


def test_normalized_laplacian_weights(toy, rng):
    # the dense oracle and the symmetric operator pair it is built from, against
    # the definition written out densely
    for sc in [toy] + [random_complex(rng) for _ in range(3)] + degenerate_complexes():
        norm = sf.normalized_laplacian(sc)
        b1 = sf.incidence_matrix(sc, 1).to_dense().astype(float)
        b2 = sf.incidence_matrix(sc, 2).to_dense().astype(float)
        d2 = np.maximum(np.abs(b2).sum(axis=1), 1.0)
        d1 = 2.0 * (np.abs(b1) @ d2)
        d1[d1 == 0] = 1.0
        root = np.sqrt(d2)
        expect = {
            "lower": (d2[:, None] * b1.T) @ (b1 / d1[:, None]),
            "upper": (b2 / 3.0) @ (b2.T / d2[None, :]),
            "sym_lower": (root[:, None] * b1.T) @ (b1 * root[None, :] / d1[:, None]),
            "sym_upper": (b2 / root[:, None]) @ (b2.T / root[None, :]) / 3.0,
        }
        for name, matrix in expect.items():
            np.testing.assert_allclose(getattr(norm, name), matrix, rtol=0, atol=1e-12)
        pair = sf.spectral._normalized_operators(sc)
        eye = np.eye(sc.n_edges)
        for op, name in zip(pair, ("sym_lower", "sym_upper")):
            np.testing.assert_allclose(op @ eye, expect[name], rtol=0, atol=1e-12)
        np.testing.assert_allclose(norm.weight, d2, atol=0)
        np.testing.assert_allclose(
            sf.normalized_hodge_laplacian(sc), norm.total, atol=0
        )


def test_normalized_spectrum_in_unit_interval(rng):
    for _ in range(10):
        sc = random_complex(rng)
        norm = sf.normalized_laplacian(sc)
        w = np.linalg.eigvals(norm.total)
        assert np.abs(w.imag).max() < 1e-8
        assert w.real.min() > -1e-10
        assert w.real.max() < 1.0 + 1e-10


def test_symmetrized_parts_annihilate(rng):
    sc = random_complex(rng)
    norm = sf.normalized_laplacian(sc)
    assert np.abs(norm.sym_lower @ norm.sym_upper).max() < 1e-12
    # symmetrized forms are similar to the normalized ones
    root = np.sqrt(norm.weight)
    sim = root[:, None] * (norm.sym_lower + norm.sym_upper) / root[None, :]
    np.testing.assert_allclose(sim, norm.total, atol=1e-10)


def test_cached_spectrum_is_read_only(toy, rng):
    # a caller writing into the cached spectrum used to zero every later
    # hodge_decompose gradient on that complex
    spectrum = sf.hodge_spectrum(toy)
    with pytest.raises(ValueError):
        spectrum.u_gradient[:] = 0.0
    flow = rng.standard_normal(toy.n_edges)
    f_g, _, _ = sf.hodge_decompose(toy, flow)
    assert np.linalg.norm(f_g) > 0.1 * np.linalg.norm(flow)
    np.testing.assert_allclose(
        f_g, spectrum.u_gradient @ (spectrum.u_gradient.T @ flow), atol=1e-12
    )
    arrays = [spectrum.u_harmonic, spectrum.u_curl, spectrum.lambda_gradient,
              spectrum.lambda_curl]
    lap = sf.hodge_laplacian(toy)
    norm = sf.normalized_laplacian(toy)
    arrays += [lap.lower, lap.upper, norm.lower, norm.upper, norm.weight,
               norm.sym_lower, norm.sym_upper]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0.0
