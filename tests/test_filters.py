from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp

import simplicial_filters as sf
from simplicial_filters import DataError, DimensionMismatch, FilterCoefficients
from simplicial_filters.complexes import OrientationPlan, PermutationPlan
from simplicial_filters.filters import apply_operators

from conftest import (
    complete_complex,
    degenerate_complexes,
    random_complex,
    road_cases,
    road_with_clique,
    spy_builds,
)


def dense_filter(sc, coeffs):
    """Polynomial in the dense Laplacians, by literal matrix powers."""
    L = sf.hodge_laplacian(sc)
    n = sc.n_edges
    H = coeffs.h0 * np.eye(n)
    P = np.eye(n)
    for a in coeffs.alpha:
        P = P @ L.lower
        H = H + a * P
    P = np.eye(n)
    for b in coeffs.beta:
        P = P @ L.upper
        H = H + b * P
    return H


def random_coeffs(rng, lmax=3):
    return FilterCoefficients(
        float(rng.standard_normal()),
        tuple(rng.standard_normal(int(rng.integers(0, lmax + 1)))),
        tuple(rng.standard_normal(int(rng.integers(0, lmax + 1)))),
    )


def test_apply_matches_dense(rng):
    randoms = (random_complex(rng) for _ in range(20))
    for sc in chain(randoms, degenerate_complexes()):
        coeffs = random_coeffs(rng)
        flow = rng.standard_normal(sc.n_edges)
        out = sf.apply(sc, coeffs, flow)
        np.testing.assert_allclose(out, dense_filter(sc, coeffs) @ flow,
                                   atol=1e-9)


def test_block_apply_matches_columns(toy, rng):
    # an (N1, k) block is one SpMM recursion; every column must equal the
    # single-flow call bit for bit and the dense polynomial oracle
    from test_design import dense_chebyshev, pagerank_spec

    for sc in [toy] + [random_complex(rng) for _ in range(5)]:
        coeffs = random_coeffs(rng)
        block = rng.standard_normal((sc.n_edges, 4))
        out = sf.apply(sc, coeffs, block)
        assert out.shape == block.shape
        stacked = np.column_stack([sf.apply(sc, coeffs, col) for col in block.T])
        assert np.array_equal(out, stacked)
        np.testing.assert_allclose(out, dense_filter(sc, coeffs) @ block, atol=1e-9)

        filt = sf.chebyshev_design(pagerank_spec(0.1, 5.5, 4.1), 5.5, 4.1, 7, 7)
        out = sf.chebyshev_apply(filt, sc, block)
        stacked = np.column_stack([sf.chebyshev_apply(filt, sc, col) for col in block.T])
        assert np.array_equal(out, stacked)
        np.testing.assert_allclose(out, dense_chebyshev(filt, sc) @ block, atol=1e-9)


def test_coefficient_validation():
    c = FilterCoefficients(1.0, (0.5,), ())
    assert c.order_lower == 1 and c.order_upper == 0
    with pytest.raises(DataError):
        FilterCoefficients(float("nan"), (), ())
    with pytest.raises(DataError):
        FilterCoefficients(0.0, (float("inf"),), ())


def test_complex_filter_parameters_rejected():
    # float() raised a bare TypeError for a complex tap, and a numpy complex
    # scalar lost its imaginary part with only a ComplexWarning
    for bad in (1j, np.complex128(1.0), np.array(0.5 + 0j)):
        for args in ((bad, (), ()), (1.0, (bad,), ()), (1.0, (), (0.5, bad))):
            with pytest.raises(DataError, match="real"):
                FilterCoefficients(*args)
        for args in (((bad,), (), 3.0, 0.0, 0.5), ((1.0,), (1.0, bad), 3.0, 3.0, 0.5),
                     ((1.0,), (), 3.0, 0.0, bad), ((1.0,), (), bad, 0.0, 0.5)):
            with pytest.raises(DataError, match="real"):
                sf.ChebyshevFilter(*args)


def test_linearity(toy, rng):
    coeffs = random_coeffs(rng)
    f = rng.standard_normal(toy.n_edges)
    g = rng.standard_normal(toy.n_edges)
    a, b = 1.7, -0.3
    lhs = sf.apply(toy, coeffs, a * f + b * g)
    rhs = a * sf.apply(toy, coeffs, f) + b * sf.apply(toy, coeffs, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_shift_invariance(rng):
    # filtering commutes with each shift operator separately
    for _ in range(10):
        sc = random_complex(rng)
        coeffs = random_coeffs(rng)
        flow = rng.standard_normal(sc.n_edges)
        lhs = sf.shift_lower(sc, sf.apply(sc, coeffs, flow))
        rhs = sf.apply(sc, coeffs, sf.shift_lower(sc, flow))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)
        lhs = sf.shift_upper(sc, sf.apply(sc, coeffs, flow))
        rhs = sf.apply(sc, coeffs, sf.shift_upper(sc, flow))
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_filters_commute(toy, rng):
    c1 = random_coeffs(rng)
    c2 = random_coeffs(rng)
    flow = rng.standard_normal(toy.n_edges)
    lhs = sf.apply(toy, c1, sf.apply(toy, c2, flow))
    rhs = sf.apply(toy, c2, sf.apply(toy, c1, flow))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_permutation_equivariance(rng):
    for _ in range(10):
        sc = random_complex(rng)
        coeffs = random_coeffs(rng)
        flow = rng.standard_normal(sc.n_edges)
        plan = PermutationPlan.random(sc, rng)
        signs = sf.permutation_signs(sc, plan)
        sc_p = sf.permute(sc, plan)
        eperm = np.asarray(plan.edge_perm, dtype=np.int64)
        esign = np.asarray(signs.edge_signs, dtype=float)
        out = sf.apply(sc, coeffs, flow)
        out_p = sf.apply(sc_p, coeffs, esign * flow[eperm])
        np.testing.assert_allclose(out_p, esign * out[eperm], atol=1e-10)


def test_orientation_equivariance(rng):
    for _ in range(10):
        sc = random_complex(rng)
        coeffs = random_coeffs(rng)
        flow = rng.standard_normal(sc.n_edges)
        plan = OrientationPlan.random(sc, rng)
        osc = sf.reorient(sc, plan)
        d1 = np.asarray(plan.edge_signs, dtype=float)
        out = sf.apply(sc, coeffs, flow)
        out_o = sf.apply(osc, coeffs, d1 * flow)
        np.testing.assert_allclose(out_o, d1 * out, atol=1e-10)


def test_distributed_shift_matches_powers(toy, rng):
    # integer flow keeps every float op exact, any summation order
    flow = rng.integers(-9, 10, toy.n_edges).astype(float)
    L = sf.hodge_laplacian(toy)
    result = sf.distributed_shift(toy, flow, 3, 2)
    np.testing.assert_array_equal(result.lower_flow,
                                  L.lower @ (L.lower @ (L.lower @ flow)))
    np.testing.assert_array_equal(result.upper_flow, L.upper @ (L.upper @ flow))
    assert len(result.rounds) == 5


def test_distributed_message_counts(rng):
    for _ in range(5):
        sc = random_complex(rng, max_nodes=12)
        flow = rng.standard_normal(sc.n_edges)
        result = sf.distributed_shift(sc, flow, 2, 2)
        low_deg = [len(sf.lower_neighborhood(sc, 1, i)) for i in range(sc.n_edges)]
        up_deg = [len(sf.upper_neighborhood(sc, 1, i)) for i in range(sc.n_edges)]
        for rnd in result.rounds:
            cap = low_deg if rnd.kind == "lower" else up_deg
            assert all(m <= c for m, c in zip(rnd.messages_per_edge, cap))
        assert result.total_messages == 2 * sum(low_deg) + 2 * sum(up_deg)


def test_frequency_response_diagonalizes(toy, rng):
    coeffs = random_coeffs(rng)
    spec = sf.hodge_spectrum(toy)
    resp = sf.frequency_response(coeffs, spec)
    H = dense_filter(toy, coeffs)
    Ht = spec.basis.T @ H @ spec.basis
    diag = np.concatenate([
        [resp.at_harmonic] * spec.n_harmonic,
        [resp.at_gradient[lam] for lam in spec.lambda_gradient],
        [resp.at_curl[lam] for lam in spec.lambda_curl],
    ])
    np.testing.assert_allclose(Ht, np.diag(diag), atol=1e-8)
    assert resp.at_harmonic == pytest.approx(coeffs.h0)


def test_polynomial_response_values():
    coeffs = FilterCoefficients(2.0, (1.0, 0.5), (3.0,))
    lam = 1.5
    assert sf.polynomial_response(coeffs, lam, "gradient") == pytest.approx(
        2.0 + 1.0 * lam + 0.5 * lam**2
    )
    assert sf.polynomial_response(coeffs, lam, "curl") == pytest.approx(
        2.0 + 3.0 * lam
    )
    assert sf.polynomial_response(coeffs, 0.0, "harmonic") == pytest.approx(2.0)


def test_apply_dimension_guard(toy):
    with pytest.raises(DimensionMismatch):
        sf.apply(toy, FilterCoefficients(1.0, (), ()), np.zeros(toy.n_edges - 1))


def test_non_finite_flow_rejected(toy):
    coeffs = FilterCoefficients(1.0, (0.5,), (0.25,))
    for bad in (np.nan, np.inf):
        flow = np.ones(toy.n_edges)
        flow[3] = bad
        with pytest.raises(DataError):
            sf.apply(toy, coeffs, flow)
        with pytest.raises(DataError):
            sf.hodge_decompose(toy, flow)
    with pytest.raises(DimensionMismatch):
        sf.apply(toy, coeffs, np.zeros((toy.n_edges, 2, 2)))


def test_complex_flow_rejected(toy):
    # a complex flow lost its imaginary part with only a ComplexWarning
    flow = np.ones(toy.n_edges) * (1 + 1j)
    coeffs = FilterCoefficients(1.0, (0.5,), (0.25,))
    cheb = sf.ChebyshevFilter((1.0, 0.5), (1.0, 0.5), 6.0, 6.0, 0.5)
    calls = (sf.shift_lower, sf.shift_upper, sf.hodge_decompose,
             lambda sc, f: sf.apply(sc, coeffs, f), lambda sc, f: sf.chebyshev_apply(cheb, sc, f))
    for call in calls:
        for bad in (flow, flow[:, None], list(flow)):
            with pytest.raises(DataError, match="complex"):
                call(toy, bad)
    for op in sf.shift_operators(toy):
        for bad in (flow, np.column_stack([flow, flow])):
            with pytest.raises(ValueError, match="complex"):
                op.matvec(bad)


def test_shift_operators_cached_and_read_only(toy):
    from simplicial_filters.complexes import _hodge_parts

    low, up = sf.shift_operators(toy)
    assert sf.shift_operators(toy)[0] is low
    normalized = sf.spectral._normalized_operators(toy)
    assert sf.spectral._normalized_operators(toy)[0] is normalized[0]
    # the edge-side factors, and those of the operators the recursions step on
    factors = [f for op in (low, up) + normalized for f in op.factors]
    steps = [f for op in (low, up) + normalized if op.small is not op for f in op.small.factors]
    assert len(factors) == 8 and len(steps) >= 2
    # every shared sparse matrix the operators are assembled from, too
    matrices = factors + steps + [sf.incidence_matrix(toy, k).to_csr() for k in (1, 2)]
    assert sf.incidence_matrix(toy, 1).to_csr() is matrices[-2]
    matrices += [part for k in (0, 1, 2) for part in _hodge_parts(toy, k)]
    arrays = [a for m in matrices for a in (m.data, m.indices, m.indptr)]
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0


def test_step_operators_are_built_on_first_use():
    # two triangles and a path of three edges on none, plus an isolated node
    sc = sf.build_complex(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)],
                          [(0, 1, 2), (1, 2, 3)])
    b1, b2 = sf.boundary_csr(sc, 1), sf.boundary_csr(sc, 2)
    low, up = sf.ShiftMatrix(b1.T, 1.0), sf.ShiftMatrix(b2, 1.0)
    assert "small" not in vars(low) and "small" not in vars(up)
    # the node Gram over the 7 nodes with an edge; the triangle Gram over the
    # 2 triangles (4 entries, against 12 in B2 and B2^T on the 5 edges they span)
    assert low.on_gram and up.on_gram
    assert low.small is low.small and low.small.shape == (7, 7)
    assert up.small is up.small and up.small.shape == (2, 2)
    flow = np.arange(1.0, sc.n_edges + 1)
    np.testing.assert_array_equal(up.from_small(up.to_small(flow)), up @ flow)
    np.testing.assert_array_equal(low.from_small(low.to_small(flow)), low @ flow)
    # L = c F F^T for c != 1 and an F with empty rows (edges on no triangle)
    # and empty columns (the isolated node, and a column added to B2); with
    # c = 1/4 and integer flows every product is exact, so L x = c F (F^T x)
    # bitwise, and the small side is c F^T F on the columns with entries
    block = np.column_stack([flow, flow[::-1]])
    wide = sp.hstack([b2, sp.csr_matrix((sc.n_edges, 1))])
    for f, columns in ((b1.T, 7), (b2, 2), (wide, 2)):
        f = sp.csr_matrix(f)
        used = np.flatnonzero(np.diff(f.tocsc().indptr))
        for c in (0.25, 1.0 / 3.0):
            op = sf.ShiftMatrix(f, c)
            assert op.shape == (sc.n_edges, sc.n_edges) and op.on_gram
            assert op.small.shape == (columns, columns) and used.size == columns
            small = op.small.as_csr()
            assert (small != small.T).nnz == 0
            gram = (c * (f.T @ f)).toarray()[np.ix_(used, used)]
            for x in (flow, block):
                expect = c * (f @ (f.T @ x))
                np.testing.assert_array_equal(op.from_small(op.to_small(x)), op @ x)
                if c == 0.25:
                    np.testing.assert_array_equal(op @ x, expect)
                    np.testing.assert_array_equal(small.toarray(), gram)
                    continue
                # within a few ulps of c |F| |F|^T |x|, and of c |F|^T |F|
                mag = c * (abs(f) @ (abs(f).T @ np.abs(x)))
                assert np.all(np.abs(op @ x - expect) <= 4 * EPS * mag)
                assert np.all(np.abs(small.toarray() - gram) <= 4 * EPS * np.abs(gram))


def test_recursions_step_on_no_more_entries_than_the_shift():
    # a clique-filled complex's triangle Gram B2^T B2 stores sum_e t_e^2 - 2 N2
    # entries against 6 N2 in B2 and B2^T (the complete complex on 12 vertices:
    # 6160 against 1320), so the upper recursions step on the edges, with
    # B2 B2^T as one matrix: the 1320 entries and one diagonal entry per edge
    # on a triangle (66). The node Gram stores at most 4 N1 entries and leaves
    # out the nodes without an edge
    clique = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    cases = [sf.build_complex(12, clique, sf.infer_triangles(12, clique)),
             random_complex(np.random.default_rng(5), edge_prob=0.8),
             sf.generate_road_complex(1100, 2176, 11)] + degenerate_complexes()
    for sc in cases:
        for op in sf.shift_operators(sc) + sf.spectral._normalized_operators(sc):
            (step,), shift = op.small.factors, sum(f.nnz for f in op.factors)
            if op.on_gram:
                assert step.nnz <= shift
            else:
                assert step.nnz == step.shape[0] + shift
            assert step.shape[0] <= 2 * sc.n_edges


def _all_operators(sc):
    return sf.shift_operators(sc) + sf.spectral._normalized_operators(sc)


def test_gram_bound_counts_the_gram_entries():
    # two simplices share at most one face, so for every incidence pair the
    # bound sum_e r_e^2 - nnz(A) + n_G is G's stored entry count, not just above it
    cases = [sf.generate_road_complex(546, 1088, 11), sf.generate_road_complex(1100, 2176, 11),
             complete_complex(5), complete_complex(12), road_with_clique()]
    for sc in cases + degenerate_complexes():
        for op in _all_operators(sc):
            a, b = op.factors
            assert op.gram_bound == (b @ a).nnz
            assert op.on_gram == (op.gram_bound <= a.nnz + b.nnz)


def test_upper_recursions_step_on_the_cheaper_side():
    # road complexes: the triangle Gram, on vectors of length N2
    for sc in (sf.generate_road_complex(546, 1088, 11), sf.generate_road_complex(1100, 2176, 11)):
        for op in _all_operators(sc)[1::2]:
            assert op.on_gram and op.small.shape == (sc.n_triangles, sc.n_triangles)
    # clique-filled complexes: the edges on a triangle, and no Gram is built
    for sc in (complete_complex(12), complete_complex(60), road_with_clique()):
        on_triangle = np.count_nonzero(np.diff(sf.boundary_csr(sc, 2).indptr))
        for op in _all_operators(sc)[1::2]:
            assert not op.on_gram and op.gram_bound > sum(f.nnz for f in op.factors)
            # A A^T as one matrix: one diagonal entry per edge on a triangle and
            # one per pair of edges on a triangle, which share no other one
            (m,) = op.small.factors
            assert op.small.shape == (on_triangle, on_triangle)
            assert m.nnz == on_triangle + sum(f.nnz for f in op.factors)
    # the lower recursions stay on the node Gram everywhere
    for sc in (complete_complex(12), road_with_clique()) + tuple(degenerate_complexes()):
        assert all(op.on_gram for op in _all_operators(sc)[0::2])


def test_clique_filled_operators_build_no_gram():
    # a complete 60-vertex complex: the triangle Gram would hold 5,885,840
    # entries (about 70 MB at 12 B each); operators and a two-sided filter
    # stay on the edges and the node Gram, far below that
    import tracemalloc

    # sc is built here, so its operators and their step sides are built
    # inside the trace
    sc = complete_complex(60)
    flow = np.random.default_rng(0).standard_normal(sc.n_edges)
    tracemalloc.start()
    try:
        up = sf.shift_operators(sc)[1]
        sf.spectral._normalized_operators(sc)
        sf.apply(sc, FilterCoefficients(1.0, (0.5, 0.25), (0.5, 0.25)), flow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert up.gram_bound == 5_885_840
    assert peak < 12 * up.gram_bound


def test_block_shift_has_no_row_for_an_isolated_node():
    # 100,000 nodes without an edge: a 128-flow lower shift through B1 would
    # hold a 100,546 x 128 block (about 100 MB); on the nodes with an edge it
    # holds 546 x 128 besides the flows and the result (about 1 MB each)
    import tracemalloc

    road = sf.generate_road_complex(546, 1088, 11)
    sc = sf.build_complex(road.vertex_count + 100_000, road.edges, road.triangles)
    low = sf.shift_operators(sc)[0]
    block = np.random.default_rng(0).standard_normal((sc.n_edges, 128))
    tracemalloc.start()
    try:
        out = low @ block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    b1 = sf.boundary_csr(sc, 1)
    np.testing.assert_array_equal(out, b1.T @ (b1 @ block))
    assert peak < 8 * block.size * 4


def test_upper_shift_on_its_support_is_bitwise_the_full_product():
    # the upper shift runs on the edges on a triangle only; every row sums the
    # same entries in the same order as the product with the whole incidence
    rng = np.random.default_rng(9)
    for obj in road_cases(rng):
        b2 = sf.boundary_csr(obj, 2)
        pairs = [(sf.shift_operators(obj)[1], (b2, b2.T))]
        if isinstance(obj, sf.SimplicialComplex):
            pairs += [(op, op.factors) for op in sf.spectral._normalized_operators(obj)[1:]]
        for flow in (rng.standard_normal(b2.shape[0]), rng.standard_normal((b2.shape[0], 4))):
            for op, (a, b) in pairs:
                np.testing.assert_array_equal(op @ flow, a @ (b @ flow))
            np.testing.assert_array_equal(sf.shift_upper(obj, flow), b2 @ (b2.T @ flow))


def test_distributed_shift_rejects_negative_rounds(toy):
    flow = np.ones(toy.n_edges)
    for rounds in ((-1, 0), (0, -1)):
        with pytest.raises(DataError):
            sf.distributed_shift(toy, flow, *rounds)


def test_factored_operators_match_assembled_parts():
    from simplicial_filters._kernels import IDENTITY_CHUNK, identity_block
    from simplicial_filters.complexes import _hodge_parts

    rng = np.random.default_rng(7)
    eps = np.finfo(np.float64).eps
    for obj in road_cases(rng):
        pairs = list(zip(sf.shift_operators(obj), _hodge_parts(obj, 1)))
        n = pairs[0][1].shape[0]
        block = rng.standard_normal((n, 3))
        for op, part in pairs:
            assert op.shape == part.shape == (n, n)
            # the factored product is within a few ulps of |L| |x| of the
            # assembled part, and exactly zero wherever |L| |x| is
            magnitude = abs(part.copy())
            for start in range(0, n, IDENTITY_CHUNK):
                eye = identity_block(n, start)
                gap = np.abs(op @ eye - part @ eye)
                assert np.all(gap <= 4 * eps * (magnitude @ eye))
            # each column of a block product is the single-flow product, bitwise
            out = op @ block
            assert out.shape == (n, 3)
            for j in range(3):
                np.testing.assert_array_equal(out[:, j], op @ block[:, j])


def test_shared_sparse_matrices_are_canonical():
    # a frozen CSR matrix with unsorted indices made scipy canonicalize in
    # place: abs() of the upper Hodge part raised "WRITEBACKIFCOPY base is
    # read-only"
    from simplicial_filters.complexes import _hodge_parts

    def check(matrices):
        for m in matrices:
            assert m.has_canonical_format
            assert abs(m).nnz == m.nnz

    for obj in road_cases(np.random.default_rng(3)):
        check(part for k in (0, 1, 2) for part in _hodge_parts(obj, k))
        ops = list(sf.shift_operators(obj))
        if isinstance(obj, sf.SimplicialComplex):
            ops += sf.spectral._normalized_operators(obj)
        check(f for op in ops for f in op.factors + op.small.factors)


def _row_order_cases():
    return [sf.generate_road_complex(546, 1088, 11), sf.generate_road_complex(2176, 4352, 11),
            complete_complex(12), road_with_clique()]


def _with_small_sides(sc):
    """Fresh operators of sc, each with the one its recursions step on and its
    Chebyshev step, built outside the caches."""
    from simplicial_filters.design import _step_matrix

    ops = []
    for op in (sf.shift_operators.__wrapped__(sc)
               + sf.spectral._normalized_operators.__wrapped__(sc)):
        ops += [op, op.small, _step_matrix.__wrapped__(op.small, 3.0)]
    return ops


@pytest.fixture
def order_every_size(monkeypatch):
    # these complexes are below the size from which factors keep ordered rows
    from simplicial_filters import _kernels

    monkeypatch.setattr(_kernels, "ROW_ORDER_MIN_ENTRIES", 0)


def _canonical_product(factors, x):
    for f in reversed(factors):
        x = f @ x
    return x


def _assert_single_flows_canonical(op, rng):
    n = op.shape[0]
    x = rng.standard_normal(n)
    np.testing.assert_array_equal(op.matvec(x), _canonical_product(op.factors, x))
    if len(op.factors) == 1:
        return
    a, b = op._on_support
    np.testing.assert_array_equal(
        op.to_small(x), b @ x if op.on_gram else _canonical_product((a, b), x))
    y = rng.standard_normal(op.small.shape[0])
    expect = np.zeros(n)
    expect[slice(None) if op._support is None else op._support] = a @ y if op.on_gram else y
    np.testing.assert_array_equal(op.from_small(y), expect)


def test_single_flows_are_bitwise_the_canonical_products(order_every_size):
    # a single flow multiplies copies of the factors with their rows sorted by
    # length and takes the rows back: every row sums the same entries in the
    # same order as the canonical scipy factors
    rng = np.random.default_rng(23)
    for sc in _row_order_cases():
        for op in _with_small_sides(sc):
            _assert_single_flows_canonical(op, rng)


def _add_in_stored_order(m, v, out):
    """out + m v with every row summed from out's value, entry by entry in
    stored order, each product and sum rounded on its own."""
    out, lengths = out.copy(), np.diff(m.indptr)
    for p in range(lengths.max(initial=0)):
        rows = np.flatnonzero(lengths > p)
        at = m.indptr[rows] + p
        weights = m.data[at] if v.ndim == 1 else m.data[at][:, None]
        out[rows] += weights * v[m.indices[at]]
    return out


def test_single_flow_series_are_bitwise_the_canonical_recursions(order_every_size):
    # a single-flow series on one matrix runs in the row order of its copy,
    # whose columns are renumbered: gathered in once and back once, Horner's
    # and Clenshaw's recurrences must sum every step as on the canonical rows
    rng = np.random.default_rng(29)
    taps = tuple(rng.standard_normal(6))
    coeffs = FilterCoefficients(0.5, taps)
    omega = 3.0  # that of the step matrices
    cheb = sf.ChebyshevFilter(taps, (), omega, 0.0, 0.5)
    alpha = [0.0] * (len(taps) + 2)
    for k in range(len(taps) - 1, 0, -1):
        alpha[k] = taps[k] - 2.0 * alpha[k + 1] - alpha[k + 2]
    in_row_order = 0
    for sc in _row_order_cases():
        ops = _with_small_sides(sc)
        for small, step in zip(ops[1::3], ops[2::3]):
            in_row_order += sum(m._ordered[0] is not None for m in (small, step))
            x = rng.standard_normal(small.shape[0])
            # h = a_L x, then h <- a_l x + S h
            (s,), h = small.factors, taps[-1] * x
            for a in reversed(taps[:-1]):
                h = _add_in_stored_order(s, h, a * x)
            np.testing.assert_array_equal(coeffs._side_sum(False, small, x), h)
            # u_K = 0, u_{K-1} = (2 alpha_K / omega) x, u_k = M u_{k+1} - u_{k+2}
            # + (2 alpha_{k+1} / omega) x, and (alpha_1 / omega) x + M u_1 / 2 - u_2
            (m,), top = step.factors, len(taps) - 1
            far, near = np.zeros_like(x), (2.0 * alpha[top] / omega) * x
            for k in range(top - 2, 0, -1):
                far, near = near, _add_in_stored_order(
                    m, near, (2.0 * alpha[k + 1] / omega) * x - far)
            expect = _add_in_stored_order(m, 0.5 * near, (alpha[1] / omega) * x - far)
            np.testing.assert_array_equal(cheb._side_sum(False, small, x), expect)
    assert in_row_order > 0


def test_scipy_csr_kernels_add_each_row_in_stored_order():
    # a series step calls scipy's private CSR kernels: they must add M x into
    # out, starting each row from out's value and summing its entries in
    # stored order. The rows hold unsorted indices and entries of 1e16 that
    # swallow what is added before them, so another order, or a product added
    # to out only after its row is summed, rounds to other values
    from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

    rng = np.random.default_rng(31)
    indptr = np.array([0, 3, 3, 7, 9])
    indices = np.array([2, 0, 4, 1, 4, 0, 3, 3, 2])
    data = np.array([1e16, 1.0, -1e16, 3.0, 1e16, -1.0, -1e16, 2.5, -0.5])
    n_rows, n_cols = indptr.size - 1, 5

    def per_row(x, out):
        out = out.copy()
        for i in range(n_rows):
            for jj in range(indptr[i], indptr[i + 1]):
                out[i] = out[i] + data[jj] * x[indices[jj]]
        return out

    for index in (np.int32, np.int64):
        matrix = (indptr.astype(index), indices.astype(index), data)
        x, out = 1.0 + rng.random(n_cols), rng.standard_normal(n_rows)
        expect = per_row(x, out)
        csr_matvec(n_rows, n_cols, *matrix, x, out)
        np.testing.assert_array_equal(out, expect)
        for k in (0, 1, 3):
            x, out = 1.0 + rng.random((n_cols, k)), rng.standard_normal((n_rows, k))
            expect = per_row(x, out)
            csr_matvecs(n_rows, n_cols, k, *matrix, x, out)
            np.testing.assert_array_equal(out, expect)


def test_series_refuses_operands_its_kernels_would_misread():
    # the kernels check no bounds: a series checks its flow once, and a step
    # each operand and that out shares no memory with v
    rng = np.random.default_rng(37)
    low = sf.shift_operators(sf.generate_road_complex(546, 1088, 11))[0]
    (m,), n = low.small.factors, low.small.shape[0]
    with pytest.raises(ValueError, match="one matrix"):
        low.series(rng.standard_normal(low.shape[0]))
    block = rng.standard_normal((n, 4))
    for bad in (block[:-1], np.asfortranarray(block), block[:, ::2], block.astype(np.float32),
                block[:, 0].astype(np.int64), block.reshape(n, 2, 2)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            low.small.series(bad)
    for x in (block[:, 0].copy(), block):
        add, x, _ = low.small.series(x)
        strided = np.zeros((2 * n,) + x.shape[1:])[::2]
        shared = np.zeros((n + 1,) + x.shape[1:])
        bad = [(x, np.zeros_like(x)[:-1]), (x[:-1], np.zeros_like(x)[:-1]),
               (x, np.zeros_like(x, dtype=np.float32)), (strided, np.zeros_like(x)),
               (x, strided), (x, x), (shared[1:], shared[:-1])]
        if x.ndim == 2:
            bad.append((x, np.asfortranarray(np.zeros_like(x))))
        for v, out in bad:
            with pytest.raises(ValueError, match="C-contiguous float64"):
                add(v, out)
        out = np.ones_like(x)
        add(x, out)
        np.testing.assert_array_equal(out, _add_in_stored_order(m, x, np.ones_like(x)))


def test_row_ordered_copies_are_read_only_and_sorted(order_every_size):
    renumbered = 0
    for sc in _row_order_cases():
        for op in _with_small_sides(sc):
            assert len(op._ordered) == len(op._on_support)
            for factor, ordered in zip(op._on_support, op._ordered):
                if ordered is None:
                    assert np.all(np.diff(np.diff(factor.indptr)) >= 0)
                    continue
                rows, order, inverse = ordered
                assert not np.all(np.diff(np.diff(factor.indptr)) >= 0)
                assert np.all(np.diff(np.diff(rows.indptr)) >= 0)
                assert not any(a.flags.writeable for a in (rows.data, rows.indices,
                                                           rows.indptr, order, inverse))
                np.testing.assert_array_equal(order[inverse], np.arange(order.size))
                np.testing.assert_array_equal(inverse[order], np.arange(order.size))
                # the same rows, each with its entries in stored order; one
                # matrix on all its indices has its columns renumbered too
                back = rows[inverse]
                indices = back.indices
                if op._renumbered:
                    renumbered += 1
                    assert len(op.factors) == 1 and rows.shape[0] == rows.shape[1]
                    indices = order[indices]
                np.testing.assert_array_equal(indices, factor.indices)
                for name in ("data", "indptr"):
                    np.testing.assert_array_equal(getattr(back, name), getattr(factor, name))
    assert renumbered > 0


def test_uniformly_long_rows_keep_no_second_copy(order_every_size):
    # B1^T has two entries a row and B2^T three; on road complexes B1 (node
    # degrees), B2 (triangles per edge) and the node Gram vary, and on a
    # complete complex none of them does
    for sc in _row_order_cases():
        varies = sc.n_edges != sc.vertex_count * (sc.vertex_count - 1) // 2
        ops = _with_small_sides(sc)
        for low, up in (ops[0:6:3], ops[6:12:3]):
            assert low._ordered[0] is None and up._ordered[1] is None
            copies = (low._ordered[1], up._ordered[0], low.small._ordered[0])
            assert all((copy is not None) == varies for copy in copies)


def test_only_large_factors_keep_ordered_rows():
    # at 4352 edges B1 (8,704 entries) and the node Gram (10,880) keep a
    # copy; B2 on the edges on a triangle (3,753) and the triangle Gram
    # (2,901) are below the size from which ordering pays, as is every
    # factor at 1088 edges
    from simplicial_filters._kernels import ROW_ORDER_MIN_ENTRIES

    rng = np.random.default_rng(5)
    low, low_small, low_step, up, up_small, up_step = _with_small_sides(
        sf.generate_road_complex(2176, 4352, 11))[:6]
    assert low._ordered[0] is None and low._ordered[1] is not None
    assert low_small._ordered[0] is not None and low_step._ordered[0] is not None
    assert up._ordered == (None, None) and up_small._ordered == up_step._ordered == (None,)
    assert up._on_support[0].nnz < ROW_ORDER_MIN_ENTRIES <= low._on_support[1].nnz
    for op in (low, low_small, low_step):
        _assert_single_flows_canonical(op, rng)
    small = _with_small_sides(sf.generate_road_complex(546, 1088, 11))
    assert all(ordered is None for op in small for ordered in op._ordered)


EPS = np.finfo(np.float64).eps


def _abs_operator(op):
    # |L| <= |A| |B| entrywise for the two stored factors, B = A^T
    return sf.ShiftMatrix(abs(op.factors[0]), 1.0)


def edge_space_filter(op_lower, op_upper, coeffs, flow):
    """The monomial recursion with one edge-space shift per step, and its magnitude:
    the same recursion on |L|, |taps| and |flow|."""
    out, mag = coeffs.h0 * flow, abs(coeffs.h0) * np.abs(flow)
    for op, taps in ((op_lower, coeffs.alpha), (op_upper, coeffs.beta)):
        if not taps:
            continue
        x, ax, abs_op = flow, np.abs(flow), _abs_operator(op)
        for a in taps:
            x, ax = op.matvec(x), abs_op.matvec(ax)
            out, mag = out + a * x, mag + abs(a) * ax
    return out, mag


def edge_space_chebyshev(filt, op_lower, op_upper, flow):
    """The shifted-Chebyshev recursion with one edge-space shift per step, and
    per column the sum of |c_k| times the largest term norm."""
    out = -filt.g0 * flow if filt.two_sided else np.zeros_like(flow)
    scale = abs(filt.g0) * np.linalg.norm(flow, axis=0) if filt.two_sided else 0.0
    for op, omega, coeffs in ((op_lower, filt.omega_lower, filt.c_lower),
                              (op_upper, filt.omega_upper, filt.c_upper)):
        if not coeffs:
            continue
        terms = [flow]
        if len(coeffs) > 1:
            terms.append(op.matvec(flow) / omega - flow)
        while len(terms) < len(coeffs):
            terms.append(2.0 * (op.matvec(terms[-1]) / omega - terms[-1]) - terms[-2])
        out = out + 0.5 * coeffs[0] * flow + sum(c * w for c, w in zip(coeffs[1:], terms[1:]))
        largest = np.max([np.linalg.norm(w, axis=0) for w in terms], axis=0)
        scale = scale + np.sum(np.abs(coeffs)) * largest
    return out, scale


def edge_space_oracle(op_lower, op_upper, filt, flow):
    """`apply_operators` by the edge-space oracle of the filter's kind."""
    if isinstance(filt, FilterCoefficients):
        return edge_space_filter(op_lower, op_upper, filt, flow)
    return edge_space_chebyshev(filt, op_lower, op_upper, flow)


def assert_near_monomial_oracle(got, expect, mag, order):
    # each evaluation rounds at a few ulps of the magnitude per step
    assert np.all(np.abs(got - expect) <= 4 * (order + 1) * EPS * mag)


def assert_near_chebyshev_oracle(got, expect, scale, order):
    # the same per column, normwise: Chebyshev terms mix entries
    gap = np.linalg.norm(got - expect, axis=0)
    assert np.all(gap <= 4 * (order + 1) * EPS * scale)


def _gershgorin_half(op):
    top = float(np.max(_abs_operator(op).matvec(np.ones(op.shape[1])), initial=0.0))
    return top / 2 if top > 0 else 1.0


def _assert_columns_bitwise(fn, block):
    out = fn(block)
    for j in range(block.shape[1]):
        np.testing.assert_array_equal(out[:, j], fn(block[:, j]))


@pytest.mark.parametrize("order", [0, 1, 2, 61])
def test_small_side_recursions_match_edge_space_oracle(order):
    rng = np.random.default_rng(order)
    for obj in road_cases(rng):
        low, up = sf.shift_operators(obj)
        n = low.shape[0]
        block = rng.standard_normal((n, 3))
        # monomial taps scaled so that every power contributes
        scale_l, scale_u = 2 * _gershgorin_half(low), 2 * _gershgorin_half(up)
        alpha = tuple(rng.standard_normal(order) / scale_l ** np.arange(1, order + 1))
        beta = tuple(rng.standard_normal(order) / scale_u ** np.arange(1, order + 1))
        c_l = tuple(rng.standard_normal(order + 1) / np.arange(1, order + 2))
        c_u = tuple(rng.standard_normal(order + 1) / np.arange(1, order + 2))
        omegas = (_gershgorin_half(low), _gershgorin_half(up))
        for sides in ((True, False), (False, True), (True, True)):
            coeffs = FilterCoefficients(0.7, alpha if sides[0] else (), beta if sides[1] else ())
            expect, mag = edge_space_filter(low, up, coeffs, block)
            assert_near_monomial_oracle(sf.apply(obj, coeffs, block), expect, mag, order)
            _assert_columns_bitwise(lambda f: sf.apply(obj, coeffs, f), block)

            filt = sf.ChebyshevFilter(c_l if sides[0] else (), c_u if sides[1] else (),
                                      *omegas, g0=0.4)
            expect, scale = edge_space_chebyshev(filt, low, up, block)
            got = sf.chebyshev_apply(filt, obj, block)
            assert_near_chebyshev_oracle(got, expect, scale, order)
            _assert_columns_bitwise(lambda f: sf.chebyshev_apply(filt, obj, f), block)


def test_small_images_enter_every_power():
    # L^l x = from_small(K small^(l-1) E x) for l >= 1, with E^T = small_images():
    # E = A^T and K = I on a Gram, E the rows L touches and K = small on the
    # edges; lift is from_small on the rows L touches, without the zero rows
    rng = np.random.default_rng(53)
    cases = [sf.generate_road_complex(150, 300, 11), complete_complex(8), road_with_clique()]
    for sc in cases + degenerate_complexes():
        for op in sf.shift_operators(sc) + sf.spectral._normalized_operators(sc):
            n, size = op.shape[0], op.small.shape[0]
            images = op.small_images()
            assert images.shape == (n, size)
            touched = np.diff(op.factors[0].indptr) > 0
            if not op.on_gram:
                assert images.nnz == size and np.array_equal(images.data, np.ones(size))
                assert np.array_equal(np.diff(images.indptr) > 0, touched)
            x = rng.standard_normal((n, 2))
            v, power = images.T @ x, x
            for _ in range(3):
                power = op @ power
                got = op.from_small(v if op.on_gram else op.small @ v)
                np.testing.assert_allclose(got, power, rtol=0,
                                           atol=1e-13 * np.abs(power).max(initial=1.0))
                v = op.small @ v
            y = rng.standard_normal((size, 2))
            padded, lifted = op.from_small(y), op.lift(y)
            assert np.array_equal(padded[touched], lifted)
            assert not padded[~touched].any()


@pytest.mark.parametrize("order", [2, 61])
def test_folded_chebyshev_step_on_two_factor_small_sides(monkeypatch, order):
    # where cliques are filled the upper small side is the product A A^T of
    # the two factors on the edges on a triangle, as one CSR, and a Chebyshev
    # step is one product with M = (2/omega) S - 2I
    from simplicial_filters.design import _step_matrix

    builds = spy_builds(monkeypatch, _step_matrix)
    rng = np.random.default_rng(order)
    for sc in (complete_complex(12), road_with_clique()):
        for low, up in (sf.shift_operators(sc), sf.spectral._normalized_operators(sc)):
            (s,), (a, b) = up.small.factors, up.factors
            assert not up.on_gram and s.nnz == s.shape[0] + a.nnz + b.nnz
            block = rng.standard_normal((low.shape[0], 3))
            c_l = tuple(rng.standard_normal(order + 1) / np.arange(1, order + 2))
            c_u = tuple(rng.standard_normal(order + 1) / np.arange(1, order + 2))
            omegas = (_gershgorin_half(low), _gershgorin_half(up))
            filt = sf.ChebyshevFilter(c_l, c_u, *omegas, g0=0.4)
            run = lambda f: apply_operators(low, up, filt, f)
            builds.clear()
            expect, scale = edge_space_chebyshev(filt, low, up, block)
            assert_near_chebyshev_oracle(run(block), expect, scale, order)
            _assert_columns_bitwise(run, block)
            # one M per side, built on the first call and reused by the others
            assert builds["_step_matrix"] == 2
            step = _step_matrix(up.small, omegas[1])
            (m,) = step.factors
            assert not any(x.flags.writeable for x in (m.data, m.indices, m.indptr))
            assert m.nnz == s.nnz


@pytest.mark.parametrize("top", [0, 1, 2, 3])
def test_clenshaw_tails_match_edge_space_oracle(top):
    # K = len(c) - 1: K = 0 sums nothing, K = 1 takes no product, K = 2 only
    # the closing one and K = 3 one step of the loop before it; on the node
    # and triangle Grams, and on the edges on a triangle around filled cliques
    rng = np.random.default_rng(43 + top)
    for sc in (sf.generate_road_complex(546, 1088, 11), complete_complex(12), road_with_clique()):
        for low, up in (sf.shift_operators(sc), sf.spectral._normalized_operators(sc)):
            block = rng.standard_normal((low.shape[0], 3))
            c_l = tuple(rng.standard_normal(top + 1) / np.arange(1, top + 2))
            c_u = tuple(rng.standard_normal(top + 1) / np.arange(1, top + 2))
            omegas = (_gershgorin_half(low), _gershgorin_half(up))
            for sides in ((True, False), (False, True), (True, True)):
                filt = sf.ChebyshevFilter(c_l if sides[0] else (), c_u if sides[1] else (),
                                          *omegas, g0=0.4)
                run = lambda f: apply_operators(low, up, filt, f)
                expect, scale = edge_space_chebyshev(filt, low, up, block)
                assert_near_chebyshev_oracle(run(block), expect, scale, top)
                _assert_columns_bitwise(run, block)


def test_filters_take_any_layout_of_flows():
    # an F-ordered block, a strided view of one, a block of no columns and the
    # flows of an edgeless complex: every column equals that of the
    # C-contiguous block, and the strided single flow of that column, bitwise
    rng = np.random.default_rng(47)
    poly = FilterCoefficients(0.3, tuple(rng.standard_normal(4) / 8.0 ** np.arange(1, 5)),
                              tuple(rng.standard_normal(4) / 6.0 ** np.arange(1, 5)))
    cheb = sf.ChebyshevFilter(tuple(rng.standard_normal(9)), tuple(rng.standard_normal(9)),
                              5.0, 4.0, 0.5)
    for sc in (sf.generate_road_complex(546, 1088, 11), sf.build_complex(3, [])):
        block = rng.standard_normal((sc.n_edges, 6))
        for filt in (poly, cheb):
            for flows in (np.asfortranarray(block), block[:, ::2], block[:, :0]):
                got = sf.apply(sc, filt, flows)
                expect = sf.apply(sc, filt, np.ascontiguousarray(flows))
                assert got.shape == expect.shape == flows.shape
                for j in range(flows.shape[1]):
                    np.testing.assert_array_equal(got[:, j], expect[:, j])
                    np.testing.assert_array_equal(got[:, j], sf.apply(sc, filt, flows[:, j]))


@pytest.mark.parametrize("method, order", [("grid", 1), ("grid", 9), ("cheb", 2), ("cheb", 61)])
def test_ranking_matches_edge_space_oracle(monkeypatch, method, order):
    from simplicial_filters import apps

    # ranking every edge runs N1 columns per step, so this uses rank_batch's
    # 1088-edge size; the 2176-edge complexes are covered by the test above
    road = sf.generate_road_complex(546, 1088, 11)
    permuted = sf.permute(road, PermutationPlan.random(road, np.random.default_rng(4)))
    for sc in [road, permuted] + degenerate_complexes():
        got = sf.edge_pagerank_all(sc, 0.01, method, order=order)
        bounds, built = [], []

        def oracle(ops, filt, root, edge=None):
            # the ranking filter on identity columns, by one edge-space
            # recursion per block in place of the small-side series
            built.append(edge)

            def rank(start, stop):
                units = np.eye(root.shape[0], stop - start, -start) / root
                expect, bound = edge_space_oracle(*ops, filt, units)
                bounds.append(bound)
                return expect
            return rank

        with monkeypatch.context() as patch:
            patch.setattr(apps, "_filter_ranker", oracle)
            # the bounds are collected per block in call order: one thread
            patch.setattr(apps, "_worker_count", lambda blocks: 1)
            expect = sf.edge_pagerank_all(sc, 0.01, method, order=order)
        pi = np.column_stack([r.pi for r in got] or [np.zeros((sc.n_edges, 0))])
        pi_oracle = np.column_stack([r.pi for r in expect] or [np.zeros((sc.n_edges, 0))])
        # the oracle ran, on every block: a bound for each edge's column
        assert built == [None]
        assert len(bounds) == -(-sc.n_edges // 128)
        bound = np.concatenate(bounds, axis=-1) if bounds else np.zeros(pi.shape[1])
        assert bound.shape[-1] == sc.n_edges
        # the filters run on y = pi / sqrt(d2), d2 the triangles per edge floored
        # at 1; the bounds are on y
        root = np.sqrt(np.maximum(np.diff(sf.boundary_csr(sc, 2).indptr), 1))
        if method == "grid":
            assert_near_monomial_oracle(pi, pi_oracle, root[:, None] * bound, order)
        else:
            assert_near_chebyshev_oracle(pi, pi_oracle, root.max(initial=0.0) * bound, order)
