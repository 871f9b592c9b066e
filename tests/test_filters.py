from itertools import chain

import numpy as np
import pytest

import simplicial_filters as sf
from simplicial_filters import DataError, DimensionMismatch, FilterCoefficients
from simplicial_filters.complexes import OrientationPlan, PermutationPlan

from conftest import degenerate_complexes, random_complex


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


def test_shift_operators_cached_and_read_only(toy):
    from simplicial_filters.complexes import _hodge_parts
    from simplicial_filters.spectral import _normalized_parts

    low, up = sf.shift_operators(toy)
    assert sf.shift_operators(toy)[0] is low
    normalized = sf.apps._normalized_operators(toy)
    assert sf.apps._normalized_operators(toy)[0] is normalized[0]
    factors = [f for op in (low, up) + normalized for f in op.factors]
    assert len(factors) == 12
    # every shared sparse matrix the operators are assembled from, too
    lower, upper, weight, sym_lower, sym_upper = _normalized_parts(toy)
    matrices = factors + [lower, upper, sym_lower, sym_upper]
    matrices += [sf.incidence_matrix(toy, k).to_csr() for k in (1, 2)]
    matrices += [part for k in (0, 1, 2) for part in _hodge_parts(toy, k)]
    assert sf.incidence_matrix(toy, 1).to_csr() is matrices[16]
    arrays = [weight] + [a for m in matrices for a in (m.data, m.indices, m.indptr)]
    for array in arrays:
        with pytest.raises(ValueError):
            array[...] = 0


def test_distributed_shift_rejects_negative_rounds(toy):
    flow = np.ones(toy.n_edges)
    for rounds in ((-1, 0), (0, -1)):
        with pytest.raises(DataError):
            sf.distributed_shift(toy, flow, *rounds)


def test_factored_operators_match_assembled_parts():
    from simplicial_filters._kernels import IDENTITY_CHUNK, identity_block
    from simplicial_filters.complexes import _hodge_parts
    from simplicial_filters.spectral import _normalized_parts

    rng = np.random.default_rng(7)
    road = sf.generate_road_complex(1100, 2176, 11)
    cases = [
        road,
        sf.reorient(road, OrientationPlan.random(road, rng)),
        sf.permute(road, PermutationPlan.random(road, rng)),
    ] + degenerate_complexes()
    eps = np.finfo(np.float64).eps
    for obj in cases:
        pairs = list(zip(sf.shift_operators(obj), _hodge_parts(obj, 1)))
        # the normalized parts are defined on plain complexes only
        if isinstance(obj, sf.SimplicialComplex):
            lower, upper, _, sym_lower, sym_upper = _normalized_parts(obj)
            pairs += zip(sf.apps._normalized_operators(obj),
                         (lower, upper, sym_lower, sym_upper))
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
