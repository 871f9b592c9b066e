import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp

import simplicial_filters as sf
from simplicial_filters import (
    DataError,
    DomainMismatch,
    EmptySpec,
    FilterCoefficients,
    IllConditioned,
    ResponseSpec,
    spectral,
)
from simplicial_filters.design import (
    chebyshev_coefficients,
    default_quadrature_points,
    ls_tied,
)

from conftest import random_complex, road_with_clique


def quad_cheb_coeffs(fn, omega, order):
    """Chebyshev coefficients by adaptive quadrature instead of a fixed rule."""
    out = []
    for l in range(order + 1):
        val, _ = scipy.integrate.quad(
            lambda phi: np.cos(l * phi) * fn(omega * (np.cos(phi) + 1.0)),
            0.0, np.pi, limit=400,
        )
        out.append((2.0 / np.pi) * val)
    return np.asarray(out)


def indicator_spec(dg, dc):
    return ResponseSpec(
        0.0,
        sf.response_constant(1.0, dg[-1]),
        sf.response_constant(0.0, dc[-1]),
    )


@pytest.fixture
def toy_freqs(toy):
    return sf.distinct_frequencies(sf.hodge_spectrum(toy))


def test_ls_joint_square_is_exact(toy, toy_freqs):
    dg, dc = toy_freqs
    res = sf.ls_joint(dg, dc, indicator_spec(dg, dc), 6, 3)
    assert res.residual < 1e-8
    resp = sf.frequency_response(res.coefficients, sf.hodge_spectrum(toy))
    assert resp.at_harmonic == pytest.approx(0.0, abs=1e-8)
    for lam in dg:
        assert resp.at_gradient[lam] == pytest.approx(1.0, abs=1e-8)


def test_ls_joint_matches_normal_equations(toy_freqs, rng):
    # full least squares against numpy's reference solver on the same system
    dg, dc = toy_freqs
    spec = ResponseSpec(
        0.3,
        sf.response_logistic(4.0, 2.0, dg[-1]),
        sf.response_logistic(3.0, 2.5, dc[-1]),
    )
    res = sf.ls_joint(dg, dc, spec, 3, 2)
    rows = []
    rhs = [spec.g0]
    rows.append([1.0] + [0.0] * 3 + [0.0] * 2)
    for lam in dg:
        rows.append([1.0] + [lam ** l for l in (1, 2, 3)] + [0.0, 0.0])
        rhs.append(spec.gradient(lam))
    for lam in dc:
        rows.append([1.0] + [0.0] * 3 + [lam ** l for l in (1, 2)])
        rhs.append(spec.curl(lam))
    ref, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    got = np.concatenate([[res.coefficients.h0], res.coefficients.alpha,
                          res.coefficients.beta])
    np.testing.assert_allclose(got, ref, atol=1e-8)
    assert res.residual == pytest.approx(
        np.linalg.norm(np.asarray(rows) @ ref - np.asarray(rhs)), abs=1e-8
    )


def test_ls_decoupled_pins_h0(toy_freqs):
    dg, dc = toy_freqs
    spec = ResponseSpec(
        0.7,
        sf.response_step(2.0, 1.0, 0.0, dg[-1]),
        sf.response_constant(0.0, dc[-1]),
    )
    res = sf.ls_decoupled(dg, dc, spec, 4, 2)
    assert res.coefficients.h0 == spec.g0
    # block formula: alpha solves the Vandermonde fit of g_G - g0
    phi = np.vander(np.asarray(dg), 5, increasing=True)[:, 1:]
    target = np.array([spec.gradient(l) for l in dg]) - spec.g0
    ref = np.linalg.pinv(phi) @ target
    np.testing.assert_allclose(res.coefficients.alpha[:4], ref, atol=1e-6)


def test_ls_tied_shares_taps(toy_freqs):
    dg, dc = toy_freqs
    res = ls_tied(dg, dc, indicator_spec(dg, dc), 4)
    assert res.coefficients.alpha == res.coefficients.beta
    assert res.coefficients.order_lower == 4


def test_empty_spec_guards(toy_freqs):
    dg, dc = toy_freqs
    with pytest.raises(EmptySpec):
        sf.ls_joint((), (), ResponseSpec(1.0, None, None), 2, 2)
    with pytest.raises(EmptySpec):
        sf.ls_joint(dg, (), indicator_spec(dg, dc), 2, 1)
    # zero taps on both sides still fits h0 alone
    res = sf.ls_joint((), (), ResponseSpec(1.0, None, None), 0, 0)
    assert res.coefficients.h0 == pytest.approx(1.0)


def test_order_warning_points_at_caller(toy_freqs):
    dg, dc = toy_freqs
    for solver in (sf.ls_joint, sf.ls_decoupled):
        with pytest.warns(UserWarning, match="higher powers are redundant") as record:
            warnings.simplefilter("ignore", IllConditioned)
            solver(dg, dc, indicator_spec(dg, dc), len(dg) + 1, 1)
        order_warnings = [w for w in record if "redundant" in str(w.message)]
        assert {w.filename for w in order_warnings} == {__file__}


def test_ill_conditioned_warning(toy_freqs):
    # more taps than equations leaves null directions in the system
    dg, dc = toy_freqs
    with pytest.warns(IllConditioned):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("always", IllConditioned)
            sf.ls_joint(dg, dc, indicator_spec(dg, dc), 4, 4)


def test_estimate_lambda_max(rng):
    # power iteration approaches from below; 50 steps land inside 5%
    for _ in range(5):
        sc = random_complex(rng)
        L = sf.hodge_laplacian(sc)
        top = np.linalg.eigvalsh(L.total).max()
        low, up = sf.shift_operators(sc)
        est = sf.estimate_lambda_max(L.total)
        assert 0.95 * top <= est <= top + 1e-9
        tighter = sf.estimate_lambda_max(L.total, iterations=500)
        assert abs(tighter - top) <= abs(est - top) + 1e-12
        est_low = sf.estimate_lambda_max(low)
        top_low = np.linalg.eigvalsh(L.lower).max()
        assert 0.95 * top_low <= est_low <= top_low + 1e-9
    assert sf.estimate_lambda_max(np.zeros((3, 3))) == 0.0


def test_estimate_lambda_max_rejects_complex():
    # the Rayleigh quotient of a complex matrix came back as a wrong real
    # number (-1.0 here, where the dominant eigenvalue is 1+1j) with only a
    # ComplexWarning
    dense = np.eye(3) * (1 + 1j)
    for bad in (dense, sp.csr_matrix(dense), dense.tolist()):
        with pytest.raises(DataError, match="complex"):
            sf.estimate_lambda_max(bad, 5)


def test_estimate_lambda_max_rejects_non_finite_entries():
    # a NaN or infinite entry came back as a nan estimate, with no error
    for value in (np.nan, np.inf, -np.inf):
        dense = np.eye(3)
        dense[0, 1] = dense[1, 0] = value
        for bad in (dense, sp.csr_matrix(dense), sf.ShiftMatrix(dense), sf.ShiftMatrix(dense, 1.0)):
            with pytest.raises(DataError, match="finite"):
                sf.estimate_lambda_max(bad, 5)


def _power_oracle(matrix, k):
    """estimate_lambda_max's iterates, each normalized by np.linalg.norm."""
    v = np.random.default_rng(0).standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    if isinstance(matrix, sf.ShiftMatrix):
        u = matrix.to_small(v)
        add, v, _ = matrix.small.series(u / np.linalg.norm(u))
        k -= 1

        def step(x):
            out = np.zeros_like(x)
            add(x, out)
            return out
    else:
        step = lambda x: matrix @ x
    for _ in range(k):
        w = step(v)
        v = w / np.linalg.norm(w)
    w = step(v)
    return float(w @ w / (v @ w)) if getattr(matrix, "on_gram", False) else float(v @ w)


def test_estimate_lambda_max_on_the_small_side_matches_the_edge_space():
    # a ShiftMatrix iterates on its small side: the node and triangle Grams
    # (the node Gram and the one matrix through their row-ordered copies at
    # 4352 edges) and L on the edges on a triangle around a filled clique.
    # The Gram quotient is |Gu|^2 / u.Gu; u.Gu alone is half a step behind,
    # and read 15% low after one step on the node Gram here
    road = sf.generate_road_complex(2176, 4352, 11)
    ops = sf.shift_operators(road) + spectral._normalized_operators(road)
    clique_upper = sf.shift_operators(road_with_clique())[1]
    ops += (clique_upper, sf.ShiftMatrix(ops[0].as_csr()))
    assert [op.on_gram for op in ops] == [True] * 4 + [False] * 2
    for op in ops:
        for k in (1, 2, 50):
            expect = sf.estimate_lambda_max(op.as_csr(), k)
            assert abs(sf.estimate_lambda_max(op, k) - expect) <= 1e-14 * expect, (op, k)
            # the loop's math.sqrt(w @ w) is np.linalg.norm's arithmetic, bitwise
            assert expect == _power_oracle(op.as_csr(), k), (op, k)
            assert sf.estimate_lambda_max(op, k) == _power_oracle(op, k), (op, k)
    no_triangles = sf.build_complex(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    assert sf.estimate_lambda_max(sf.shift_operators(no_triangles)[1], 50) == 0.0


def test_grid_design_recovers_polynomial(toy):
    # sampling a polynomial response recovers its own taps
    true = FilterCoefficients(0.25, (1.5, -0.25), (0.75,))
    spec = ResponseSpec(
        0.25,
        sf.response_custom(lambda lam: 0.25 + 1.5 * lam - 0.25 * lam**2, 6.0),
        sf.response_custom(lambda lam: 0.25 + 0.75 * lam, 4.0),
    )
    res = sf.grid_design(spec, 30, 30, 2, 1)
    np.testing.assert_allclose(res.coefficients.alpha, true.alpha, atol=1e-8)
    np.testing.assert_allclose(res.coefficients.beta, true.beta, atol=1e-8)
    assert res.coefficients.h0 == pytest.approx(0.25, abs=1e-8)
    assert res.residual < 1e-8


def test_grid_design_needs_enough_samples():
    spec = ResponseSpec(0.0, sf.response_constant(1.0, 5.0),
                        sf.response_constant(0.0, 4.0))
    with pytest.raises(DataError):
        sf.grid_design(spec, 2, 2, 4, 4)


def test_chebyshev_coefficients_match_quadrature():
    omega = 2.75
    fn = lambda lam: 1.0 / (0.05 + lam)
    for order in (4, 9):
        got = chebyshev_coefficients(fn, omega, order,
                                     default_quadrature_points(order))
        ref = quad_cheb_coeffs(fn, omega, order)
        np.testing.assert_allclose(got, ref, atol=1e-7)
    # the FFT against the sums of cos(l phi_j) y_j, taken term by term
    q, order = 488, 61
    phi = np.pi * (np.arange(q) + 0.5) / q
    values = fn(omega * (np.cos(phi) + 1.0))
    ref = [(2.0 / q) * math.fsum(np.cos(l * phi) * values) for l in range(order + 1)]
    got = chebyshev_coefficients(fn, omega, order, q)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_default_quadrature_points():
    assert default_quadrature_points(10) == 256
    assert default_quadrature_points(61) == 488


def pagerank_spec(gamma, lam_g, lam_c):
    return ResponseSpec(
        1.0 / gamma,
        sf.response_inverse_shift(gamma, lam_g),
        sf.response_inverse_shift(gamma, lam_c),
    )


def dense_chebyshev(filt, sc):
    """Matrix three-term recursion, the dense mirror of the vector path."""
    L = sf.hodge_laplacian(sc)
    n = sc.n_edges
    H = np.zeros((n, n))
    for coeffs, omega, mat in ((filt.c_lower, filt.omega_lower, L.lower),
                               (filt.c_upper, filt.omega_upper, L.upper)):
        if coeffs is None:
            continue
        P1 = mat / omega - np.eye(n)
        t_prev = np.eye(n)
        t_cur = P1.copy()
        acc = 0.5 * coeffs[0] * np.eye(n)
        for l in range(1, len(coeffs)):
            acc = acc + coeffs[l] * t_cur
            t_prev, t_cur = t_cur, 2.0 * P1 @ t_cur - t_prev
        H = H + acc
    if filt.two_sided:
        H = H - filt.g0 * np.eye(n)
    return H


def test_chebyshev_apply_matches_dense(toy, rng):
    gamma = 0.1
    spec = pagerank_spec(gamma, 5.5, 4.1)
    for order in (3, 7, 10):
        filt = sf.chebyshev_design(spec, 5.5, 4.1, order, order)
        H = dense_chebyshev(filt, toy)
        flow = rng.standard_normal(toy.n_edges)
        np.testing.assert_allclose(sf.chebyshev_apply(filt, toy, flow),
                                   H @ flow, atol=1e-9)


def test_chebyshev_harmonic_response(toy):
    # at frequency zero both series collapse onto the identity weight
    spec = pagerank_spec(0.05, 5.5, 4.1)
    filt = sf.chebyshev_design(spec, 5.5, 4.1, 40, 40)
    r0 = sf.chebyshev_response(filt, 0.0, "harmonic")
    assert r0 == pytest.approx(1.0 / 0.05, rel=1e-3)
    spectrum = sf.hodge_spectrum(toy)
    u = spectrum.u_harmonic[:, 0]
    out = sf.chebyshev_apply(filt, toy, u)
    np.testing.assert_allclose(out, r0 * u, atol=1e-9)


def test_chebyshev_response_matches_operator(toy, rng):
    spec = pagerank_spec(0.1, 5.5, 4.1)
    filt = sf.chebyshev_design(spec, 5.5, 4.1, 12, 12)
    spectrum = sf.hodge_spectrum(toy)
    H = dense_chebyshev(filt, toy)
    Ht = spectrum.basis.T @ H @ spectrum.basis
    expect = np.concatenate([
        [sf.chebyshev_response(filt, 0.0, "harmonic")] * spectrum.n_harmonic,
        [sf.chebyshev_response(filt, lam, "gradient")
         for lam in spectrum.lambda_gradient],
        [sf.chebyshev_response(filt, lam, "curl")
         for lam in spectrum.lambda_curl],
    ])
    np.testing.assert_allclose(np.diag(Ht), expect, atol=1e-9)
    assert np.abs(Ht - np.diag(np.diag(Ht))).max() < 1e-9


def test_apply_and_frequency_response_take_either_kind(toy, rng):
    # a Chebyshev filter runs through the same apply and response as taps do
    filt = sf.chebyshev_design(pagerank_spec(0.1, 5.5, 4.1), 5.5, 4.1, 12, 9)
    spectrum = sf.hodge_spectrum(toy)
    Ht = spectrum.basis.T @ dense_chebyshev(filt, toy) @ spectrum.basis
    resp = sf.frequency_response(filt, spectrum)
    expect = np.concatenate([
        [resp.at_harmonic] * spectrum.n_harmonic,
        [resp.at_gradient[float(lam)] for lam in spectrum.lambda_gradient],
        [resp.at_curl[float(lam)] for lam in spectrum.lambda_curl],
    ])
    np.testing.assert_allclose(np.diag(Ht), expect, atol=1e-9)
    flow = rng.standard_normal((toy.n_edges, 2))
    np.testing.assert_array_equal(sf.apply(toy, filt, flow), sf.chebyshev_apply(filt, toy, flow))
    np.testing.assert_allclose(sf.apply(toy, filt, flow), dense_chebyshev(filt, toy) @ flow,
                               atol=1e-9)


def test_chebyshev_domain_mismatch():
    bad = ResponseSpec(
        5.0,
        sf.response_inverse_shift(0.05, 5.5),
        sf.response_inverse_shift(0.05, 4.1),
    )
    with pytest.raises(DomainMismatch):
        sf.chebyshev_design(bad, 5.5, 4.1, 8, 8)


def test_steep_logistic_reaches_its_limit_silently():
    # exp(k (lam - lam0)) overflows far past a steep falling step; the curve
    # used to print an overflow RuntimeWarning there instead of taking its limit
    lam = np.linspace(0.0, 12.0, 7)
    curve = sf.response_logistic(-800.0, 0.5, 12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = curve(lam)
    with np.errstate(over="ignore"):
        assert np.array_equal(values, 1.0 / (1.0 + np.exp(800.0 * (lam - 0.5))))
    assert values[0] == 1.0 and np.all(values[1:] == 0.0)


def test_chebyshev_one_sided(toy, rng):
    # lower-only series: no -g0 correction, upper block passes through zero
    curve = sf.response_logistic(10.0, 1.0, 5.5)
    spec = ResponseSpec(curve(0.0), curve, None)
    filt = sf.chebyshev_design(spec, 5.5, None, 30, None)
    assert not filt.two_sided
    spectrum = sf.hodge_spectrum(toy)
    for lam in spectrum.lambda_gradient:
        got = sf.chebyshev_response(filt, lam, "gradient")
        assert got == pytest.approx(curve(lam), abs=5e-3)
    # curl input sees only the series value at its own frequency of L_lower: 0
    u = spectrum.u_curl[:, 0]
    out = sf.chebyshev_apply(filt, toy, u)
    expect = sf.chebyshev_response(filt, 0.0, "curl") * u
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_error_bound_dominates_response_error(toy):
    spec = pagerank_spec(0.1, 5.5, 4.1)
    spectrum = sf.hodge_spectrum(toy)
    prev = None
    for order in (8, 16, 32):
        filt = sf.chebyshev_design(spec, 5.5, 4.1, order, order)
        bound = sf.chebyshev_error_bound(filt, spec)
        worst = abs(sf.chebyshev_response(filt, 0.0, "harmonic") - spec.g0)
        for lam in spectrum.lambda_gradient:
            worst = max(worst, abs(sf.chebyshev_response(filt, lam, "gradient")
                                   - spec.gradient(lam)))
        for lam in spectrum.lambda_curl:
            worst = max(worst, abs(sf.chebyshev_response(filt, lam, "curl")
                                   - spec.curl(lam)))
        assert worst <= bound + 1e-6
        if prev is not None:
            assert bound < prev
        prev = bound


def test_response_curve_families():
    step = sf.response_step(2.0, 1.0, 0.25, 6.0)
    assert step(1.9) == 1.0 and step(2.1) == 0.25
    # lam < NaN is False everywhere: a NaN cutoff used to give the constant `high`
    for i, name in enumerate(("cutoff", "low", "high")):
        for bad in (np.nan, np.inf):
            args = [2.0, 1.0, 0.25]
            args[i] = bad
            with pytest.raises(sf.DataError, match=name):
                sf.response_step(*args, 6.0)
    table = sf.response_table([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)])
    assert table(1.0) == pytest.approx(2.0)
    inv = sf.response_inverse_shift(0.5, 8.0)
    assert inv(1.5) == pytest.approx(0.5)
    logi = sf.response_logistic(100.0, 1.0, 6.0)
    assert logi(0.0) < 1e-10 and logi(2.0) > 1.0 - 1e-10
