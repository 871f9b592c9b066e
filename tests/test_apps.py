import functools
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

import simplicial_filters as sf
from simplicial_filters import (
    ExchangeMarket,
    IncompleteMarket,
    NonPositiveRate,
    UnsupportedCombination,
    ZeroReference,
)

from simplicial_filters import apps, design, io, spectral
from simplicial_filters.cli import main

from conftest import degenerate_complexes


def test_nrmse():
    truth = np.array([3.0, 4.0])
    assert sf.nrmse(truth, truth) == 0.0
    assert sf.nrmse(np.array([3.0, 0.0]), truth) == pytest.approx(0.8)
    with pytest.raises(ZeroReference):
        sf.nrmse(truth, np.zeros(2))


@pytest.fixture
def flat_flow(toy):
    spec = sf.hodge_spectrum(toy)
    return spec.basis @ np.ones(toy.n_edges)


def test_extract_spectral_is_projection(toy, flat_flow):
    spec = sf.hodge_spectrum(toy)
    for which, U in (("gradient", spec.u_gradient), ("curl", spec.u_curl),
                     ("harmonic", spec.u_harmonic)):
        result = sf.extract_component(toy, flat_flow, which, "spectral")
        np.testing.assert_allclose(result.flow, U @ (U.T @ flat_flow),
                                   atol=1e-10)
        assert result.nrmse == pytest.approx(0.0, abs=1e-12)


def test_extract_filter_ls_exact_at_full_order(toy, flat_flow):
    for which in ("gradient", "curl", "harmonic"):
        result = sf.extract_component(toy, flat_flow, which, "filter_ls")
        assert result.nrmse < 1e-6


def test_extract_onesided(toy, flat_flow):
    for which in ("gradient", "curl"):
        result = sf.extract_component(toy, flat_flow, which, "filter_onesided")
        assert result.nrmse < 1e-6
    with pytest.raises(UnsupportedCombination):
        sf.extract_component(toy, flat_flow, "harmonic", "filter_onesided")


def test_extract_cheb(toy, flat_flow):
    result = sf.extract_component(toy, flat_flow, "gradient", "filter_cheb",
                                  order_lower=60, order_upper=60)
    assert result.nrmse < 0.05


def _design_tops(monkeypatch):
    """The (lower, upper) tops of every Chebyshev design made while it is in use."""
    seen = []
    chebyshev_design = apps.chebyshev_design

    def spy(spec, lam_g, lam_c, *args):
        seen.append((lam_g, lam_c))
        return chebyshev_design(spec, lam_g, lam_c, *args)

    monkeypatch.setattr(apps, "chebyshev_design", spy)
    return seen


def test_cheb_extraction_designs_on_exact_tops(monkeypatch):
    # the tops used to be margin x a 50-step power iteration, which stops short
    # of lambda_max here (the upper top was 0.9846 lambda_max), so the
    # Chebyshev interval missed the top of the spectrum
    sc = sf.generate_road_complex(1088, 2176, 11)
    seen = _design_tops(monkeypatch)
    flow = np.random.default_rng(0).standard_normal(sc.n_edges)
    for which in ("gradient", "curl", "harmonic"):
        sf.extract_component(sc, flow, which, "filter_cheb")
    for op, tops in zip(sf.shift_operators(sc), zip(*seen)):
        a, b = op.factors
        lam_max = scipy.sparse.linalg.eigsh(a @ b, k=1, which="LA",
                                            return_eigenvectors=False)[0]
        assert min(tops) >= lam_max


def test_harmonic_cheb_extraction_warns_nothing():
    # the falling logistic step overflowed exp far above its cut and printed
    # "RuntimeWarning: overflow encountered in exp"
    sc = sf.generate_road_complex(546, 1088, 11)
    flow = np.random.default_rng(0).standard_normal(sc.n_edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sf.extract_component(sc, flow, "harmonic", "filter_cheb")
    assert np.all(np.isfinite(result.flow)) and result.nrmse < 1.0


def test_extract_tied_is_worse(toy, flat_flow):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        untied = sf.extract_component(toy, flat_flow, "gradient", "filter_ls",
                                      order_lower=4, order_upper=4)
        tied = sf.extract_component(toy, flat_flow, "gradient", "filter_ls",
                                    order_lower=4, order_upper=4, tied=True)
    assert tied.nrmse > untied.nrmse


def test_denoise_exact_formula(toy, rng):
    flow = rng.standard_normal(toy.n_edges)
    L = sf.hodge_laplacian(toy)
    for reg, P in (("hodge_laplacian", L.total), ("edge_laplacian", L.lower)):
        out = sf.denoise(toy, flow, 0.5, reg, "exact")
        expect = np.linalg.solve(np.eye(toy.n_edges) + 0.5 * P, flow)
        np.testing.assert_allclose(out, expect, atol=1e-10)


def test_denoise_filter_methods_near_exact(toy, rng):
    flow = rng.standard_normal(toy.n_edges)
    exact = sf.denoise(toy, flow, 0.5, "hodge_laplacian", "exact")
    grid = sf.denoise(toy, flow, 0.5, "hodge_laplacian", "grid",
                      order=8, samples=60)
    cheb = sf.denoise(toy, flow, 0.5, "hodge_laplacian", "cheb", order=40)
    assert np.abs(grid - exact).max() < 5e-2
    assert np.abs(cheb - exact).max() < 1e-3
    edge_exact = sf.denoise(toy, flow, 0.5, "edge_laplacian", "exact")
    edge_cheb = sf.denoise(toy, flow, 0.5, "edge_laplacian", "cheb", order=40)
    assert np.abs(edge_cheb - edge_exact).max() < 1e-3


@pytest.mark.parametrize("method, order", [("grid", 6), ("cheb", 20)])
def test_onesided_denoise_bounds_one_part(monkeypatch, toy, rng, method, order):
    # the edge regularizer designs on the lower part alone; its upper part used
    # to get a power iteration whose result was thrown away
    calls = []
    lambda_max = apps._lambda_max

    def spy(op):
        calls.append(op)
        return lambda_max(op)

    monkeypatch.setattr(apps, "_lambda_max", spy)
    apps._interval_tops.cache_clear()
    flow = rng.standard_normal(toy.n_edges)
    sf.denoise(toy, flow, 0.5, "edge_laplacian", method, order=order)
    assert calls == [sf.shift_operators(toy)[0]]
    calls.clear()
    sf.denoise(toy, flow, 0.5, "hodge_laplacian", method, order=order)
    assert calls == list(sf.shift_operators(toy))
    # the tops are cached per operator pair
    calls.clear()
    sf.denoise(toy, flow, 0.5, "hodge_laplacian", method, order=order)
    sf.denoise(toy, flow, 0.5, "edge_laplacian", method, order=order)
    assert calls == []


def _checked_tops(ops):
    """`apps._interval_tops` of an operator pair, each top checked against
    margin x a dense eigvalsh, or 1.0 for a zero part."""
    tops = apps._interval_tops(ops)
    for op, top in zip(ops, tops):
        lam = np.linalg.eigvalsh(op.as_csr().toarray()).max(initial=0.0)
        assert top == (pytest.approx(apps.LAMBDA_MAX_MARGIN * lam, rel=1e-13)
                       if lam > 1e-12 else 1.0)
    return tops


def test_ranking_lower_top_covers_lambda_max(monkeypatch):
    # the lower top was margin x a 50-step power iteration, 0.9988 lambda_max here
    sc = sf.generate_road_complex(546, 1088, 11)
    seen = _design_tops(monkeypatch)
    sf.edge_pagerank(sc, 0.01, 0, "cheb", order=10)
    lam_max = np.linalg.eigvalsh(sf.normalized_laplacian(sc).sym_lower)[-1]
    assert seen[0][0] >= lam_max


def test_denoising_upper_top_covers_lambda_max(monkeypatch):
    # the upper top was margin x a 50-step power iteration, 0.9846 lambda_max here
    sc = sf.generate_road_complex(1088, 2176, 11)
    seen = _design_tops(monkeypatch)
    sf.denoise(sc, np.ones(sc.n_edges), 0.5, "hodge_laplacian", "cheb", order=10)
    assert seen[0][1] >= sf.hodge_spectrum(sc).lambda_curl[-1]


def test_interval_tops_repeat_bitwise():
    # an unseeded Lanczos start vector gave a different last bit on each call,
    # which the traced benchmark's byte-compare of cold runs would catch
    sc = sf.generate_road_complex(546, 1088, 11)
    for ops in (sf.shift_operators(sc), spectral._normalized_operators(sc)):
        apps._interval_tops.cache_clear()
        first = np.array(apps._interval_tops(ops))
        apps._interval_tops.cache_clear()
        assert np.array(apps._interval_tops(ops)).tobytes() == first.tobytes()


@pytest.mark.parametrize("sc", [
    sf.build_complex(3, []),
    degenerate_complexes()[1],
    sf.build_complex(2, [(0, 1)]),
    sf.build_complex(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]),
], ids=["edgeless", "no-triangles", "single-edge", "single-triangle"])
def test_interval_tops_of_small_and_zero_parts(sc):
    # Lanczos fails on a zero part (ARPACK error -9) and on a 1 x 1 one (TypeError)
    for ops in (sf.shift_operators(sc), spectral._normalized_operators(sc)):
        _checked_tops(ops)
    flow = np.ones(sc.n_edges)
    assert np.all(np.isfinite(sf.denoise(sc, flow, 0.5, "hodge_laplacian", "cheb", order=8)))
    for r in sf.edge_pagerank_all(sc, 0.05, "cheb", order=8):
        assert np.all(np.isfinite(r.pi))

def test_market_validation():
    with pytest.raises(NonPositiveRate):
        ExchangeMarket(("A", "B"), np.array([[1.0, -2.0], [0.5, 1.0]]))
    # a unit diagonal, and NaN (missing) or finite positive quotes off it
    for bad in ([[2.0, 2.0], [0.5, 1.0]], [[np.nan, 2.0], [0.5, 1.0]],
                [[1.0, np.inf], [0.5, 1.0]], [[1.0, 2.0], [-np.inf, 1.0]]):
        with pytest.raises(sf.DataError):
            ExchangeMarket(("A", "B"), np.array(bad))
    m = ExchangeMarket(("A", "B"), np.array([[1.0, 2.0], [np.nan, 1.0]]))
    assert m.directed_rate(0, 1) == 2.0
    assert m.directed_rate(1, 0) == pytest.approx(0.5)  # reciprocal fallback
    assert m.is_complete()  # one direction per pair is enough
    hole = np.array([
        [1.0, 2.0, np.nan],
        [0.5, 1.0, 3.0],
        [np.nan, 1 / 3.0, 1.0],
    ])
    assert not ExchangeMarket(("A", "B", "C"), hole).is_complete()


def test_market_complex(toy):
    market = sf.demo_market()
    sc = sf.market_complex(market)
    n = len(market.currency_names)
    assert sc.vertex_count == n
    assert sc.n_edges == n * (n - 1) // 2
    assert sc.n_triangles == n * (n - 1) * (n - 2) // 6


def test_arbitrage_check_demo():
    market = sf.demo_market()
    hits = sf.arbitrage_check(market, 0.003)
    assert len(hits) == 6
    gains = [g for _, g in hits]
    assert gains == sorted(gains, reverse=True)
    names = [tuple(market.currency_names[i] for i in tri) for tri, _ in hits]
    assert ("USD", "JPY", "AUD") in names
    # direct roundtrip for the flagged USD-JPY-AUD cycle
    tri = hits[names.index(("USD", "JPY", "AUD"))][0]
    i, j, k = tri
    r = market.rate
    gain = r[i, j] * r[j, k] * r[k, i] - 1.0
    assert hits[names.index(("USD", "JPY", "AUD"))][1] == pytest.approx(gain)
    assert gain == pytest.approx(0.0041, abs=5e-4)


def test_arbitrage_correct_removes_cycles():
    market = sf.demo_market()
    corrected = sf.arbitrage_correct(market)
    assert corrected.is_complete()
    r = corrected.rate
    np.testing.assert_allclose(r * r.T, 1.0, atol=1e-10)
    n = len(market.currency_names)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                assert abs(r[i, j] * r[j, k] * r[k, i] - 1.0) < 1e-8
    assert sf.arbitrage_check(corrected, 1e-6) == []


def test_arbitrage_correct_is_log_projection():
    # correction = gradient projection of the log-rate flow
    market = sf.demo_market()
    sc = sf.market_complex(market)
    flow = np.array([
        np.log(market.directed_rate(u, v)) for u, v in sc.edges
    ])
    fg, _, _ = sf.hodge_decompose(sc, flow)
    corrected = sf.arbitrage_correct(market)
    got = np.array([np.log(corrected.rate[u, v]) for u, v in sc.edges])
    np.testing.assert_allclose(got, fg, atol=1e-10)


def test_arbitrage_incomplete_market_builds_no_curl_projector(monkeypatch):
    # the correction keeps the gradient part only; it used to project onto
    # the curl space too (hodge_decompose) and throw that part away
    rate = np.array(sf.demo_market().rate)
    rate[0, -1] = rate[-1, 0] = np.nan
    market = ExchangeMarket(sf.demo_market().currency_names, rate)
    sc = sf.market_complex(market)
    flow = np.array([np.log(market.directed_rate(u, v)) for u, v in sc.edges])
    sides = []
    projector = spectral._projector

    def spy(sc, side, *args):
        sides.append(side)
        return projector(sc, side, *args)

    monkeypatch.setattr(spectral, "_projector", spy)
    monkeypatch.setattr(apps, "_projector", spy)
    with pytest.warns(IncompleteMarket):
        corrected = sf.arbitrage_correct(market)
    assert sc.n_triangles > 0 and sides == ["gradient"]
    expect = [math.exp(x) for x in projector(sc, "gradient")(flow)]
    got = np.array([corrected.rate[u, v] for u, v in sc.edges])
    np.testing.assert_array_equal(got, expect)


def test_arbitrage_consistent_market_unchanged():
    # a reciprocal market priced from a single numeraire has no cycles
    values = np.array([1.0, 0.85, 6.4, 7.8])
    rate = values[None, :] / values[:, None]
    market = ExchangeMarket(("W", "X", "Y", "Z"), rate)
    assert sf.arbitrage_check(market, 1e-9) == []
    corrected = sf.arbitrage_correct(market)
    np.testing.assert_allclose(corrected.rate, rate, atol=1e-10)


def test_arbitrage_incomplete_market_warns():
    rate = np.array([
        [1.0, 1.2, np.nan],
        [1 / 1.2, 1.0, 2.0],
        [np.nan, 0.5, 1.0],
    ])
    market = ExchangeMarket(("A", "B", "C"), rate)
    with pytest.warns(IncompleteMarket):
        corrected = sf.arbitrage_correct(market)
    # quoted pairs stay reciprocal and consistent on the quoted subgraph
    r = corrected.rate
    assert r[0, 1] * r[1, 0] == pytest.approx(1.0)
    assert np.isnan(r[0, 2]) and np.isnan(r[2, 0])


def test_pagerank_exact_residual(toy):
    gamma = 0.05
    norm = sf.normalized_laplacian(toy)
    A = gamma * np.eye(toy.n_edges) + norm.total
    for e in range(toy.n_edges):
        result = sf.edge_pagerank(toy, gamma, e, "exact")
        ind = np.zeros(toy.n_edges)
        ind[e] = 1.0
        assert np.linalg.norm(A @ result.pi - ind) < 1e-10


def test_pagerank_norms_pythagorean(toy):
    for e in range(toy.n_edges):
        result = sf.edge_pagerank(toy, 0.05, e, "exact")
        t, h, g, c = result.norms_abs
        assert t**2 == pytest.approx(h**2 + g**2 + c**2, abs=1e-10)
        rel = result.norms_rel
        assert rel.harmonic == pytest.approx(h / t)
        assert rel.gradient == pytest.approx(g / t)
        assert rel.curl == pytest.approx(c / t)


def test_pagerank_batch_matches_single(toy):
    batch = sf.edge_pagerank_all(toy, 0.05, "exact")
    assert [r.edge_index for r in batch] == list(range(toy.n_edges))
    single = sf.edge_pagerank(toy, 0.05, 3, "exact")
    np.testing.assert_allclose(batch[3].pi, single.pi, atol=1e-12)


def test_pagerank_batch_filters_match_single(toy):
    # the batch runs the identity as column blocks through one LU solve or
    # SpMM recursion; each single-edge pi must equal its column bit for bit,
    # also past the first block of 128 edges
    gamma = 0.05
    road = sf.generate_road_complex(60, 130, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sc, edges in ((toy, range(toy.n_edges)), (road, (0, 127, 128, 129))):
            for method, kwargs in (("exact", {}), ("cheb", {"order": 30}),
                                   ("grid", {"order": 9, "samples": 200})):
                batch = sf.edge_pagerank_all(sc, gamma, method, **kwargs)
                assert [r.edge_index for r in batch] == list(range(sc.n_edges))
                for j in edges:
                    single = sf.edge_pagerank(sc, gamma, j, method, **kwargs)
                    assert single.edge_index == j
                    assert np.array_equal(batch[j].pi, single.pi)
                    # relative to the total: a block that is zero up to rounding
                    # (curl here is ~1e-15) has no relative digits to agree on
                    np.testing.assert_allclose(batch[j].norms_abs, single.norms_abs, rtol=0,
                                               atol=1e-12 * single.norms_abs.total)
                    np.testing.assert_allclose(batch[j].norms_rel, single.norms_rel,
                                               rtol=0, atol=1e-12)


RANKINGS = (("exact", {}), ("grid", {"order": 9, "samples": 200}), ("cheb", {"order": 20}))


def test_pagerank_all_is_independent_of_worker_count(monkeypatch):
    # three blocks of the identity (128 + 128 + 44 columns) on one, two and
    # three threads, the last more threads than this machine may have CPUs;
    # a short switch interval makes the threads interleave often
    sc = sf.generate_road_complex(150, 300, 11)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for method, kwargs in RANKINGS:
            runs = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(apps, "_worker_count", lambda blocks: workers)
                runs.append(sf.edge_pagerank_all(sc, 0.05, method, **kwargs))
            serial, *threaded = runs
            for run in threaded:
                assert [r.edge_index for r in run] == list(range(sc.n_edges))
                assert np.array_equal(np.column_stack([r.pi for r in run]),
                                      np.column_stack([r.pi for r in serial]))
                assert [(r.norms_abs, r.norms_rel) for r in run] == \
                    [(r.norms_abs, r.norms_rel) for r in serial]
    finally:
        sys.setswitchinterval(switch)


def test_pagerank_all_block_failure_joins_its_threads(monkeypatch, tmp_path, capsys):
    # a block that fails on a worker thread raises in the caller, which gets
    # back every thread it started; the CLI exits 3 and leaves no partial table
    from simplicial_filters._kernels import identity_block

    sc = sf.generate_road_complex(150, 300, 11)
    rank, _ = apps._ranker(sc, 0.05, "exact", None, 200)
    failing = rank(identity_block(sc.n_edges, 128))
    norms = apps._subspace_norms

    def fail_at_128(sc_, y):
        if y.shape == failing.shape and np.array_equal(y, failing):
            raise sf.NumericalError("block at 128 failed")
        return norms(sc_, y)

    monkeypatch.setattr(apps, "_subspace_norms", fail_at_128)
    monkeypatch.setattr(apps, "_worker_count", lambda blocks: 2)
    threads = threading.active_count()
    with pytest.raises(sf.NumericalError, match="block at 128"):
        sf.edge_pagerank_all(sc, 0.05, "exact")
    assert threading.active_count() == threads
    sc_path, out_path = tmp_path / "sc.json", tmp_path / "pr.csv"
    io.save_complex(sc, sc_path)
    assert main(["pagerank", "--sc", str(sc_path), "--gamma", "0.05", "--all",
                 "--out", str(out_path)]) == 3
    assert "block at 128" in capsys.readouterr().err
    assert not out_path.exists()
    assert threading.active_count() == threads


@pytest.mark.parametrize("method, kwargs", RANKINGS, ids=[m for m, _ in RANKINGS])
def test_pagerank_all_fills_its_caches_once(monkeypatch, method, kwargs):
    # every cache a block reads is filled in the calling thread before the
    # workers start, so threads build nothing a serial run does not
    from simplicial_filters._kernels import ShiftMatrix

    sc = sf.generate_road_complex(150, 300, 11)
    caches = (spectral._normalized_operators, spectral._projector, apps._interval_tops,
              design._step_matrix)
    small = ShiftMatrix.small.func
    built = []

    def spy(self):
        built.append(self)
        return small(self)

    spied = functools.cached_property(spy)
    spied.__set_name__(ShiftMatrix, "small")
    monkeypatch.setattr(ShiftMatrix, "small", spied)
    runs = []
    for workers in (1, 2):
        for cache in caches:
            cache.cache_clear()
        built.clear()
        monkeypatch.setattr(apps, "_worker_count", lambda blocks: workers)
        sf.edge_pagerank_all(sc, 0.05, method, **kwargs)
        assert len(set(map(id, built))) == len(built)
        runs.append(([cache.cache_info().misses for cache in caches], len(built)))
    assert runs[1] == runs[0]


def test_subspace_norms_peak_memory_and_bits():
    # one 128-column block at 1088 edges: the norms held up to five (N1, k)
    # arrays at once (5.0 blocks traced, 5.58 MB); forming y_h in place and
    # dropping each part once its norm is taken leaves four (4.0 blocks)
    sc = sf.generate_road_complex(546, 1088, 11)
    y = np.random.default_rng(0).standard_normal((sc.n_edges, 128))
    got = apps._subspace_norms(sc, y)  # fills the projector caches
    tracemalloc.start()
    try:
        apps._subspace_norms(sc, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * y.nbytes
    # bitwise the plain formula, whose subtraction order y - y_g - y_c it keeps
    _, exp = np.frexp(np.max(np.abs(y), axis=0))
    ys = np.ldexp(y, -exp)
    y_g = spectral._projector(sc, "gradient", True)(ys)
    y_c = spectral._projector(sc, "curl", True)(ys)
    norms = np.ldexp([np.linalg.norm(p, axis=0) for p in (ys, ys - y_g - y_c, y_g, y_c)], exp)
    assert got[0] == [apps.SubspaceNorms(*map(float, col)) for col in norms.T]


def test_pagerank_filter_methods_approach_exact(toy):
    exact = sf.edge_pagerank(toy, 0.05, 2, "exact")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cheb = sf.edge_pagerank(toy, 0.05, 2, "cheb", order=80)
        grid = sf.edge_pagerank(toy, 0.05, 2, "grid", order=9, samples=200)
    err_cheb = np.linalg.norm(cheb.pi - exact.pi)
    err_grid = np.linalg.norm(grid.pi - exact.pi)
    assert err_cheb < 0.05
    assert err_cheb < err_grid


@pytest.mark.parametrize("method, order", [("exact", None), ("grid", 4), ("cheb", 20)])
def test_pagerank_norms_survive_huge_gamma(toy, method, order):
    # pi is about 1/gamma, and its squares used to underflow to norms of 0
    scaled = [gamma * np.array(sf.edge_pagerank(toy, gamma, 2, method, order=order).norms_abs)
              for gamma in (1e100, 1e200)]
    assert np.all(scaled[1] > 0)
    np.testing.assert_allclose(scaled[1], scaled[0], rtol=0, atol=1e-12)


def test_pagerank_gamma_guard(toy):
    with pytest.raises(sf.DataError):
        sf.edge_pagerank(toy, 0.0, 0, "exact")
    with pytest.raises(sf.IndexOutOfRange):
        sf.edge_pagerank(toy, 0.05, toy.n_edges, "exact")


@pytest.mark.parametrize("method, order", [("grid", 3), ("cheb", 10)])
def test_filter_ranking_builds_only_the_symmetric_pair(monkeypatch, method, order):
    # grid and cheb ranking step on the two symmetric normalized operators; they
    # used to step on a second, non-symmetric pair and assemble the normalized
    # parts on the edges for the subspace norms
    from simplicial_filters import _kernels

    sc = sf.generate_road_complex(60, 130, 11)
    n = sc.n_edges
    operators, assembled = [], []
    init, freeze = sf.ShiftMatrix.__init__, _kernels.read_only

    def spy_init(self, *factors):
        init(self, *factors)
        if len(self.factors) == 2 and self.shape == (n, n):
            operators.append(self)

    def spy_freeze(csr):
        if csr.shape == (n, n):
            assembled.append(csr)
        return freeze(csr)

    monkeypatch.setattr(sf.ShiftMatrix, "__init__", spy_init)
    for module in (_kernels, spectral, sf.complexes):
        monkeypatch.setattr(module, "read_only", spy_freeze)
    for module in (spectral, apps, sf.complexes, sf.filters):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sf.edge_pagerank_all(sc, 0.05, method, order=order)
    sf.edge_pagerank(sc, 0.05, 3, method, order=order)
    assert len(operators) == 2 and operators == list(spectral._normalized_operators(sc))
    assert assembled == []


@pytest.mark.parametrize("failure", ["factorization", "refinement"])
def test_projection_failure_is_numerical(toy, tmp_path, monkeypatch, failure):
    # the sparse factorizations behind decomposition and ranking norms: a
    # failed factor or a shifted curl solve whose refinement does not converge
    # must surface as NumericalError (exit 3), never as unconverged output
    if failure == "factorization":
        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
    else:
        # a shift as large as the Gram itself: each step shrinks the error by
        # at most half, too slow for the step cap
        monkeypatch.setattr(spectral, "CURL_SHIFT", 1.0)
    flow = np.linspace(-1.0, 1.0, toy.n_edges)
    spectral._projector.cache_clear()
    try:
        with pytest.raises(sf.NumericalError):
            sf.hodge_decompose(toy, flow)
        with pytest.raises(sf.NumericalError):
            sf.edge_pagerank(toy, 0.05, 0, "exact")
        with pytest.raises(sf.NumericalError):
            sf.edge_pagerank_all(toy, 0.05, "cheb", order=10)
        sc_path, signal_path = tmp_path / "sc.json", tmp_path / "flow.csv"
        io.save_complex(toy, sc_path)
        io.save_signal(flow, signal_path)
        assert main(["decompose", "--sc", str(sc_path), "--signal", str(signal_path),
                     "--out", str(tmp_path / "out.json")]) == 3
    finally:
        spectral._projector.cache_clear()


def test_harmonic_cheb_extraction_on_edgeless_complex():
    # used to die with a raw ValueError from np.min of an empty array
    with pytest.raises(sf.DataError):
        sf.extract_component(sf.build_complex(3, []), np.zeros(0), "harmonic", "filter_cheb")


@pytest.mark.parametrize("triangles", [True, False], ids=["toy", "no-triangles"])
def test_chebyshev_callers_share_interval_tops(tmp_path, toy, capsys, monkeypatch,
                                               triangles):
    # extraction, denoising, design --sc and ranking take their interval tops
    # from one rule: margin x each part's largest eigenvalue, 1.0 for a zero
    # part. Extraction used to read its tops off the spectrum and the others
    # off a 50-step power iteration; the CLI used to exit 2 on a complex
    # without triangles
    sc = toy if triangles else degenerate_complexes()[1]
    seen = []

    def spy(spec, lam_g, lam_c, *args):
        seen.append((lam_g, lam_c))
        return chebyshev_design(spec, lam_g, lam_c, *args)

    chebyshev_design = design.chebyshev_design
    monkeypatch.setattr(apps, "chebyshev_design", spy)
    monkeypatch.setattr(design, "chebyshev_design", spy)
    flow = np.linspace(-1.0, 1.0, sc.n_edges)
    sf.extract_component(sc, flow, "gradient", "filter_cheb")
    sf.denoise(sc, flow, 0.5, "hodge_laplacian", "cheb", order=10)
    sc_path, spec_path, filt_path = (tmp_path / name for name in
                                     ("sc.json", "spec.json", "cheb.json"))
    io.save_complex(sc, sc_path)
    io.dump_json({
        "g0": 1.0,
        "gradient": {"family": "inverse-shift", "gamma": 1.0, "max": 5.5},
        "curl": {"family": "inverse-shift", "gamma": 1.0, "max": 4.0},
    }, spec_path)
    assert main(["design", "--spec", str(spec_path), "--method", "cheb",
                 "--sc", str(sc_path), "--order-lower", "12", "--order-upper", "12",
                 "--out", str(filt_path)]) == 0
    tops = _checked_tops(sf.shift_operators(sc))
    assert seen == [tops] * 3
    io.save_filter(chebyshev_design(io.load_response_spec(spec_path), *tops, 12, 12),
                   tmp_path / "expect.json")
    assert filt_path.read_bytes() == (tmp_path / "expect.json").read_bytes()

    seen.clear()
    sf.edge_pagerank(sc, 0.05, 0, "cheb", order=10)
    sf.edge_pagerank_all(sc, 0.05, "cheb", order=10)
    assert seen == [_checked_tops(spectral._normalized_operators(sc))] * 2
    capsys.readouterr()
