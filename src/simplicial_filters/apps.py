"""Applications built on the filter stack: subcomponent extraction, edge-flow
denoising, arbitrage detection/correction on exchange markets, and edge
PageRank with subspace influence norms."""
from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from ._kernels import IDENTITY_CHUNK, identity_block, read_only
from .complexes import SimplicialComplex, _clique_triangles, _vertex_count
from .design import (
    ResponseSpec,
    _vandermonde,
    chebyshev_design,
    grid_design,
    ls_joint,
    ls_tied,
    response_constant,
    response_custom,
    response_logistic,
)
from .errors import (
    DataError,
    IncompleteMarket,
    IndexOutOfRange,
    NonPositiveRate,
    UnsupportedCombination,
    ZeroReference,
)
from .filters import FilterCoefficients, apply, apply_operators, shift_operators
from .spectral import (
    _check_flow,
    _factor,
    _lambda_max,
    _normalized_degrees,
    _normalized_operators,
    _projector,
    distinct_frequencies,
    hodge_decompose,
    hodge_spectrum,
)

# safety margin applied to a part's largest eigenvalue before designing on it
LAMBDA_MAX_MARGIN = 1.01
# lower end of sampled frequency intervals; keeps 1/lambda-type targets finite
GRID_LAMBDA_MIN = 1e-8


def _top(lam_max: float) -> float:
    """The design interval top of a part with largest eigenvalue ``lam_max`` (1.0 if zero)."""
    return LAMBDA_MAX_MARGIN * lam_max if lam_max > 0 else 1.0


def _interval_tops(ops) -> tuple[float, float]:
    """Design interval tops of a (lower, upper) pair of parts: `_top` of each
    part's `_lambda_max`, which is kept on the operator (`memo`), 1.0 for a
    missing (None) part; every Chebyshev and grid design takes its tops here."""
    return tuple(_top(_lambda_max(op)) if op is not None else 1.0 for op in ops)


def _resolvent(low, up, shift, scale, method, order, samples, lam_min=0.0):
    """The map f -> (shift*I + scale*L)^-1 f of an (N1,) flow or (N1, k) block,
    L = low + up, or low alone when ``up`` is None; the one solver behind
    denoising and ranking.

    "exact" factors the sparse system assembled from the parts once;
    "grid" and "cheb" realize the response 1/(shift + scale*lambda) on
    [lam_min, top] per side with a grid-LS or Chebyshev filter of ``order``,
    the tops from `_interval_tops`.
    """
    two_sided = up is not None
    if method == "exact":
        system = shift * sp.identity(low.shape[0])
        # an overflowing scale leaves a non-finite entry, which _factor rejects
        with np.errstate(over="ignore", invalid="ignore"):
            for op in (low, up) if two_sided else (low,):
                system = system + scale * op.as_csr()
        return _factor(system).solve
    if method not in ("grid", "cheb"):
        raise DataError(f"unknown filter method {method!r}")
    if order is None:
        raise DataError(f"method {method!r} needs a filter order")
    lam_g, lam_c = _interval_tops((low, up))
    response = lambda lam: 1.0 / (shift + scale * lam)
    spec = ResponseSpec(
        g0=float(response(0.0)),
        gradient=response_custom(response, lam_g, lam_min),
        curl=response_custom(response, lam_c, lam_min) if two_sided else None,
    )
    if method == "grid":
        design = grid_design(spec, samples, samples, order, order if two_sided else 0)
        filt = design.coefficients
    else:
        # a one-sided spec has no curl curve, so the upper top and order go unused
        filt = chebyshev_design(spec, lam_g, lam_c, order, order)
    return lambda flow: apply_operators(low, up, filt, flow)


def nrmse(estimate, truth) -> float:
    """||estimate - truth|| / ||truth||."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise ZeroReference("NRMSE reference signal is identically zero")
    return float(np.linalg.norm(estimate - truth) / denom)


# ---------------------------------------------------------------------------
# subcomponent extraction

_BLOCKS = ("gradient", "curl", "harmonic")


@dataclass(frozen=True)
class ExtractionResult:
    flow: np.ndarray
    nrmse: float | None  # vs the spectral projection; None if that is zero


def _onesided_taps(freqs: np.ndarray, order: int) -> tuple[float, ...]:
    # solve Phi a = 1 with Phi the pure Vandermonde block (no constant column)
    phi = _vandermonde(freqs, order)
    ones = np.ones(len(freqs))
    if order == len(freqs):
        taps = np.linalg.solve(phi, ones)
    else:
        taps, _, _, _ = np.linalg.lstsq(phi, ones, rcond=None)
    return tuple(taps)


def extract_component(
    sc: SimplicialComplex,
    flow,
    which: str = "gradient",
    method: str = "spectral",
    *,
    order_lower: int | None = None,
    order_upper: int | None = None,
    tied: bool = False,
    grouping_tol: float = 0.0,
) -> ExtractionResult:
    """Extract one Hodge component of an edge flow.

    Methods: exact spectral projection, least-squares filter with indicator
    targets (optionally tap-tied), a one-sided design without constant term,
    or a Chebyshev filter with a smooth step response. Every design takes its
    domain on a side up to that side's `_interval_tops` top, so the Chebyshev
    intervals contain the spectrum.
    """
    if which not in _BLOCKS:
        raise DataError(f"unknown component {which!r}")
    flow = _check_flow(sc, flow)
    f_g, f_c, f_h = hodge_decompose(sc, flow)
    reference = {"gradient": f_g, "curl": f_c, "harmonic": f_h}[which]
    norm = np.linalg.norm(reference)
    if method == "spectral":
        return ExtractionResult(reference, 0.0 if norm else None)

    lam_g, lam_c = _interval_tops(shift_operators(sc))
    freqs_g, freqs_c = map(np.asarray, distinct_frequencies(hodge_spectrum(sc), grouping_tol))
    # LS and one-sided designs default to one tap per distinct frequency
    l1 = order_lower if order_lower is not None else len(freqs_g)
    l2 = order_upper if order_upper is not None else len(freqs_c)

    if method == "filter_ls":
        spec = ResponseSpec(
            1.0 if which == "harmonic" else 0.0,
            response_constant(1.0 if which == "gradient" else 0.0, lam_g),
            response_constant(1.0 if which == "curl" else 0.0, lam_c),
        )
        if tied:
            filt = ls_tied(freqs_g, freqs_c, spec, l1).coefficients
        else:
            filt = ls_joint(freqs_g, freqs_c, spec, l1, l2).coefficients
    elif method == "filter_onesided":
        if which == "harmonic":
            raise UnsupportedCombination(
                "a one-sided design cannot isolate the harmonic component"
            )
        if which == "gradient":
            filt = FilterCoefficients(0.0, _onesided_taps(freqs_g, l1), ())
        else:
            filt = FilterCoefficients(0.0, (), _onesided_taps(freqs_c, l2))
    elif method == "filter_cheb":
        # a logistic step at half the lowest frequency it separates: falling on
        # both sides for harmonic, else rising on the extracted side, flat on the other
        if which == "harmonic":
            cut = np.concatenate([freqs_g, freqs_c])
            missing = "complex has no gradient or curl frequencies to filter out"
        else:
            cut = freqs_g if which == "gradient" else freqs_c
            missing = f"complex has no {which} frequencies to extract"
        if cut.size == 0:
            raise DataError(missing)
        lam0 = 0.5 * float(np.min(cut))
        k = (-40.0 if which == "harmonic" else 40.0) / lam0
        g0 = float(response_logistic(k, lam0, 1.0)(0.0))
        curve_g, curve_c = (
            response_logistic(k, lam0, top) if which in (side, "harmonic")
            else response_constant(g0, top)
            for side, top in (("gradient", lam_g), ("curl", lam_c))
        )
        l1 = order_lower if order_lower is not None else 40
        l2 = order_upper if order_upper is not None else 40
        filt = chebyshev_design(ResponseSpec(g0, curve_g, curve_c), lam_g, lam_c, l1, l2)
    else:
        raise DataError(f"unknown extraction method {method!r}")
    estimate = apply(sc, filt, flow)
    return ExtractionResult(estimate, nrmse(estimate, reference) if norm else None)


# ---------------------------------------------------------------------------
# denoising


def denoise(
    sc: SimplicialComplex,
    flow,
    mu: float,
    regularizer: str = "hodge_laplacian",
    method: str = "exact",
    order: int | None = None,
    samples: int = 10,
) -> np.ndarray:
    """Solve (I + mu*P) f_hat = f exactly or via a filter approximation.

    P is the full Hodge Laplacian or the lower (edge) Laplacian alone; the
    solve is `_resolvent` with shift 1 and scale mu on the shift operators.
    Filter methods realize the response 1/(1 + mu*lambda): a two-sided design
    for the Hodge regularizer, a one-sided lower design for the edge regularizer.
    """
    if not 0 < mu < math.inf:
        raise DataError("mu must be positive and finite")
    if regularizer not in ("edge_laplacian", "hodge_laplacian"):
        raise DataError(f"unknown regularizer {regularizer!r}")
    flow = _check_flow(sc, flow)
    low, up = shift_operators(sc)
    if regularizer == "edge_laplacian":
        up = None
    return _resolvent(low, up, 1.0, mu, method, order, samples)(flow)


# ---------------------------------------------------------------------------
# exchange markets and arbitrage


@dataclass(frozen=True)
class ExchangeMarket:
    """Pairwise exchange-rate matrix with unit diagonal.

    rate[i, j] is how much of currency j one unit of currency i buys: finite
    and positive, or NaN for a missing quote. Quotes may be asymmetric
    (rounded data); logs are read directly from the stored direction.
    """

    currency_names: tuple[str, ...]
    rate: np.ndarray

    def __post_init__(self):
        rate = np.array(self.rate, dtype=np.float64)
        n = len(self.currency_names)
        if rate.shape != (n, n):
            raise DataError(f"rate matrix shape {rate.shape} != ({n}, {n})")
        # written so that a NaN fails each test
        if not np.all(np.abs(np.diag(rate) - 1.0) <= 1e-12):
            raise DataError("rate matrix must have a unit diagonal")
        off = rate[~np.eye(n, dtype=bool)]
        quoted = off[~np.isnan(off)]
        if not np.all(np.isfinite(quoted)):
            raise DataError("exchange rates must be finite; NaN marks a missing quote")
        if np.any(quoted <= 0.0):
            raise NonPositiveRate("exchange rates must be positive")
        rate.setflags(write=False)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "currency_names", tuple(self.currency_names))

    @property
    def n_currencies(self) -> int:
        return len(self.currency_names)

    @cached_property
    def _directed(self) -> np.ndarray:
        """Every directed rate: rate[i, j] where quoted, else the reciprocal
        1 / rate[j, i], NaN where neither direction is quoted (read-only)."""
        return read_only(np.where(np.isnan(self.rate), 1.0 / self.rate.T, self.rate))

    def directed_rate(self, i: int, j: int) -> float:
        """Rate for converting i into j, falling back to the reciprocal quote."""
        r = float(self._directed[i, j])
        if math.isnan(r):
            raise DataError(
                f"no quote between {self.currency_names[i]} and {self.currency_names[j]}"
            )
        return r

    def is_complete(self) -> bool:
        return not np.isnan(self._directed).any()


def market_complex(market: ExchangeMarket) -> SimplicialComplex:
    """Complex of quoted pairs with every 3-clique filled as a triangle."""
    n = _vertex_count(market.n_currencies)
    # argwhere gives the pairs i < j distinct and sorted, as build_complex would
    edges = np.argwhere(np.triu(~np.isnan(market._directed), 1))
    return SimplicialComplex(n, edges, _clique_triangles(n, edges))


def arbitrage_check(
    market: ExchangeMarket, threshold: float = 0.003
) -> list[tuple[tuple[int, int, int], float]]:
    """Triangles whose forward round trip beats the threshold.

    For each filled triangle (i, j, k), i<j<k, the round trip converts i
    through j and k back to i; the reported gain is that product minus one
    (positive means free profit). Returned sorted by decreasing gain.
    """
    if not math.isfinite(threshold):
        raise DataError("threshold must be finite")
    sc = market_complex(market)
    i, j, k = sc.triangle_array.T
    rate = market._directed
    gain = rate[i, j] * rate[j, k] * rate[k, i] - 1.0
    hit = np.flatnonzero(gain > threshold)
    hits = list(zip(map(tuple, sc.triangle_array[hit].tolist()), gain[hit].tolist()))
    hits.sort(key=lambda item: (-item[1], item[0]))
    return hits


def arbitrage_correct(market: ExchangeMarket) -> ExchangeMarket:
    """Project the log-rate flow onto its gradient part, making rates consistent.

    For a complete market the projector is the single-tap filter
    (1/N0) * L_lower applied to the log flow. An incomplete market falls back
    to the orthogonal gradient projection of its quoted-pair complex (with an
    IncompleteMarket warning); no curl projection is built. Corrected rates
    are reciprocal-consistent.
    """
    sc = market_complex(market)
    i, j = sc.edge_array.T
    # one log-rate per edge (i, j), i < j, read in the i -> j direction; math.log
    # and math.exp, not np.log and np.exp, which differ from them in the last bit
    flow = np.array([math.log(r) for r in market._directed[i, j].tolist()])
    if market.is_complete():
        coeffs = FilterCoefficients(0.0, (1.0 / market.n_currencies,), ())
        corrected = apply(sc, coeffs, flow)
    else:
        warnings.warn(
            IncompleteMarket(
                "market is missing pair quotes; using the spectral gradient "
                "projector of the quoted-pair complex"
            )
        )
        corrected = _projector(sc, "gradient")(flow)
    n = market.n_currencies
    rate = np.full((n, n), np.nan)
    np.fill_diagonal(rate, 1.0)
    forward = np.array([math.exp(c) for c in corrected.tolist()])
    rate[i, j] = forward
    rate[j, i] = 1.0 / forward
    return ExchangeMarket(market.currency_names, rate)


# ---------------------------------------------------------------------------
# edge PageRank


class SubspaceNorms(NamedTuple):
    total: float
    harmonic: float
    gradient: float
    curl: float


@dataclass(frozen=True)
class PageRankResult:
    edge_index: int
    pi: np.ndarray
    norms_abs: SubspaceNorms
    norms_rel: SubspaceNorms


def _subspace_norms(
    sc: SimplicialComplex, y: np.ndarray
) -> tuple[list[SubspaceNorms], list[SubspaceNorms]]:
    """Absolute and relative subspace norms of every column of an (N1, k) block
    in the coordinates y = R^-1 pi, where the normalized parts are symmetric and
    the gradient/curl/harmonic split is orthogonal."""
    # each column scaled exactly by the power of two at its largest magnitude,
    # so no square underflows (gamma near 1e200) or overflows; the linear
    # projections scale with it, bit for bit
    _, exp = np.frexp(np.max(np.abs(y), axis=0, initial=0.0))
    y = np.ldexp(y, -exp)
    # at most four (N1, k) arrays live at once: every norm is taken as soon as
    # its part exists, each part is dropped once it is used, and y_h is formed
    # in place, since (y - y_g) -= y_c rounds exactly as y - y_g - y_c
    norm_y = np.linalg.norm(y, axis=0)
    y_c = _projector(sc, "curl", True)(y)
    norm_c = np.linalg.norm(y_c, axis=0)
    y_g = _projector(sc, "gradient", True)(y)
    norm_g = np.linalg.norm(y_g, axis=0)
    y_h = y - y_g
    del y, y_g
    y_h -= y_c
    del y_c
    norms = np.ldexp([norm_y, np.linalg.norm(y_h, axis=0), norm_g, norm_c], exp)
    rel = norms / np.where(norms[0] > 0, norms[0], 1.0)
    rel[0] = 1.0
    return (
        [SubspaceNorms(*map(float, col)) for col in norms.T],
        [SubspaceNorms(*map(float, col)) for col in rel.T],
    )


def _ranker(sc, gamma, method, order, samples):
    """The map from an (N1, k) right-hand side f to y = (gamma*I + S)^-1 R^-1 f,
    and R's diagonal as an (N1, 1) column, so that pi = R y solves
    (gamma*I + L_n) pi = f.

    L_n = R S R^-1 with S = S_lower + S_upper the symmetric parts of
    `_normalized_operators` and R = diag(sqrt(d2)). The solve is `_resolvent`
    with shift gamma and scale 1 on S_lower and S_upper: one sparse
    factorization of the SPD gamma*I + S (exact), or a filter realizing
    1/(gamma + lambda) from GRID_LAMBDA_MIN up (grid/cheb)."""
    if not 0 < gamma < math.inf:
        raise DataError("gamma must be positive and finite")
    # R as a column: broadcasting scales a block's rows at a tenth of the cost
    # of a product with sp.diags
    root = np.sqrt(_normalized_degrees(sc)[1])[:, np.newaxis]
    solve = _resolvent(*_normalized_operators(sc), gamma, 1.0, method, order, samples,
                       GRID_LAMBDA_MIN)
    return (lambda f: solve(f / root)), root


def edge_pagerank(
    sc: SimplicialComplex,
    gamma: float,
    edge_index: int,
    method: str = "exact",
    order: int | None = None,
    samples: int = 200,
) -> PageRankResult:
    """Influence of one edge: solve (gamma*I + L_n) pi = indicator(edge).

    ``pi`` is column ``edge_index`` of ``edge_pagerank_all``, bit for bit. Norms
    split pi into harmonic/gradient/curl parts of the normalized operator.
    """
    if not 0 <= edge_index < sc.n_edges:
        raise IndexOutOfRange(f"edge index {edge_index} outside [0, {sc.n_edges})")
    rank, root = _ranker(sc, gamma, method, order, samples)
    if method == "exact":  # LU solves round by block width, SpMM columns do not
        start = edge_index - edge_index % IDENTITY_CHUNK
        y = rank(identity_block(sc.n_edges, start))[:, [edge_index - start]]
    else:
        y = rank(np.eye(sc.n_edges, 1, -edge_index))
    norms, rel = _subspace_norms(sc, y)
    return PageRankResult(edge_index, (root * y)[:, 0], norms[0], rel[0])


def _worker_count(blocks: int) -> int:
    """Threads for ranking ``blocks`` column blocks: one per CPU this process
    may run on, and no more than there are blocks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks))


def _in_order(fn, items):
    """Yield fn(item) for each of a sequence of items, in order, computed on
    `_worker_count` threads: serially in the calling thread when that is one.

    The first item runs alone in the calling thread, so whatever it keeps,
    the others only read. The rest run in groups of one item per thread: the
    calling thread computes the first of a group while a pool computes the
    others. The calling thread works rather than waits because glibc gives
    each thread that allocates a heap of its own, which keeps what the
    thread freed: one pool thread more raised the benchmark's peak RSS for
    ranking 1088 edges from 148 to 156 MB (2-CPU x86 VM). A failed item
    raises here; the rest of its group then either never starts or finishes
    before the pool is joined.
    """
    if not items:
        return
    yield fn(items[0])
    workers = _worker_count(len(items))
    if workers == 1:
        yield from map(fn, items[1:])
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        for i in range(1, len(items), workers):
            first, *others = items[i : i + workers]
            futures = [pool.submit(fn, item) for item in others]
            try:
                yield fn(first)
                for future in futures:
                    yield future.result()
            finally:
                for future in futures:
                    future.cancel()


def _rank_blocks(sc, gamma, method, order, samples):
    """Rank the identity in `identity_block` column blocks: an iterator of
    ``(start, pi, norms, rel)`` per block in edge order, pi being the (N1, k)
    block of columns start .. start+k-1 and norms, rel their `_subspace_norms`.

    The ranker is built, and its arguments checked, before this returns. The
    blocks share nothing, and the sparse products, LU solves and numpy passes
    of each release the GIL, so they run `_in_order` on one thread per CPU.
    The first block builds what the others read before any worker starts:
    each ``small``, the Chebyshev step matrices and the weighted projectors,
    kept on the complex and its operators (`memo`). A block's arithmetic does
    not depend on the thread it runs on, so every block is bitwise the serial one.
    """
    rank, root = _ranker(sc, gamma, method, order, samples)
    n = sc.n_edges

    def block(start):
        y = rank(identity_block(n, start))
        norms, rel = _subspace_norms(sc, y)
        return start, root * y, norms, rel

    return _in_order(block, range(0, n, IDENTITY_CHUNK))


def edge_pagerank_all(
    sc: SimplicialComplex,
    gamma: float,
    method: str = "exact",
    order: int | None = None,
    samples: int = 200,
    power_steps: int | None = None,
) -> list[PageRankResult]:
    """PageRank for every edge.

    The identity runs through the method in column blocks of `IDENTITY_CHUNK`:
    the exact path solves against one sparse factorization, grid/cheb run one
    SpMM recursion per block. The blocks run on one thread per CPU this
    process may run on (``os.sched_getaffinity``), at most one per block, and
    serially on one CPU; every pi and norm is bitwise the same for any number
    of threads. ``power_steps`` is ignored: callers written when the interval
    tops were a power iteration still pass it, and the tops are `_interval_tops`.
    """
    out = []
    for start, pi, norms, rel in _rank_blocks(sc, gamma, method, order, samples):
        out.extend(
            PageRankResult(start + j, pi[:, j].copy(), norms[j], rel[j])
            for j in range(pi.shape[1])
        )
    return out
