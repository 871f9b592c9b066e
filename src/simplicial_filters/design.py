"""Filter design: least-squares (joint, decoupled, tied), grid-based, and
shifted-Chebyshev procedures, plus the response-curve library and a power
iteration estimate of lambda_max that no design interval of the package uses.

All LS solves run on column-scaled systems to soften Vandermonde
ill-conditioning; the condition number reported alongside the result is that
of the raw, unscaled system.

`ChebyshevFilter` holds only its basis (the three-term recursion and the series
value); it runs through the driver and response that ``filters`` shares by kind.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import chebyshev as _cheb

from ._kernels import ShiftMatrix, memo
from .errors import DataError, DomainMismatch, EmptySpec, IllConditioned, NumericalError
from .filters import FilterCoefficients, _real, apply, polynomial_response

COND_WARN_THRESHOLD = 1e10


# ---------------------------------------------------------------------------
# response curves


@dataclass(frozen=True)
class ResponseCurve:
    """A desired frequency response over one block, defined on [lam_min, lam_max]."""

    family: str
    fn: Callable[[np.ndarray], np.ndarray]
    lam_min: float
    lam_max: float

    def __post_init__(self):
        if not 0 <= self.lam_min <= self.lam_max < math.inf:
            raise DataError("need 0 <= lam_min <= lam_max, both finite")

    def __call__(self, lam) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(lam, dtype=np.float64)))


def response_constant(value: float, lam_max: float, lam_min: float = 0.0) -> ResponseCurve:
    value = float(value)
    return ResponseCurve(
        "constant", lambda lam: np.full_like(lam, value), float(lam_min), float(lam_max)
    )


def response_step(
    cutoff: float, low: float, high: float, lam_max: float, lam_min: float = 0.0
) -> ResponseCurve:
    """Ideal step: `low` below the cutoff frequency, `high` at and above it."""
    cutoff, low, high = float(cutoff), float(low), float(high)
    # lam < NaN is False everywhere, so a NaN cutoff would give a constant target
    for name, value in (("cutoff", cutoff), ("low", low), ("high", high)):
        if not math.isfinite(value):
            raise DataError(f"ideal-step {name} must be finite, got {value}")
    return ResponseCurve(
        "ideal-step", lambda lam: np.where(lam < cutoff, low, high),
        float(lam_min), float(lam_max),
    )


def response_logistic(
    k: float, lam0: float, lam_max: float, lam_min: float = 0.0
) -> ResponseCurve:
    """Smooth step 1 / (1 + exp(-k (lam - lam0))); negative k flips it."""
    k, lam0 = float(k), float(lam0)
    # far past a steep step exp overflows to inf; 1 / (1 + inf) = 0 is the limit there
    curve = np.errstate(over="ignore")(lambda lam: 1.0 / (1.0 + np.exp(-k * (lam - lam0))))
    return ResponseCurve("logistic", curve, float(lam_min), float(lam_max))


def response_inverse_shift(
    gamma: float, lam_max: float, lam_min: float = 0.0
) -> ResponseCurve:
    """1 / (gamma + lam): the ranking / regularization response."""
    gamma = float(gamma)
    if not 0 < gamma < math.inf:
        raise DataError("gamma must be positive and finite")
    return ResponseCurve(
        "inverse-shift", lambda lam: 1.0 / (gamma + lam), float(lam_min), float(lam_max)
    )


def response_table(points: Sequence[tuple[float, float]]) -> ResponseCurve:
    """Piecewise-linear curve through tabulated (frequency, response) pairs."""
    pts = sorted((float(l), float(g)) for l, g in points)
    if not pts:
        raise EmptySpec("response table is empty")
    lams = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    return ResponseCurve(
        "table", lambda lam: np.interp(lam, lams, vals), float(lams[0]), float(lams[-1])
    )


def response_custom(
    fn: Callable, lam_max: float, lam_min: float = 0.0, family: str = "custom"
) -> ResponseCurve:
    return ResponseCurve(family, fn, float(lam_min), float(lam_max))


@dataclass(frozen=True)
class ResponseSpec:
    """Target response: harmonic value g0 plus per-block curves.

    Either curve may be None for one-sided designs. For Chebyshev use both
    present curves must satisfy curve(0) == g0.
    """

    g0: float
    gradient: ResponseCurve | None
    curl: ResponseCurve | None


# ---------------------------------------------------------------------------
# least-squares designs


@dataclass(frozen=True)
class DesignResult:
    coefficients: FilterCoefficients
    residual: float
    condition: float


def _scaled_lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    scale = np.linalg.norm(a, axis=0)
    scale[scale == 0.0] = 1.0
    x, _, _, _ = np.linalg.lstsq(a / scale, b, rcond=None)
    x = x / scale
    cond = float(np.linalg.cond(a))
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            IllConditioned(
                f"design system condition number {cond:.3e}; "
                "coefficients returned but may be unstable"
            )
        )
    residual = float(np.linalg.norm(a @ x - b))
    return x, residual, cond


def _vandermonde(freqs: np.ndarray, order: int) -> np.ndarray:
    """The shift-power block of an LS design: columns freqs**1 .. freqs**order."""
    if order < 0:
        raise DataError(f"filter order must be nonnegative, got {order}")
    with np.errstate(over="ignore"):  # an overflow is inf, rejected below
        powers = freqs[:, None] ** np.arange(1, order + 1)
    if not np.all(np.isfinite(powers)):
        raise NumericalError(f"frequency powers up to order {order} overflow float64")
    return powers


def _design_system(
    freqs_gradient: np.ndarray,
    freqs_curl: np.ndarray,
    g_gradient: np.ndarray,
    g_curl: np.ndarray,
    g0: float,
    order_lower: int,
    order_upper: int,
) -> tuple[np.ndarray, np.ndarray]:
    ng, nc = len(freqs_gradient), len(freqs_curl)
    lower = _vandermonde(freqs_gradient, order_lower)
    upper = _vandermonde(freqs_curl, order_upper)
    a = np.zeros((1 + ng + nc, 1 + order_lower + order_upper))
    a[:, 0] = 1.0
    a[1 : 1 + ng, 1 : 1 + order_lower] = lower
    a[1 + ng :, 1 + order_lower :] = upper
    rhs = np.concatenate(([g0], g_gradient, g_curl))
    return a, rhs


def _targets_at(
    targets: ResponseSpec, freqs_gradient, freqs_curl, order_lower: int = 0, order_upper: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies that carry a target and the targets there. Taps on a side
    without frequencies are an EmptySpec; more taps than frequencies warn."""
    fg = np.asarray(freqs_gradient, dtype=np.float64)
    fc = np.asarray(freqs_curl, dtype=np.float64)
    gg = targets.gradient(fg) if (targets.gradient is not None and fg.size) else np.zeros(0)
    gc = targets.curl(fc) if (targets.curl is not None and fc.size) else np.zeros(0)
    if fg.size and targets.gradient is None:
        raise EmptySpec("gradient frequencies given but no gradient response curve")
    if fc.size and targets.curl is None:
        raise EmptySpec("curl frequencies given but no curl response curve")
    fg, fc = fg[: gg.size], fc[: gc.size]
    if order_lower > 0 and fg.size == 0:
        raise EmptySpec("lower taps requested but no gradient frequencies")
    if order_upper > 0 and fc.size == 0:
        raise EmptySpec("upper taps requested but no curl frequencies")
    _warn_order(order_lower, fg.size, "lower")
    _warn_order(order_upper, fc.size, "upper")
    return fg, fc, gg, gc


def _warn_order(order: int, n_freqs: int, label: str) -> None:
    if order > n_freqs:
        warnings.warn(
            f"{label} order {order} exceeds the {n_freqs} distinct frequencies; "
            "higher powers are redundant",
            stacklevel=4,
        )


def ls_joint(
    freqs_gradient: Sequence[float],
    freqs_curl: Sequence[float],
    targets: ResponseSpec,
    order_lower: int,
    order_upper: int,
) -> DesignResult:
    """Jointly fit h0, alpha, beta to targets at distinct frequencies."""
    fg, fc, gg, gc = _targets_at(targets, freqs_gradient, freqs_curl, order_lower, order_upper)
    a, rhs = _design_system(fg, fc, gg, gc, targets.g0, order_lower, order_upper)
    x, residual, cond = _scaled_lstsq(a, rhs)
    coeffs = FilterCoefficients(
        h0=x[0],
        alpha=tuple(x[1 : 1 + order_lower]),
        beta=tuple(x[1 + order_lower :]),
    )
    return DesignResult(coeffs, residual, cond)


def ls_decoupled(
    freqs_gradient: Sequence[float],
    freqs_curl: Sequence[float],
    targets: ResponseSpec,
    order_lower: int,
    order_upper: int,
) -> DesignResult:
    """Fix h0 = g0, then fit the lower and upper taps independently."""
    fg, fc, gg, gc = _targets_at(targets, freqs_gradient, freqs_curl, order_lower, order_upper)
    h0 = float(targets.g0)
    conds = [1.0]
    alpha = np.zeros(0)
    beta = np.zeros(0)
    if order_lower:
        alpha, _, cond = _scaled_lstsq(_vandermonde(fg, order_lower), gg - h0)
        conds.append(cond)
    if order_upper:
        beta, _, cond = _scaled_lstsq(_vandermonde(fc, order_upper), gc - h0)
        conds.append(cond)
    coeffs = FilterCoefficients(h0=h0, alpha=tuple(alpha), beta=tuple(beta))
    a, rhs = _design_system(fg, fc, gg, gc, targets.g0, order_lower, order_upper)
    residual = float(np.linalg.norm(a @ np.concatenate(([h0], alpha, beta)) - rhs))
    return DesignResult(coeffs, residual, float(max(conds)))


def ls_tied(
    freqs_gradient: Sequence[float],
    freqs_curl: Sequence[float],
    targets: ResponseSpec,
    order: int,
) -> DesignResult:
    """Shared-tap variant: one tap vector drives both shifts (alpha == beta)."""
    fg, fc, gg, gc = _targets_at(targets, freqs_gradient, freqs_curl)
    if order > 0 and fg.size == 0 and fc.size == 0:
        raise EmptySpec("taps requested but no frequencies")
    freqs = np.concatenate([fg, fc])
    powers = _vandermonde(freqs, order)
    a = np.zeros((1 + freqs.size, 1 + order))
    a[:, 0] = 1.0
    a[1:, 1:] = powers
    rhs = np.concatenate(([targets.g0], gg, gc))
    x, residual, cond = _scaled_lstsq(a, rhs)
    shared = tuple(x[1:])
    return DesignResult(FilterCoefficients(x[0], shared, shared), residual, cond)


# ---------------------------------------------------------------------------
# spectral bound and grid design


def estimate_lambda_max(matrix, iterations: int = 50, seed: int = 0) -> float:
    """Power-iteration estimate of the dominant eigenvalue (Rayleigh quotient).

    ``matrix`` is anything with ``shape`` and ``@``: a ShiftMatrix, a scipy
    sparse matrix or a dense array. Deterministic for a fixed seed; 0.0 for
    the zero matrix. It can stop short of lambda_max: no design interval of the
    package rests on it (those are `apps._interval_tops`).
    """
    if iterations < 1:
        raise DataError("iterations must be >= 1")
    if not hasattr(matrix, "shape"):
        matrix = np.asarray(matrix)
    # a ShiftMatrix has no dtype: it is real by construction
    if getattr(matrix, "dtype", np.dtype(np.float64)).kind == "c":
        raise DataError("estimate_lambda_max takes a real matrix, not a complex one")
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        w = matrix @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return 0.0
        v = w / norm
    return float(v @ (matrix @ v))


def grid_design(
    spec: ResponseSpec,
    samples_gradient: int,
    samples_curl: int,
    order_lower: int,
    order_upper: int,
    mode: str = "joint",
) -> DesignResult:
    """Universal design: sample the continuous curves on uniform frequency
    grids and solve the same LS system on the sampled points."""
    if mode not in ("joint", "decoupled"):
        raise DataError(f"unknown design mode {mode!r}")
    fg = np.zeros(0)
    fc = np.zeros(0)
    if spec.gradient is not None:
        if samples_gradient < max(order_lower, 1):
            raise DataError("need at least as many gradient samples as taps")
        fg = np.linspace(spec.gradient.lam_min, spec.gradient.lam_max, samples_gradient)
    if spec.curl is not None:
        if samples_curl < max(order_upper, 1):
            raise DataError("need at least as many curl samples as taps")
        fc = np.linspace(spec.curl.lam_min, spec.curl.lam_max, samples_curl)
    solver = ls_joint if mode == "joint" else ls_decoupled
    return solver(fg, fc, spec, order_lower, order_upper)


# ---------------------------------------------------------------------------
# Chebyshev design


@dataclass(frozen=True)
class ChebyshevFilter:
    """Truncated shifted-Chebyshev series per shift, plus the constant g0.

    Either side may be empty (one-sided filter). The assembled operator is
    H_lower + H_upper - g0*I when both sides are present, or the single
    present side alone; its weight of I, ``h0``, is s_lower + s_upper - g0 or
    the one s, s being a series' value at frequency 0.
    """

    c_lower: tuple[float, ...]
    c_upper: tuple[float, ...]
    omega_lower: float
    omega_upper: float
    g0: float

    def __post_init__(self):
        for name in ("c_lower", "c_upper"):
            object.__setattr__(self, name, tuple(map(_real, getattr(self, name))))
        for name in ("omega_lower", "omega_upper", "g0"):
            object.__setattr__(self, name, _real(getattr(self, name)))
        if not (self.c_lower or self.c_upper):
            raise DataError("a Chebyshev filter needs at least one series")
        if not all(np.isfinite((self.g0,) + self.c_lower + self.c_upper)):
            raise DataError("Chebyshev filter coefficients must be finite")
        for side, series, omega in (("lower", self.c_lower, self.omega_lower),
                                    ("upper", self.c_upper, self.omega_upper)):
            if series and not 0 < omega < math.inf:
                raise DataError(f"omega_{side} must be finite and positive for a nonempty series")
        # s per side, at Chebyshev argument -1: c_0/2 - c_1 + c_2 - ...; 0.0 if empty
        at_zero = tuple(
            math.fsum([0.5 * c[0], *c[2::2], *(-x for x in c[1::2])]) if c else 0.0
            for c in (self.c_lower, self.c_upper)
        )
        object.__setattr__(self, "_at_zero", at_zero)
        object.__setattr__(self, "h0", sum(at_zero) - (self.g0 if self.two_sided else 0.0))

    @property
    def two_sided(self) -> bool:
        return bool(self.c_lower) and bool(self.c_upper)

    def _series(self, upper: bool) -> tuple[float, ...]:
        return self.c_upper if upper else self.c_lower

    def _side_sum(self, upper: bool, small: ShiftMatrix, b: np.ndarray) -> np.ndarray:
        """One side's shifted-Chebyshev series of L = A B, summed from b = B f
        on the operator's ``small`` side S (see `ShiftMatrix`).

        The edge-space terms w_0 = f, w_1 = (L/omega - I) f,
        w_{k+1} = 2 (L/omega - I) w_k - w_{k-1} are w_k = (-1)^k f + A v_k with
        v_0 = 0, v_1 = b / omega and v_{k+1} = M v_k - v_{k-1} - (-1)^k b2, where
        M = (2/omega) S - 2I is `_step_matrix` and b2 = (2/omega) b is formed
        once. So the series is s f + A sum_k c_k v_k, s its value at frequency 0
        (in ``h0``). This returns sum_k c_k v_k: per step one product with M and
        four numpy passes into arrays it already holds. Each rounds per element,
        with no fused multiply-add, so every column of a block is bitwise the
        single-flow result. A single flow runs in the row order of M's
        renumbered copy (`ShiftMatrix.series`): b is gathered into it once and
        the sum back once, with no gather per step. Each product sums the same
        entries in the same order as M's canonical rows, and the passes are
        elementwise, so they commute with the permutation and the sum is
        bitwise the one in canonical order.
        """
        coeffs = self._series(upper)
        omega = self.omega_upper if upper else self.omega_lower
        if len(coeffs) == 1:
            return np.zeros_like(b)
        step, b, back = _step_matrix(small, omega).series(b)
        b2 = (2.0 / omega) * b
        v_prev, v = np.zeros_like(b), b / omega
        acc = coeffs[1] * v
        for k, c in enumerate(coeffs[2:], 1):
            w = step(v)
            w -= v_prev
            if k % 2:
                w -= b2
            else:
                w += b2
            # v_{k-1} is spent: its array takes c * w, with no new allocation
            acc += np.multiply(c, w, out=v_prev)
            v_prev, v = v, w
        return back(acc)

    def _side_value(self, upper: bool, lam: float) -> float:
        coeffs = self._series(upper)
        x = lam / (self.omega_upper if upper else self.omega_lower) - 1.0
        series = np.array([0.5 * coeffs[0], *coeffs[1:]])
        return float(_cheb.chebval(x, series)) - self._at_zero[upper]


@memo
def _step_matrix(small: ShiftMatrix, omega: float) -> ShiftMatrix:
    """M = (2/omega) S - 2I for S = ``small.as_csr()``: one Chebyshev step on
    an operator's small side, kept on ``small`` per omega (`memo`)."""
    s = small.as_csr()
    return ShiftMatrix((2.0 / omega) * s - 2.0 * sp.identity(s.shape[0], format="csr"))


def chebyshev_coefficients(
    fn: Callable, omega: float, order: int, quadrature_points: int
) -> np.ndarray:
    """Chebyshev coefficients 0 .. order of fn(omega*(cos(phi)+1)) by midpoint
    quadrature on q = ``quadrature_points`` > order points.

    With points phi_j = pi (j + 1/2) / q and samples y_j, coefficient l is
    (2/q) sum_j cos(l phi_j) y_j: a DCT-II of the samples, taken as one FFT of
    their even extension, O(q log q) time and O(q) memory. `chebyshev_design`
    always takes q from `default_quadrature_points`.
    """
    q = quadrature_points
    phi = np.pi * (np.arange(q) + 0.5) / q
    values = np.asarray(fn(omega * (np.cos(phi) + 1.0)), dtype=np.float64)
    m = np.arange(order + 1)
    spectrum = np.fft.rfft(np.concatenate([values, values[::-1]]))[: order + 1]
    # sum_j cos(m phi_j) y_j for m = 0 .. order
    return (2.0 / q) * (0.5 * (np.exp(-0.5j * np.pi * m / q) * spectrum).real)


def default_quadrature_points(order: int) -> int:
    """The one quadrature rule of the Chebyshev designs: max(256, 8 * order)
    points, always more than the order."""
    return max(256, 8 * order)


def chebyshev_design(
    spec: ResponseSpec,
    lambda_max_gradient: float | None,
    lambda_max_curl: float | None,
    order_lower: int | None,
    order_upper: int | None,
) -> ChebyshevFilter:
    """Design a shifted-Chebyshev filter for continuous response curves.

    Both present curves must match the harmonic response at frequency 0
    (within 1e-12), since the series are anchored there. Pass None for one
    side to build a one-sided filter.
    """
    has_lower = spec.gradient is not None and order_lower is not None
    has_upper = spec.curl is not None and order_upper is not None
    if not has_lower and not has_upper:
        raise EmptySpec("chebyshev design needs at least one response curve")
    sides = []  # (coefficients, omega) of the lower, then the upper series
    for present, curve, lam_max, order, label in (
        (has_lower, spec.gradient, lambda_max_gradient, order_lower, "gradient"),
        (has_upper, spec.curl, lambda_max_curl, order_upper, "curl"),
    ):
        if not present:
            sides.append(((), 0.0))
            continue
        if abs(float(curve(0.0)) - spec.g0) > 1e-12:
            raise DomainMismatch(
                f"{label} curve value at 0 ({float(curve(0.0)):.17g}) must equal "
                f"g0 ({spec.g0:.17g})"
            )
        if lam_max is None or lam_max <= 0:
            raise DataError(f"lambda_max_{label} must be positive")
        if order < 0:
            raise DataError(f"{label} order must be nonnegative, got {order}")
        omega = float(lam_max) / 2.0
        q = default_quadrature_points(order)
        sides.append((tuple(chebyshev_coefficients(curve, omega, order, q)), omega))
    (c_lower, omega_lower), (c_upper, omega_upper) = sides
    return ChebyshevFilter(c_lower, c_upper, omega_lower, omega_upper, float(spec.g0))


def chebyshev_apply(filt: ChebyshevFilter, sc, flow) -> np.ndarray:
    """`filters.apply` with the filter argument first."""
    return apply(sc, filt, flow)


chebyshev_response = polynomial_response


def chebyshev_error_bound(filt: ChebyshevFilter, spec: ResponseSpec) -> float:
    """Worst-case response error max over uniform 1000-point frequency grids.

    Bounds the operator error of the assembled filter against the exact
    target-response operator on any complex whose frequencies lie inside
    the sampled intervals.
    """
    worst = 0.0
    for upper, curve in ((False, spec.gradient), (True, spec.curl)):
        if filt._series(upper) and curve is not None:
            top = 2.0 * (filt.omega_upper if upper else filt.omega_lower)
            grid = np.linspace(0.0, top, 1000)
            block = "curl" if upper else "gradient"
            resp = np.array([polynomial_response(filt, l, block) for l in grid])
            worst = max(worst, float(np.max(np.abs(resp - curve(grid)))))
    return worst
