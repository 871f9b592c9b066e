"""Simplicial convolutional filters.

A filter is the matrix polynomial h0*I + sum_l alpha_l * L_lower^l
+ sum_l beta_l * L_upper^l applied to edge flows. Application always runs as
a per-step recursion over sparse shifts, on one flow or on a block of flows;
dense polynomial matrices are never formed. Each recursion steps on the
cheaper side of its shift L = A B (`spectral.shift_operators`, see
``_kernels``): the lower one on the nodes,
L_lower^l f = B1^T (B1 B1^T)^(l-1) B1 f, and the upper one on the triangles
of road complexes, L_upper^l f = B2 (B2^T B2)^(l-1) B2^T f, or on the edges
on a triangle where cliques are filled.

`FilterCoefficients` (monomial taps) and `design.ChebyshevFilter` write this
polynomial in two bases. Each class holds its basis (``h0``, the weight of I,
and per side the small-side sum and the value at lam less that at 0); the
recursion driver `apply_operators` and `polynomial_response` serve both kinds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ._kernels import ShiftMatrix
from .complexes import OrientedComplex, SimplicialComplex, _hodge_parts
from .errors import DataError
from .spectral import HodgeSpectrum, _check_flow, shift_operators

if TYPE_CHECKING:
    from .design import ChebyshevFilter


def _real(value) -> float:
    """``float(value)``; a complex value is a DataError, not float's TypeError
    (or numpy's ComplexWarning with the imaginary part dropped)."""
    if np.iscomplexobj(value):
        raise DataError(f"filter parameters must be real, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class FilterCoefficients:
    """Polynomial filter taps: constant h0, lower taps alpha, upper taps beta."""

    h0: float
    alpha: tuple[float, ...] = ()
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "h0", _real(self.h0))
        object.__setattr__(self, "alpha", tuple(map(_real, self.alpha)))
        object.__setattr__(self, "beta", tuple(map(_real, self.beta)))
        values = (self.h0,) + self.alpha + self.beta
        if not all(np.isfinite(values)):
            raise DataError("filter coefficients must be finite")

    @property
    def order_lower(self) -> int:
        return len(self.alpha)

    @property
    def order_upper(self) -> int:
        return len(self.beta)

    def _series(self, upper: bool) -> tuple[float, ...]:
        return self.beta if upper else self.alpha

    def _side_sum(self, upper: bool, small: ShiftMatrix, x: np.ndarray) -> np.ndarray:
        # sum_l taps[l-1] L^l f = A (sum_l taps[l-1] G^(l-1) B f), summed on the small side
        taps = self._series(upper)
        step, x, back = small.series(x)
        acc = taps[0] * x
        term = np.empty_like(acc)
        for a in taps[1:]:
            x = step(x)
            acc += np.multiply(a, x, out=term)
        return back(acc)

    def _side_value(self, upper: bool, lam: float) -> float:
        taps = self._series(upper)
        return float(np.dot(taps, lam ** np.arange(1, len(taps) + 1)))


def shift_lower(obj: SimplicialComplex | OrientedComplex, flow) -> np.ndarray:
    """One lower shift: L_lower @ f, for f of shape (N1,) or (N1, k)."""
    return shift_operators(obj)[0].matvec(_check_flow(obj, flow))


def shift_upper(obj: SimplicialComplex | OrientedComplex, flow) -> np.ndarray:
    """One upper shift: L_upper @ f, for f of shape (N1,) or (N1, k)."""
    return shift_operators(obj)[1].matvec(_check_flow(obj, flow))


def apply_operators(
    op_lower: ShiftMatrix | None,
    op_upper: ShiftMatrix | None,
    coeffs: FilterCoefficients | ChebyshevFilter,
    flow: np.ndarray,
) -> np.ndarray:
    """Run the filter recursion against explicit shift operators.

    ``coeffs`` is either filter kind; ``flow`` is one flow (N1,) or a block
    (N1, k), and a block runs as one SpMM per step. Each side's recursion runs
    on that operator's ``small`` side (its Gram when ``on_gram``, else the
    edges the operator touches), with one map into it and one back.
    """
    out = coeffs.h0 * flow
    for upper, op in ((False, op_lower), (True, op_upper)):
        if coeffs._series(upper):
            if op is None:
                label = "upper" if upper else "lower"
                raise ValueError(f"{label} taps given but no {label} operator")
            out += op.from_small(coeffs._side_sum(upper, op.small, op.to_small(flow)))
    return out

def apply(
    obj: SimplicialComplex | OrientedComplex,
    coeffs: FilterCoefficients | ChebyshevFilter,
    flow,
) -> np.ndarray:
    """Apply a filter of either kind to an edge flow by repeated shifting.

    ``flow`` has shape (N1,) or is a block (N1, k) of k flows; the result has
    the same shape, and each column equals the filter applied to that column.
    """
    flow = _check_flow(obj, flow)
    low, up = shift_operators(obj)
    return apply_operators(low, up, coeffs, flow)


@dataclass(frozen=True)
class ShiftRound:
    """One synchronous communication round of the distributed simulation."""

    kind: str  # "lower" or "upper"
    messages_per_edge: tuple[int, ...]

    @property
    def total_messages(self) -> int:
        return sum(self.messages_per_edge)


@dataclass(frozen=True)
class DistributedShiftResult:
    lower_flow: np.ndarray
    upper_flow: np.ndarray
    rounds: tuple[ShiftRound, ...]

    @property
    def total_messages(self) -> int:
        return sum(r.total_messages for r in self.rounds)


def distributed_shift(
    sc: SimplicialComplex, flow, rounds_lower: int, rounds_upper: int
) -> DistributedShiftResult:
    """Simulate shifting as synchronous neighbor-to-neighbor message rounds.

    Each round, every edge recomputes its value from its own state plus one
    message per lower (resp. upper) neighbor, weighted by the corresponding
    Laplacian entry. The final vectors equal L_lower^rounds_lower @ f and
    L_upper^rounds_upper @ f.
    """
    flow = _check_flow(sc, flow)
    if rounds_lower < 0 or rounds_upper < 0:
        raise DataError("round counts must be nonnegative")
    trace: list[ShiftRound] = []

    def run(upper: bool, rounds: int) -> np.ndarray:
        # CSR row i holds edge i's own weight and one weight per neighbor (none
        # cancels), so one product is one round of every edge combining its messages
        part = _hodge_parts(sc, 1)[int(upper)]
        counts = tuple((np.diff(part.indptr) - (part.diagonal() != 0)).tolist())
        current = flow.copy()
        for _ in range(rounds):
            current = part @ current
            trace.append(ShiftRound("upper" if upper else "lower", counts))
        return current

    final_lower = run(False, rounds_lower)
    final_upper = run(True, rounds_upper)
    return DistributedShiftResult(final_lower, final_upper, tuple(trace))


@dataclass(frozen=True)
class FrequencyResponse:
    """Filter response per frequency block."""

    at_harmonic: float
    at_gradient: Mapping[float, float]
    at_curl: Mapping[float, float]


def polynomial_response(
    coeffs: FilterCoefficients | ChebyshevFilter, lam: float, block: str
) -> float:
    """Scalar response of a filter of either kind at one frequency of a block:
    ``h0``, which holds each side's value at 0, plus the block's own side."""
    if block not in ("harmonic", "gradient", "curl"):
        raise ValueError(f"unknown block {block!r}")
    upper = block == "curl"
    if block == "harmonic" or not coeffs._series(upper):
        return coeffs.h0
    return coeffs.h0 + coeffs._side_value(upper, float(lam))


def frequency_response(
    coeffs: FilterCoefficients | ChebyshevFilter, spectrum: HodgeSpectrum
) -> FrequencyResponse:
    """Evaluate a filter of either kind at every frequency of a spectrum."""
    grad = {float(l): polynomial_response(coeffs, l, "gradient")
            for l in spectrum.lambda_gradient}
    cur = {float(l): polynomial_response(coeffs, l, "curl") for l in spectrum.lambda_curl}
    return FrequencyResponse(at_harmonic=coeffs.h0, at_gradient=grad, at_curl=cur)
