"""In-process library workloads: ``filter_large`` and ``rank_batch``.

A workload object owns one seeded input set. ``setup`` builds what every
request needs (timed as set-up), ``prepare_checks`` builds the independent
references (untimed), ``request`` is one timed closed-loop call into the
package, and ``check`` returns None or the reason an output is wrong.
"""
from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

import reference

# ROADMAP's largest fixture size: no dense N1 x N1 path fits in memory here.
LARGE_NODES, LARGE_EDGES = 10900, 21800
DENOISE_MU = 0.5
LS_ORDER, LS_SAMPLES = 10, 10
CHEB_ORDER = 61
# The package's default of 50 power-iteration steps undershoots the true
# lambda_max on many seeds (see the known defects in run.py), and a Chebyshev
# filter on too short an interval fails its gate. The workloads step around
# that by passing more steps: 1.01 x the Rayleigh quotient reached the true
# lambda_max within 345 steps on each of 400 seeds at 1088 edges and within
# 144 on each of 24 at 21800, and components 1% below the top shrink by
# 1.01^-2000 = 2e-9 over 1000 steps.
POWER_STEPS, POWER_SEED = 1000, 0
PACKAGE_POWER_STEPS = 50

# ROADMAP's desk size, where ranking makes one single-vector matvec per step.
RANK_NODES, RANK_EDGES = 546, 1088
GAMMA = 0.01
PYTHAGORAS_REL = 1e-10


def default_interval_note(sf, ops, true_lambda) -> str:
    """How much of the true lambda_max the package's default interval covers."""
    margin = sf.apps.LAMBDA_MAX_MARGIN
    ratio = min(margin * sf.estimate_lambda_max(op, PACKAGE_POWER_STEPS, POWER_SEED) / true
                for op, true in zip(ops, true_lambda) if true > 0)
    verdict = "below 1 breaks the Chebyshev precondition" if ratio < 1 else "not below 1"
    return (f"the default {PACKAGE_POWER_STEPS}-step interval is {ratio:.4f} of the true "
            f"lambda_max ({verdict}); the workload passes "
            f"power_steps={POWER_STEPS}")


class FilterLarge:
    name = "filter_large"
    unit = "flows"
    trace_requests = 20

    def __init__(self, sf, seed: int):
        self.sf, self.seed = sf, seed

    def setup(self) -> dict:
        sf = self.sf
        sc = sf.generate_road_complex(LARGE_NODES, LARGE_EDGES, self.seed)
        low, up = sf.shift_operators(sc)
        margin = sf.apps.LAMBDA_MAX_MARGIN
        lam_g = margin * sf.estimate_lambda_max(low, POWER_STEPS, POWER_SEED)
        lam_c = margin * sf.estimate_lambda_max(up, POWER_STEPS, POWER_SEED)
        response = lambda lam: 1.0 / (1.0 + DENOISE_MU * lam)
        spec = sf.ResponseSpec(
            1.0,
            sf.response_custom(response, lam_g, family="inverse-regularizer"),
            sf.response_custom(response, lam_c, family="inverse-regularizer"),
        )
        with warnings.catch_warnings():
            # the order-10 grid system is ill-conditioned by construction
            warnings.simplefilter("ignore", sf.IllConditioned)
            poly = sf.grid_design(spec, LS_SAMPLES, LS_SAMPLES, LS_ORDER, LS_ORDER).coefficients
        cheb = sf.chebyshev_design(spec, lam_g, lam_c, CHEB_ORDER, CHEB_ORDER)
        state = {"sc": sc, "spec": spec, "poly": poly, "cheb": cheb}
        self.request(state, np.ones(sc.n_edges))  # warm the operator cache
        return state

    def prepare_checks(self, state: dict) -> None:
        sf, sc = self.sf, state["sc"]
        low, up = reference.hodge_parts(sc)
        state["ref_ops"] = (low, up)
        state["true_lambda"] = (reference.lambda_max(low), reference.lambda_max(up))
        state["notes"] = [default_interval_note(sf, sf.shift_operators(sc), state["true_lambda"])]
        state["solve"] = sla.factorized(
            (sp.identity(sc.n_edges, format="csc") + DENOISE_MU * (low + up)).tocsc())
        # the direct solve's own error is below cond * m * u, cond <= 1 + mu * lambda_max
        cond = 1.0 + DENOISE_MU * sum(state["true_lambda"])
        state["cheb_tol"] = (sf.chebyshev_error_bound(state["cheb"], state["spec"])
                             + reference.chebyshev_slack(state["cheb"], low, up)
                             + cond * reference.row_nnz(low + up) * reference.UNIT_ROUNDOFF)

    def make_input(self, state: dict, i: int) -> np.ndarray:
        return np.random.default_rng([self.seed, i]).standard_normal(state["sc"].n_edges)

    def request(self, state: dict, flow):
        sf, sc = self.sf, state["sc"]
        return sf.apply(sc, state["poly"], flow), sf.chebyshev_apply(state["cheb"], sc, flow)

    def units(self, state: dict) -> int:
        return 1

    def check(self, state: dict, flow, out) -> str | None:
        y_poly, y_cheb = out
        low, up = state["ref_ops"]
        expect, gap = reference.polynomial(low, up, state["poly"], flow)
        if not np.all(np.abs(y_poly - expect) <= gap):
            return f"polynomial output off by {np.max(np.abs(y_poly - expect)):.3e}"
        err = np.linalg.norm(y_cheb - state["solve"](flow)) / np.linalg.norm(flow)
        if not err <= state["cheb_tol"]:
            return (f"chebyshev relative error {err:.3e} exceeds bound + slack "
                    f"{state['cheb_tol']:.3e}")
        return None

    @staticmethod
    def fingerprint(flow, out) -> bytes:
        return b"".join(y.tobytes() for y in out)


class RankBatch:
    name = "rank_batch"
    unit = "edges ranked"
    trace_requests = 1

    def __init__(self, sf, seed: int):
        self.sf, self.seed = sf, seed

    def setup(self) -> dict:
        sc = self.sf.generate_road_complex(RANK_NODES, RANK_EDGES, self.seed)
        # warms the normalized split; the exact path designs no filter, so every
        # Chebyshev interval of a run is one its requests use
        self.sf.edge_pagerank(sc, GAMMA, 0)
        return {"sc": sc}

    def prepare_checks(self, state: dict) -> None:
        sf, sc = self.sf, state["sc"]
        exact = sf.edge_pagerank_all(sc, GAMMA, "exact")
        pi_exact = np.column_stack([r.pi for r in exact])
        lower, upper, d2, sym_lower, sym_upper = reference.normalized_parts(sc)
        n = sc.n_edges
        system = GAMMA * np.eye(n) + (lower + upper).toarray()
        residual = np.abs(system @ pi_exact - np.eye(n)).max()
        if residual > 1e-9:
            raise RuntimeError(f"exact ranking misses its system by {residual:.3e}")
        state["pi_exact"] = pi_exact
        state["true_lambda"] = (reference.lambda_max(sym_lower), reference.lambda_max(sym_upper))
        # the filter edge_pagerank_all designs, rebuilt from the same public calls
        norm = sf.normalized_laplacian(sc)
        margin = sf.apps.LAMBDA_MAX_MARGIN
        lam_g = margin * sf.estimate_lambda_max(norm.sym_lower, POWER_STEPS, POWER_SEED)
        lam_c = margin * sf.estimate_lambda_max(norm.sym_upper, POWER_STEPS, POWER_SEED)
        lam_c = lam_c if lam_c > 0 else 1.0
        state["notes"] = [default_interval_note(sf, (norm.sym_lower, norm.sym_upper),
                                                state["true_lambda"])]
        spec = sf.ResponseSpec(1.0 / GAMMA, sf.response_inverse_shift(GAMMA, lam_g),
                               sf.response_inverse_shift(GAMMA, lam_c))
        filt = sf.chebyshev_design(spec, lam_g, lam_c, CHEB_ORDER, CHEB_ORDER)
        # In weighted coordinates y = pi / sqrt(w) the filter acts on the
        # symmetric parts, so the error of column j is at most
        # bound / sqrt(w_j); rounding happens unweighted and is mapped over.
        root_w = np.sqrt(d2)
        slack = reference.chebyshev_slack(filt, lower, upper) * root_w.max() / root_w.min() ** 2
        state["root_w"] = root_w
        state["tol"] = sf.chebyshev_error_bound(filt, spec) / root_w + slack

    def make_input(self, state: dict, i: int):
        return None

    def request(self, state: dict, _):
        return self.sf.edge_pagerank_all(state["sc"], GAMMA, "cheb", order=CHEB_ORDER,
                                         power_steps=POWER_STEPS)

    def units(self, state: dict) -> int:
        return state["sc"].n_edges

    def check(self, state: dict, _, out) -> str | None:
        if [r.edge_index for r in out] != list(range(state["sc"].n_edges)):
            return "results are not one per edge in order"
        pi = np.column_stack([r.pi for r in out])
        err = np.linalg.norm((pi - state["pi_exact"]) / state["root_w"][:, None], axis=0)
        bad = np.flatnonzero(~(err <= state["tol"]))
        if bad.size:
            j = bad[0]
            return (f"{bad.size} columns off the exact ranking, edge {j}: "
                    f"{err[j]:.3e} > {state['tol'][j]:.3e}")
        norms = np.array([r.norms_abs for r in out])
        gap = np.abs(norms[:, 0] ** 2 - (norms[:, 1:] ** 2).sum(axis=1))
        if not np.all(gap <= PYTHAGORAS_REL * norms[:, 0] ** 2):
            return f"subspace norms break Pythagoras by {gap.max():.3e}"
        return None

    @staticmethod
    def fingerprint(_, out) -> bytes:
        return b"".join(r.pi.tobytes() + np.array(r.norms_abs + r.norms_rel).tobytes()
                        for r in out)
