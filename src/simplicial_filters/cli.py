"""Command-line front-end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Structured results go to JSON, plottable series to CSV; all floats are
written with 17 significant digits so reruns are byte-identical.
"""
from __future__ import annotations

import sys

import click
import numpy as np

from . import apps, design, filters, io, spectral
from .errors import DataError, NumericalError
from .fixtures import generate_road_complex

GROUP_TOL_HELP = (
    "Gap tolerance when counting distinct frequencies; gaps at or below the "
    "spectrum's zero tolerance (1e-8 x its largest eigenvalue) always group."
)


@click.group(name="scfilter")
def cli() -> None:
    """Spectral analysis, filter design, and flow applications on complexes."""


@cli.command()
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--group-tol", default=0.0, show_default=True, help=GROUP_TOL_HELP)
def info(sc_path, group_tol):
    """Print size and spectral-dimension statistics of a complex."""
    sc = io.load_complex(sc_path)
    spectrum = spectral.hodge_spectrum(sc)
    dg, dc = spectral.distinct_frequencies(spectrum, group_tol)
    for key, value in [
        ("N0", sc.vertex_count), ("N1", sc.n_edges), ("N2", sc.n_triangles),
        ("N_H", spectrum.n_harmonic), ("N_G", spectrum.n_gradient),
        ("N_C", spectrum.n_curl), ("D_G", len(dg)), ("D_C", len(dc)),
    ]:
        click.echo(f"{key}={value}")


@cli.command()
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def spectrum(sc_path, out_path):
    """Write the eigenvalue blocks of a complex to JSON."""
    sc = io.load_complex(sc_path)
    io.save_spectrum(spectral.hodge_spectrum(sc), out_path)
    click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--signal", "signal_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def decompose(sc_path, signal_path, out_path):
    """Split an edge flow into gradient/curl/harmonic parts (JSON)."""
    sc = io.load_complex(sc_path)
    flow = io.load_signal(signal_path, sc)
    f_g, f_c, f_h = spectral.hodge_decompose(sc, flow)
    io.dump_json(
        {
            "gradient": list(f_g),
            "curl": list(f_c),
            "harmonic": list(f_h),
            "norms": {
                "input": float(np.linalg.norm(flow)),
                "gradient": float(np.linalg.norm(f_g)),
                "curl": float(np.linalg.norm(f_c)),
                "harmonic": float(np.linalg.norm(f_h)),
            },
        },
        out_path,
    )
    click.echo(f"wrote {out_path}")


@cli.command(name="design")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["ls", "grid", "cheb"]), required=True)
@click.option("--sc", "sc_path", type=click.Path(),
              help="Complex supplying frequencies (ls) or spectral bounds (cheb).")
@click.option("--order-lower", default=1, show_default=True)
@click.option("--order-upper", default=1, show_default=True)
@click.option("--mode", type=click.Choice(["joint", "decoupled"]), default="joint",
              show_default=True)
@click.option("--samples", default=200, show_default=True,
              help="Grid samples per frequency interval.")
@click.option("--group-tol", default=0.0, show_default=True, help=GROUP_TOL_HELP)
@click.option("--out", "out_path", required=True, type=click.Path())
def design_cmd(spec_path, method, sc_path, order_lower, order_upper, mode,
               samples, group_tol, out_path):
    """Design a filter for a response spec and write it to JSON."""
    if method == "grid" and sc_path:
        raise click.UsageError("--method grid takes no --sc (it samples the spec domains)")
    spec = io.load_response_spec(spec_path)
    # a side without a response curve gets no taps, frequencies or samples
    lower, upper = spec.gradient is not None, spec.curl is not None
    if method == "cheb":
        lam_g, lam_c = _cheb_bounds(spec, sc_path)
        filt = design.chebyshev_design(
            spec, lam_g, lam_c,
            order_lower if lower else None, order_upper if upper else None,
        )
    else:
        if method == "ls":
            if not sc_path:
                raise click.UsageError("--method ls needs --sc for its frequencies")
            spectrum_ = spectral.hodge_spectrum(io.load_complex(sc_path))
            freqs_g, freqs_c = spectral.distinct_frequencies(spectrum_, group_tol)
            solver = design.ls_joint if mode == "joint" else design.ls_decoupled
            result = solver(
                freqs_g if lower else (), freqs_c if upper else (), spec,
                order_lower if lower else 0, order_upper if upper else 0,
            )
        else:
            result = design.grid_design(
                spec, samples if lower else 0, samples if upper else 0,
                order_lower if lower else 0, order_upper if upper else 0, mode,
            )
        filt = result.coefficients
        click.echo(f"residual={io.format_float(result.residual)}")
        click.echo(f"condition={io.format_float(result.condition)}")
    io.save_filter(filt, out_path)
    click.echo(f"wrote {out_path}")


def _cheb_bounds(spec, sc_path):
    """Chebyshev interval tops: the library's rule on the complex's Laplacians
    when a complex is given, else the spec domains."""
    if sc_path:
        return apps._interval_tops(filters.shift_operators(io.load_complex(sc_path)))
    lam_g = spec.gradient.lam_max if spec.gradient is not None else None
    lam_c = spec.curl.lam_max if spec.curl is not None else None
    return lam_g, lam_c


@cli.command()
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--filter", "filter_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def response(sc_path, filter_path, out_path):
    """Evaluate a filter's frequency response on a complex's spectrum (CSV)."""
    sc = io.load_complex(sc_path)
    filt = io.load_filter(filter_path)
    spectrum_ = spectral.hodge_spectrum(sc)
    rows = [(0.0, "H", filt.h0)]
    for lam in spectrum_.lambda_gradient:
        rows.append((float(lam), "G", filters.polynomial_response(filt, lam, "gradient")))
    for lam in spectrum_.lambda_curl:
        rows.append((float(lam), "C", filters.polynomial_response(filt, lam, "curl")))
    io.save_response_csv(rows, out_path)
    click.echo(f"wrote {out_path}")


@cli.command(name="filter")
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--filter", "filter_path", required=True, type=click.Path())
@click.option("--signal", "signal_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def filter_cmd(sc_path, filter_path, signal_path, out_path):
    """Apply a stored filter to an edge flow."""
    sc = io.load_complex(sc_path)
    filt = io.load_filter(filter_path)
    flow = io.load_signal(signal_path, sc)
    io.save_signal(filters.apply(sc, filt, flow), out_path)
    click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--signal", "signal_path", required=True, type=click.Path())
@click.option("--which", type=click.Choice(["gradient", "curl", "harmonic"]),
              default="gradient", show_default=True)
@click.option("--method",
              type=click.Choice(["spectral", "ls", "onesided", "cheb"]),
              default="spectral", show_default=True)
@click.option("--order-lower", type=int, default=None)
@click.option("--order-upper", type=int, default=None)
@click.option("--group-tol", default=0.0, show_default=True, help=GROUP_TOL_HELP)
@click.option("--out", "out_path", required=True, type=click.Path())
def extract(sc_path, signal_path, which, method, order_lower, order_upper,
            group_tol, out_path):
    """Extract one Hodge component of a flow; prints its error vs projection."""
    sc = io.load_complex(sc_path)
    flow = io.load_signal(signal_path, sc)
    method_name = {"spectral": "spectral", "ls": "filter_ls",
                   "onesided": "filter_onesided", "cheb": "filter_cheb"}[method]
    result = apps.extract_component(
        sc, flow, which, method_name,
        order_lower=order_lower, order_upper=order_upper, grouping_tol=group_tol,
    )
    io.save_signal(result.flow, out_path)
    if result.nrmse is None:
        click.echo("nrmse=n/a (projection reference is zero)")
    else:
        click.echo(f"nrmse={io.format_float(result.nrmse)}")
    click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--signal", "signal_path", required=True, type=click.Path())
@click.option("--mu", default=0.5, show_default=True)
@click.option("--regularizer", type=click.Choice(["edge", "hodge"]),
              default="hodge", show_default=True)
@click.option("--method", type=click.Choice(["exact", "grid", "cheb"]),
              default="exact", show_default=True)
@click.option("--order", type=int, default=None)
@click.option("--samples", default=10, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def denoise(sc_path, signal_path, mu, regularizer, method, order, samples, out_path):
    """Regularized denoising of an edge flow."""
    sc = io.load_complex(sc_path)
    flow = io.load_signal(signal_path, sc)
    regname = "edge_laplacian" if regularizer == "edge" else "hodge_laplacian"
    out = apps.denoise(sc, flow, mu, regname, method, order=order, samples=samples)
    io.save_signal(out, out_path)
    click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--sc", "sc_path", required=True, type=click.Path())
@click.option("--gamma", default=0.01, show_default=True)
@click.option("--edge", "edge_index", type=int, default=None,
              help="Edge index to rank; use --all for every edge.")
@click.option("--all", "rank_all", is_flag=True)
@click.option("--method", type=click.Choice(["exact", "grid", "cheb"]),
              default="exact", show_default=True)
@click.option("--order", type=int, default=None)
@click.option("--samples", default=200, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Required with --all (CSV); optional JSON for a single edge.")
def pagerank(sc_path, gamma, edge_index, rank_all, method, order, samples, out_path):
    """Edge influence scores via the normalized edge Laplacian."""
    sc = io.load_complex(sc_path)
    if rank_all == (edge_index is not None):
        raise click.UsageError("pass exactly one of --edge or --all")
    if rank_all:
        if not out_path:
            raise click.UsageError("--all needs --out for the CSV table")
        # the norm rows of each block are written as it arrives; no N1 x N1 pi is kept
        rows = (
            (start + j, *sc.edge_array[start + j].tolist(), *a, r.harmonic, r.gradient, r.curl)
            for start, _, norms, rel in apps._rank_blocks(sc, gamma, method, order, samples)
            for j, (a, r) in enumerate(zip(norms, rel))
        )
        io.save_pagerank_csv(rows, out_path)
        click.echo(f"wrote {out_path}")
        return
    result = apps.edge_pagerank(sc, gamma, edge_index, method, order=order, samples=samples)
    u, v = sc.edge_array[result.edge_index].tolist()
    payload = {
        "edge_index": result.edge_index,
        "u": u,
        "v": v,
        "norms_abs": {
            "total": result.norms_abs.total, "harmonic": result.norms_abs.harmonic,
            "gradient": result.norms_abs.gradient, "curl": result.norms_abs.curl,
        },
        "norms_rel": {
            "harmonic": result.norms_rel.harmonic,
            "gradient": result.norms_rel.gradient, "curl": result.norms_rel.curl,
        },
        "pi": list(result.pi),
    }
    if out_path:
        io.dump_json(payload, out_path)
        click.echo(f"wrote {out_path}")
    else:
        for key in ("total", "harmonic", "gradient", "curl"):
            click.echo(f"norm_{key}={io.format_float(payload['norms_abs'][key])}")


@cli.group()
def arbitrage():
    """Arbitrage detection and correction on exchange-rate matrices."""


@arbitrage.command()
@click.option("--market", "market_path", required=True, type=click.Path())
@click.option("--threshold", default=0.003, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def check(market_path, threshold, out_path):
    """List triangles with a profitable round trip."""
    market = io.load_market(market_path)
    hits = apps.arbitrage_check(market, threshold)
    for (i, j, k), gain in hits:
        names = market.currency_names
        click.echo(f"{names[i]}-{names[j]}-{names[k]} gain={io.format_float(gain)}")
    click.echo(f"flagged={len(hits)}")
    if out_path:
        io.dump_json(
            [
                {"triangle": [market.currency_names[x] for x in tri],
                 "gain": gain}
                for tri, gain in hits
            ],
            out_path,
        )


@arbitrage.command()
@click.option("--market", "market_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
def correct(market_path, out_path):
    """Write the closest consistent market (reciprocal rates, no arbitrage)."""
    market = io.load_market(market_path)
    corrected = apps.arbitrage_correct(market)
    io.save_market(corrected, out_path)
    click.echo(f"wrote {out_path}")


@cli.group()
def fixtures():
    """Synthetic test fixtures."""


@fixtures.command()
@click.option("--nodes", required=True, type=int)
@click.option("--edges", required=True, type=int)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def generate(nodes, edges, seed, out_path):
    """Generate a road-network-style complex and save it as JSON."""
    sc = generate_road_complex(nodes, edges, seed)
    io.save_complex(sc, out_path)
    click.echo(f"wrote {out_path} (N0={sc.vertex_count} N1={sc.n_edges} "
               f"N2={sc.n_triangles})")


def main(argv: list[str] | None = None) -> int:
    """Entry point with exit-code mapping; returns instead of raising."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return int(rv) if isinstance(rv, int) else 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
