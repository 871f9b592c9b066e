import hashlib
import json
import warnings

import numpy as np
import pytest

import simplicial_filters as sf
from simplicial_filters import io
from simplicial_filters.cli import main
from simplicial_filters.design import ChebyshevFilter


def test_canonical_json_reruns_identical(tmp_path):
    payload = {"a": [1, 2.5, -0.1], "b": {"x": 1e-17, "y": True, "z": None}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.dump_json(payload, p1)
    io.dump_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == payload


def test_float_format_is_lossless():
    for x in (0.1, 1 / 3, 1e-300, 7.2345678901234567e12):
        assert float(io.format_float(x)) == x


def test_complex_roundtrip(tmp_path, toy):
    path = tmp_path / "sc.json"
    io.save_complex(toy, path)
    assert io.load_complex(path) == toy
    data = json.loads(path.read_text())
    assert data["vertex_count"] == 7


# sha256 of save_complex's file, recorded while the writer rendered every
# integer on its own; the array writer must write the same bytes
SAVED_COMPLEX_SHA256 = {
    "road-546-1088-11": "fc7bd67c9684da754056f8e4b34c1573a442df799282208d4c93b571d995e1b0",
    "road-2176-4352-12": "19e46fdf4d7fa85e1f8f8b1d5d747d001e76be0badd6db37923669aee072dca7",
    "toy": "efd5d6b1e96cb34fd964222edceb7a2bf554f9c71682e183265af9ae4c3f98f7",
    "no-triangles": "7b3aec11d603c1d8575b6d524c5f3e4c096e71e163afacd31468774ebc985f69",
}


@pytest.mark.parametrize("name", list(SAVED_COMPLEX_SHA256))
def test_saved_complex_bytes_are_pinned(tmp_path, name):
    sc = {
        "road-546-1088-11": lambda: sf.generate_road_complex(546, 1088, 11),
        "road-2176-4352-12": lambda: sf.generate_road_complex(2176, 4352, 12),
        "toy": sf.toy_complex,
        "no-triangles": lambda: sf.build_complex(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]),
    }[name]()
    path = tmp_path / "sc.json"
    io.save_complex(sc, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_COMPLEX_SHA256[name]
    assert io.load_complex(path) == sc


def test_complex_infer_flag(tmp_path, toy):
    path = tmp_path / "sc.json"
    payload = {
        "vertex_count": toy.vertex_count,
        "edges": [list(e) for e in toy.edges],
        "infer_triangles": True,
    }
    path.write_text(json.dumps(payload))
    sc = io.load_complex(path)
    assert sc.triangles == toy.triangles


def test_signal_roundtrip(tmp_path, toy, rng):
    flow = rng.standard_normal(toy.n_edges)
    path = tmp_path / "f.csv"
    io.save_signal(flow, path)
    np.testing.assert_array_equal(io.load_signal(path), flow)


def test_signal_endpoint_form_flips_sign(tmp_path, toy):
    # value quoted against the reversed pair flips onto the reference
    lines = ["u,v,value"]
    flow = np.arange(1.0, toy.n_edges + 1)
    for i, (u, v) in enumerate(toy.edges):
        if i % 2:
            lines.append(f"{v},{u},{-flow[i]}")
        else:
            lines.append(f"{u},{v},{flow[i]}")
    path = tmp_path / "f.csv"
    path.write_text("\n".join(lines) + "\n")
    np.testing.assert_allclose(io.load_signal(path, toy), flow, atol=0)


def test_market_roundtrip(tmp_path):
    market = sf.demo_market()
    path = tmp_path / "m.csv"
    io.save_market(market, path)
    back = io.load_market(path)
    assert back.currency_names == market.currency_names
    np.testing.assert_allclose(back.rate, market.rate, atol=0)


def test_market_roundtrip_with_holes(tmp_path):
    rate = np.array([
        [1.0, 1.2, np.nan],
        [1 / 1.2, 1.0, 2.0],
        [np.nan, 0.5, 1.0],
    ])
    market = sf.ExchangeMarket(("A", "B", "C"), rate)
    path = tmp_path / "m.csv"
    io.save_market(market, path)
    back = io.load_market(path)
    assert np.isnan(back.rate[0, 2]) and np.isnan(back.rate[2, 0])
    assert back.rate[1, 2] == 2.0


def test_filter_roundtrip(tmp_path):
    coeffs = sf.FilterCoefficients(0.5, (1.0, -0.25), (0.75,))
    path = tmp_path / "h.json"
    io.save_filter(coeffs, path)
    assert io.load_filter(path) == coeffs


def test_chebyshev_filter_roundtrip(tmp_path):
    spec = sf.ResponseSpec(
        10.0,
        sf.response_inverse_shift(0.1, 5.5),
        sf.response_inverse_shift(0.1, 4.0),
    )
    filt = sf.chebyshev_design(spec, 5.5, 4.0, 12, 9)
    path = tmp_path / "h.json"
    io.save_filter(filt, path)
    back = io.load_filter(path)
    assert isinstance(back, ChebyshevFilter)
    np.testing.assert_array_equal(back.c_lower, filt.c_lower)
    np.testing.assert_array_equal(back.c_upper, filt.c_upper)
    assert back.omega_lower == filt.omega_lower
    assert back.g0 == filt.g0


def test_response_spec_loading(tmp_path):
    path = tmp_path / "spec.json"
    io.dump_json({
        "g0": 2.0,
        "gradient": {"family": "logistic", "k": 10.0, "lambda0": 1.0,
                     "max": 6.0},
        "curl": {"family": "table", "points": [[0.0, 2.0], [4.0, 0.0]]},
    }, path)
    spec = io.load_response_spec(path)
    assert spec.g0 == 2.0
    assert spec.gradient(1.0) == pytest.approx(0.5 * 2 / 2, abs=0.51)
    assert spec.curl(2.0) == pytest.approx(1.0)
    io.dump_json({"g0": 1.0, "gradient": {"family": "bogus"}}, path)
    with pytest.raises(sf.DataError):
        io.load_response_spec(path)


def test_spectrum_json(tmp_path, toy):
    path = tmp_path / "spec.json"
    io.save_spectrum(sf.hodge_spectrum(toy), path)
    data = json.loads(path.read_text())
    assert data["n_harmonic"] == 1
    assert len(data["lambda_gradient"]) == 6
    assert len(data["lambda_curl"]) == 3


def run_cli(args):
    return main(list(args))


def test_cli_info_and_exit_codes(tmp_path, toy, capsys):
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    assert run_cli(["info", "--sc", str(sc_path)]) == 0
    out = capsys.readouterr().out
    assert "N1=10" in out and "D_G=6" in out
    # missing file -> data error
    assert run_cli(["info", "--sc", str(tmp_path / "nope.json")]) == 2
    # unknown command -> usage error
    assert run_cli(["frobnicate"]) == 1
    # malformed complex -> data error
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertex_count": 3, "edges": [[0, 9]]}')
    assert run_cli(["info", "--sc", str(bad)]) == 2


def test_cli_pipeline_byte_identical(tmp_path, toy, capsys):
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    flow = sf.hodge_spectrum(toy).basis @ np.ones(toy.n_edges)
    sig_path = tmp_path / "flow.csv"
    io.save_signal(flow, sig_path)

    spec_path = tmp_path / "target.json"
    io.dump_json({
        "g0": 0.0,
        "gradient": {"family": "constant", "value": 1.0, "max": 5.5},
        "curl": {"family": "constant", "value": 0.0, "max": 4.0},
    }, spec_path)

    filt_path = tmp_path / "filt.json"
    args = ["design", "--spec", str(spec_path), "--method", "ls",
            "--sc", str(sc_path), "--order-lower", "6", "--order-upper", "3",
            "--out", str(filt_path)]
    assert run_cli(args) == 0
    first = filt_path.read_bytes()
    assert run_cli(args) == 0
    assert filt_path.read_bytes() == first

    out_path = tmp_path / "out.csv"
    assert run_cli(["filter", "--sc", str(sc_path), "--filter", str(filt_path),
                    "--signal", str(sig_path), "--out", str(out_path)]) == 0
    got = io.load_signal(out_path)
    spec = sf.hodge_spectrum(toy)
    np.testing.assert_allclose(got, spec.u_gradient @ (spec.u_gradient.T @ flow),
                               atol=1e-6)
    capsys.readouterr()


def test_cli_decompose_and_spectrum(tmp_path, toy, rng, capsys):
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    sig_path = tmp_path / "flow.csv"
    io.save_signal(rng.standard_normal(toy.n_edges), sig_path)
    dec_path = tmp_path / "dec.json"
    assert run_cli(["decompose", "--sc", str(sc_path), "--signal",
                    str(sig_path), "--out", str(dec_path)]) == 0
    data = json.loads(dec_path.read_text())
    total = (np.asarray(data["gradient"]) + np.asarray(data["curl"])
             + np.asarray(data["harmonic"]))
    np.testing.assert_allclose(total, io.load_signal(sig_path), atol=1e-10)
    spec_path = tmp_path / "spectrum.json"
    assert run_cli(["spectrum", "--sc", str(sc_path), "--out",
                    str(spec_path)]) == 0
    capsys.readouterr()


def test_cli_extract_denoise(tmp_path, toy, capsys):
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    flow = sf.hodge_spectrum(toy).basis @ np.ones(toy.n_edges)
    sig_path = tmp_path / "flow.csv"
    io.save_signal(flow, sig_path)
    out_path = tmp_path / "g.csv"
    assert run_cli(["extract", "--sc", str(sc_path), "--signal", str(sig_path),
                    "--which", "gradient", "--method", "ls",
                    "--out", str(out_path)]) == 0
    assert "nrmse=" in capsys.readouterr().out
    den_path = tmp_path / "d.csv"
    assert run_cli(["denoise", "--sc", str(sc_path), "--signal", str(sig_path),
                    "--mu", "0.5", "--out", str(den_path)]) == 0
    expect = sf.denoise(toy, flow, 0.5, "hodge_laplacian", "exact")
    np.testing.assert_allclose(io.load_signal(den_path), expect, atol=1e-10)
    capsys.readouterr()


def test_extract_takes_no_power_steps(tmp_path, toy, capsys):
    # extraction designs on the spectrum it computes, so the power-iteration
    # step count it used to take is gone from the library and the CLI
    sc_path, sig_path, out_path = (tmp_path / n for n in ("sc.json", "flow.csv", "g.csv"))
    io.save_complex(toy, sc_path)
    io.save_signal(np.ones(toy.n_edges), sig_path)
    assert run_cli(["extract", "--sc", str(sc_path), "--signal", str(sig_path),
                    "--method", "cheb", "--power-steps", "1", "--out", str(out_path)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out_path.exists()
    with pytest.raises(TypeError):
        sf.extract_component(toy, np.ones(toy.n_edges), "gradient", "filter_cheb",
                             power_steps=50)


@pytest.mark.parametrize("command", ["design", "denoise", "pagerank"])
def test_commands_take_no_power_steps(tmp_path, toy, capsys, command):
    # every design interval is margin x a converged Lanczos lambda_max, so the
    # power-iteration step count these commands took is gone
    sc_path, sig_path, spec_path, out_path = (
        tmp_path / n for n in ("sc.json", "flow.csv", "spec.json", "out"))
    io.save_complex(toy, sc_path)
    io.save_signal(np.ones(toy.n_edges), sig_path)
    io.dump_json({"g0": 1.0, "gradient": {"family": "inverse-shift", "gamma": 1.0,
                                          "max": 5.5}}, spec_path)
    args = {
        "design": ["--spec", str(spec_path), "--method", "cheb", "--sc", str(sc_path)],
        "denoise": ["--sc", str(sc_path), "--signal", str(sig_path), "--method", "cheb",
                    "--order", "5"],
        "pagerank": ["--sc", str(sc_path), "--edge", "0", "--method", "cheb", "--order", "5"],
    }[command]
    assert run_cli([command, *args, "--power-steps", "50", "--out", str(out_path)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out_path.exists()
    library = {
        "denoise": lambda: sf.denoise(toy, np.ones(toy.n_edges), 0.5, method="cheb",
                                      order=5, power_steps=50),
        "pagerank": lambda: sf.edge_pagerank(toy, 0.01, 0, "cheb", order=5, power_steps=50),
    }
    if command in library:
        with pytest.raises(TypeError):
            library[command]()


def test_cli_pagerank(tmp_path, toy, capsys):
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    assert run_cli(["pagerank", "--sc", str(sc_path), "--gamma", "0.05",
                    "--edge", "3"]) == 0
    assert "norm_total=" in capsys.readouterr().out
    csv_path = tmp_path / "pr.csv"
    assert run_cli(["pagerank", "--sc", str(sc_path), "--gamma", "0.05",
                    "--all", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == ("edge_index,u,v,norm_total,norm_H,norm_G,norm_C,"
                        "rel_H,rel_G,rel_C")
    assert len(lines) == toy.n_edges + 1
    # both --edge and --all is a usage error
    assert run_cli(["pagerank", "--sc", str(sc_path), "--edge", "0",
                    "--all", "--out", str(csv_path)]) == 1
    capsys.readouterr()


def test_cli_large_chebyshev_order_exits_0(tmp_path, capsys):
    # the quadrature for order 100000 used to build an (order + 1) x 8 order
    # cosine matrix (596 GiB) and exit 1 with a raw MemoryError
    sc_path = tmp_path / "sc.json"
    io.save_complex(sf.generate_road_complex(60, 120, 11), sc_path)
    norms = {}
    for method in ("cheb", "exact"):
        assert run_cli(["pagerank", "--sc", str(sc_path), "--edge", "0", "--method", method,
                        "--order", "100000"]) == 0
        out = capsys.readouterr().out
        norms[method] = float(out.split("norm_total=")[1].split()[0])
    assert norms["cheb"] == pytest.approx(norms["exact"], rel=1e-9)


def test_cli_denoise_overflowing_mu_exits_3(tmp_path, toy, capsys):
    # mu * P overflows to inf; this used to write an all-zero flow and exit 0,
    # and then to print scipy's overflow RuntimeWarning before the error
    sc_path, sig_path = tmp_path / "sc.json", tmp_path / "flow.csv"
    io.save_complex(toy, sc_path)
    io.save_signal(np.ones(toy.n_edges), sig_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(["denoise", "--sc", str(sc_path), "--signal", str(sig_path),
                        "--mu", "1e308", "--out", str(tmp_path / "d.csv")])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_cli_grid_design_curl_only_spec(tmp_path, toy, rng, capsys):
    # a spec without a gradient curve used to exit 2 ("lower taps requested
    # but no gradient frequencies"); like a gradient-only spec it gets one side
    sc_path, spec_path, filt_path = (tmp_path / n for n in ("sc.json", "spec.json", "h.json"))
    io.save_complex(toy, sc_path)
    io.dump_json({"g0": 1.0, "curl": {"family": "logistic", "k": -4.0, "lambda0": 1.0,
                                      "max": 4.0}}, spec_path)
    assert run_cli(["design", "--spec", str(spec_path), "--method", "grid",
                    "--order-upper", "4", "--samples", "50", "--out", str(filt_path)]) == 0
    filt = io.load_filter(filt_path)
    spec = io.load_response_spec(spec_path)
    assert filt == sf.grid_design(spec, 0, 50, 0, 4).coefficients
    assert filt.alpha == () and len(filt.beta) == 4
    sig_path, out_path = tmp_path / "flow.csv", tmp_path / "out.csv"
    flow = rng.standard_normal(toy.n_edges)
    io.save_signal(flow, sig_path)
    assert run_cli(["filter", "--sc", str(sc_path), "--filter", str(filt_path),
                    "--signal", str(sig_path), "--out", str(out_path)]) == 0
    np.testing.assert_array_equal(io.load_signal(out_path), sf.apply(toy, filt, flow))
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["joint", "decoupled"])
def test_cli_ls_design_curl_only_spec(tmp_path, toy, capsys, mode):
    # a spec without a gradient curve used to exit 2 ("gradient frequencies
    # given but no gradient response curve"), even with --order-lower 0
    sc_path, spec_path, filt_path = (tmp_path / n for n in ("sc.json", "spec.json", "h.json"))
    io.save_complex(toy, sc_path)
    io.dump_json({"g0": 1.0, "curl": {"family": "logistic", "k": -4.0, "lambda0": 1.0,
                                      "max": 4.0}}, spec_path)
    assert run_cli(["design", "--spec", str(spec_path), "--method", "ls", "--sc", str(sc_path),
                    "--order-upper", "2", "--mode", mode, "--out", str(filt_path)]) == 0
    _, freqs_c = sf.distinct_frequencies(sf.hodge_spectrum(toy))
    solver = sf.ls_joint if mode == "joint" else sf.ls_decoupled
    spec = io.load_response_spec(spec_path)
    filt = io.load_filter(filt_path)
    assert filt == solver((), freqs_c, spec, 0, 2).coefficients
    assert filt.alpha == () and len(filt.beta) == 2
    capsys.readouterr()


def test_cli_arbitrage(tmp_path, capsys):
    market_path = tmp_path / "market.csv"
    io.save_market(sf.demo_market(), market_path)
    assert run_cli(["arbitrage", "check", "--market", str(market_path)]) == 0
    out = capsys.readouterr().out
    assert "flagged=6" in out
    fixed_path = tmp_path / "fixed.csv"
    assert run_cli(["arbitrage", "correct", "--market", str(market_path),
                    "--out", str(fixed_path)]) == 0
    assert run_cli(["arbitrage", "check", "--market", str(fixed_path)]) == 0
    assert "flagged=0" in capsys.readouterr().out


@pytest.mark.parametrize("cell", ["diagonal nan", "quote inf"])
@pytest.mark.parametrize("command", ["check", "correct"])
def test_cli_non_finite_market_cell_exits_2(tmp_path, capsys, command, cell):
    # both used to exit 0, the cell read as a missing quote
    market_path, out_path = tmp_path / "market.csv", tmp_path / "fixed.csv"
    io.save_market(sf.demo_market(), market_path)
    lines = market_path.read_text().splitlines()
    usd = lines[1].split(",")
    usd[1 if cell == "diagonal nan" else 2] = cell.split()[1]
    lines[1] = ",".join(usd)
    market_path.write_text("\n".join(lines) + "\n")
    args = ["arbitrage", command, "--market", str(market_path)]
    assert run_cli(args + (["--out", str(out_path)] if command == "correct" else [])) == 2
    assert "data error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_fixtures_generate(tmp_path, capsys):
    out_path = tmp_path / "road.json"
    assert run_cli(["fixtures", "generate", "--nodes", "30", "--edges", "45",
                    "--seed", "3", "--out", str(out_path)]) == 0
    sc = io.load_complex(out_path)
    assert sc.vertex_count == 30 and sc.n_edges == 45
    # impossible edge budget -> data error
    assert run_cli(["fixtures", "generate", "--nodes", "30", "--edges", "5",
                    "--seed", "3", "--out", str(out_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    (10.5, 12, 1), (10, 12.0, 1), (10, 12, 1.5), (True, 12, 1), (10, True, 1),
    (10, 12, -1), (10, 12, "1"),
])
def test_generator_rejects_bad_arguments(args):
    # float counts used to raise TypeError inside numpy, a negative seed ValueError
    with pytest.raises(sf.DataError):
        sf.generate_road_complex(*args)


def test_cli_generate_with_negative_seed_exits_2(tmp_path, capsys):
    out_path = tmp_path / "road.json"
    assert run_cli(["fixtures", "generate", "--nodes", "30", "--edges", "45",
                    "--seed", "-1", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert "data error: seed must be a non-negative integer" in err
    assert "Traceback" not in err and not out_path.exists()


def test_cli_response_csv(tmp_path, toy, capsys):
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    filt_path = tmp_path / "h.json"
    io.save_filter(sf.FilterCoefficients(1.0, (0.5,), (0.25,)), filt_path)
    resp_path = tmp_path / "resp.csv"
    assert run_cli(["response", "--sc", str(sc_path), "--filter",
                    str(filt_path), "--out", str(resp_path)]) == 0
    lines = resp_path.read_text().strip().split("\n")
    assert lines[0] == "lambda,type,response"
    assert len(lines) == 1 + 1 + 6 + 3
    lam, kind, val = lines[1].split(",")
    assert kind == "H" and float(val) == pytest.approx(1.0)
    capsys.readouterr()


def test_cli_response_rows_for_both_filter_kinds(tmp_path, toy, capsys):
    # one row per frequency, written with the same 17-digit format as any CSV
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    spec = sf.hodge_spectrum(toy)
    curves = sf.ResponseSpec(10.0, sf.response_inverse_shift(0.1, 5.5),
                             sf.response_inverse_shift(0.1, 4.0))
    kinds = {
        "poly": (sf.FilterCoefficients(1.0, (0.5, -0.1), (0.25,)), sf.polynomial_response),
        "cheb": (sf.chebyshev_design(curves, 5.5, 4.0, 6, 5), sf.chebyshev_response),
    }
    for name, (filt, response) in kinds.items():
        filt_path, got, expect = (tmp_path / f"{name}{ext}" for ext in (".json", ".csv", "-expect.csv"))
        io.save_filter(filt, filt_path)
        assert run_cli(["response", "--sc", str(sc_path), "--filter", str(filt_path),
                        "--out", str(got)]) == 0
        rows = [(0.0, "H", response(filt, 0.0, "harmonic"))]
        rows += [(float(lam), "G", response(filt, lam, "gradient")) for lam in spec.lambda_gradient]
        rows += [(float(lam), "C", response(filt, lam, "curl")) for lam in spec.lambda_curl]
        io.save_response_csv(rows, expect)
        assert got.read_bytes() == expect.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("command, option", [
    # the option was accepted and never read
    ("response", ["--group-tol", "0"]),
    # a quadrature with fewer nodes than the order wrote an aliased filter
    # (error bound 19.2 at --quadrature 7, order 40) and exited 0
    ("design", ["--method", "cheb", "--quadrature", "5"]),
], ids=["response --group-tol", "design --quadrature"])
def test_cli_unknown_option_is_usage_error(tmp_path, toy, capsys, command, option):
    sc_path, filt_path = tmp_path / "sc.json", tmp_path / "h.json"
    spec_path = tmp_path / "spec.json"
    io.save_complex(toy, sc_path)
    io.save_filter(sf.FilterCoefficients(1.0, (0.5,), (0.25,)), filt_path)
    io.dump_json({"g0": 1.0, "gradient": {"family": "inverse-shift", "gamma": 1.0,
                                          "max": 5.5}}, spec_path)
    out_path = tmp_path / "out"
    inputs = {"response": ["--sc", str(sc_path), "--filter", str(filt_path)],
              "design": ["--spec", str(spec_path)]}[command]
    assert run_cli([command, *inputs, "--out", str(out_path), *option]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and option[-2] in err
    assert not out_path.exists()


@pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
def test_cli_decompose_bad_signal_cell_exits_2(tmp_path, toy, capsys, cell):
    sc_path = tmp_path / "sc.json"
    io.save_complex(toy, sc_path)
    sig_path = tmp_path / "flow.csv"
    rows = ["index,value"] + [f"{i},1.5" for i in range(toy.n_edges)]
    rows[4] = f"3,{cell}"
    sig_path.write_text("\n".join(rows) + "\n")
    assert run_cli(["decompose", "--sc", str(sc_path), "--signal", str(sig_path),
                    "--out", str(tmp_path / "dec.json")]) == 2
    assert not (tmp_path / "dec.json").exists()
    capsys.readouterr()


def test_malformed_complex_and_index_cells(tmp_path, toy):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertex_count": 3, "edges": [[0, "x"]]}')
    with pytest.raises(sf.DataError):
        io.load_complex(bad)
    sig = tmp_path / "f.csv"
    sig.write_text("index,value\n0,1.0\nx,2.0\n")
    with pytest.raises(sf.DataError):
        io.load_signal(sig)
    sig.write_text("u,v,value\n0,1,nan\n")
    with pytest.raises(sf.DataError):
        io.load_signal(sig, toy)


@pytest.mark.parametrize("rows", [
    ["index,value", "0,1.0", "2,3.0", "0,5.0"],
    ["u,v,value", "EDGE,5", "REVERSED,3"],
], ids=["index", "pair"])
def test_repeated_signal_rows_exit_2(tmp_path, toy, capsys, rows):
    # the last row used to win silently: index 0 loaded 5.0, and the pair rows
    # loaded -3 for the edge
    (u, v) = toy.edges[0]
    text = "\n".join(rows).replace("EDGE", f"{u},{v}").replace("REVERSED", f"{v},{u}")
    sig_path, sc_path = tmp_path / "flow.csv", tmp_path / "sc.json"
    sig_path.write_text(text + "\n")
    io.save_complex(toy, sc_path)
    with pytest.raises(sf.DataError, match="more than once"):
        io.load_signal(sig_path, toy)
    assert run_cli(["decompose", "--sc", str(sc_path), "--signal", str(sig_path),
                    "--out", str(tmp_path / "dec.json")]) == 2
    assert not (tmp_path / "dec.json").exists()
    capsys.readouterr()


def test_cli_grid_design_rejects_sc(tmp_path, capsys):
    # grid design samples the spec domains; it used to ignore --sc and exit 0
    # even for a path that does not exist
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "h.json"
    io.dump_json({"g0": 1.0, "gradient": {"family": "inverse-shift", "gamma": 1.0,
                                          "max": 5.5}}, spec_path)
    assert run_cli(["design", "--spec", str(spec_path), "--method", "grid",
                    "--sc", str(tmp_path / "nope.json"), "--order-lower", "3",
                    "--out", str(out_path)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not out_path.exists()


def test_market_missing_quotes_stay_legal(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(",A,B,C\nA,1,2,\nB,0.5,1,4\nC,,0.25,1\n")
    market = io.load_market(path)
    assert np.isnan(market.rate[0, 2]) and np.isnan(market.rate[2, 0])
    # only an empty cell is a missing quote: a NaN diagonal or a non-finite
    # quote used to load, and check and correct then treated it as missing
    for row in ("A,1,abc", "A,nan,2", "A,1,inf", "A,1,-inf", "A,1,nan"):
        path.write_text(f",A,B\n{row}\nB,0.5,1\n")
        with pytest.raises(sf.DataError):
            io.load_market(path)


OUT_OF_RANGE = [
    ["info", "SC", "--group-tol", "-1"],
    ["extract", "SC", "SIG", "--method", "ls", "--group-tol", "-1"],
    ["denoise", "SC", "SIG", "--method", "grid", "--order", "-1"],
    ["pagerank", "SC", "--all", "--method", "cheb", "--order", "-1"],
    ["design", "--method", "cheb", "--order-lower", "-2"],
    ["design", "--method", "ls", "SC", "--order-lower", "-1"],
    ["extract", "SC", "SIG", "--method", "ls", "--order-lower", "-1"],
    # non-finite numbers used to exit 3 (a failed factorization), or exit 0
    # with an all-zero table or a test that flags nothing
    ["denoise", "SC", "SIG", "--mu", "nan"],
    ["denoise", "SC", "SIG", "--mu", "inf"],
    ["pagerank", "SC", "--edge", "0", "--gamma", "nan"],
    ["pagerank", "SC", "--all", "--gamma", "inf"],
    ["arbitrage", "check", "MARKET", "--threshold", "nan"],
    ["info", "SC", "--group-tol", "nan"],
    ["info", "SC", "--group-tol", "inf"],
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE, ids=" ".join)
def test_cli_out_of_range_numbers_exit_2(tmp_path, toy, capsys, argv):
    # these used to end in a ValueError/IndexError traceback (exit 1) or
    # write a filter built from an empty or garbage series (exit 0)
    sc_path, sig_path = tmp_path / "sc.json", tmp_path / "flow.csv"
    spec_path = tmp_path / "spec.json"
    io.save_complex(toy, sc_path)
    io.save_signal(np.ones(toy.n_edges), sig_path)
    io.dump_json({
        "g0": 1.0,
        "gradient": {"family": "inverse-shift", "gamma": 1.0, "max": 5.5},
        "curl": {"family": "inverse-shift", "gamma": 1.0, "max": 4.0},
    }, spec_path)
    market_path = tmp_path / "market.csv"
    io.save_market(sf.demo_market(), market_path)
    expand = {"SC": ["--sc", str(sc_path)], "SIG": ["--signal", str(sig_path)],
              "MARKET": ["--market", str(market_path)]}
    args = [part for arg in argv for part in expand.get(arg, [arg])]
    if args[0] == "design":
        args += ["--spec", str(spec_path)]
    args += ["--out", str(tmp_path / "out")] if args[0] != "info" else []
    assert run_cli(args) == 2
    assert "data error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def road_1088(tmp_path_factory):
    sc = sf.generate_road_complex(546, 1088, 11)
    path = tmp_path_factory.mktemp("road") / "sc.json"
    io.save_complex(sc, path)
    return sc, path


@pytest.mark.parametrize("method", ["ls", "onesided"])
def test_cli_default_order_overflow_exits_3(tmp_path, road_1088, capsys, method):
    # one power per distinct frequency overflows float64 at 1088 edges; this
    # used to surface as a raw LinAlgError (exit 1) or as a data error (exit 2)
    sc, sc_path = road_1088
    sig_path = tmp_path / "flow.csv"
    io.save_signal(np.ones(sc.n_edges), sig_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run_cli(["extract", "--sc", str(sc_path), "--signal", str(sig_path),
                        "--method", method, "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["ls", "onesided"])
def test_cli_default_order_overflow_warns_nothing(tmp_path, road_1088, capsys, method):
    # the overflowing powers used to print numpy's "RuntimeWarning: overflow
    # encountered in power" before the exit-3 line
    sc, sc_path = road_1088
    sig_path = tmp_path / "flow.csv"
    io.save_signal(np.ones(sc.n_edges), sig_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(["extract", "--sc", str(sc_path), "--signal", str(sig_path),
                        "--method", method, "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert "overflow float64" in capsys.readouterr().err


BAD_FILTER_FILES = {
    # no series: filter used to end in an IndexError traceback (exit 1)
    "no-series": '{"type": "chebyshev", "g0": 1}',
    # these used to write NaN, or zeros for an infinite omega, and exit 0
    "nan-coefficient": '{"type": "chebyshev", "g0": 1, "c_lower": [1.0, NaN], "omega_lower": 2.0}',
    "nan-omega": '{"type": "chebyshev", "g0": 1, "c_lower": [1.0, 0.5], "omega_lower": NaN}',
    "infinite-omega": '{"type": "chebyshev", "g0": 1, "c_lower": [1.0, 0.5], "omega_lower": Infinity}',
    # these used to end in a TypeError or ValueError traceback (exit 1)
    "text-coefficient": '{"type": "chebyshev", "g0": 1, "c_lower": ["abc"], "omega_lower": 2.0}',
    "text-tap": '{"h0": 1.0, "alpha": ["abc"]}',
}


@pytest.mark.parametrize("command", ["filter", "response"])
@pytest.mark.parametrize("name", list(BAD_FILTER_FILES))
def test_cli_bad_filter_file_exits_2(tmp_path, toy, capsys, command, name):
    sc_path, sig_path = tmp_path / "sc.json", tmp_path / "flow.csv"
    filt_path, out_path = tmp_path / "h.json", tmp_path / "out.csv"
    io.save_complex(toy, sc_path)
    io.save_signal(np.ones(toy.n_edges), sig_path)
    filt_path.write_text(BAD_FILTER_FILES[name])
    args = [command, "--sc", str(sc_path), "--filter", str(filt_path), "--out", str(out_path)]
    if command == "filter":
        args += ["--signal", str(sig_path)]
    assert run_cli(args) == 2
    assert "data error:" in capsys.readouterr().err
    assert not out_path.exists()


BAD_RESPONSE_SPECS = {
    # these used to end in a ValueError traceback (exit 1)
    "text-g0": {"g0": "abc", "gradient": {"family": "constant", "value": 0.0, "max": 4.0}},
    "text-logistic-k": {"g0": 0.5, "gradient": {"family": "logistic", "k": "x",
                                                "lambda0": 1.0, "max": 4.0}},
    # an IndexError traceback (exit 1)
    "short-table-point": {"g0": 1.0, "gradient": {"family": "table",
                                                  "points": [[0.0, 1.0], [2.0]]}},
    # grid design: exit 3 ("frequency powers ... overflow"), and exit 0 with a
    # filter fitted to a response that is zero everywhere
    "nan-max": {"g0": 1.0, "gradient": {"family": "constant", "value": 1.0, "max": "nan"}},
    "inf-gamma": {"g0": 0.0, "gradient": {"family": "inverse-shift", "gamma": "inf",
                                          "max": 4.0}},
    # grid design: exit 0 with a filter fitted to the constant `high`
    "nan-step-cutoff": {"g0": 1.0, "gradient": {"family": "ideal-step", "cutoff": float("nan"),
                                                "low": 1.0, "high": 0.0, "max": 5.0}},
}


@pytest.mark.parametrize("name", list(BAD_RESPONSE_SPECS))
def test_cli_bad_response_spec_exits_2(tmp_path, capsys, name):
    spec_path, out_path = tmp_path / "spec.json", tmp_path / "h.json"
    spec_path.write_text(json.dumps(BAD_RESPONSE_SPECS[name]))
    for method in ("cheb", "grid"):
        args = ["design", "--method", method, "--order-lower", "5", "--spec", str(spec_path),
                "--out", str(out_path)]
        assert run_cli(args) == 2
        assert "data error:" in capsys.readouterr().err
        assert not out_path.exists()
