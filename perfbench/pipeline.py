"""``cli_pipeline``: the criterion-12 desk pipeline and the arbitrage app, one
``python -m simplicial_filters.cli`` process per command, one at a time.

Every process pays the interpreter start, the imports, the file parse, the
complex build and a cold dense eigendecomposition, so this workload is bound
by the spectral, io and cli layers while the shift kernel does little.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference

NODES, EDGES = 546, 1088
CURRENCIES, MISSING_QUOTES = 30, 4
MU, GAMMA = 0.5, 0.01
COMMAND_TIMEOUT_S = 120
RECOMPOSE_REL, ORTHOGONAL_REL, SYSTEM_REL = 1e-12, 1e-9, 1e-9
LAUNCHER = Path(__file__).resolve().parent / "launch.py"


def commands() -> list[list[str]]:
    """One pass. LS orders are explicit: the default-order LS path overflows
    the Vandermonde at 1088 edges (see the known-defects block)."""
    sc, sig = ["--sc", "sc.json"], ["--signal", "flow.csv"]
    return [
        ["info", *sc],
        ["decompose", *sc, *sig, "--out", "decompose.json"],
        ["design", "--spec", "spec.json", "--method", "ls", *sc,
         "--order-lower", "6", "--order-upper", "3", "--out", "ls.json"],
        ["design", "--spec", "spec.json", "--method", "cheb", *sc,
         "--order-lower", "40", "--order-upper", "40", "--out", "cheb.json"],
        ["filter", *sc, "--filter", "cheb.json", *sig, "--out", "filtered.csv"],
        ["extract", *sc, *sig, "--method", "cheb", "--out", "extract.csv"],
        ["denoise", *sc, *sig, "--mu", str(MU), "--out", "denoise_exact.csv"],
        ["denoise", *sc, *sig, "--mu", str(MU), "--method", "cheb", "--order", "40",
         "--out", "denoise_cheb.csv"],
        ["pagerank", *sc, "--gamma", str(GAMMA), "--edge", "0", "--out", "pagerank_edge.json"],
        ["pagerank", *sc, "--gamma", str(GAMMA), "--all", "--out", "pagerank_all.csv"],
        ["arbitrage", "check", "--market", "market.csv", "--out", "arbitrage.json"],
        ["arbitrage", "correct", "--market", "market.csv", "--out", "corrected.csv"],
    ]


def _out_files(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]


def _read_signal(path: Path) -> np.ndarray:
    rows = path.read_text().splitlines()[1:]
    return np.array([float(r.split(",")[1]) for r in rows])


def _read_market(path: Path) -> np.ndarray:
    rows = [line.split(",")[1:] for line in path.read_text().splitlines()[1:]]
    return np.array([[float(c) if c else math.nan for c in row] for row in rows])


class CliPipeline:
    name = "cli_pipeline"
    unit = "commands"
    trace_requests = len(commands())
    rusage = "children"

    def __init__(self, sf, seed: int, workdir: Path, env: dict):
        self.sf, self.seed = sf, seed
        self.workdir, self.env = workdir, env
        self.commands = commands()
        # A run measures whole rounds of two passes, so it always holds 24
        # samples and its tail percentile does not shift with machine speed.
        self.round_size = 2 * len(self.commands)
        self.trace_dir: Path | None = None  # set to run commands through the launcher
        self._traced = 0
        self.exit_codes: list[int] = []

    def setup(self) -> dict:
        sf, rng = self.sf, np.random.default_rng([self.seed, 0])
        self.workdir.mkdir(parents=True, exist_ok=True)
        sc = sf.generate_road_complex(NODES, EDGES, self.seed)
        sf.io.save_complex(sc, self.workdir / "sc.json")
        flow = rng.standard_normal(sc.n_edges)
        sf.io.save_signal(flow, self.workdir / "flow.csv")
        (self.workdir / "spec.json").write_text(json.dumps({
            "g0": 2.0,
            "gradient": {"family": "inverse-shift", "gamma": 0.5, "max": 12.0},
            "curl": {"family": "inverse-shift", "gamma": 0.5, "max": 6.0},
        }) + "\n")
        value = rng.standard_normal(CURRENCIES)
        rate = np.exp(value[None, :] - value[:, None]
                      + 0.002 * rng.standard_normal((CURRENCIES, CURRENCIES)))
        np.fill_diagonal(rate, 1.0)
        pairs = [(i, j) for i in range(CURRENCIES) for j in range(i + 1, CURRENCIES)]
        for k in rng.choice(len(pairs), MISSING_QUOTES, replace=False):
            i, j = pairs[k]
            rate[i, j] = rate[j, i] = math.nan
        names = tuple(f"C{i:02d}" for i in range(CURRENCIES))
        sf.io.save_market(sf.ExchangeMarket(names, rate), self.workdir / "market.csv")
        return {"sc": sc, "flow": flow}

    def prepare_checks(self, state: dict) -> None:
        sc = state["sc"]
        low, up = reference.hodge_parts(sc)
        state["hodge"] = (low + up).toarray()
        state["true_lambda"] = (reference.lambda_max(low), reference.lambda_max(up))
        lower, upper, d2, _, _ = reference.normalized_parts(sc)
        system = GAMMA * np.eye(sc.n_edges) + (lower + upper).toarray()
        state["rank_system"] = system
        # exact ranking from our own system and subspace bases, weighted coordinates
        y = np.linalg.solve(system, np.eye(sc.n_edges)) / np.sqrt(d2)[:, None]
        v_grad, v_curl = reference.subspace_bases(sc, d2)
        y_g, y_c = v_grad @ (v_grad.T @ y), v_curl @ (v_curl.T @ y)
        state["rank_norms"] = np.column_stack([np.linalg.norm(a, axis=0)
                                               for a in (y, y - y_g - y_c, y_g, y_c)])

    def make_input(self, state: dict, i: int) -> list[str]:
        return self.commands[i % len(self.commands)]

    def request(self, state: dict, argv: list[str]):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "simplicial_filters.cli", *argv]
        else:
            spans = self.trace_dir / f"{self._traced:03d}.json"
            self._traced += 1
            cmd = [sys.executable, str(LAUNCHER), str(spans), *argv]
        done = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              timeout=COMMAND_TIMEOUT_S)
        self.exit_codes.append(done.returncode)
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"{argv[0]} exited {done.returncode}: {' '.join(tail)}")
        return done.stdout

    def units(self, state: dict) -> int:
        return 1

    def check(self, state: dict, argv: list[str], out) -> str | None:
        try:
            return self._check_content(state, argv, self.workdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_content(self, state, argv, where: Path) -> str | None:
        flow = state["flow"]
        norm_f = np.linalg.norm(flow)
        if argv[0] == "decompose":
            parts = json.loads((where / "decompose.json").read_text())
            g, c, h = (np.array(parts[k]) for k in ("gradient", "curl", "harmonic"))
            if np.linalg.norm(g + c + h - flow) > RECOMPOSE_REL * norm_f:
                return "decomposition does not recompose to the input"
            if max(abs(g @ c), abs(g @ h), abs(c @ h)) > ORTHOGONAL_REL * norm_f ** 2:
                return "decomposition parts are not orthogonal"
        elif argv[0] == "denoise" and "--method" not in argv:
            y = _read_signal(where / "denoise_exact.csv")
            residual = y + MU * (state["hodge"] @ y) - flow
            if np.linalg.norm(residual) > SYSTEM_REL * norm_f:
                return "exact denoising misses (I + mu L) y = f"
        elif argv[0] == "pagerank" and "--edge" in argv:
            pi = np.array(json.loads((where / "pagerank_edge.json").read_text())["pi"])
            target = np.zeros(len(pi))
            target[0] = 1.0
            if np.linalg.norm(state["rank_system"] @ pi - target) > SYSTEM_REL:
                return "exact edge ranking misses (gamma I + L_n) pi = e"
        elif argv[0] == "pagerank":
            rows = (where / "pagerank_all.csv").read_text().splitlines()[1:]
            table = np.array([[float(x) for x in r.split(",")[3:7]] for r in rows])
            expect = state["rank_norms"]
            if table.shape != expect.shape or np.any(
                    np.abs(table - expect) > SYSTEM_REL * expect[:, :1]):
                return "batch ranking norms differ from the solution of (gamma I + L_n) Pi = I"
        elif argv[:2] == ["arbitrage", "correct"]:
            rate = _read_market(where / "corrected.csv")
            quoted = np.isfinite(rate)
            if np.any(quoted != quoted.T) or np.any(np.diag(rate) != 1.0):
                return "corrected market quotes are one-sided or its diagonal is not 1"
            if np.max(np.abs(rate * rate.T - 1.0)[quoted]) > 4 * np.finfo(float).eps:
                return "corrected market is not reciprocal-consistent"
        return None

    def fingerprint(self, argv: list[str], stdout: bytes) -> bytes:
        return stdout + b"".join((self.workdir / f).read_bytes() for f in _out_files(argv))

    def trace_tables(self) -> list[dict]:
        return [json.loads(p.read_text()) for p in sorted(self.trace_dir.iterdir())]


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def import_seconds(env: dict, cwd: Path, repeats: int = 3) -> float:
    """Median time for a fresh interpreter to import the CLI module."""
    probe = ("import time; t = time.perf_counter(); import simplicial_filters.cli; "
             "print(time.perf_counter() - t)")
    times = sorted(
        float(subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env, check=True,
                             capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S).stdout)
        for _ in range(repeats))
    return times[len(times) // 2]

