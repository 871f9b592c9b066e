import re

import numpy as np
import pytest

import simplicial_filters as sf
from simplicial_filters import build_complex, infer_triangles, toy_complex
from simplicial_filters.complexes import OrientationPlan, PermutationPlan

ACCEPTANCE_DETAILS = {}
_ACCEPTANCE_OUTCOMES = {}


def record_acceptance(num, detail):
    ACCEPTANCE_DETAILS[num] = detail


def pytest_runtest_logreport(report):
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m and report.when == "call":
        _ACCEPTANCE_OUTCOMES[int(m.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_OUTCOMES):
        outcome = _ACCEPTANCE_OUTCOMES[num].upper().replace("PASSED", "PASS") \
            .replace("FAILED", "FAIL")
        detail = ACCEPTANCE_DETAILS.get(num, "")
        terminalreporter.write_line(f"criterion {num:2d}: {outcome}  {detail}")


def random_complex(rng, max_nodes=20, edge_prob=0.35, clique_fill=True):
    """Random order-2 complex; triangles are the 3-cliques when clique_fill."""
    nvert = int(rng.integers(5, max_nodes + 1))
    pairs = [(u, v) for u in range(nvert) for v in range(u + 1, nvert)]
    keep = rng.random(len(pairs)) < edge_prob
    edges = [p for p, k in zip(pairs, keep) if k]
    if not edges:
        edges = [(0, 1)]
    tris = infer_triangles(nvert, edges) if clique_fill else ()
    return build_complex(nvert, edges, tris)


def degenerate_complexes():
    """Edge cases of the assembly: no edges, no triangles, a hollow tetrahedron
    from clique filling, and a disconnected complex with an isolated vertex."""
    tetra = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    two_triangles = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    return [
        build_complex(3, []),
        build_complex(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]),
        build_complex(4, tetra, infer_triangles(4, tetra)),
        build_complex(7, two_triangles, [(0, 1, 2), (3, 4, 5)]),
    ]


def road_cases(rng):
    """The 2176-edge road complex plain, reoriented and permuted, and every
    degenerate complex."""
    road = sf.generate_road_complex(1100, 2176, 11)
    return [
        road,
        sf.reorient(road, OrientationPlan.random(road, rng)),
        sf.permute(road, PermutationPlan.random(road, rng)),
    ] + degenerate_complexes()


def complete_complex(n):
    """Every edge and every triangle on n vertices: N2 > N1 from n = 6 on."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_complex(n, edges, infer_triangles(n, edges))


def road_with_clique(n=25, seed=None):
    """The 1088-edge road complex with every edge among n of its vertices added
    and every 3-clique filled: sparse roads around one crowded block. The
    vertices are the first n, or n drawn by ``default_rng(seed)`` when a seed
    is given, which scatters the block over the map."""
    road = sf.generate_road_complex(546, 1088, 11)
    block = range(n) if seed is None else sorted(
        int(u) for u in np.random.default_rng(seed).choice(road.vertex_count, n, replace=False)
    )
    edges = sorted(set(road.edges) | {(u, v) for u in block for v in block if u < v})
    return build_complex(road.vertex_count, edges, infer_triangles(road.vertex_count, edges))


def dense_b1(sc):
    """Node-edge incidence built directly from the sign rule."""
    out = np.zeros((sc.vertex_count, sc.n_edges), dtype=np.int64)
    for j, (u, v) in enumerate(sc.edges):
        out[u, j] = -1
        out[v, j] = 1
    return out


def dense_b2(sc):
    """Edge-triangle incidence built directly from the sign rule."""
    idx = {e: i for i, e in enumerate(sc.edges)}
    out = np.zeros((sc.n_edges, sc.n_triangles), dtype=np.int64)
    for j, (u, v, w) in enumerate(sc.triangles):
        out[idx[(u, v)], j] = 1
        out[idx[(u, w)], j] = -1
        out[idx[(v, w)], j] = 1
    return out


@pytest.fixture
def toy():
    return toy_complex()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
