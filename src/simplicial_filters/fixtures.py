"""Built-in fixtures: the 7-node toy complex, a seeded road-network-style
complex generator, and a small currency market with known inconsistencies."""
from __future__ import annotations

from collections import deque

import numpy as np

from .apps import ExchangeMarket
from .complexes import SimplicialComplex, _clique_triangles, _unique_edges, build_complex
from .errors import DataError


def toy_complex() -> SimplicialComplex:
    """Seven nodes, ten edges, three filled triangles.

    Small enough to inspect by hand, rich enough to have one harmonic
    dimension, six distinct gradient frequencies, and three curl frequencies.
    """
    edges = [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
        (2, 5), (3, 4), (4, 5), (4, 6), (5, 6),
    ]
    triangles = [(0, 1, 2), (1, 2, 3), (4, 5, 6)]
    return build_complex(7, edges, triangles)


def generate_road_complex(n_nodes: int, n_edges: int, seed: int) -> SimplicialComplex:
    """Random planar-ish complex: Delaunay edges thinned to a target count.

    Nodes are uniform points in the unit square; a random-order spanning tree
    keeps the graph connected, the remaining Delaunay edges are subsampled to
    reach ``n_edges``, and every 3-clique is filled. Deterministic per seed.
    """
    from scipy.spatial import Delaunay

    if n_nodes < 3:
        raise DataError("need at least 3 nodes")
    if n_edges < n_nodes - 1:
        raise DataError("need at least n_nodes - 1 edges to stay connected")
    rng = np.random.default_rng(seed)
    points = rng.random((n_nodes, 2))
    tri = Delaunay(points)
    simplices = np.sort(tri.simplices, axis=1).astype(np.int64)
    candidates, pairs = _unique_edges(
        np.concatenate([simplices[:, face] for face in ((0, 1), (0, 2), (1, 2))]), n_nodes
    )
    if n_edges > len(candidates):
        raise DataError(
            f"target {n_edges} exceeds the {len(candidates)} available edges"
        )
    # every node's neighbours in ascending order, the order in which the
    # sorted candidate edges list them, which the shuffles below depend on:
    # a stable sort on the node puts its smaller neighbours u (from edges
    # (u, node), ascending in u) before its larger ones
    u, v = pairs.T
    ends, nbrs = np.concatenate([v, u]), np.concatenate([u, v])
    flat = nbrs[np.argsort(ends, kind="stable")].tolist()
    bounds = np.cumsum(np.bincount(ends, minlength=n_nodes)).tolist()
    adjacency = [flat[a:b] for a, b in zip([0] + bounds, bounds)]
    # spanning tree by breadth-first search with shuffled neighbor order
    start = int(rng.integers(n_nodes))
    seen = {start}
    tree: list[tuple[int, int]] = []
    queue = deque([start])
    while queue:
        node = queue.popleft()
        neighbors = list(adjacency[node])
        rng.shuffle(neighbors)
        for other in neighbors:
            if other not in seen:
                seen.add(other)
                tree.append(tuple(sorted((node, other))))
                queue.append(other)
    if len(seen) != n_nodes:
        raise DataError("Delaunay graph is disconnected; cannot build a tree")
    tree_arr = np.array(tree, dtype=np.int64).reshape(-1, 2)
    tree_keys = tree_arr[:, 0] * n_nodes + tree_arr[:, 1]
    in_tree = np.zeros(len(candidates), dtype=bool)
    in_tree[np.searchsorted(candidates, tree_keys)] = True
    rest = candidates[~in_tree].tolist()
    rng.shuffle(rest)
    keep = np.sort(np.concatenate(
        [tree_keys, np.array(rest[: n_edges - len(tree)], dtype=np.int64)]
    ))
    edges = np.stack(np.divmod(keep, n_nodes), axis=1)
    return build_complex(n_nodes, edges, _clique_triangles(n_nodes, edges))


# A seven-currency market snapshot with small internal inconsistencies, kept
# as quoted (rates are rounded, so reciprocal pairs do not multiply to one).
DEMO_CURRENCIES = ("USD", "EUR", "CNY", "HKD", "GBP", "JPY", "AUD")

_DEMO_RATES = [
    [1.0, 0.8422, 6.3739, 7.7666, 0.7207, 110.1020, 1.3377],
    [1.1873, 1.0, 7.5681, 9.2218, 0.8557, 130.7314, 1.5883],
    [0.1539, 0.1321, 1.0, 1.2185, 0.1131, 17.2683, 0.2099],
    [0.1288, 0.1085, 0.8207, 1.0, 0.0928, 14.1718, 0.1723],
    [1.3871, 1.1685, 8.8414, 10.7732, 1.0, 152.6758, 1.8557],
    [0.0091, 0.0077, 0.0579, 0.0706, 0.0066, 1.0, 0.0122],
    [0.7475, 0.6299, 4.7602, 5.8001, 0.5385, 82.1837, 1.0],
]


def demo_market() -> ExchangeMarket:
    """Exchange-rate fixture whose rounding errors create triangular arbitrage."""
    return ExchangeMarket(DEMO_CURRENCIES, np.array(_DEMO_RATES))
