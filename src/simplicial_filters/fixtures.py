"""Built-in fixtures: the 7-node toy complex, a seeded road-network-style
complex generator, and a small currency market with known inconsistencies."""
from __future__ import annotations

import numpy as np

from .apps import ExchangeMarket
from .complexes import (
    SimplicialComplex,
    _clique_triangles,
    _unique_rows,
    _vertex,
    build_complex,
)
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
    Counts must be integers (bools and floats raise DataError) and the seed a
    non-negative integer (DataError).

    The breadth-first search stays a Python loop: it shuffles each node's
    neighbours as it visits the node, so the random stream is drawn in visit
    order, and any other order of draws would change every seeded complex.
    The rest runs on int64 arrays: the candidate edge keys u * n_nodes + v
    come from one sort, the neighbour lists are one flat list with pointers,
    tree edges are kept as (parent, child) lists, and the remaining
    candidates are shuffled as one array (`Generator.shuffle` draws the same
    stream for a list and a 1-D array). The edges and their cliques are
    valid by construction, so the complex is made without `build_complex`.
    """
    from scipy.spatial import Delaunay

    n_nodes, n_edges = _vertex(n_nodes), _vertex(n_edges)
    if _vertex(seed) < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed!r}")
    if n_nodes < 3:
        raise DataError("need at least 3 nodes")
    if n_edges < n_nodes - 1:
        raise DataError("need at least n_nodes - 1 edges to stay connected")
    rng = np.random.default_rng(seed)
    points = rng.random((n_nodes, 2))
    simplices = np.sort(Delaunay(points).simplices, axis=1).astype(np.int64)
    candidates = _unique_rows(np.concatenate(
        [simplices[:, a] * n_nodes + simplices[:, b] for a, b in ((0, 1), (0, 2), (1, 2))]
    ))
    if n_edges > len(candidates):
        raise DataError(
            f"target {n_edges} exceeds the {len(candidates)} available edges"
        )
    # every node's neighbours in ascending order, the order in which the
    # sorted candidate edges list them, which the shuffles below depend on:
    # a stable sort on the node puts its smaller neighbours u (from edges
    # (u, node), ascending in u) before its larger ones
    u, v = np.divmod(candidates, n_nodes)
    ends, nbrs = np.concatenate([v, u]), np.concatenate([u, v])
    flat = nbrs[np.argsort(ends, kind="stable")].tolist()
    ptr = [0] + np.cumsum(np.bincount(ends, minlength=n_nodes)).tolist()
    # spanning tree by breadth-first search with shuffled neighbor order;
    # ``order`` is the queue, and grows while the loop walks it
    start = int(rng.integers(n_nodes))
    seen = {start}
    order, parents = [start], []
    for node in order:
        neighbors = flat[ptr[node] : ptr[node + 1]]
        rng.shuffle(neighbors)
        for other in neighbors:
            if other not in seen:
                seen.add(other)
                order.append(other)
                parents.append(node)
    if len(order) != n_nodes:
        raise DataError("Delaunay graph is disconnected; cannot build a tree")
    parent, child = np.array(parents, dtype=np.int64), np.array(order[1:], dtype=np.int64)
    tree_keys = np.minimum(parent, child) * n_nodes + np.maximum(parent, child)
    in_tree = np.zeros(len(candidates), dtype=bool)
    in_tree[np.searchsorted(candidates, tree_keys)] = True
    rest = candidates[~in_tree]
    rng.shuffle(rest)
    keep = np.sort(np.concatenate([tree_keys, rest[: n_edges - len(tree_keys)]]))
    edges = np.stack(np.divmod(keep, n_nodes), axis=1)
    return SimplicialComplex(n_nodes, edges, _clique_triangles(n_nodes, edges))


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
