"""Outside-in tracing of the simplicial_filters package.

Spans are recorded only here, around calls into each module's public
functions: the wrappers replace the module attribute and every other package
module attribute bound to the same object (so ``apps.hodge_spectrum`` is
wrapped along with ``spectral.hodge_spectrum``). Counters are read at the same
boundaries. Nothing inside the package is edited.

A layer is one package module; its self time is the time of its spans minus
the part covered by their child spans.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

PACKAGE = "simplicial_filters"

# Public entry points timed per layer. Names a module does not define are
# skipped, so the table survives functions being removed.
LAYER_FUNCTIONS = {
    "filters": ("apply", "apply_operators", "shift_operators", "shift_lower",
                "shift_upper", "distributed_shift"),
    "design": ("chebyshev_design", "grid_design", "ls_joint", "ls_decoupled",
               "ls_tied", "estimate_lambda_max", "chebyshev_apply",
               "chebyshev_apply_operators"),
    "spectral": ("hodge_spectrum", "hodge_laplacian", "normalized_laplacian",
                 "normalized_hodge_laplacian", "hodge_decompose",
                 "distinct_frequencies", "divergence", "curl", "sft",
                 "inverse_sft"),
    "apps": ("extract_component", "denoise", "edge_pagerank", "edge_pagerank_all",
             "arbitrage_check", "arbitrage_correct", "market_complex"),
    "complexes": ("build_complex", "infer_triangles", "incidence_matrix",
                  "boundary_csr", "boundary_dense"),
    "fixtures": ("generate_road_complex",),
    "io": ("load_complex", "save_complex", "load_signal", "save_signal",
           "load_market", "save_market", "load_filter", "save_filter",
           "load_response_spec", "save_spectrum", "save_response_csv",
           "save_pagerank_csv", "dump_json"),
}
# The shift kernel lives in a private module; its layer is named without the
# underscore because metric names must start with a letter.
KERNEL_MODULE = "_kernels"
KERNEL_CLASS = "ShiftMatrix"
# Dense Laplacian cache consulted by hodge_laplacian.
SPECTRAL_PRIVATE_CACHE = {"hodge_laplacian": "_laplacians_cached"}
COMPLEX_BUILD = ("complexes.build_complex", "complexes.infer_triangles")
# Layers reported as busy time (self time of all their spans).
BUSY_LAYERS = ("filters", "design", "spectral", "apps", "io")


class Recorder:
    """In-memory span table plus counters; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.intervals: list[tuple] = []  # (lambda_max_gradient, lambda_max_curl)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.names[self.name[i]].startswith(prefix) for i in self._stack)

    def table(self) -> dict:
        return {"names": self.names, "name": list(self.name), "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent)}


def package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}


def lru_caches(module) -> dict:
    """Every functools.lru_cache defined in a module, by attribute name."""
    return {name: obj for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__}


def clear_caches() -> None:
    """Empty every lru_cache in the package, so the next set-up runs cold."""
    for mod in package_modules().values():
        for cache in lru_caches(mod).values():
            cache.cache_clear()


def cache_snapshot() -> Counter:
    """Hits and misses of the spectral and complexes caches, and spectrum builds.

    Take it while no Tracer is installed: the wrappers hide the caches.
    """
    out: Counter = Counter()
    for layer in ("spectral", "complexes"):
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        for name, cache in (lru_caches(mod) if mod else {}).items():
            info = cache.cache_info()
            out[f"{layer}.hits"] += info.hits
            out[f"{layer}.misses"] += info.misses
            if name == "hodge_spectrum":
                out["spectral.spectrum_builds"] += info.misses
    return out


def _dense_bytes(result) -> int:
    values = vars(result).values() if hasattr(result, "__dict__") else (
        result if isinstance(result, tuple) else (result,))
    return sum(v.nbytes for v in values if getattr(v, "ndim", 0) == 2)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Installs the wrappers on construction; ``remove`` puts the originals back."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._patches: list[tuple] = []
        self._ops = weakref.WeakKeyDictionary()  # ShiftMatrix -> (nnz, rows, cols)
        mods = package_modules()
        for layer, names in LAYER_FUNCTIONS.items():
            mod = mods.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    self._replace_everywhere(mods, fn, self._wrap(layer, name, mod, fn))
        kernels = mods.get(f"{PACKAGE}.{KERNEL_MODULE}")
        cls = getattr(kernels, KERNEL_CLASS, None)
        if cls is not None:
            self._wrap_kernel(cls)

    def remove(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _replace_everywhere(self, mods, fn, wrapper) -> None:
        for mod in mods.values():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def _wrap(self, layer, name, mod, fn):
        rec, span = self.rec, f"{layer}.{name}"
        after = self._after_hook(layer, name, mod, fn)

        def wrapper(*args, **kwargs):
            idx = rec.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_hook(self, layer, name, mod, fn):
        counts, rec = self.rec.counts, self.rec
        sig = inspect.signature(fn)
        if layer == "io":
            key = "io.bytes_read" if name.startswith("load_") else "io.bytes_written"

            def io_bytes(args, kwargs, result):
                if rec.inside("io."):  # save_* writes through dump_json
                    return
                counts[key] += _file_size(sig.bind(*args, **kwargs).arguments.get("path"))
            return io_bytes
        if layer == "spectral":
            cache = getattr(mod, SPECTRAL_PRIVATE_CACHE.get(name, name), None)
            cache = cache if hasattr(cache, "cache_info") else None
            last = [cache.cache_info().misses if cache else 0]

            def dense_bytes(args, kwargs, result):
                if cache is not None:
                    misses = cache.cache_info().misses
                    computed, last[0] = misses > last[0], misses
                    if not computed:
                        return
                counts["spectral.dense_bytes_computed"] += _dense_bytes(result)
            return dense_bytes
        if layer == "apps" and name.startswith("edge_pagerank"):
            def ranked(args, kwargs, result):
                counts["apps.edges_ranked"] += len(result) if isinstance(result, list) else 1
            return ranked
        if name == "estimate_lambda_max":
            def power(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["design.power_iteration_matvecs"] += bound.arguments["iterations"] + 1
            return power
        if name == "chebyshev_design":
            def interval(args, kwargs, result):
                bound = sig.bind(*args, **kwargs).arguments
                rec.intervals.append((bound.get("lambda_max_gradient"),
                                      bound.get("lambda_max_curl")))
            return interval
        return None

    def _wrap_kernel(self, cls) -> None:
        rec, ops = self.rec, self._ops
        init, matvec = cls.__init__, cls.matvec

        def traced_init(self_, matrix, *args, **kwargs):
            idx = rec.open("kernels.ShiftMatrix.__init__")
            try:
                init(self_, matrix, *args, **kwargs)
            finally:
                rec.close(idx)
            rec.counts["kernels.operator_builds"] += 1
            rows, cols = self_.shape
            nnz = getattr(matrix, "nnz", None)
            ops[self_] = (int(np.count_nonzero(matrix) if nnz is None else nnz), rows, cols)

        def traced_matvec(self_, x):
            idx = rec.open("kernels.ShiftMatrix.matvec")
            try:
                return matvec(self_, x)
            finally:
                rec.close(idx)
                nnz, rows, cols = ops.get(self_, (0, 0, 0))
                counts = rec.counts
                counts["kernels.matvecs"] += 1
                counts["kernels.nnz"] += nnz
                # computed, not measured: CSR values (8 B) and int32 indices
                # (4 B) per stored entry, row pointers, operand and result
                counts["kernels.bytes_computed"] += 12 * nnz + 4 * (rows + 1) + 8 * (cols + rows)

        for name, new in (("__init__", traced_init), ("matvec", traced_matvec)):
            self._patches.append((cls, name, getattr(cls, name)))
            setattr(cls, name, new)


def import_package():
    """Import every package module the layer table names."""
    pkg = importlib.import_module(PACKAGE)
    for layer in list(LAYER_FUNCTIONS) + [KERNEL_MODULE]:
        try:
            importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            pass
    return pkg


def self_times(table: dict) -> dict:
    """Self time per span name from one process's span table."""
    n = len(table["name"])
    dur = [table["end"][i] - table["start"][i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(table["parent"]):
        if p >= 0:
            child[p] += dur[i]
    out: Counter = Counter()
    totals: Counter = Counter()
    names = table["names"]
    for i, nid in enumerate(table["name"]):
        out[names[nid]] += dur[i] - child[i]
        totals[names[nid]] += dur[i]
    return {"self": out, "total": totals}


def layer_metrics(tables: list[dict], counts: Counter, intervals: list,
                  true_lambda: tuple) -> dict:
    """Per-layer metrics from the span tables of every traced process.

    ``counts`` holds the recorders' counters plus cache_snapshot deltas;
    ``true_lambda`` is the pair of largest eigenvalues that the Chebyshev
    design intervals must cover.
    """
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for table in tables:
        t = self_times(table)
        self_s.update(t["self"])
        total_s.update(t["total"])

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    matvecs = counts["kernels.matvecs"]
    builds = counts["kernels.operator_builds"]
    bytes_computed = counts["kernels.bytes_computed"]
    ratios = [lam / true for pair in intervals
              for lam, true in zip(pair, true_lambda) if lam is not None and true > 0]

    def hit_ratio(layer: str) -> float:
        hits, misses = counts[f"{layer}.hits"], counts[f"{layer}.misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    m = {
        "kernels.matvecs": matvecs,
        "kernels.matvec_us": (1e6 * total_s["kernels.ShiftMatrix.matvec"] / matvecs
                              if matvecs else 0.0),
        "kernels.bytes_computed": bytes_computed,
        "kernels.ops_per_byte_computed": (2 * counts["kernels.nnz"] / bytes_computed
                                          if bytes_computed else 0.0),
        "kernels.operator_builds": builds,
        "kernels.matvecs_per_build": matvecs / builds if builds else 0.0,
        "design.power_iteration_matvecs": counts["design.power_iteration_matvecs"],
        "design.interval_over_lambda_max": min(ratios) if ratios else 0.0,
        "spectral.spectrum_builds": counts["spectral.spectrum_builds"],
        "spectral.cache_hit_ratio": hit_ratio("spectral"),
        "spectral.dense_bytes_computed": counts["spectral.dense_bytes_computed"],
        "apps.edges_ranked": counts["apps.edges_ranked"],
        "complexes.build_s": sum(self_s[k] for k in COMPLEX_BUILD),
        "complexes.incidence_s": layer_self("complexes") - sum(self_s[k] for k in COMPLEX_BUILD),
        "complexes.cache_hit_ratio": hit_ratio("complexes"),
        "fixtures.generate_s": layer_self("fixtures"),
        "io.bytes_read": counts["io.bytes_read"],
        "io.bytes_written": counts["io.bytes_written"],
        "cli.self_s": layer_self("cli"),
    }
    for layer in BUSY_LAYERS:
        m[f"{layer}.busy_s"] = layer_self(layer)
    return m
