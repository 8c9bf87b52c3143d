"""Span recorder for the traced run, wrapping the package's public functions.

The wrappers live here, not in the library: ``install`` rebinds each target
function in every ``crystalwalk`` module namespace that holds it (and
``numpy.linalg.eigh`` / ``numpy.fft.*`` for the kernels under them), and
``uninstall`` restores the originals. A span records its name, its parent
span and its duration; spans are aggregated per (parent, name) as a call
count, total time and time covered by child spans, so per-fiber calls cost a
counter update rather than a stored record. A target that no longer exists
raises at install, and ``faithfulness`` compares the counts seen with the
counts the inputs imply, so a wrapper that misses calls fails loudly instead
of reporting zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function, span). Spans of one name nested directly in themselves
# are folded into the outer call.
TARGETS = (
    ("crystalwalk.graphs", "build_named", "graphs.build"),
    ("crystalwalk.graphs", "from_edge_list", "graphs.build"),
    ("crystalwalk.graphs", "honeycomb_spec", "graphs.build"),
    ("crystalwalk.graphs", "zd_product_spec", "graphs.build"),
    ("crystalwalk.spectral", "limiting_density", "spectral.limiting_density"),
    ("crystalwalk.spectral", "eigendecompose_symmetric", "spectral.decompose"),
    ("crystalwalk.spectral", "cluster_eigenvalues", "spectral.cluster"),
    ("crystalwalk.spectral", "density_from_decomposition", "spectral.assemble"),
    ("crystalwalk.floquet", "product_spec", "floquet.product_spec"),
    ("crystalwalk.floquet", "floquet_condition_fraction", "floquet.scan"),
    ("crystalwalk.floquet", "general_density", "floquet.quadrature"),
    ("crystalwalk.floquet", "build_floquet_matrix", "floquet.fiber_matrix"),
    ("crystalwalk.dynamics", "build_torus", "dynamics.build"),
    ("crystalwalk.dynamics", "infinite_time_averaged", "dynamics.average_inf"),
    ("crystalwalk.dynamics", "time_averaged", "dynamics.average_T"),
    ("crystalwalk.dynamics", "limit_prediction", "dynamics.prediction"),
    ("crystalwalk.dynamics", "total_variation", "dynamics.prediction"),
    ("crystalwalk.serialize", "density_json", "serialize.emit"),
    ("crystalwalk.serialize", "density_csv", "serialize.emit"),
    ("crystalwalk.serialize", "scan_report_json", "serialize.emit"),
    ("crystalwalk.serialize", "distribution_csv", "serialize.emit"),
    ("crystalwalk.cli", "main", "cli"),
    ("numpy.linalg", "eigh", "numpy.eigh"),
    ("numpy.fft", "fftn", "numpy.fft"),
    ("numpy.fft", "ifftn", "numpy.fft"),
)
SPANS = frozenset(span for _, _, span in TARGETS)

LAYER_UNITS = {
    "graphs.build_s": "s",
    "spectral.decompose_s": "s",
    "spectral.eigh_s": "s",
    "spectral.decompose_self_s": "s",
    "spectral.assemble_s": "s",
    "spectral.clusters": "count",
    "spectral.max_multiplicity": "count",
    "floquet.quadrature_s": "s",
    "floquet.fiber_matrix_s": "s",
    "floquet.fiber_eigh_s": "s",
    "floquet.fiber_cluster_s": "s",
    "floquet.quadrature_self_s": "s",
    "floquet.fibers": "count",
    "floquet.us_per_fiber": "us",
    "floquet.scan_s": "s",
    "floquet.scan_tests": "count",
    "floquet.ns_per_test": "ns",
    "dynamics.build_s": "s",
    "dynamics.prediction_s": "s",
    "dynamics.average_inf_s": "s",
    "dynamics.fft_s": "s",
    "dynamics.fft_calls": "count",
    "dynamics.torus_clusters": "count",
    "dynamics.average_T_s": "s",
    "dynamics.pair_terms": "count",
    "dynamics.average_T_peak_mb": "MB",
    "serialize.emit_s": "s",
    "serialize.bytes": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str | None, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []  # [name, time covered by children]
        self.cluster_eigenvalues = None  # the unwrapped clustering rule, set by Tracer.install

    def calls(self, name: str, parent: str | None = "*") -> int:
        return int(sum(v[0] for (p, n), v in self.stats.items() if n == name and parent in ("*", p)))

    def total(self, name: str, parent: str | None = "*") -> float:
        return sum(v[1] for (p, n), v in self.stats.items() if n == name and parent in ("*", p))

    def self_time(self, name: str) -> float:
        return sum(v[1] - v[2] for (_, n), v in self.stats.items() if n == name)

    def observed(self, key: str) -> float:
        return self.calls(key) if key in SPANS else self.counters[key]

    def tree(self) -> list[dict]:
        return [{"parent": p, "span": n, "calls": int(v[0]), "total_s": v[1], "self_s": v[1] - v[2]}
                for (p, n), v in sorted(self.stats.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]

    def wrap(self, name: str, fn, meter=None):
        signature = inspect.signature(fn) if meter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                entry = self.stats[(parent, name)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if meter:
                # Metering is tracing overhead: keep it out of the parent's self time.
                t1 = perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                meter(self, parent, bound.arguments, result)
                if stack:
                    stack[-1][1] += perf_counter() - t1
            return result

        return wrapper


def _meter_eigh(rec: Recorder, parent, args, result) -> None:
    if parent == "floquet.quadrature":
        rec.counters["floquet.fibers"] += int(np.prod(np.shape(args["a"])[:-2]))


def _meter_scan(rec: Recorder, parent, args, result) -> None:
    bands, N = args["bands"], int(args["N"])
    cells = N**bands.base.d
    rec.counters["floquet.scan_tests"] += (cells - 1) * cells * bands.nu**2


def _meter_assemble(rec: Recorder, parent, args, result) -> None:
    sizes = [len(g) for g in args["dec"].clusters]
    rec.counters["spectral.clusters"] += len(sizes)
    rec.counters["spectral.max_multiplicity"] = max(rec.counters["spectral.max_multiplicity"], max(sizes))


def _meter_emit(rec: Recorder, parent, args, result) -> None:
    rec.counters["serialize.bytes"] += len(result.encode("utf-8"))


def _meter_average_T(rec: Recorder, parent, args, result) -> None:
    rec.counters["dynamics.pair_terms"] += args["op"].dim ** 2


def _meter_average_inf(rec: Recorder, parent, args, result) -> None:
    lam = np.sort(args["op"].eigenvalues.reshape(-1))
    rec.counters["dynamics.torus_clusters"] += len(rec.cluster_eigenvalues(lam, args["cluster_tol"]))


_METERS = {
    "numpy.eigh": _meter_eigh,
    "floquet.scan": _meter_scan,
    "spectral.assemble": _meter_assemble,
    "serialize.emit": _meter_emit,
    "dynamics.average_T": _meter_average_T,
    "dynamics.average_inf": _meter_average_inf,
}


def _with_peak_memory(rec: Recorder, fn):
    """Record the tracemalloc peak of each call, in MB, as the maximum over calls, and count the calls."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            rec.counters["dynamics.average_T_peak_mb"] = max(rec.counters["dynamics.average_T_peak_mb"], peak)
            rec.counters["dynamics.average_T"] += 1

    return wrapper


class Tracer:
    """Installs a Recorder's wrappers into the loaded package and removes them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, module_name: str, original, wrapped) -> None:
        owners = [importlib.import_module(module_name)] if module_name.startswith("numpy") else [
            m for n, m in list(sys.modules.items()) if n == "crystalwalk" or n.startswith("crystalwalk.")]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._saved.append((owner, key, original))
                    setattr(owner, key, wrapped)

    def install(self) -> None:
        rec = self.recorder
        rec.cluster_eigenvalues = importlib.import_module("crystalwalk.spectral").cluster_eigenvalues
        for module_name, attr, span in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            self._rebind(module_name, original, rec.wrap(span, original, _METERS.get(span)))
        graph_cls = importlib.import_module("crystalwalk.graphs").FiniteGraph
        prop = graph_cls.__dict__["adjacency"]
        traced = functools.cached_property(rec.wrap("graphs.build", prop.func))
        traced.__set_name__(graph_cls, "adjacency")
        self._saved.append((graph_cls, "adjacency", prop))
        setattr(graph_cls, "adjacency", traced)

    def install_peak_probe(self) -> None:
        """Wrap only ``time_averaged``, recording its tracemalloc peak.

        Meant for an untimed pass: tracemalloc's allocation hook slows every
        call it watches, so the timed traced passes run without it.
        """
        original = importlib.import_module("crystalwalk.dynamics").time_averaged
        self._rebind("crystalwalk.dynamics", original, _with_peak_memory(self.recorder, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``trace.overhead_s`` needs the untraced passes and
    ``dynamics.average_T_peak_mb`` the peak probe, so the caller adds them.
    """
    decompose = rec.total("spectral.decompose")
    eigh = rec.total("numpy.eigh", "spectral.decompose")
    quadrature = rec.total("floquet.quadrature")
    fibers = rec.counters["floquet.fibers"]
    scan = rec.total("floquet.scan")
    tests = rec.counters["floquet.scan_tests"]
    return {
        "graphs.build_s": rec.total("graphs.build"),
        "spectral.decompose_s": decompose,
        "spectral.eigh_s": eigh,
        "spectral.decompose_self_s": decompose - eigh,
        "spectral.assemble_s": rec.total("spectral.assemble"),
        "spectral.clusters": rec.counters["spectral.clusters"],
        "spectral.max_multiplicity": rec.counters["spectral.max_multiplicity"],
        "floquet.quadrature_s": quadrature,
        "floquet.fiber_matrix_s": rec.total("floquet.fiber_matrix", "floquet.quadrature"),
        "floquet.fiber_eigh_s": rec.total("numpy.eigh", "floquet.quadrature"),
        "floquet.fiber_cluster_s": rec.total("spectral.cluster", "floquet.quadrature"),
        "floquet.quadrature_self_s": rec.self_time("floquet.quadrature"),
        "floquet.fibers": fibers,
        "floquet.us_per_fiber": 1e6 * quadrature / fibers if fibers else 0.0,
        "floquet.scan_s": scan,
        "floquet.scan_tests": tests,
        "floquet.ns_per_test": 1e9 * scan / tests if tests else 0.0,
        "dynamics.build_s": rec.total("dynamics.build"),
        "dynamics.prediction_s": rec.total("dynamics.prediction"),
        "dynamics.average_inf_s": rec.total("dynamics.average_inf"),
        "dynamics.fft_s": rec.total("numpy.fft", "dynamics.average_inf"),
        "dynamics.fft_calls": rec.calls("numpy.fft", "dynamics.average_inf"),
        "dynamics.torus_clusters": rec.counters["dynamics.torus_clusters"],
        "dynamics.average_T_s": rec.total("dynamics.average_T"),
        "dynamics.pair_terms": rec.counters["dynamics.pair_terms"],
        "serialize.emit_s": rec.total("serialize.emit"),
        "serialize.bytes": rec.counters["serialize.bytes"],
        # Self time of cli.main in the traced pass (argparse, dispatch, file
        # write), not untraced op time minus traced children: those children
        # carry the wrapper cost of every span nested in them.
        "cli.self_s": rec.self_time("cli"),
    }


def faithfulness(rec: Recorder, expect: dict[str, int]) -> list[str]:
    """Mismatches between what the wrappers saw and what the inputs imply."""
    problems = [f"{key}: saw {rec.observed(key):g}, inputs imply {want}"
                for key, want in sorted(expect.items()) if rec.observed(key) != want]
    runs = rec.calls("dynamics.average_inf")
    for key, seen in (("dynamics.fft_calls", rec.calls("numpy.fft", "dynamics.average_inf")),
                      ("dynamics.torus_clusters", rec.counters["dynamics.torus_clusters"])):
        if seen < runs:
            problems.append(f"{key}: saw {seen:g} over {runs} infinite averages, expected at least one each")
    return problems
