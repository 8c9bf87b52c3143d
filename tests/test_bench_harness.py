"""Guards for the benchmark harness in bench/: its wrappers must still fit the library.

``bench/spans.py`` rebinds library functions by name and its meters read
their arguments by name, so renaming a function or a parameter breaks the
traced benchmark run. These checks catch that without running the benchmark.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from crystalwalk import FiniteGraph, build_named, cli, dynamics

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import oracles  # noqa: E402
import spans  # noqa: E402


def _meter_reads():
    """The argument names each meter reads, by span."""
    return {
        span: set(re.findall(r'args\["(\w+)"\]', inspect.getsource(meter)))
        for span, meter in spans._METERS.items()
    }


def test_meters_read_parameters_of_the_functions_they_wrap():
    reads = _meter_reads()
    assert set().union(*reads.values()) == {"bands", "N", "dec", "op", "cluster_tol", "a"}
    for module, attr, span in spans.TARGETS:
        params = inspect.signature(getattr(importlib.import_module(module), attr)).parameters
        missing = reads.get(span, set()) - set(params)
        assert not missing, f"{module}.{attr} has no parameter {sorted(missing)} read by the {span} meter"


def test_tracer_installs_records_and_uninstalls(tmp_path):
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr) for module, attr, _ in spans.TARGETS
    }
    adjacency = FiniteGraph.__dict__["adjacency"]
    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    tracer.install()
    try:
        assert dynamics.infinite_time_averaged is not originals[("crystalwalk.dynamics", "infinite_time_averaged")]
        for argv in (
            ("floquet-check", "--family", "cycle", "--nu", "3", "--N", "8"),
            ("simulate", "--family", "cycle", "--nu", "3", "--N", "6", "--T", "inf"),
            ("simulate", "--family", "path", "--nu", "2", "--N", "6", "--T", "3"),
        ):
            assert cli.main([*argv, "-o", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    # no wrapper is left behind under another name either
    for name, module in list(sys.modules.items()):
        if name == "crystalwalk" or name.startswith("crystalwalk."):
            assert not [key for key, value in vars(module).items() if hasattr(value, "__wrapped__")], name
    assert FiniteGraph.__dict__["adjacency"] is adjacency
    assert recorder.calls("floquet.scan") == 1
    assert recorder.calls("dynamics.average_inf") == 1
    assert recorder.counters["dynamics.torus_clusters"] > 0
    assert recorder.counters["dynamics.pair_terms"] == 12**2
    assert not spans.faithfulness(recorder, {"floquet.scan": 1, "dynamics.average_inf": 1})


@pytest.mark.parametrize("family,params", [("petersen", []), ("cycle", [6]), ("hypercube", [3])])
def test_relabelled_edges_fit_the_quadrature_ladder(family, params):
    """The quadrature ladder relabels ``base.edges`` pair by pair, rebuilds the graph,
    and checks it against an adjacency built from ``g.edges``."""
    base = build_named(family, params)
    perm = np.random.default_rng(7).permutation(base.nu)
    g = FiniteGraph(base.nu, frozenset((int(perm[u]), int(perm[v])) for u, v in base.edges))
    np.testing.assert_array_equal(oracles.adjacency_from_edges(g.nu, g.edges), g.adjacency)
    np.testing.assert_array_equal(g.adjacency[np.ix_(perm, perm)], base.adjacency)
