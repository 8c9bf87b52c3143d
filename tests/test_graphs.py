import ast
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crystalwalk
from crystalwalk import (
    EdgeListError,
    FiniteGraph,
    ParameterError,
    PeriodicGraphSpec,
    ProductKind,
    build_named,
    build_torus,
    classical,
    dynamics,
    evolve,
    floquet,
    floquet_condition_fraction,
    from_edge_list,
    general_density,
    honeycomb_spec,
    infinite_time_averaged,
    iterate_distribution,
    product_spec,
    time_averaged,
    zd_product_spec,
)
from crystalwalk import graphs
from crystalwalk.dynamics import HORIZON_LIMIT
from crystalwalk.graphs import _int, _real
from crystalwalk.spectral import cluster_gap


@pytest.mark.parametrize(
    "family,params,nu,edge_count",
    [
        ("cycle", [5], 5, 5),
        ("cycle", [3], 3, 3),
        ("path", [6], 6, 5),
        ("path", [2], 2, 1),
        ("star", [3], 4, 3),
        ("star", [1], 2, 1),
        ("complete", [5], 5, 10),
        ("complete_bipartite", [3, 4], 7, 12),
        ("hypercube", [3], 8, 12),
        ("hypercube", [1], 2, 1),
        ("petersen", [], 10, 15),
    ],
)
def test_family_counts(family, params, nu, edge_count):
    g = build_named(family, params)
    assert g.nu == nu
    assert len(g.edges) == edge_count


@pytest.mark.parametrize(
    "family,params,degree",
    [
        ("cycle", [7], 2),
        ("complete", [6], 5),
        ("hypercube", [4], 4),
        ("petersen", [], 3),
    ],
)
def test_regular_families(family, params, degree):
    g = build_named(family, params)
    np.testing.assert_array_equal(g.degrees(), np.full(g.nu, float(degree)))


def test_star_center_is_last_index():
    g = build_named("star", [3])
    deg = g.degrees()
    assert deg[3] == 3.0
    assert list(deg[:3]) == [1.0, 1.0, 1.0]
    assert g.labels == ("1", "2", "3", "4")


def test_path_labels_one_based():
    g = build_named("path", [4])
    assert g.labels == ("1", "2", "3", "4")
    assert g.adjacency[0, 1] and g.adjacency[2, 3]
    assert not g.adjacency[0, 3]


def test_hypercube_bit_convention():
    g = build_named("hypercube", [3])
    for x in range(8):
        for y in range(8):
            expected = bin(x ^ y).count("1") == 1
            assert bool(g.adjacency[x, y]) == expected
    # bit b of the vertex integer is coordinate b of the label
    assert g.labels[0] == "000"
    assert g.labels[1] == "100"
    assert g.labels[6] == "011"


def test_petersen_structure():
    g = build_named("petersen")
    a = g.adjacency
    assert a.sum() == 30.0
    # girth 5: no triangles or 4-cycles, so A^2 has zero diagonal overlap
    a2 = a @ a
    assert np.all(a2[a == 1.0] == 0.0)  # adjacent vertices share no neighbor
    off = (a == 0.0) & ~np.eye(10, dtype=bool)
    assert np.all(a2[off] == 1.0)  # non-adjacent vertices share exactly one


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", [2]),
        ("path", [1]),
        ("star", [0]),
        ("complete", [1]),
        ("complete_bipartite", [0, 3]),
        ("hypercube", [0]),
        ("cycle", []),
        ("cycle", [3, 4]),
        ("petersen", [10]),
        ("tesseract", [4]),
    ],
)
def test_build_named_rejects(family, params):
    with pytest.raises(ParameterError):
        build_named(family, params)


def _family_oracle(family, params):
    """Vertex count, edge set and labels of a named family, written out pair by pair."""
    if family == "cycle":
        (nu,) = params
        return nu, {(i, (i + 1) % nu) for i in range(nu)}, tuple(str(i) for i in range(nu))
    if family == "path":
        (nu,) = params
        return nu, {(i, i + 1) for i in range(nu - 1)}, tuple(str(i + 1) for i in range(nu))
    if family == "star":
        (nu,) = params
        return nu + 1, {(i, nu) for i in range(nu)}, tuple(str(i + 1) for i in range(nu + 1))
    if family == "complete":
        (nu,) = params
        edges = {(i, j) for i in range(nu) for j in range(i + 1, nu)}
        return nu, edges, tuple(str(i + 1) for i in range(nu))
    if family == "complete_bipartite":
        m, n = params
        edges = {(i, m + j) for i in range(m) for j in range(n)}
        return m + n, edges, tuple(str(i + 1) for i in range(m + n))
    if family == "hypercube":
        (m,) = params
        nu = 1 << m
        edges = {(x, x ^ (1 << b)) for x in range(nu) for b in range(m) if x < x ^ (1 << b)}
        return nu, edges, tuple("".join(str((x >> b) & 1) for b in range(m)) for x in range(nu))
    assert family == "petersen" and not params
    edges = {
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    }
    return 10, edges, tuple(str(i) for i in range(10))


def _adjacency_oracle(nu, edges):
    a = np.zeros((nu, nu))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def _assert_edge_array(edges):
    """The edge contract: a read-only (m, 2) int64 array of strictly ascending rows u < v."""
    assert isinstance(edges, np.ndarray) and edges.dtype == np.int64
    assert edges.ndim == 2 and edges.shape[1] == 2
    assert not edges.flags.writeable
    rows = edges.tolist()
    assert all(u < v for u, v in rows)
    assert all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", [3]), ("cycle", [9]),
        ("path", [2]), ("path", [9]),
        ("star", [1]), ("star", [7]),
        ("complete", [2]), ("complete", [8]),
        ("complete_bipartite", [1, 1]), ("complete_bipartite", [3, 5]),
        ("hypercube", [1]), ("hypercube", [5]),
        ("petersen", []),
    ],
)
def test_families_match_the_pairwise_oracle(family, params):
    nu, edges, labels = _family_oracle(family, params)
    g = build_named(family, params)
    _assert_edge_array(g.edges)
    assert g.nu == nu
    assert g.edges.tolist() == sorted([min(e), max(e)] for e in edges)
    assert g.labels == labels
    np.testing.assert_array_equal(g.adjacency, _adjacency_oracle(nu, edges))


def test_finite_graph_normalizes_edges():
    g = FiniteGraph(4, frozenset({(2, 1), (1, 2), (3, 0)}))
    _assert_edge_array(g.edges)
    assert g.edges.tolist() == [[0, 3], [1, 2]]
    # an array argument is copied, never sorted or frozen in place
    given_edges = np.array([[3, 2], [1, 0], [2, 3]])
    g = FiniteGraph(4, given_edges)
    assert g.edges.tolist() == [[0, 1], [2, 3]]
    assert given_edges.tolist() == [[3, 2], [1, 0], [2, 3]] and given_edges.flags.writeable


@pytest.mark.parametrize("edges", [(), [], frozenset(), np.empty((0, 2), dtype=int)])
def test_edgeless_graph_has_an_empty_edge_array(edges):
    g = FiniteGraph(3, edges)
    _assert_edge_array(g.edges)
    assert g.edges.shape == (0, 2)
    np.testing.assert_array_equal(g.adjacency, np.zeros((3, 3)))


@st.composite
def _raw_edges(draw):
    """Edges on nu vertices as a caller may write them: numpy or Python ids, either orientation, repeats."""
    nu = draw(st.integers(2, 12))
    vertex = st.integers(0, nu - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=40))
    id_type = st.sampled_from([int, np.int64, np.int32, np.intp])
    kinds = draw(st.lists(id_type, min_size=len(pairs), max_size=len(pairs)))
    return nu, [(kind(u), kind(v)) for kind, (u, v) in zip(kinds, pairs)]


@settings(deadline=None)
@given(_raw_edges(), st.sampled_from([list, frozenset, np.array]))
def test_finite_graph_normalizes_any_integer_ids(raw, container):
    nu, pairs = raw
    g = FiniteGraph(nu, container(pairs))
    want = {(min(int(u), int(v)), max(int(u), int(v))) for u, v in pairs}
    _assert_edge_array(g.edges)
    assert g.edges.tolist() == sorted(map(list, want))
    np.testing.assert_array_equal(g.adjacency, _adjacency_oracle(nu, want))


def test_finite_graph_reports_the_first_bad_edge():
    with pytest.raises(ParameterError, match="self-loop at vertex 2"):
        FiniteGraph(3, [(0, 1), (2, 2), (0, 5)])
    with pytest.raises(ParameterError, match=r"vertex 5 out of range 0\.\.2"):
        FiniteGraph(3, [(0, 1), (np.int64(5), 0), (2, 2)])
    with pytest.raises(ParameterError, match=r"vertex -1 out of range"):
        FiniteGraph(3, [(1, -1)])
    with pytest.raises(ParameterError, match="pair"):
        FiniteGraph(3, [(0, 1, 2), (1,)])
    with pytest.raises(ParameterError, match="pair"):
        FiniteGraph(3, [(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ParameterError, match="pair"):
        FiniteGraph(3, [()])
    with pytest.raises(ParameterError, match="int64 range"):
        FiniteGraph(3, [(0, 1 << 70)])


def test_finite_graph_rejects_bad_input():
    with pytest.raises(ParameterError):
        FiniteGraph(3, frozenset({(0, 0)}))
    with pytest.raises(ParameterError):
        FiniteGraph(3, frozenset({(0, 3)}))
    with pytest.raises(ParameterError):
        FiniteGraph(0, frozenset())
    with pytest.raises(ParameterError):
        FiniteGraph(3, frozenset(), labels=("a", "b"))


def test_adjacency_properties():
    g = build_named("complete_bipartite", [2, 3])
    a = g.adjacency
    np.testing.assert_array_equal(a, a.T)
    np.testing.assert_array_equal(a.sum(axis=1), g.degrees())
    assert not a.flags.writeable


def test_from_edge_list_basic():
    text = """
    # a triangle with a pendant
    0 1
    1 2
    2 0   # closing edge
    2 3

    1 0   # duplicate, other orientation
    """
    g = from_edge_list(text)
    assert g.nu == 4
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2], [2, 3]]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 0\n", "self-loop"),
        ("0 1\n2\n", "expected"),
        ("0 one\n", "non-integer"),
        ("-1 2\n", "negative"),
        ("# nothing\n\n", "no edges"),
    ],
)
def test_from_edge_list_rejects(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        from_edge_list(text)


def test_from_edge_list_reports_line_number():
    with pytest.raises(EdgeListError, match="line 3"):
        from_edge_list("0 1\n1 2\n2 2\n")


def test_periodic_spec_requires_symmetric_closure():
    with pytest.raises(ParameterError, match="symmetric"):
        PeriodicGraphSpec(d=1, nu=2, offset_edges=((0, 1, 1),))


def test_periodic_spec_rejects_zero_offset_loop():
    with pytest.raises(ParameterError, match="self-loop"):
        PeriodicGraphSpec(d=1, nu=1, offset_edges=((0, 0, 0),))


def test_periodic_spec_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        PeriodicGraphSpec(d=2, nu=1, offset_edges=((0, 0, 1), (0, 0, -1)))
    with pytest.raises(ParameterError):
        PeriodicGraphSpec(d=1, nu=2, offset_edges=((0, 1, 0, 0), (1, 0, 0, 0)))


def _assert_offset_rows(spec):
    """The offset-edge contract: a read-only (m, 2 + d) int64 array, rows strictly ascending by (n, p, q)."""
    rows = spec.offset_edges
    assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
    assert rows.ndim == 2 and rows.shape[1] == 2 + spec.d
    assert not rows.flags.writeable
    keys = [(*n, p, q) for p, q, *n in rows.tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_periodic_spec_deduplicates_and_sorts():
    entries = ((0, 0, 1), (0, 0, -1), (0, 0, 1))
    spec = PeriodicGraphSpec(d=1, nu=1, offset_edges=entries)
    _assert_offset_rows(spec)
    assert spec.offset_edges.tolist() == [[0, 0, -1], [0, 0, 1]]
    # the offset orders first, then p and q; an array argument is copied, never sorted or frozen in place
    given = np.array([(0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, -1), (1, 0, 0)])
    spec = PeriodicGraphSpec(d=1, nu=2, offset_edges=given)
    _assert_offset_rows(spec)
    assert spec.offset_edges.tolist() == [[1, 0, -1], [0, 1, 0], [1, 0, 0], [0, 1, 1]]
    assert given[0].tolist() == [0, 1, 1] and given.flags.writeable


def test_cached_offset_targets_are_read_only():
    """Every fiber matrix of a spec reads these arrays, so none may be scaled in place."""
    offsets, targets = honeycomb_spec()._offset_targets
    for a in (offsets, *targets):
        with pytest.raises(ValueError, match="read-only"):
            a *= 2


def _zd_rows_oracle(graph, d):
    """The offset rows of the Z^d box product written out entry by entry, as sorted (n, p, q) keys."""
    entries = set()
    for u, v in graph.edges.tolist():
        entries |= {(u, v, (0,) * d), (v, u, (0,) * d)}
    for p in range(graph.nu):
        for axis in range(d):
            for sign in (1, -1):
                entries.add((p, p, tuple(sign if i == axis else 0 for i in range(d))))
    return [[p, q, *n] for n, p, q in sorted((n, p, q) for p, q, n in entries)]


def test_zd_product_spec_counts():
    g = build_named("cycle", [3])
    spec = zd_product_spec(g, d=2)
    assert spec.d == 2 and spec.nu == 3
    # each undirected finite edge and each axis neighbor appears twice
    assert len(spec.offset_edges) == 2 * len(g.edges) + 2 * g.nu * 2


@pytest.mark.parametrize("family,params", [("cycle", [3]), ("path", [2]), ("petersen", []), ("star", [4])])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_zd_product_spec_matches_the_entry_oracle(family, params, d):
    g = build_named(family, params)
    spec = zd_product_spec(g, d=d)
    assert spec.d == d and spec.nu == g.nu
    _assert_offset_rows(spec)
    assert spec.offset_edges.tolist() == _zd_rows_oracle(g, d)


def test_honeycomb_spec_shape():
    spec = honeycomb_spec()
    assert spec.d == 2 and spec.nu == 2
    _assert_offset_rows(spec)
    assert spec.offset_edges.tolist() == [
        [0, 1, -1, 0], [0, 1, 0, -1], [0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0]
    ]
    offs = {(a, b) for p, q, a, b in spec.offset_edges.tolist() if p == 0}
    assert offs == {(0, 0), (-1, 0), (0, -1)}


@st.composite
def _symmetric_rows(draw):
    """A symmetric set of offset rows (p, q, n), as a sorted (n, p, q) list, with its d and nu."""
    d, nu = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    row = st.tuples(st.integers(0, nu - 1), st.integers(0, nu - 1), st.tuples(*[st.integers(-2, 2)] * d))
    half = draw(st.lists(row.filter(lambda r: r[0] != r[1] or any(r[2])), min_size=1, max_size=12))
    closed = {(p, q, n) for p, q, n in half} | {(q, p, tuple(-x for x in n)) for p, q, n in half}
    return d, nu, [[p, q, *n] for n, p, q in sorted((n, p, q) for p, q, n in closed)]


@settings(deadline=None)
@given(_symmetric_rows(), st.randoms(use_true_random=False), st.sampled_from([list, np.array]))
def test_periodic_spec_normalizes_any_symmetric_rows(case, rnd, container):
    d, nu, want = case
    given_rows = [tuple(r) for r in want] + [tuple(r) for r in rnd.choices(want, k=rnd.randint(0, 5))]
    rnd.shuffle(given_rows)
    spec = PeriodicGraphSpec(d=d, nu=nu, offset_edges=container(given_rows))
    _assert_offset_rows(spec)
    assert spec.offset_edges.tolist() == want
    # drop every copy of one row: the row it reverses is now alone
    p, q, *n = rnd.choice(want)
    dropped = [r for r in given_rows if list(r) != [p, q, *n]]
    lone = (q, p, tuple(-x for x in n))
    with pytest.raises(ParameterError, match=re.escape(f"symmetric: {lone} present without its reverse")):
        PeriodicGraphSpec(d=d, nu=nu, offset_edges=container(dropped))


def _traced_in_child(setup, traced):
    """tracemalloc (current, peak) bytes after ``traced`` runs in a fresh interpreter, ``setup`` untraced."""
    code = "\n".join(
        ["import tracemalloc, crystalwalk", setup, "tracemalloc.start()", traced, "print(*tracemalloc.get_traced_memory())"]
    )
    # The child must import the same package copy as this process, installed or not.
    src = str(Path(crystalwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env, check=True
    )
    current, peak = map(int, proc.stdout.split())
    return current, peak


def test_first_graph_builds_in_a_process_allocate_little():
    """No first-call allocation in edge normalization (np.unique's first call takes 1.16 MB)."""
    _, peak = _traced_in_child(
        "", "for family, params in (('path', [2]), ('cycle', [3]), ('petersen', [])):\n"
        "    crystalwalk.build_named(family, params)"
    )
    assert peak < 100_000


def test_first_specs_built_in_a_process_allocate_little_and_leave_nothing():
    """Spec builders fill one row array: no np.unique, and no per-entry tuples left on free lists.

    Tuples per entry and a dict of targets left about 20 KB traced after both specs were dropped.
    """
    current, peak = _traced_in_child(
        "g = crystalwalk.build_named('petersen', [])",
        "crystalwalk.honeycomb_spec()._offset_targets\ncrystalwalk.zd_product_spec(g, 2)._offset_targets",
    )
    assert peak < 64_000
    assert current < 4_000


@pytest.mark.parametrize(
    "edges,shown",
    [
        ([(0, 1), (0.5, 1)], "(0.5, 1.0)"),
        ([("1", "2")], "('1', '2')"),
        (np.array([[0.0, 1.0]]), "(0.0, 1.0)"),
        ([(0, None), (0.5, 1)], "(0, None)"),
        ([(2, 1), (1, np.float64(2.0))], "(1.0, 2.0)"),
    ],
)
def test_finite_graph_rejects_non_integer_ids(edges, shown):
    with pytest.raises(ParameterError, match=re.escape(f"edge {shown} has a non-integer entry")):
        FiniteGraph(3, edges)


def test_periodic_spec_rejects_non_integer_and_wide_entries():
    with pytest.raises(ParameterError, match=re.escape("offset edge (0.0, 0.0, 1.0) has a non-integer entry")):
        PeriodicGraphSpec(d=1, nu=1, offset_edges=[(0, 0, -1), (0, 0, 1.0)])
    with pytest.raises(ParameterError, match="non-integer"):
        PeriodicGraphSpec(d=1, nu=2, offset_edges=np.array([[0, 1, 0], [1, 0, 0]], dtype=float))
    # 2^70 has no int64, and -(-2^63) has none either, though negating it in int64 gives it back
    for rows in ([(0, 0, 1 << 70), (0, 0, -(1 << 70))], [(0, 0, -(1 << 63))]):
        with pytest.raises(ParameterError, match="int64 range"):
            PeriodicGraphSpec(d=1, nu=1, offset_edges=rows)


@pytest.mark.parametrize("params", [[3.7], [3.0], ["3"], [np.float64(4.0)]])
def test_build_named_rejects_non_integer_parameters(params):
    # int() would truncate 3.7 to a C3 and parse "3"
    with pytest.raises(ParameterError, match="family 'cycle' parameter must be an integer"):
        build_named("cycle", params)
    assert build_named("cycle", [np.int32(3)]).nu == 3


def test_sizes_and_dimensions_reject_non_integers():
    with pytest.raises(ParameterError, match="vertex count must be an integer"):
        FiniteGraph(3.5)
    with pytest.raises(ParameterError, match="periodic dimension d must be an integer"):
        PeriodicGraphSpec(d=1.0, nu=1, offset_edges=[(0, 0, 1), (0, 0, -1)])
    with pytest.raises(ParameterError, match="fundamental domain size nu must be an integer"):
        PeriodicGraphSpec(d=1, nu="1", offset_edges=[(0, 0, 1), (0, 0, -1)])
    with pytest.raises(ParameterError, match="periodic dimension d must be an integer"):
        zd_product_spec(FiniteGraph(1), 1.9)


def test_integer_ids_of_any_integer_type_are_accepted():
    g = FiniteGraph(3, [(np.uint64(2), 1), (np.int8(0), 1)])
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    g = FiniteGraph(3, np.array([[2, 1]], dtype=np.uint16))
    assert g.edges.tolist() == [[1, 2]]
    spec = PeriodicGraphSpec(d=1, nu=1, offset_edges=[(0, 0, np.uint64(1)), (0, 0, -1)])
    assert spec.offset_edges.tolist() == [[0, 0, -1], [0, 0, 1]]


def test_int_checks_each_bound_given():
    assert _int(np.int64(3), "n", 3) == 3 and _int(5, "v", 0, 5) == 5 and _int(-7, "k") == -7
    with pytest.raises(ParameterError, match="^n must be >= 3$"):
        _int(2, "n", 3)
    for x in (-1, 6):
        with pytest.raises(ParameterError, match=rf"^v {x} out of range 0\.\.5$"):
            _int(x, "v", 0, 5)


def test_real_takes_lo_exclusive_and_hi_inclusive():
    assert _real(1, "x", 0, 1) == 1.0 and _real(Fraction(1, 3), "x", 0, 1) == 1 / 3
    assert type(_real(np.float32(0.5), "x", 0, 1)) is float and _real(True, "x", 0, 1) == 1.0
    for x in (0, 0.0, -1, math.nextafter(1, 2), math.nan, 10**400):
        with pytest.raises(ParameterError, match=r"^x must be a finite real in \(0, 1\], got "):
            _real(x, "x", 0, 1)
    # without bounds every finite real passes, and nan, +-inf and huge ints do not
    assert _real(-1.7976931348623157e308, "x") == -1.7976931348623157e308
    for x in (math.nan, math.inf, -math.inf, -(10**400)):
        with pytest.raises(ParameterError, match=r"^x must be a finite real in \(-inf, inf\], got "):
            _real(x, "x")


def _float_sites():
    """The library's float parameters, each as a call taking its value: delta, tol, t and horizon."""
    op = build_torus(build_named("cycle", [3]), 1, 4)
    bands = product_spec(zd_product_spec(FiniteGraph(1), 1), build_named("path", [2]), ProductKind.CARTESIAN)
    return {
        "delta": lambda x: floquet_condition_fraction(bands, 8, delta=x),
        "tol": lambda x: cluster_gap(np.array([-1.0, 2.0]), x),
        "t": lambda x: evolve(op, ((0,), 0), x),
        "horizon": lambda x: time_averaged(op, ((0,), 0), x),
    }


@pytest.mark.parametrize("site", ["delta", "tol", "t", "horizon"])
def test_float_parameters_take_any_finite_real_and_nothing_else(site):
    call = _float_sites()[site]
    for bad in ("5", " 1e-8 ", None, 1j, complex(1e-8, 0), np.complex128(2)):
        with pytest.raises(ParameterError, match="must be a finite real in"):
            call(bad)
    for good in (Fraction(1, 10**8), np.float32(1e-8), True):
        call(good)


def test_evolve_rejects_a_time_beyond_the_horizon_ceiling_before_any_work():
    op = build_torus(build_named("complete", [40]), 1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the phases t lambda overflowed at 1e307, with numpy warnings
        for t in (1e307, -1e307, math.nextafter(HORIZON_LIMIT, math.inf)):
            with pytest.raises(ParameterError, match=r"^time t must be a finite real in "):
                evolve(op, ((0,), 0), t)
        for t in (HORIZON_LIMIT, -HORIZON_LIMIT):
            assert abs(np.linalg.norm(evolve(op, ((0,), 0), t)) - 1) < 1e-10


def _torus_c3(d, N):
    return build_torus(build_named("cycle", [3]), d, N)


def _scan_path2(d, N):
    bands = product_spec(zd_product_spec(FiniteGraph(1), d), build_named("path", [2]), ProductKind.CARTESIAN)
    return floquet_condition_fraction(bands, N)


# (module, ceiling, the check's workload, what the workload needs, the message naming the need)
_CEILINGS = {
    "STEP_BUDGET": (
        classical, "STEP_BUDGET", lambda: iterate_distribution(build_named("cycle", [5]), 0, 3),
        3 * 2048, "3 steps need {} entry updates",
    ),
    "STATE_BUDGET": (dynamics, "STATE_BUDGET", lambda: _torus_c3(1, 8), 24, "torus needs {} states"),
    "PAIR_SUM_LIMIT": (
        dynamics, "PAIR_SUM_LIMIT", lambda: time_averaged(_torus_c3(1, 8), ((0,), 0), 1.0),
        24, "finite-horizon average needs {} states",
    ),
    "PAIR_COUNT_BUDGET-scan": (
        floquet, "PAIR_COUNT_BUDGET", lambda: _scan_path2(2, 8), 4 * 8**2, "collision scan needs {} counts",
    ),
    "PAIR_COUNT_BUDGET-average": (
        floquet, "PAIR_COUNT_BUDGET", lambda: infinite_time_averaged(_torus_c3(2, 8), ((1, 2), 0)),
        9 * 8**2, "infinite-time average needs {} counts",
    ),
    # path2 x Z^3 on N = 4: no pair meets at every point of the first shift, so the scan sweeps
    "SCAN_PAIR_BUDGET": (
        floquet, "SCAN_PAIR_BUDGET", lambda: _scan_path2(3, 4), 1652, "collision scan walks {} close pairs",
    ),
    "FIBER_BUDGET": (
        floquet, "FIBER_BUDGET", lambda: general_density(honeycomb_spec(), 4),
        4**2, "grid quadrature needs {} fibers",
    ),
    "VERTEX_BUDGET": (
        graphs, "VERTEX_BUDGET", lambda: build_named("complete_bipartite", [5, 7]), 12,
        "family 'complete_bipartite' needs {} vertices",
    ),
}


@pytest.mark.parametrize("ceiling", sorted(_CEILINGS))
def test_every_work_ceiling_runs_at_its_budget_and_rejects_one_more(monkeypatch, ceiling):
    module, name, run, need, message = _CEILINGS[ceiling]
    monkeypatch.setattr(module, name, need)
    run()
    monkeypatch.setattr(module, name, need - 1)
    with pytest.raises(ParameterError) as exc:
        run()
    assert str(exc.value) == f"{message.format(need)}, over the budget {need - 1}"


@pytest.mark.parametrize(
    "family,params",
    [("cycle", [3 * 10**9]), ("path", [3 * 10**9]), ("star", [4096]), ("complete", [10**12]),
     ("complete_bipartite", [1, 4096]), ("hypercube", [13]), ("hypercube", [10**18])],
)
def test_oversized_families_are_rejected_before_any_array(family, params):
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="4096|1..12"):
            build_named(family, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**10


def test_edge_lists_and_graphs_share_the_vertex_budget():
    assert len(build_named("hypercube", [12]).labels) == graphs.VERTEX_BUDGET
    assert FiniteGraph(4096).nu == 4096
    with pytest.raises(ParameterError, match="^graph needs 4097 vertices, over the budget 4096$"):
        from_edge_list("0 4096\n")


_BOUND_TEXTS = (">=", "out of range", "must lie in", "over the budget", "finite", "positive")
_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _name(node):
    return getattr(node, "id", getattr(node, "attr", ""))


def _bounds_outside_the_helpers(tree):
    """Lines of hand-written bounds and work ceilings outside graphs._int, graphs._real and graphs._budget.

    A bound is a ``raise ParameterError`` whose literal text states one, an
    ordering comparison naming ``inf`` or ``HORIZON_LIMIT``, or a call of
    ``isfinite``; a ceiling is a comparison naming a ``*_BUDGET`` constant or
    ``PAIR_SUM_LIMIT``. An equality test with ``inf`` selects a path and is no bound.
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in ("_int", "_real", "_budget"):
            allowed.update(map(id, ast.walk(node)))
    bad = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Raise) and getattr(getattr(node.exc, "func", None), "id", None) == "ParameterError":
            texts = [n.value for n in ast.walk(node.exc) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            if any(t in "".join(texts) for t in _BOUND_TEXTS):
                bad.append(node.lineno)
        if isinstance(node, ast.Compare):
            names = [_name(n) for n in ast.walk(node)]
            if any(n.endswith("_BUDGET") or n == "PAIR_SUM_LIMIT" for n in names) or (
                any(isinstance(op, _ORDER) for op in node.ops) and {"inf", "HORIZON_LIMIT"} & set(names)
            ):
                bad.append(node.lineno)
        if isinstance(node, ast.Call) and _name(node.func) == "isfinite":
            bad.append(node.lineno)
    return bad


# The four float bounds written by hand before graphs._real, with one equality test that is no bound
_FLOAT_BOUND_SAMPLE = """\
if not 0.0 < tol < math.inf:
    raise ParameterError(f"clustering tolerance must be positive and finite, got {tol!r}")
if not 0 < delta < math.inf:
    raise ParameterError(f"collision width delta must be positive and finite, got {delta!r}")
if not math.isfinite(t):
    raise ParameterError("time t must be finite")
if not 0 < horizon <= HORIZON_LIMIT:
    raise ParameterError(f"averaging horizon must be in (0, {HORIZON_LIMIT:g}], got {horizon!r}")
if args.T == math.inf:
    pass
"""


def test_every_bound_and_ceiling_goes_through_int_and_budget():
    sample = "if n > floquet.FIBER_BUDGET:\n    raise ParameterError(f'n {n} out of range 0..{m}')\n"
    assert sorted(_bounds_outside_the_helpers(ast.parse(sample))) == [1, 2]
    assert sorted(_bounds_outside_the_helpers(ast.parse(_FLOAT_BOUND_SAMPLE))) == [1, 2, 3, 4, 5, 6, 7]
    src = Path(crystalwalk.__file__).parent
    bad = {}
    for path in sorted(src.glob("*.py")):
        lines = _bounds_outside_the_helpers(ast.parse(path.read_text()))
        if lines:
            bad[path.name] = lines
    assert bad == {}
