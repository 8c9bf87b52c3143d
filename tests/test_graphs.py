import math

import numpy as np
import pytest

from crystalwalk import (
    EdgeListError,
    FiniteGraph,
    ParameterError,
    PeriodicGraphSpec,
    build_named,
    from_edge_list,
    honeycomb_spec,
    zd_product_spec,
)


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
    assert g.has_edge(0, 1) and g.has_edge(2, 3)
    assert not g.has_edge(0, 3)


def test_hypercube_bit_convention():
    g = build_named("hypercube", [3])
    for x in range(8):
        for y in range(8):
            expected = bin(x ^ y).count("1") == 1
            assert g.has_edge(x, y) == expected or x == y
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


def test_finite_graph_normalizes_edges():
    g = FiniteGraph(4, frozenset({(2, 1), (1, 2), (3, 0)}))
    assert g.edges == frozenset({(1, 2), (0, 3)})


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
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2), (2, 3)})


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
        PeriodicGraphSpec(d=1, nu=2, offset_edges=(((0, 1, (1,))),))


def test_periodic_spec_rejects_zero_offset_loop():
    with pytest.raises(ParameterError, match="self-loop"):
        PeriodicGraphSpec(d=1, nu=1, offset_edges=((0, 0, (0,)),))


def test_periodic_spec_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        PeriodicGraphSpec(d=2, nu=1, offset_edges=((0, 0, (1,)), (0, 0, (-1,))))
    with pytest.raises(ParameterError):
        PeriodicGraphSpec(
            d=1, nu=2, offset_edges=((0, 1, (0,)), (1, 0, (0,))), potential=(1.0,)
        )


def test_periodic_spec_deduplicates_and_sorts():
    entries = ((0, 0, (1,)), (0, 0, (-1,)), (0, 0, (1,)))
    spec = PeriodicGraphSpec(d=1, nu=1, offset_edges=entries)
    assert spec.offset_edges == ((0, 0, (-1,)), (0, 0, (1,)))
    assert spec.potential == (0.0,)


def test_zd_product_spec_counts():
    g = build_named("cycle", [3])
    spec = zd_product_spec(g, d=2)
    assert spec.d == 2 and spec.nu == 3
    # each undirected finite edge and each axis neighbor appears twice
    assert len(spec.offset_edges) == 2 * len(g.edges) + 2 * g.nu * 2


def test_honeycomb_spec_shape():
    spec = honeycomb_spec()
    assert spec.d == 2 and spec.nu == 2
    assert len(spec.offset_edges) == 6
    offs = {off for p, q, off in spec.offset_edges if p == 0}
    assert offs == {(0, 0), (-1, 0), (0, -1)}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_periodic_spec_rejects_non_finite_potential(value):
    with pytest.raises(ParameterError, match="finite"):
        PeriodicGraphSpec(
            d=1, nu=1, offset_edges=((0, 0, (1,)), (0, 0, (-1,))), potential=(value,)
        )
