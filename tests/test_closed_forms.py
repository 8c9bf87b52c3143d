from fractions import Fraction
from math import comb

import numpy as np
import pytest

from crystalwalk import (
    ParameterError,
    build_named,
    closed_form_density,
    d_cycle_exact,
    d_hypercube_exact,
    d_path_exact,
    d_star_exact,
    limiting_density,
)
from crystalwalk import closed_forms, graphs


@pytest.mark.parametrize(
    "nu,p,q,want",
    [
        (5, 0, 0, Fraction(9, 25)),
        (5, 0, 2, Fraction(4, 25)),
        (6, 0, 3, Fraction(5, 18)),
        (6, 0, 0, Fraction(5, 18)),
        (6, 0, 1, Fraction(1, 9)),
        (3, 1, 1, Fraction(5, 9)),
    ],
)
def test_cycle_values(nu, p, q, want):
    assert d_cycle_exact(nu, p, q) == want
    assert closed_form_density("cycle", [nu]).values[p, q] == pytest.approx(float(want), abs=1e-15)


@pytest.mark.parametrize(
    "nu,p,q,want",
    [
        (6, 2, 2, Fraction(3, 14)),
        (6, 2, 5, Fraction(3, 14)),
        (6, 2, 4, Fraction(1, 7)),
        (5, 3, 3, Fraction(1, 3)),
        (2, 1, 1, Fraction(1, 2)),
    ],
)
def test_path_values(nu, p, q, want):
    assert d_path_exact(nu, p, q) == want


@pytest.mark.parametrize(
    "nu,p,q,want",
    [
        (3, 1, 1, Fraction(1, 2)),
        (3, 1, 2, Fraction(1, 6)),
        (3, 1, 4, Fraction(1, 6)),
        (3, 4, 4, Fraction(1, 2)),
        (10, 11, 11, Fraction(1, 2)),
        (10, 1, 1, Fraction(163, 200)),
    ],
)
def test_star_values(nu, p, q, want):
    assert d_star_exact(nu, p, q) == want


@pytest.mark.parametrize(
    "m,u,want",
    [
        (3, 0, Fraction(5, 16)),
        (3, 1, Fraction(1, 16)),
        (4, 0, Fraction(35, 128)),
        (4, 1, Fraction(5, 128)),
        (4, 2, Fraction(3, 128)),
    ],
)
def test_hypercube_values(m, u, want):
    assert d_hypercube_exact(m, u) == want
    q = (1 << u) - 1  # the first u bits set: Hamming distance u from vertex 0
    assert closed_form_density("hypercube", [m]).values[0, q] == pytest.approx(float(want), abs=1e-15)


@pytest.mark.parametrize("m", range(1, 9))
def test_hypercube_diagonal_is_central_binomial(m):
    assert d_hypercube_exact(m, 0) == Fraction(comb(2 * m, m), 4**m)


@pytest.mark.parametrize("m", range(1, 9))
def test_hypercube_symmetry_exact(m):
    for u in range(m + 1):
        assert d_hypercube_exact(m, u) == d_hypercube_exact(m, m - u)


@pytest.mark.parametrize("m", range(1, 9))
def test_hypercube_distance_one_identity(m):
    # 4^m d(0, e_1) = C(2m, m) - 4 C(2m-1, m-1) + 4 C(2m-2, m-1)
    want = comb(2 * m, m) - 4 * comb(2 * m - 1, m - 1) + 4 * comb(2 * m - 2, m - 1)
    assert d_hypercube_exact(m, 1) * 4**m == want


@pytest.mark.parametrize("nu", range(3, 17))
def test_cycle_rows_sum_exactly(nu):
    for p in range(nu):
        assert sum(d_cycle_exact(nu, p, q) for q in range(nu)) == 1


@pytest.mark.parametrize("nu", range(2, 17))
def test_path_rows_sum_exactly(nu):
    for p in range(1, nu + 1):
        assert sum(d_path_exact(nu, p, q) for q in range(1, nu + 1)) == 1


@pytest.mark.parametrize("nu", range(1, 17))
def test_star_rows_sum_exactly(nu):
    for p in range(1, nu + 2):
        assert sum(d_star_exact(nu, p, q) for q in range(1, nu + 2)) == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_hypercube_rows_sum(m):
    exact = sum(comb(m, u) * d_hypercube_exact(m, u) for u in range(m + 1))
    assert exact == 1
    floats = closed_form_density("hypercube", [m]).values.sum(axis=1)
    assert np.abs(floats - 1.0).max() <= 1e-12


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", [9]),
        ("cycle", [12]),
        ("path", [11]),
        ("star", [7]),
        ("hypercube", [5]),
    ],
)
def test_closed_form_matches_numeric(family, params):
    cf = closed_form_density(family, params).values
    num = limiting_density(build_named(family, params)).values
    assert np.abs(cf - num).max() <= 1e-9


def _exact_entry(family, nu):
    """float() of the family's exact rational at storage indices (p, q) of a graph on nu vertices."""
    if family == "cycle":
        return lambda p, q: float(d_cycle_exact(nu, p, q))
    if family == "path":
        return lambda p, q: float(d_path_exact(nu, p + 1, q + 1))
    if family == "star":
        return lambda p, q: float(d_star_exact(nu - 1, p + 1, q + 1))
    m = nu.bit_length() - 1
    return lambda p, q: float(d_hypercube_exact(m, bin(p ^ q).count("1")))


@pytest.mark.parametrize(
    "family,sizes",
    [("cycle", range(3, 17)), ("path", range(2, 17)), ("star", range(1, 17)), ("hypercube", range(1, 7))],
)
def test_closed_form_density_is_each_exact_value_rounded_once(family, sizes):
    for size in sizes:
        got = closed_form_density(family, [size]).values
        entry = _exact_entry(family, got.shape[0])
        want = [[entry(p, q) for q in range(got.shape[0])] for p in range(got.shape[0])]
        assert got.dtype == np.float64
        assert got.tolist() == want, (family, size)


def test_closed_form_density_source_and_labels():
    d = closed_form_density("star", [3])
    assert d.source == "closed-form"
    assert d.nu == 4
    # the command line labels the rows with the family's own vertex labels
    assert build_named("star", [3]).vertex_labels() == ("1", "2", "3", "4")
    assert build_named("hypercube", [2]).vertex_labels() == ("00", "10", "01", "11")


@pytest.mark.parametrize(
    "call",
    [
        lambda: d_cycle_exact(2, 0, 0),
        lambda: d_cycle_exact(5, 5, 0),
        lambda: d_path_exact(6, 0, 1),
        lambda: d_path_exact(1, 1, 1),
        lambda: d_star_exact(3, 0, 1),
        lambda: d_star_exact(0, 1, 1),
        lambda: d_hypercube_exact(3, 4),
        lambda: d_hypercube_exact(0, 0),
        lambda: closed_form_density("complete", [4]),
        lambda: closed_form_density("cycle", [2]),
        lambda: closed_form_density("cycle", []),
        lambda: closed_form_density("cycle", [0]),
        lambda: closed_form_density("path", [1]),
        lambda: closed_form_density("star", [0]),
        lambda: closed_form_density("hypercube", [0]),
    ],
)
def test_out_of_range_rejected(call):
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: d_cycle_exact(5.0, 0, 0),
        lambda: d_path_exact(4, 1.5, 1),
        lambda: d_star_exact(3, 1, "2"),
        lambda: d_hypercube_exact(3, 1.0),
        lambda: closed_form_density("cycle", [3.7]),  # int() would give the C3 table
    ],
)
def test_non_integer_arguments_rejected(call):
    with pytest.raises(ParameterError, match="must be an integer"):
        call()


def test_closed_form_density_builds_no_graph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(graphs, "build_named", refuse)
    monkeypatch.setattr(graphs, "FiniteGraph", refuse)
    assert not hasattr(closed_forms, "build_named") and not hasattr(closed_forms, "FiniteGraph")
    for family, params, nu in [("cycle", [6], 6), ("path", [5], 5), ("star", [4], 5), ("hypercube", [3], 8)]:
        assert closed_form_density(family, params).nu == nu


# cycle 2 and 5000, star 4096 (4097 vertices), hypercube 0, 13 and 64, a float, a missing parameter;
# a family without a closed form (complete_bipartite, petersen, an unknown name) is refused by name first
@pytest.mark.parametrize(
    "family,params",
    [("cycle", [2]), ("cycle", [5000]), ("star", [4096]), ("hypercube", [0]), ("hypercube", [13]),
     ("hypercube", [64]), ("cycle", [3.0]), ("cycle", [])],
)
def test_closed_form_density_checks_its_parameters_as_build_named_does(family, params):
    with pytest.raises(ParameterError) as built:
        build_named(family, params)
    with pytest.raises(ParameterError) as closed:
        closed_form_density(family, params)
    assert str(closed.value) == str(built.value)


@pytest.mark.parametrize(
    "family,params,built",
    [("complete_bipartite", [4000, 97], "needs 4097 vertices"), ("petersen", [1], "takes 0 parameter"),
     ("nope", [3], "unknown family")],
)
def test_a_family_without_a_closed_form_is_refused_by_name(family, params, built):
    with pytest.raises(ParameterError, match=built):
        build_named(family, params)
    with pytest.raises(ParameterError, match=f"no closed form for family '{family}'"):
        closed_form_density(family, params)


def test_the_star_that_fills_the_vertex_budget_is_accepted_by_both(monkeypatch):
    assert graphs._family_size("star", [4095]) == ([4095], graphs.VERTEX_BUDGET)
    assert build_named("star", [4095]).nu == graphs.VERTEX_BUDGET
    # the full 4096 x 4096 closed form would take 128 MiB, so its boundary is checked at a budget of 12
    monkeypatch.setattr(graphs, "VERTEX_BUDGET", 12)
    assert closed_form_density("star", [11]).nu == build_named("star", [11]).nu == 12
    message = "family 'star' needs 13 vertices, over the budget 12"
    for build in (build_named, closed_form_density):
        with pytest.raises(ParameterError, match=message):
            build("star", [12])
