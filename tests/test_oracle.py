"""Exact rational oracle for the limiting density: the commutant projector.

For a real symmetric A with eigenprojections E_theta, sum_theta E_theta (x)
E_theta is the orthogonal projector Pi onto ker(A (x) I - I (x) A), the
vectorised commutant of A, and the limiting density (the average mixing
matrix of Godsil, JCTA 2013) is M(a, b) = sum_theta E_theta(a, b)^2 =
Pi[(a, a), (b, b)]. With B a rational basis of that kernel, one vector per
row, and B_D its n columns (a, a), M = B_D^T (B B^T)^-1 B_D. Everything is
exact over QQ, so no eigenvalue is computed and no characteristic polynomial
factored, and the kernel's dimension is sum_theta m_theta^2.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crystalwalk import (
    FiniteGraph,
    build_named,
    build_torus,
    d_cycle_exact,
    d_path_exact,
    eigendecompose_symmetric,
    general_density,
    infinite_time_averaged,
    limit_prediction,
    limiting_density,
    zd_product_spec,
)

pytest.importorskip("sympy")
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

# limiting_density against the exact matrix: the density's own row-sum contract, 1e-10
_AGREEMENT_TOL = 1e-10


def commutant_basis(graph):
    """Rows spanning ker(A (x) I - I (x) A) over QQ, as a (k, n^2) DomainMatrix."""
    n = graph.nu
    a = graph.adjacency.astype(int).tolist()
    rows = [[QQ(a[i][k] * (j == l) - (i == k) * a[j][l]) for k in range(n) for l in range(n)]
            for i in range(n) for j in range(n)]
    return DomainMatrix(rows, (n * n, n * n), QQ).nullspace()


def exact_density(graph):
    """The limiting density as an n x n list of Fractions, and the commutant's dimension."""
    n = graph.nu
    basis = commutant_basis(graph)
    k = basis.shape[0]
    diag = basis.extract(range(k), [a * n + a for a in range(n)])
    m = diag.transpose() * (basis * basis.transpose()).inv() * diag
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in m.to_list()], k


@st.composite
def edge_lists(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return FiniteGraph(n, [p for p, k in zip(pairs, keep) if k])


@settings(deadline=None, max_examples=60)
@given(graph=edge_lists())
@example(graph=build_named("hypercube", [3]))  # eigenvalue multiplicities 1, 3, 3, 1
@example(graph=FiniteGraph(5, []))
def test_limiting_density_matches_the_exact_commutant_projector(graph):
    exact, dim = exact_density(graph)
    numeric = limiting_density(graph).values
    assert np.abs(numeric - np.array(exact, dtype=float)).max() <= _AGREEMENT_TOL
    # the kernel's dimension certifies the multiplicities that the clustering found
    sizes = [len(c) for c in eigendecompose_symmetric(graph.adjacency).clusters]
    assert dim == sum(m * m for m in sizes)


@settings(deadline=None, max_examples=40)
@given(graph=edge_lists())
def test_exact_density_is_symmetric_and_doubly_stochastic(graph):
    exact, _ = exact_density(graph)
    n = graph.nu
    assert all(exact[a][b] == exact[b][a] for a in range(n) for b in range(n))
    assert all(sum(row) == 1 for row in exact)
    assert all(x >= 0 for row in exact for x in row)


@pytest.mark.parametrize("family,nu,closed,first", [("cycle", 6, d_cycle_exact, 0), ("path", 5, d_path_exact, 1)])
def test_exact_density_is_the_closed_form(family, nu, closed, first):
    exact, _ = exact_density(build_named(family, [nu]))
    assert exact == [[closed(nu, p + first, q + first) for q in range(nu)] for p in range(nu)]


# Every Bloch fiber of a Z^d product is A_G + c(theta) I: it shares G's
# eigenvectors and eigenvalue clusters, so the quadrature is exact on any grid.
_GRIDS = [(1, 1), (1, 5), (1, 16), (2, 4), (2, 7)]


@settings(deadline=None, max_examples=30)
@given(graph=edge_lists(max_n=7))
@example(graph=build_named("cycle", [6]))  # two eigenvalues of multiplicity 2
@example(graph=FiniteGraph(1, []))
def test_quadrature_of_a_zd_product_is_the_exact_density_on_every_grid(graph):
    exact = np.array(exact_density(graph)[0], dtype=float)
    for d, N in _GRIDS:
        got = general_density(zd_product_spec(graph, d), N).values
        assert np.abs(got - exact).max() <= _AGREEMENT_TOL, (d, N)


def torus_graph(graph, d, N):
    """C_N^d box G as one finite graph, vertex (cell, q) at flat index cell * nu + q, cells in C order."""
    nu = graph.nu
    cells = np.arange(N**d).reshape((N,) * d)
    edges = [(c * nu + u, c * nu + v) for c in cells.flat for u, v in graph.edges.tolist()]
    for axis in range(d):
        step = np.roll(cells, -1, axis=axis)  # the cell one step up along the axis, mod N
        edges += [(int(a) * nu + q, int(b) * nu + q) for a, b in zip(cells.flat, step.flat) for q in range(nu)]
    return FiniteGraph(nu * N**d, edges)


# (factor, d, N) with nu N^d <= 12 states
_TORI = [
    (build_named("path", [2]), 1, 6),  # lambda = 0 lies in both bands: one cross-band cluster
    (build_named("complete", [3]), 1, 4),
    (build_named("cycle", [4]), 1, 3),
    (FiniteGraph(1, []), 2, 3),
]


@pytest.mark.parametrize("graph,d,N", _TORI, ids=["path2-C6", "K3-C4", "C4-C3", "K1-C3xC3"])
def test_infinite_time_average_is_the_exact_torus_density_from_every_start(graph, d, N):
    exact = np.array(exact_density(torus_graph(graph, d, N))[0], dtype=float)
    op = build_torus(graph, d, N)
    for cell in np.ndindex(*(N,) * d):
        for p in range(graph.nu):
            start = (cell, p)
            row = exact[int(np.ravel_multi_index(cell, (N,) * d)) * graph.nu + p]
            assert np.abs(infinite_time_averaged(op, start).values - row).max() <= _AGREEMENT_TOL, start
            if graph.nu == 2:  # path2 x C6
                # the factored prediction ignores the cross-band cluster, so here it is not the limit
                assert np.abs(limit_prediction(op, start) - row).max() > 1e-3
