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
    PeriodicGraphSpec,
    ProductKind,
    build_named,
    build_torus,
    d_cycle_exact,
    d_path_exact,
    eigendecompose_symmetric,
    general_density,
    honeycomb_spec,
    infinite_time_averaged,
    limit_prediction,
    limiting_density,
    zd_product_spec,
)
from test_floquet import _crossing_spec

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


def periodic_exact_density(spec, N):
    """``general_density(spec, N)`` exactly: the commutant of A among the translation-invariant operators.

    An operator X on the C_N^d torus of the cell that commutes with every
    translation is fixed by its blocks X_c(p, q) = X((0, p), (c, q)), nu^2
    N^d unknowns at index c nu^2 + p nu + q. A X = X A is a linear system in
    them: an offset row (a, b, n) adds X_(c - n)(b, q) to (A X)_c(a, q) and
    X_(c - n)(p, a) to (X A)_c(p, b). The joint eigenprojections of A and the
    translations are P_s(theta) (x) |theta><theta|, so with B a rational
    basis of the kernel, one vector per row, and B_D its nu columns (0, p,
    p), B_D^T (B B^T)^-1 B_D = (1/N^d) sum_(theta, s) |P_s(theta)(p, q)|^2,
    the grid quadrature. Only integer offsets enter, so no root of unity does.
    Returns a nu x nu list of Fractions.
    """
    nu, shape = spec.nu, (N,) * spec.d
    size = nu * nu * N**spec.d
    m = [[0] * size for _ in range(size)]
    for c, digits in enumerate(np.ndindex(*shape)):
        for a, b, *n in spec.offset_edges.tolist():
            shifted = int(np.ravel_multi_index(tuple((np.array(digits) - n) % N), shape)) * nu * nu
            for x in range(nu):
                m[c * nu * nu + a * nu + x][shifted + b * nu + x] += 1  # A X, equation (c, a, q = x)
                m[c * nu * nu + x * nu + b][shifted + x * nu + a] -= 1  # X A, equation (c, p = x, b)
    basis = DomainMatrix([[QQ(x) for x in row] for row in m], (size, size), QQ).nullspace()
    diag = basis.extract(range(basis.shape[0]), [p * nu + p for p in range(nu)])
    exact = diag.transpose() * (basis * basis.transpose()).inv() * diag
    return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in exact.to_list()]


def z_product_spec(graph, kind):
    """The product of ``graph`` with Z as a spec.

    The box part has rows (p, p, +-1) and (u, v, 0), the tensor part (u, v, +-1); strong is both.
    """
    directed = graph.edges.tolist() + graph.edges[:, ::-1].tolist()
    tensor = [(u, v, s) for u, v in directed for s in (1, -1)]
    if kind is ProductKind.TENSOR:
        return PeriodicGraphSpec(d=1, nu=graph.nu, offset_edges=tensor)
    box = [(p, p, s) for p in range(graph.nu) for s in (1, -1)] + [(u, v, 0) for u, v in directed]
    return PeriodicGraphSpec(d=1, nu=graph.nu, offset_edges=box + tensor)


# Cells whose fibers do not share one set of eigenprojections, each with nu^2 N^d <= 100 unknowns:
# honeycomb, whose eigenvectors move with theta (the Dirac points lie on the grid when 3 | N); a
# crossing spec of test_floquet (degenerate fibers at the sixths); the tensor product with Z, whose
# fiber 2cos(2 pi theta) A_G vanishes at theta = 1/4 and 3/4; and the strong one, whose fiber
# (1 + 2cos(2 pi theta)) A_G + 2cos(2 pi theta) I is -I at theta = 1/3 and 2/3
_CELLS_BEYOND_ZD = [
    *(pytest.param(honeycomb_spec(), N, id=f"honeycomb-{N}") for N in range(1, 6)),
    pytest.param(_crossing_spec(), 6, id="crossing-6"),
    pytest.param(z_product_spec(build_named("path", [3]), ProductKind.TENSOR), 4, id="tensor-path3-4"),
    pytest.param(z_product_spec(build_named("cycle", [4]), ProductKind.STRONG), 3, id="strong-cycle4-3"),
]


@pytest.mark.parametrize("spec,N", _CELLS_BEYOND_ZD)
def test_quadrature_of_cells_beyond_zd_products_is_the_exact_commutant_density(spec, N):
    exact = periodic_exact_density(spec, N)
    got = general_density(spec, N).values
    assert np.abs(got - np.array(exact, dtype=float)).max() <= _AGREEMENT_TOL
    if spec.nu == 2 and N == 3:  # honeycomb with its Dirac points on the grid: 1/2 + 1/N^2
        assert exact[0][0] == Fraction(11, 18)
