"""Structural checks of the limiting density that scale to the benchmark ladders.

The limiting density is Godsil's average mixing matrix (J. Combin. Theory
Ser. A, 2013), the sum of the Schur squares of the spectral idempotents. By
the Schur product theorem it is positive semidefinite, and every graph
automorphism sigma keeps it: d(sigma p, sigma q) = d(p, q). On a periodic
spec the density of each Bloch fiber is kept by theta -> -theta, since
H(-theta) = conj H(theta), and by every signed axis permutation that maps the
offset rows onto themselves. A quotient of the Bloch grid by those
symmetries rests on the last property.

The bounds are n eps for a density of n vertices (1.1e-13 at n = 512) and
16 eps for a fiber orbit. Measured: smallest density eigenvalue at worst
-1.4e-15 (hypercube m=9), automorphism images within 1e-14 (K150,150); per-fiber
orbits agree within 1.4e-15 on honeycomb N=45 and 8.3e-16 on cycle6 x Z^2
N=18, so orbit members are not bit-identical.
"""

import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from crystalwalk import (
    FiniteGraph,
    build_floquet_matrix,
    build_named,
    floquet,
    general_density,
    honeycomb_spec,
    limiting_density,
    spectral,
    zd_product_spec,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import _random_edges  # noqa: E402  (the finite ladder's random graphs)

EPS = np.finfo(float).eps
# per-fiber densities on one orbit agree within this (measured at most 6.5 eps)
_ORBIT_TOL = 16 * EPS


def _random_graph(n, seed):
    return FiniteGraph(n, _random_edges(np.random.default_rng(seed), n, mean_degree=8))


_GRAPHS = {
    "random120": lambda: _random_graph(120, 7),
    "random240": lambda: _random_graph(240, 8),
    "hypercube9": lambda: build_named("hypercube", [9]),
    "cycle400": lambda: build_named("cycle", [400]),
    "K150,150": lambda: build_named("complete_bipartite", [150, 150]),
    "petersen": lambda: build_named("petersen"),
}


def _density(name):
    return limiting_density(_GRAPHS[name]()).values


def _assert_kept(d, sigma):
    """d(sigma p, sigma q) = d(p, q) within n eps."""
    np.testing.assert_allclose(d[np.ix_(sigma, sigma)], d, rtol=0, atol=len(d) * EPS)


@pytest.mark.parametrize("name", _GRAPHS)
def test_density_is_positive_semidefinite(name):
    d = _density(name)
    assert np.linalg.eigvalsh(d).min() >= -len(d) * EPS


def test_periodic_density_is_positive_semidefinite():
    d = general_density(honeycomb_spec(), 45).values
    assert np.linalg.eigvalsh(d).min() >= -len(d) * EPS


def test_cycle_shifts_and_reflections_keep_the_density():
    d, i = _density("cycle400"), np.arange(400)
    for s in (1, 7, 200):
        _assert_kept(d, (i + s) % 400)
        _assert_kept(d, (s - i) % 400)


def test_hypercube_bit_flips_and_coordinate_permutations_keep_the_density():
    d, x = _density("hypercube9"), np.arange(512)
    for mask in (1, 0b101010101, 511):
        _assert_kept(d, x ^ mask)
    for perm in (np.roll(np.arange(9), 1), np.random.default_rng(7).permutation(9)):
        _assert_kept(d, sum(((x >> k) & 1) << int(perm[k]) for k in range(9)))


def test_complete_bipartite_part_swap_keeps_the_density():
    d, i = _density("K150,150"), np.arange(300)
    _assert_kept(d, (i + 150) % 300)


def test_random_relabelling_permutes_the_density():
    graph = _random_graph(240, 9)
    sigma = np.random.default_rng(9).permutation(graph.nu)
    relabelled = FiniteGraph(graph.nu, [(int(sigma[u]), int(sigma[v])) for u, v in graph.edges])
    d = limiting_density(relabelled).values
    np.testing.assert_allclose(d[np.ix_(sigma, sigma)], limiting_density(graph).values, rtol=0, atol=240 * EPS)


def _fiber_densities(spec, N):
    """sum_s |P_s|^2 of every fiber of the (N,)*d grid, shape (N,)*d + (nu, nu), as the quadrature's blocks build it."""
    shape = (N,) * spec.d
    theta = np.indices(shape).reshape(spec.d, -1).T / N
    vals, vecs = np.linalg.eigh(build_floquet_matrix(spec, theta))
    d = floquet._mixed_densities(vecs, spectral._cluster_splits(vals, spectral.DEFAULT_CLUSTER_TOL))
    # the quadrature is these fibers' mean
    assert np.array_equal(d.sum(axis=0) / N**spec.d, general_density(spec, N).values)
    return d.reshape(shape + (spec.nu, spec.nu))


def _orbit_errors(spec, N):
    """{(axis permutation, signs): max |d(sigma r) - d(r)|} over the grid, for every signed axis permutation."""
    d = _fiber_densities(spec, N)
    r = np.indices((N,) * spec.d)
    errors = {}
    for perm in permutations(range(spec.d)):
        for signs in product((1, -1), repeat=spec.d):
            image = tuple(s * r[p] % N for p, s in zip(perm, signs))
            errors[perm, signs] = np.abs(d[image] - d).max()
    return errors


def test_honeycomb_fibers_agree_on_the_orbits_of_the_swap_and_negation():
    errors = _orbit_errors(honeycomb_spec(), 45)
    kept = {((0, 1), (1, 1)), ((0, 1), (-1, -1)), ((1, 0), (1, 1)), ((1, 0), (-1, -1))}
    for sigma, err in errors.items():
        if sigma in kept:
            assert err <= _ORBIT_TOL, sigma
        else:  # one sign flip maps the offset rows elsewhere, and the test sees it
            assert err > 0.1, sigma


def test_zd_product_fibers_agree_on_the_orbits_of_the_signed_permutations():
    errors = _orbit_errors(zd_product_spec(build_named("cycle", [6]), 2), 18)
    assert len(errors) == 8
    assert max(errors.values()) <= _ORBIT_TOL
