import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from crystalwalk import (
    HORIZON_LIMIT,
    PAIR_COUNT_BUDGET,
    PAIR_SUM_LIMIT,
    FiniteGraph,
    NumericalError,
    ParameterError,
    build_named,
    build_torus,
    closed_form_density,
    cluster_eigenvalues,
    dynamics,
    evolve,
    floquet,
    infinite_time_averaged,
    limit_prediction,
    limiting_density,
    time_averaged,
    total_variation,
)


def cycle_adjacency(n):
    return np.roll(np.eye(n), 1, axis=0) + np.roll(np.eye(n), -1, axis=0)


def dense_product_adjacency(graph, d, N):
    """Adjacency of (N-torus)^d box graph in (cell_0, .., cell_(d-1), q) order."""
    c = cycle_adjacency(N)
    dim = graph.nu * N**d
    m = np.zeros((dim, dim))
    for axis in range(d):
        left = np.eye(N**axis)
        right = np.eye(N ** (d - 1 - axis) * graph.nu)
        m += np.kron(np.kron(left, c), right)
    m += np.kron(np.eye(N**d), graph.adjacency)
    return m


def cell_masses(dist):
    """Total mass per cell of a distribution, shape (N,) * d."""
    return dist.values.reshape((dist.N,) * dist.d + (dist.nu,)).sum(axis=-1)


def flat_index(cell, p, N, nu):
    idx = 0
    for c in cell:
        idx = idx * N + c
    return idx * nu + p


def test_build_torus_validation():
    g = build_named("path", [2])
    with pytest.raises(ParameterError):
        build_torus(g, d=1, N=2)
    with pytest.raises(ParameterError):
        build_torus(g, d=0, N=8)
    with pytest.raises(ParameterError):
        build_torus(g, d=2, N=1024)  # 2 * 1024^2 states


def test_build_torus_eigenvalue_factorization():
    op = build_torus(build_named("cycle", [5]), d=1, N=10)
    assert op.dim == 50
    assert op.grid_shape == (10,)
    mu = op.spectrum.eigenvalues
    want = 2.0 * np.cos(2.0 * np.pi * np.arange(10) / 10)[:, None] + mu[None, :]
    np.testing.assert_allclose(op.eigenvalues, want, atol=1e-12)
    # mirror cells r and N - r carry bit-identical bands
    assert np.array_equal(op.eigenvalues[3], op.eigenvalues[7])
    assert np.array_equal(op.eigenvalues[1], op.eigenvalues[9])


def test_evolve_zero_time_is_delta():
    op = build_torus(build_named("cycle", [5]), d=1, N=5)
    psi = evolve(op, ((2,), 1), 0.0)
    want = np.zeros(25, dtype=complex)
    want[flat_index((2,), 1, 5, 5)] = 1.0
    np.testing.assert_allclose(psi, want, atol=1e-12)


def test_evolve_matches_matrix_exponential_d1():
    # star3 has the degenerate eigenvalue 0, so its factor basis is not unique
    for family, params, N, start in [("path", [3], 4, ((1,), 2)), ("star", [3], 6, ((4,), 3))]:
        g = build_named(family, params)
        op = build_torus(g, d=1, N=N)
        m = dense_product_adjacency(g, 1, N)
        delta = np.zeros(op.dim)
        delta[flat_index(*start, N, g.nu)] = 1.0
        for t in (0.6, 3.1, 12.0):
            want = scipy.linalg.expm(1j * t * m) @ delta
            np.testing.assert_allclose(evolve(op, start, t), want, atol=1e-10)


def test_evolve_matches_matrix_exponential_d2():
    for family, params, N, start in [("path", [2], 3, ((2, 1), 0)), ("star", [3], 4, ((1, 3), 1))]:
        g = build_named(family, params)
        op = build_torus(g, d=2, N=N)
        m = dense_product_adjacency(g, 2, N)
        delta = np.zeros(op.dim)
        delta[flat_index(*start, N, g.nu)] = 1.0
        want = scipy.linalg.expm(2.7j * m) @ delta
        np.testing.assert_allclose(evolve(op, start, 2.7), want, atol=1e-10)


def test_evolve_start_normalization():
    op = build_torus(build_named("cycle", [5]), d=1, N=8)
    a = evolve(op, ((-1,), 2), 1.3)
    b = evolve(op, ((7,), 2), 1.3)
    c = evolve(op, (7, 2), 1.3)  # bare int cell allowed when d = 1
    np.testing.assert_allclose(a, b, atol=1e-14)
    np.testing.assert_allclose(a, c, atol=1e-14)


def test_evolve_rejects():
    op = build_torus(build_named("cycle", [5]), d=1, N=8)
    with pytest.raises(ParameterError):
        evolve(op, ((0,), 5), 1.0)
    with pytest.raises(ParameterError):
        evolve(op, ((0, 0), 1), 1.0)
    with pytest.raises(ParameterError):
        evolve(op, ((0,), 1), math.inf)


def test_torus_and_start_reject_non_integers():
    g = build_named("cycle", [3])
    with pytest.raises(ParameterError, match="torus dimension d must be an integer"):
        build_torus(g, 1.9, 4)
    with pytest.raises(ParameterError, match="cells per axis N must be an integer"):
        build_torus(g, 1, 4.5)
    op = build_torus(g, np.int64(1), np.int16(4))
    assert (op.d, op.N) == (1, 4)
    # int() would start these walks at cell 1 and vertex 2, or at cell 0
    with pytest.raises(ParameterError, match="start cell coordinate must be an integer"):
        time_averaged(op, ((1.9,), 2), 5.0)
    with pytest.raises(ParameterError, match="start vertex must be an integer"):
        time_averaged(op, ((1,), 2.5), 5.0)
    with pytest.raises(ParameterError, match="start cell coordinate must be an integer"):
        evolve(op, (0.7, 0), 1.0)
    with pytest.raises(ParameterError, match="start vertex must be an integer"):
        infinite_time_averaged(op, ((0,), "0"))
    want = time_averaged(op, ((1,), 2), 5.0).values
    assert np.array_equal(time_averaged(op, ((np.int8(5),), np.uint8(2)), 5.0).values, want)


def test_time_averaged_tiny_horizon_is_delta():
    op = build_torus(build_named("path", [2]), d=1, N=4)
    dist = time_averaged(op, ((0,), 0), 1e-12)
    want = np.zeros(8)
    want[0] = 1.0
    np.testing.assert_allclose(dist.values, want, atol=1e-10)


def test_time_averaged_matches_quadrature():
    op = build_torus(build_named("path", [2]), d=1, N=4)
    horizon = 50.0
    dist = time_averaged(op, ((0,), 0), horizon)
    ts = np.linspace(0.0, horizon, 10001)
    samples = np.stack([np.abs(evolve(op, ((0,), 0), t)) ** 2 for t in ts])
    oracle = scipy.integrate.simpson(samples, x=ts, axis=0) / horizon
    np.testing.assert_allclose(dist.values, oracle, atol=1e-6)


def test_time_averaged_cell_masses_shape():
    op = build_torus(build_named("path", [2]), d=2, N=4)
    dist = time_averaged(op, ((1, 2), 0), 10.0)
    masses = cell_masses(dist)
    assert masses.shape == (4, 4)
    assert masses.sum() == pytest.approx(1.0, abs=1e-10)


def test_time_averaged_rejects():
    op = build_torus(build_named("cycle", [3]), d=1, N=8)
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ParameterError):
            time_averaged(op, ((0,), 0), bad)
    big = build_torus(build_named("cycle", [3]), d=1, N=2048)
    assert big.dim > PAIR_SUM_LIMIT
    with pytest.raises(ParameterError):
        time_averaged(big, ((0,), 0), 1.0)
    # the horizon ceiling is checked first, before the state count
    for bad in (math.nan, 1e308, math.nextafter(HORIZON_LIMIT, math.inf)):
        with pytest.raises(ParameterError, match="horizon"):
            time_averaged(big, ((0,), 0), bad)


@pytest.mark.parametrize(
    "family,params,d,N", [("cycle", [3], 1, 8), ("complete", [5], 2, 3), ("star", [4], 1, 3)]
)
def test_time_averaged_weights_stay_finite_up_to_the_horizon_ceiling(family, params, d, N):
    op = build_torus(build_named(family, params), d=d, N=N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dist = time_averaged(op, ((0,) * d, 0), HORIZON_LIMIT)
    assert np.isfinite(dist.values).all()


def test_time_averaged_at_the_pair_sum_limit():
    op = build_torus(build_named("path", [2]), d=1, N=2048)
    assert op.dim == PAIR_SUM_LIMIT
    dist = time_averaged(op, ((0,), 1), 300.0)
    assert dist.values.sum() == pytest.approx(1.0, abs=1e-10)
    # a walk started in cell 0 spreads symmetrically under k -> -k
    masses = cell_masses(dist)
    np.testing.assert_allclose(masses[1:], masses[:0:-1], rtol=0, atol=1e-15)


def dense_time_average(g, d, N, start, horizon):
    """The average over [0, horizon] from the eigenpairs of the dense torus adjacency."""
    vals, vecs = np.linalg.eigh(dense_product_adjacency(g, d, N))
    row = vecs[flat_index(start[0], start[1], N, g.nu)]
    clusters = np.split(np.arange(vals.size), cluster_eigenvalues(vals)[:-1])
    x = np.stack([vecs[:, c] @ row[c] for c in clusters], axis=1)  # P_c e_start
    lam = np.array([vals[c].mean() for c in clusters])
    # the mean of e^(i t (lam_c - lam_c')) over [0, T] has real part sinc(T (lam_c - lam_c'))
    weights = np.sinc(horizon * (lam[:, None] - lam[None, :]) / np.pi)
    return np.einsum("wc,ce,we->w", x, weights, x)


@pytest.mark.parametrize("horizon", [1e-3, 7.5, 1e4])
@pytest.mark.parametrize(
    "family,params,d,N,start",
    [
        ("cycle", [3], 2, 6, ((2, 5), 1)),
        ("complete_bipartite", [3, 1], 1, 12, ((4,), 3)),  # 2 cos(pi/6) = sqrt 3
        ("cycle", [4], 2, 6, ((1, 3), 2)),
        ("cycle", [3], 3, 3, ((0, 2, 1), 1)),
        # odd N: no cell but 0 is its own mirror under r -> -r
        ("cycle", [3], 2, 5, ((1, 3), 2)),
        ("path", [2], 1, 7, ((4,), 1)),
        # d = 3: swapped axes hold the same band values only up to rounding
        ("path", [2], 3, 6, ((1, 4, 2), 1)),
        # 60 bands over Z_3, one GEMM each in the pair-grid tail
        ("cycle", [60], 1, 3, ((1,), 17)),
    ],
)
def test_time_averaged_matches_dense_eigenpairs(family, params, d, N, start, horizon):
    g = build_named(family, params)
    got = time_averaged(build_torus(g, d=d, N=N), start, horizon).values
    np.testing.assert_allclose(got, dense_time_average(g, d, N, start, horizon), rtol=0, atol=1e-12)


def test_time_averaged_memory_stays_linear():
    # a dim^2 pair-weight matrix alone would take 16 MB at 1024 states
    op = build_torus(build_named("cycle", [4]), d=2, N=16)
    assert op.dim == 1024
    tracemalloc.start()
    try:
        time_averaged(op, ((3, 7), 1), 123.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("family,params,d,N", [("path", [2], 1, 2048), ("cycle", [4], 2, 32)])
def test_time_averaged_memory_at_the_pair_sum_limit(family, params, d, N):
    # an unblocked table of sines over band-value class pairs and band gaps would take 16.8 MB on the path
    op = build_torus(build_named(family, params), d=d, N=N)
    assert op.dim == PAIR_SUM_LIMIT
    tracemalloc.start()
    try:
        time_averaged(op, ((5,) * d, 1), 300.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("family,params,d,N,bound", [("cycle", [3], 2, 72, 5.45), ("path", [3], 2, 56, 5.55)])
def test_infinite_average_memory(family, params, d, N, bound):
    # Peaks of 5.20 and 5.47 times the distribution, 5% and 1.5% under the bound; the path's is
    # the pair-grid tail's, table, grid, one band's cast and its GEMM output at once. With the
    # int64 sorted positions alive through the walk and the inverse FFT they were 6.19 and 6.30.
    op = build_torus(build_named(family, params), d=d, N=N)
    infinite_time_averaged(op, ((1,) * d, 0))  # first calls allocate numpy's own caches
    tracemalloc.start()
    try:
        dist = infinite_time_averaged(op, ((1,) * d, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * dist.values.nbytes


def test_infinite_average_cell_masses_are_cycle_density():
    # cells of the torus factor equilibrate to the N-cycle limiting density
    op = build_torus(build_named("cycle", [5]), d=1, N=25)
    dist = infinite_time_averaged(op, ((3,), 2))
    want = closed_form_density("cycle", [25]).values[3]
    np.testing.assert_allclose(cell_masses(dist), want, atol=1e-12)


def test_infinite_average_is_the_long_time_limit():
    op = build_torus(build_named("cycle", [3]), d=1, N=8)
    infinite = infinite_time_averaged(op, ((0,), 0))
    tvs = [
        total_variation(time_averaged(op, ((0,), 0), horizon), infinite)
        for horizon in (1e2, 1e3, 1e4)
    ]
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < 1e-4


@pytest.mark.parametrize(
    "family,params,d,N,start,alone,cross",
    [
        ("cycle", [3], 2, 6, ((2, 5), 1), 1, True),
        ("complete_bipartite", [3, 1], 1, 12, ((4,), 3), 0, True),  # 2 cos(pi/6) = sqrt 3
        ("cycle", [4], 2, 6, ((1, 3), 2), 1, True),
        ("complete", [8], 1, 4, ((1,), 5), 1, False),  # the 14-fold -1 band at r = 1, 3 goes alone
        ("cycle", [3], 4, 3, ((0, 2, 1, 0), 1), 4, True),
        # 60 bands over Z_3: mu_0 + E0(1) = 2 - 1 and mu_20 + E0(0) = -1 + 2 share a cluster
        ("cycle", [60], 1, 3, ((1,), 17), 0, True),
    ],
)
def test_infinite_average_matches_dense_projections(
    monkeypatch, family, params, d, N, start, alone, cross
):
    g = build_named(family, params)
    op = build_torus(g, d=d, N=N)
    calls = []
    assemble = dynamics._assemble
    monkeypatch.setattr(dynamics, "_assemble", lambda *a: calls.append(1) or assemble(*a))
    got = infinite_time_averaged(op, start).values
    vals, vecs = np.linalg.eigh(dense_product_adjacency(g, d, N))
    row = vecs[flat_index(start[0], start[1], N, g.nu)]
    clusters = np.split(np.arange(vals.size), cluster_eigenvalues(vals)[:-1])
    want = sum((vecs[:, c] @ row[c]) ** 2 for c in clusters)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # clusters past the pair-cost threshold are projected one by one, the rest as pairs
    assert len(calls) == alone < len(clusters)
    # accidental coincidences put eigenpairs of different factor eigenvalues in one cluster
    lam = op.eigenvalues.reshape(-1)
    order = np.argsort(lam, kind="stable")
    mu = op.spectrum.eigenvalues[order % g.nu]
    assert cross == any(np.ptp(c) > 0.5 for c in np.split(mu, cluster_eigenvalues(lam[order])[:-1]))


@st.composite
def _torus_walks(draw, max_nu=5, max_d=2):
    """A factor graph of at most max_nu vertices, complete or random, on a torus of at most max_d axes, and a start.

    A 3-D torus takes N <= 6 (216 cells), which keeps the dense oracle small.
    """
    nu = draw(st.integers(1, max_nu))
    pairs = [(u, v) for u in range(nu) for v in range(u + 1, nu)]
    if pairs and not draw(st.booleans()):
        pairs = draw(st.sets(st.sampled_from(pairs)))
    d = draw(st.integers(1, max_d))
    N = draw(st.integers(3, 8 if d < 3 else 6))
    cell = tuple(draw(st.integers(0, N - 1)) for _ in range(d))
    return FiniteGraph(nu, frozenset(pairs)), d, N, (cell, draw(st.integers(0, nu - 1)))


@settings(deadline=None)
@given(_torus_walks())
@example((build_named("complete", [5]), 1, 4, ((1,), 2)))  # the 8-fold -1 band at r = 1, 3 goes alone
def test_infinite_average_matches_dense_projections_on_generated_tori(walk):
    g, d, N, start = walk
    got = infinite_time_averaged(build_torus(g, d=d, N=N), start).values
    vals, vecs = np.linalg.eigh(dense_product_adjacency(g, d, N))
    row = vecs[flat_index(start[0], start[1], N, g.nu)]
    clusters = np.split(np.arange(vals.size), cluster_eigenvalues(vals)[:-1])
    want = sum((vecs[:, c] @ row[c]) ** 2 for c in clusters)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(_torus_walks(max_nu=4, max_d=3), st.floats(-3.0, 4.0))
@example((build_named("path", [2]), 3, 7, ((5, 0, 3), 1)), 1.0)  # odd N, orbits of up to 48 offsets
def test_time_averaged_matches_dense_eigenpairs_on_generated_tori(walk, log_horizon):
    g, d, N, start = walk
    horizon = 10.0**log_horizon
    got = time_averaged(build_torus(g, d=d, N=N), start, horizon).values
    np.testing.assert_allclose(got, dense_time_average(g, d, N, start, horizon), rtol=0, atol=1e-12)


_FOUR_CYCLE = FiniteGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


@st.composite
def _edge_list_walks(draw):
    """A random edge list on n <= 5 vertices, a torus of d <= 2 axes and N in 3..6, a start and a horizon in [1e-3, 1e4]."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    d, N = draw(st.integers(1, 2)), draw(st.integers(3, 6))
    cell = tuple(draw(st.integers(0, N - 1)) for _ in range(d))
    horizon = 10.0 ** draw(st.floats(-3.0, 4.0))
    return FiniteGraph(n, frozenset(edges)), d, N, (cell, draw(st.integers(0, n - 1))), horizon


@settings(deadline=None)
@given(_edge_list_walks())
@example((_FOUR_CYCLE, 2, 6, ((1, 4), 2), 1e4))  # the gap 2 in four bit patterns
@example((build_named("complete", [5]), 1, 5, ((3,), 0), 2.5e3))  # the -1 band four times
@example((build_named("star", [3]), 2, 4, ((0, 3), 0), 7.0))  # the 0 band twice, not bit for bit
@example((FiniteGraph(3), 1, 3, ((2,), 1), 1e-3))  # no edges: one gap, 0
def test_time_averaged_matches_dense_eigenpairs_on_edge_list_factors(walk):
    g, d, N, start, horizon = walk
    got = time_averaged(build_torus(g, d=d, N=N), start, horizon).values
    np.testing.assert_allclose(got, dense_time_average(g, d, N, start, horizon), rtol=0, atol=1e-12)


def test_four_cycle_gaps_equal_in_exact_arithmetic_differ_in_bits():
    mu = build_torus(_FOUR_CYCLE, d=1, N=3).spectrum.eigenvalues
    gaps = np.abs(mu - mu[:, None])
    assert np.unique(gaps[np.abs(gaps - 2.0) < 1e-12]).size > 1


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_canonical_offsets_pick_one_offset_per_signed_permutation_orbit(N, d):
    canon = dynamics._canonical_offsets(N, d)
    flat = np.arange(N**d)
    assert canon.shape == flat.shape
    np.testing.assert_array_equal(canon[canon], canon)  # idempotent
    # C(m + d, d) orbits: the multisets of d folded digits 0..m
    assert np.unique(canon).size == math.comb(N // 2 + d, d)
    digits = np.stack([flat // N ** (d - 1 - axis) % N for axis in range(d)], axis=1)
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1, -1), repeat=d):
            moved = digits[:, perm] * signs % N
            np.testing.assert_array_equal(canon[moved @ N ** np.arange(d - 1, -1, -1)], canon)


def test_infinite_average_runs_one_inverse_fft(monkeypatch):
    # no cluster of this torus is past the pair-cost threshold (at N = 24 one is)
    op = build_torus(build_named("cycle", [3]), d=2, N=72)
    calls = []
    ifftn = np.fft.ifftn
    monkeypatch.setattr(np.fft, "ifftn", lambda *a, **k: calls.append(1) or ifftn(*a, **k))
    infinite_time_averaged(op, ((5, 61), 2))
    assert len(calls) == 1


def test_averages_reach_one_pair_grid_tail_without_einsum(monkeypatch):
    op = build_torus(build_named("cycle", [5]), d=2, N=6)
    tails, einsums = [], []
    tail, einsum = dynamics._from_pair_grid, np.einsum
    monkeypatch.setattr(dynamics, "_from_pair_grid", lambda *a: tails.append(1) or tail(*a))
    monkeypatch.setattr(np, "einsum", lambda *a, **k: einsums.append(1) or einsum(*a, **k))
    for average in (lambda: infinite_time_averaged(op, ((1, 4), 2)), lambda: time_averaged(op, ((1, 4), 2), 7.5)):
        tails.clear()
        average()
        assert len(tails) == 1
    assert einsums == []


def _pair_grid_reference(op, start, table, pair, orbit):
    """roll(ifftn(G), n) / N^d with S[Delta, j, j'] = T[pair[j, j'], orbit[Delta]] materialised."""
    (cell, p), axes = start, tuple(range(op.d))
    coef = op.spectrum.eigenvectors[p, :] * op.spectrum.eigenvectors
    s = np.moveaxis(table[pair][..., orbit], -1, 0).astype(float)
    grid = np.einsum("bjk,qj,qk->bq", s, coef, coef)
    psi = np.fft.ifftn(grid.reshape(op.grid_shape + (op.nu,)), axes=axes)
    return np.roll(psi.real, cell, axis=axes).reshape(-1) / op.N**op.d


@pytest.mark.parametrize("d,N", [(1, 7), (2, 6)])
@pytest.mark.parametrize("nu", [1, 3, 7])
def test_pair_grid_tail_matches_the_three_operand_contraction(nu, d, N):
    rng = np.random.default_rng(nu * 10 + d)
    g = FiniteGraph(nu, frozenset((u, v) for u in range(nu) for v in range(u + 1, nu) if rng.random() < 0.6))
    op = build_torus(g, d=d, N=N)
    start = (tuple(rng.integers(0, N, d)), int(rng.integers(nu)))
    # one column per orbit of the signed axis permutations, so that the pair grid is even and its FFT real
    reps, orbit = np.unique(dynamics._canonical_offsets(N, d), return_inverse=True)
    assert 1 < reps.size < N**d
    # int32 counts per band pair, held transposed as the infinite-time average holds its table
    counts = rng.integers(0, 6, (reps.size, nu * nu)).astype(np.int32).T
    # float sums per band gap, with repeated gaps
    gap = rng.integers(0, max(1, nu - 1), (nu, nu))
    sums = rng.random((int(gap.max()) + 1, reps.size))
    for table, pair in ((counts, np.arange(nu * nu).reshape(nu, nu)), (sums, gap)):
        held = [table]
        got = dynamics._from_pair_grid(op, start, held, pair, orbit)
        assert held == []
        np.testing.assert_allclose(got, _pair_grid_reference(op, start, table, pair, orbit), rtol=0, atol=1e-12)


def test_limit_prediction_tiles_factor_density():
    g = build_named("cycle", [5])
    op = build_torus(g, d=1, N=8)
    pred = limit_prediction(op, ((0,), 1))
    row = limiting_density(g).values[1]
    np.testing.assert_allclose(pred.reshape(8, 5), np.tile(row / 8, (8, 1)), atol=1e-14)
    assert pred.sum() == pytest.approx(1.0, abs=1e-12)


def test_prediction_gap_closes_with_torus_size():
    g = build_named("cycle", [3])
    gaps = []
    for n in (32, 64):
        op = build_torus(g, d=1, N=n)
        dist = infinite_time_averaged(op, ((0,), 0))
        gap = total_variation(dist, limit_prediction(op, ((0,), 0)))
        # finite-N correction of the cycle factor: TV = 2 (N - 2) / N^2
        assert gap == pytest.approx(2.0 * (n - 2) / n**2, abs=1e-9)
        gaps.append(gap)
    assert gaps[1] < gaps[0]


def test_total_variation():
    assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    with pytest.raises(ValueError):
        total_variation(np.zeros(3), np.zeros(4))
    op = build_torus(build_named("path", [2]), d=1, N=4)
    a = time_averaged(op, ((0,), 0), 5.0)
    b = infinite_time_averaged(op, ((0,), 0))
    assert 0.0 <= total_variation(a, b) <= 1.0


def test_infinite_average_count_budget_rejects_before_allocating():
    # K64 at the state budget would need 64 nu N^d = 2^26 counts, 256 MB of int32
    g = build_named("complete", [64])
    op = build_torus(g, d=1, N=2**14)
    assert op.dim == dynamics.STATE_BUDGET
    assert g.nu * op.dim > PAIR_COUNT_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="budget"):
            infinite_time_averaged(op, ((0,), 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10  # not even the sort of the 2^20 eigenvalues ran
    # the largest torus the average is known to run, C3 on a 512 x 512 torus, fits
    assert 3 * 3 * 512**2 <= PAIR_COUNT_BUDGET


def test_infinite_average_count_budget_boundary(monkeypatch):
    g = build_named("cycle", [3])
    monkeypatch.setattr(floquet, "PAIR_COUNT_BUDGET", 9 * 8**2)
    op = build_torus(g, d=2, N=8)
    dist = infinite_time_averaged(op, ((1, 2), 0))
    assert dist.values.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError, match="budget"):
        infinite_time_averaged(build_torus(g, d=2, N=9), ((1, 2), 0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_torus_rejects_invalid_cluster_tolerance(tol):
    g = build_named("cycle", [3])
    with pytest.raises(ParameterError, match="tolerance"):
        build_torus(g, d=1, N=8, tol=tol)
    with pytest.raises(ParameterError, match="tolerance"):
        infinite_time_averaged(build_torus(g, d=1, N=8), ((0,), 0), cluster_tol=tol)


def test_distribution_checks_fail_on_nan():
    op = build_torus(build_named("path", [2]), d=1, N=4)
    start = ((0,), 0)
    values = np.full(op.dim, 1.0 / op.dim)
    values[3] = np.nan
    with pytest.raises(NumericalError):
        dynamics.TimeAveragedDistribution(values=values, N=4, d=1, nu=2)
    with pytest.raises(NumericalError, match="negative"):
        dynamics._finalize_distribution(op, values)
    table = np.ones((1, 4))
    table[0, 1] = np.nan
    with pytest.raises(NumericalError, match="not real"):
        dynamics._from_pair_grid(op, start, [table], np.zeros((2, 2), dtype=int), slice(None))
