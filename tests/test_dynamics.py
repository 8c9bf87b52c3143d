import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from crystalwalk import (
    PAIR_SUM_LIMIT,
    NumericalError,
    ParameterError,
    apply_adjacency,
    build_named,
    build_torus,
    cluster_eigenvalues,
    d_cycle,
    dynamics,
    evolve,
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
    assert np.array_equal(op.base_grid[1], op.base_grid[9])


def test_evolve_zero_time_is_delta():
    op = build_torus(build_named("cycle", [5]), d=1, N=5)
    psi = evolve(op, ((2,), 1), 0.0)
    want = np.zeros(25, dtype=complex)
    want[flat_index((2,), 1, 5, 5)] = 1.0
    np.testing.assert_allclose(psi, want, atol=1e-12)


def test_evolve_matches_matrix_exponential_d1():
    g = build_named("path", [3])
    op = build_torus(g, d=1, N=4)
    m = dense_product_adjacency(g, 1, 4)
    start = np.zeros(12)
    start[flat_index((1,), 2, 4, 3)] = 1.0
    for t in (0.6, 3.1, 12.0):
        want = scipy.linalg.expm(1j * t * m) @ start
        np.testing.assert_allclose(evolve(op, ((1,), 2), t), want, atol=1e-10)


def test_evolve_matches_matrix_exponential_d2():
    g = build_named("path", [2])
    op = build_torus(g, d=2, N=3)
    m = dense_product_adjacency(g, 2, 3)
    start = np.zeros(18)
    start[flat_index((2, 1), 0, 3, 2)] = 1.0
    want = scipy.linalg.expm(2.7j * m) @ start
    np.testing.assert_allclose(evolve(op, ((2, 1), 0), 2.7), want, atol=1e-10)


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


@pytest.mark.parametrize("d,N", [(1, 6), (2, 4)])
def test_apply_adjacency_matches_dense(d, N):
    g = build_named("star", [3])
    op = build_torus(g, d=d, N=N)
    m = dense_product_adjacency(g, d, N)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    np.testing.assert_allclose(apply_adjacency(op, x), m @ x, atol=1e-10)


def test_apply_adjacency_rejects_bad_shape():
    op = build_torus(build_named("path", [2]), d=1, N=4)
    with pytest.raises(ParameterError):
        apply_adjacency(op, np.zeros(7))


def test_time_averaged_tiny_horizon_is_delta():
    op = build_torus(build_named("path", [2]), d=1, N=4)
    dist = time_averaged(op, ((0,), 0), 1e-12)
    want = np.zeros(8)
    want[0] = 1.0
    np.testing.assert_allclose(dist.values, want, atol=1e-10)
    assert dist.horizon == 1e-12
    assert dist.start == ((0,), 0)


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
    masses = dist.cell_masses()
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


def test_time_averaged_at_the_pair_sum_limit():
    op = build_torus(build_named("path", [2]), d=1, N=2048)
    assert op.dim == PAIR_SUM_LIMIT
    dist = time_averaged(op, ((0,), 1), 300.0)
    assert dist.values.sum() == pytest.approx(1.0, abs=1e-10)
    # a walk started in cell 0 spreads symmetrically under k -> -k
    masses = dist.cell_masses()
    np.testing.assert_allclose(masses[1:], masses[:0:-1], rtol=0, atol=1e-15)


@pytest.mark.parametrize("horizon", [1e-3, 7.5, 1e4])
@pytest.mark.parametrize(
    "family,params,d,N,start",
    [
        ("cycle", [3], 2, 6, ((2, 5), 1)),
        ("complete_bipartite", [3, 1], 1, 12, ((4,), 3)),  # 2 cos(pi/6) = sqrt 3
        ("cycle", [4], 2, 6, ((1, 3), 2)),
        ("cycle", [3], 3, 3, ((0, 2, 1), 1)),
    ],
)
def test_time_averaged_matches_dense_eigenpairs(family, params, d, N, start, horizon):
    g = build_named(family, params)
    got = time_averaged(build_torus(g, d=d, N=N), start, horizon).values
    vals, vecs = np.linalg.eigh(dense_product_adjacency(g, d, N))
    row = vecs[flat_index(start[0], start[1], N, g.nu)]
    clusters = np.split(np.arange(vals.size), cluster_eigenvalues(vals)[:-1])
    x = np.stack([vecs[:, c] @ row[c] for c in clusters], axis=1)  # P_c e_start
    lam = np.array([vals[c].mean() for c in clusters])
    # the mean of e^(i t (lam_c - lam_c')) over [0, T] has real part sinc(T (lam_c - lam_c'))
    weights = np.sinc(horizon * (lam[:, None] - lam[None, :]) / np.pi)
    want = np.einsum("wc,ce,we->w", x, weights, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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


def test_infinite_average_cell_masses_are_cycle_density():
    # cells of the torus factor equilibrate to the N-cycle limiting density
    op = build_torus(build_named("cycle", [5]), d=1, N=25)
    dist = infinite_time_averaged(op, ((3,), 2))
    assert dist.horizon == math.inf
    want = np.array([d_cycle(25, 3, k) for k in range(25)])
    np.testing.assert_allclose(dist.cell_masses(), want, atol=1e-12)


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


def test_infinite_average_runs_one_inverse_fft(monkeypatch):
    # no cluster of this torus is past the pair-cost threshold (at N = 24 one is)
    op = build_torus(build_named("cycle", [3]), d=2, N=72)
    calls = []
    ifftn = np.fft.ifftn
    monkeypatch.setattr(np.fft, "ifftn", lambda *a, **k: calls.append(1) or ifftn(*a, **k))
    infinite_time_averaged(op, ((5, 61), 2))
    assert len(calls) == 1


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
        dynamics.TimeAveragedDistribution(values=values, horizon=1.0, start=start, N=4, d=1, nu=2)
    with pytest.raises(NumericalError, match="negative"):
        dynamics._finalize_distribution(op, start, values, 1.0)
    grid = np.ones((4, 2), dtype=complex)
    grid[1, 0] = complex(0.0, np.nan)
    with pytest.raises(NumericalError, match="not real"):
        dynamics._from_pair_grid(op, (0,), grid)
