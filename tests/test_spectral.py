import ast
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import crystalwalk
from crystalwalk import (
    BandStructure,
    EigenSolverError,
    FiniteGraph,
    NumericalError,
    ParameterError,
    ProductKind,
    SpectralDecomposition,
    build_named,
    cluster_eigenvalues,
    density_from_decomposition,
    eigendecompose_symmetric,
    flat_band_check,
    from_edge_list,
    limiting_density,
    zd_product_spec,
)
from crystalwalk.closed_forms import d_cycle_exact
from crystalwalk import spectral
from crystalwalk.spectral import (
    DensityMatrix,
    _cluster_splits,
    _pair_max,
    _within,
    cluster_gap,
    squared_projection_sum,
)


def random_graph_text(rng, max_nu=32):
    """Random connected-ish edge list; at least one edge, indices < max_nu."""
    nu = int(rng.integers(2, max_nu + 1))
    lines = []
    seen = set()
    for _ in range(int(rng.integers(1, 3 * nu))):
        u = int(rng.integers(0, nu))
        v = int(rng.integers(0, nu))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in seen:
            continue
        seen.add(e)
        lines.append(f"{e[0]} {e[1]}")
    if not lines:
        lines = ["0 1"]
    return "\n".join(lines)


def projections(dec):
    """P_s = V_s V_s^T for each cluster s of a decomposition."""
    v = dec.eigenvectors
    return [v[:, g.start : g.stop] @ v[:, g.start : g.stop].T for g in dec.clusters]


def cluster_values(dec):
    """Mean eigenvalue of each cluster."""
    return np.array([dec.eigenvalues[g.start : g.stop].mean() for g in dec.clusters])


def test_cluster_eigenvalues_groups_degeneracies():
    vals = np.array([-1.0, -1.0 + 1e-12, 0.5, 2.0])
    groups = cluster_eigenvalues(vals, tol=1e-8)
    assert groups.tolist() == [2, 3, 4]


def test_cluster_eigenvalues_scales_with_radius():
    # gap threshold is tol * max(1, spectral radius)
    vals = np.array([0.0, 5e-7, 100.0])
    groups = cluster_eigenvalues(vals, tol=1e-8)
    assert groups.tolist() == [2, 3]
    vals = np.array([0.0, 5e-7, 1.0])
    groups = cluster_eigenvalues(vals, tol=1e-8)
    assert groups.tolist() == [1, 2, 3]


def test_cluster_eigenvalues_requires_ascending():
    with pytest.raises(ValueError, match="ascending"):
        cluster_eigenvalues(np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_clustering_refuses_non_finite_values(bad, at):
    # a NaN step fails every comparison and an infinite value makes an infinite gap, so both once made one cluster
    values = np.array([0.0, 1.0, 2.0])
    values[at] = bad
    with pytest.raises(ValueError, match="^values must be finite"):
        cluster_eigenvalues(values)
    with pytest.raises(ValueError, match="^values must be finite"):
        cluster_gap(values)
    with pytest.raises(ValueError, match="^values must be finite"):
        cluster_gap(np.stack([np.zeros(3), values]))


def test_cluster_gap_of_one_array_is_a_float():
    gap = cluster_gap(np.array([0.0, 2.0]))
    assert type(gap) is float and gap == 2e-8
    assert cluster_gap(np.array([[0.0, 2.0], [0.0, 0.5]])).tolist() == [2e-8, 1e-8]


@pytest.mark.parametrize("above", [False, True], ids=["at-gap", "one-ulp-above"])
def test_one_rule_decides_at_the_gap(above):
    # gap g = tol * max(1, max|value|) with the default tol and values reaching 3
    g = 1e-8 * 3.0
    step = np.nextafter(g, np.inf) if above else g
    v = np.array([0.0, step, 3.0])
    assert cluster_gap(v) == g
    assert cluster_eigenvalues(v).tolist() == ([1, 2, 3] if above else [2, 3])
    dec = eigendecompose_symmetric(np.diag(v))
    assert np.array_equal(dec.eigenvalues, v)  # eigh returns a diagonal exactly
    assert [len(c) for c in dec.clusters] == ([1, 1, 1] if above else [2, 1])
    mu = np.array([-step, step, 3.0])
    spectrum = eigendecompose_symmetric(np.diag(mu))
    assert np.array_equal(spectrum.eigenvalues, mu)
    bands = BandStructure(zd_product_spec(FiniteGraph(1)), spectrum, ProductKind.TENSOR)
    assert flat_band_check(bands) == ([] if above else [0, 1])


_BAD_ENDS = pytest.mark.parametrize(
    "ends",
    [[1, 3, 5], [1, 3], [1, 1, 4], [3, 1, 4], [[1, 3, 4]], [1.0, 3.0, 4.0], [1.7, 3.2, 4.0]],
    ids=["overshoot", "short", "repeated", "decreasing", "two-dimensional", "float", "fractional"],
)


@_BAD_ENDS
def test_decomposition_rejects_bad_cluster_ends(ends):
    vals, vecs = np.linalg.eigh(build_named("cycle", [4]).adjacency)  # -2, 0, 0, 2
    dec = SpectralDecomposition(vals, vecs, [1, 3, 4])
    assert dec.clusters == (range(0, 1), range(1, 3), range(3, 4))
    with pytest.raises(ValueError, match="cluster ends"):
        SpectralDecomposition(vals, vecs, ends)


def test_empty_decomposition_takes_an_empty_list_of_ends():
    # np.asarray([]) is float64, which ends of integer dtype would otherwise refuse
    dec = SpectralDecomposition(np.zeros(0), np.zeros((0, 0)), [])
    assert dec.ends.dtype == np.intp and dec.clusters == ()


@_BAD_ENDS
def test_squared_projection_sum_rejects_bad_cluster_ends(ends):
    vecs = np.linalg.eigh(build_named("cycle", [4]).adjacency)[1]  # clusters [1, 3, 4]
    np.testing.assert_allclose(squared_projection_sum(vecs, np.array([1, 3, 4])).sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="^cluster ends must rise strictly to the eigenvalue count$"):
        squared_projection_sum(vecs, np.array(ends))


def test_eigendecompose_p2():
    dec = eigendecompose_symmetric(build_named("path", [2]).adjacency)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert len(dec.clusters) == 2


def test_eigendecompose_c5_clusters():
    dec = eigendecompose_symmetric(build_named("cycle", [5]).adjacency)
    assert [len(c) for c in dec.clusters] == [2, 2, 1]
    golden = 2.0 * np.cos(2.0 * np.pi * np.array([2, 1, 0]) / 5)
    np.testing.assert_allclose(cluster_values(dec), golden, atol=1e-12)


def test_eigendecompose_star3():
    dec = eigendecompose_symmetric(build_named("star", [3]).adjacency)
    root = np.sqrt(3.0)
    np.testing.assert_allclose(dec.eigenvalues, [-root, 0.0, 0.0, root], atol=1e-12)
    assert [len(c) for c in dec.clusters] == [1, 2, 1]


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        eigendecompose_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        eigendecompose_symmetric(np.zeros((2, 3)))
    # the contract is named, not numpy's zero-size reduction error
    with pytest.raises(ValueError, match="square and nonempty"):
        eigendecompose_symmetric(np.zeros((0, 0)))


def test_eigendecompose_rejects_nan(monkeypatch):
    with pytest.raises(ValueError, match="symmetric"):
        eigendecompose_symmetric(np.array([[np.nan]]))
    # a solver returning NaN must fail the reconstruction check
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([np.nan]), np.eye(1)))
    with pytest.raises(EigenSolverError, match="reconstruct"):
        eigendecompose_symmetric(np.array([[1.0]]))


def test_validate_rejects_nan():
    # a decomposition checks its columns when it is built, so none with NaN or skewed columns exists
    for vecs in ([[1.0, 0.0], [0.0, np.nan]], [[1.0, 0.0], [1e-9, 1.0]]):
        with pytest.raises(NumericalError, match="^eigenvectors not orthonormal: deviation "):
            SpectralDecomposition(eigenvalues=np.zeros(2), eigenvectors=np.array(vecs), ends=np.array([2]))
    SpectralDecomposition(eigenvalues=np.zeros(2), eigenvectors=np.eye(2), ends=np.array([2]))


def test_eigendecompose_reconstructs_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        m = rng.normal(size=(n, n))
        m = m + m.T
        dec = eigendecompose_symmetric(m)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.abs(m - recon).max() <= 1e-9 * max(1.0, np.abs(m).max())
        assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_projection_kernel_values():
    dec = eigendecompose_symmetric(build_named("cycle", [5]).adjacency)
    # top eigenvalue 2 has the constant eigenvector
    np.testing.assert_allclose(projections(dec)[-1], np.full((5, 5), 0.2), atol=1e-12)
    dec = eigendecompose_symmetric(build_named("star", [3]).adjacency)
    assert cluster_values(dec)[1] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(np.diag(projections(dec)[1]), [2 / 3, 2 / 3, 2 / 3, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "family,params",
    [("cycle", [6]), ("path", [5]), ("star", [4]), ("hypercube", [3]), ("petersen", [])],
)
def test_projection_invariants(family, params):
    dec = eigendecompose_symmetric(build_named(family, params).adjacency)
    kernels = projections(dec)
    nu = dec.nu
    total = np.zeros((nu, nu))
    for i, (k, group) in enumerate(zip(kernels, dec.clusters)):
        assert np.abs(k @ k - k).max() <= 1e-10
        assert abs(np.trace(k) - len(group)) <= 1e-8
        total += k
        for other in kernels[i + 1 :]:
            assert np.abs(k @ other).max() <= 1e-10
    assert np.abs(total - np.eye(nu)).max() <= 1e-10


def test_limiting_density_petersen_golden():
    g = build_named("petersen")
    d = limiting_density(g).values
    for p in range(10):
        assert d[p, p] == pytest.approx(21 / 50, abs=1e-9)
        for q in range(10):
            if q == p:
                continue
            want = 49 / 450 if g.adjacency[p, q] else 19 / 450
            assert d[p, q] == pytest.approx(want, abs=1e-9)


def test_limiting_density_complete_diagonals():
    for nu, want in [(4, 5 / 8), (5, 17 / 25), (100, 0.9802)]:
        d = limiting_density(build_named("complete", [nu])).values
        assert d[0, 0] == pytest.approx(want, abs=1e-9)


def test_limiting_density_complete_bipartite_diagonals():
    # diagonal = 2/(4n^2) + (1 - 1/n)^2 for balanced parts
    for n, want in [(4, 0.59375), (5, 0.66), (100, 0.98015)]:
        d = limiting_density(build_named("complete_bipartite", [n, n])).values
        assert d[0, 0] == pytest.approx(want, abs=1e-9)


def test_limiting_density_star_leaf_mass():
    d = limiting_density(build_named("star", [10])).values
    assert d[0, 0] == pytest.approx(0.815, abs=1e-9)


def test_cycle_density_translation_invariant():
    d = limiting_density(build_named("cycle", [7])).values
    for p in range(7):
        for q in range(7):
            assert d[p, q] == pytest.approx(d[0, (q - p) % 7], abs=1e-12)


def test_density_matrix_basic_properties():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = from_edge_list(random_graph_text(rng))
        d = limiting_density(g)
        v = d.values
        assert np.abs(v - v.T).max() <= 1e-10
        assert v.min() >= -1e-12 and v.max() <= 1.0 + 1e-12
        assert np.abs(v.sum(axis=1) - 1.0).max() <= 1e-10


def test_edgeless_graph_density_is_identity():
    from crystalwalk import FiniteGraph

    d = limiting_density(FiniteGraph(3, frozenset()))
    np.testing.assert_allclose(d.values, np.eye(3), atol=1e-12)


def _cycle_real_basis(nu, size):
    """Real orthonormal cosine/sine eigenbasis of the nu-cycle, grouped by eigenvalue.

    Vectors are typed over ``size`` coordinates with the cycle occupying the
    first nu entries (used directly for cycles and reused, minus the constant
    vector, for the star's zero eigenspace on the leaves).
    """
    k = np.arange(nu)
    groups = []
    const = np.zeros(size)
    const[:nu] = 1.0 / np.sqrt(nu)
    groups.append((2.0, [const]))
    for r in range(1, (nu - 1) // 2 + 1):
        c = np.zeros(size)
        s = np.zeros(size)
        c[:nu] = np.sqrt(2.0 / nu) * np.cos(2.0 * np.pi * r * k / nu)
        s[:nu] = np.sqrt(2.0 / nu) * np.sin(2.0 * np.pi * r * k / nu)
        groups.append((2.0 * np.cos(2.0 * np.pi * r / nu), [c, s]))
    if nu % 2 == 0:
        alt = np.zeros(size)
        alt[:nu] = np.where(k % 2 == 0, 1.0, -1.0) / np.sqrt(nu)
        groups.append((-2.0, [alt]))
    return groups


def _analytic_groups(family, params):
    if family == "cycle":
        nu = build_named(family, params).nu
        return _cycle_real_basis(nu, nu)
    if family == "path":
        nu = build_named(family, params).nu
        j = np.arange(1, nu + 1)
        i = np.arange(1, nu + 1)
        groups = []
        for jj in j:
            w = np.sqrt(2.0 / (nu + 1)) * np.sin(np.pi * jj * i / (nu + 1))
            groups.append((2.0 * np.cos(np.pi * jj / (nu + 1)), [w]))
        return groups
    if family == "star":
        nu = build_named(family, params).nu - 1  # leaf count
        size = nu + 1
        root = np.sqrt(float(nu))
        plus = np.full(size, 1.0 / np.sqrt(2.0 * nu))
        plus[nu] = 1.0 / np.sqrt(2.0)
        minus = np.full(size, -1.0 / np.sqrt(2.0 * nu))
        minus[nu] = 1.0 / np.sqrt(2.0)
        groups = [(-root, [minus]), (root, [plus])]
        if nu >= 2:
            # Zero eigenspace: mean-zero vectors on the leaves, zero at the
            # center. The non-constant cycle vectors on nu points (every group
            # past the constant one) supply an orthonormal basis for it.
            zero_vectors = [w for _, vecs in _cycle_real_basis(nu, size)[1:] for w in vecs]
            groups.append((0.0, zero_vectors))
        return groups
    if family == "hypercube":
        nu = build_named(family, params).nu
        m = nu.bit_length() - 1
        scale = 2.0 ** (-m / 2.0)
        x = np.arange(nu)
        groups = []
        for k in range(m + 1):
            vecs = []
            for r in range(nu):
                if bin(r).count("1") != k:
                    continue
                signs = np.array([(-1) ** bin(r & xx).count("1") for xx in x], dtype=float)
                vecs.append(scale * signs)
            groups.append((float(m - 2 * k), vecs))
        return groups
    raise ParameterError(f"no analytic spectrum for family {family!r}")


def analytic_spectrum(family, params=()):
    """Exact eigendecomposition of a cycle, path, star, or hypercube.

    Eigenvalues come from the closed forms (2cos(2 pi r / nu) for cycles,
    2cos(pi j / (nu + 1)) for paths, {-sqrt(nu), 0, sqrt(nu)} for stars,
    m - 2k for hypercubes), eigenvectors from the matching Fourier, sine,
    and character bases. Clusters reflect the exact multiplicities.
    """
    groups = sorted(_analytic_groups(family, params), key=lambda g: g[0])
    return SpectralDecomposition(
        eigenvalues=np.array([val for val, vecs in groups for _ in vecs]),
        eigenvectors=np.column_stack([w for _, vecs in groups for w in vecs]),
        ends=np.cumsum([len(vecs) for _, vecs in groups]),
    )


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", [5]),
        ("cycle", [8]),
        ("path", [2]),
        ("path", [7]),
        ("star", [1]),
        ("star", [9]),
        ("hypercube", [4]),
    ],
)
def test_analytic_spectrum_matches_numeric(family, params):
    g = build_named(family, params)
    exact = analytic_spectrum(family, params)
    numeric = eigendecompose_symmetric(g.adjacency)
    np.testing.assert_allclose(exact.eigenvalues, numeric.eigenvalues, atol=1e-9)
    assert [len(c) for c in exact.clusters] == [len(c) for c in numeric.clusters]
    # exact eigenvectors diagonalize the adjacency matrix
    v = exact.eigenvectors
    recon = (v * exact.eigenvalues) @ v.T
    assert np.abs(g.adjacency - recon).max() <= 1e-9
    # independent route to the density agrees with the numeric one
    da = density_from_decomposition(exact).values
    dn = limiting_density(g).values
    assert np.abs(da - dn).max() <= 1e-9


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize(
    "sizes",
    [
        [1] * 9, [9], [1, 3, 1, 1, 2, 1], [1], [2] * 8, [1, _pair_max(10), _pair_max(10) + 1, 2], [4],
        [_pair_max(51)] * 12 + [3], [12] * 40,
    ],
    ids=[
        "singletons", "one-cluster", "mixed", "n=1", "pairs", "both-sides-of-pair-max", "one-block",
        "more-pairs-than-columns", "large-pair-clusters",
    ],
)
def test_squared_projection_sum_matches_per_cluster_sum(dtype, sizes):
    rng = np.random.default_rng(11)
    n = sum(sizes)
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(a)
    bounds = np.cumsum([0] + sizes)
    clusters = [tuple(range(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    want = np.zeros((n, n))
    for g in clusters:
        p = v[:, g] @ v[:, g].conj().T
        want += p.real**2 + p.imag**2
    got = squared_projection_sum(v, bounds[1:])
    assert got.dtype == np.float64 and got.shape == (n, n)
    assert np.abs(got - want).max() <= 1e-13


@pytest.mark.parametrize("dtype", [float, complex])
def test_squared_projection_sum_of_a_stack_is_each_matrix_bit_for_bit(dtype):
    rng = np.random.default_rng(12)
    n = 52
    m = _pair_max(n)
    a = rng.standard_normal((5, n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((5, n, n))
    v, _ = np.linalg.qr(a)
    for sizes in ([1] * n, [1, 3, 1, 2, 2] + [1] * (n - 9), [2] * (n // 2), [1, m + 1, 2] + [1] * (n - m - 4),
                  [m] * (n // m), [n]):
        ends = np.cumsum(sizes)
        got = squared_projection_sum(v, ends)
        assert got.shape == (5, n, n)
        assert np.array_equal(got, np.stack([squared_projection_sum(m, ends) for m in v]))


def test_pair_gemm_memory_stays_within_a_few_projections(monkeypatch):
    # 12 disjoint copies of one 40-vertex graph: 40 clusters of 12, 2640 in-cluster
    # pairs on 480 columns, all of them through the pair GEMM
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((40, 40)) < 0.3, 1)
    base = [(int(u), int(v)) for u, v in zip(*np.nonzero(upper))]
    graph = FiniteGraph(480, [(u + 40 * k, v + 40 * k) for k in range(12) for u, v in base])
    dec = eigendecompose_symmetric(graph.adjacency)
    assert {len(c) for c in dec.clusters} == {12} and len(dec.clusters) == 40 and 12 <= _pair_max(480)
    vecs = np.array(dec.eigenvectors)
    tracemalloc.start()
    try:
        got = squared_projection_sum(vecs, dec.ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * vecs.nbytes  # d and at most three n x n temporaries, as the block loop
    monkeypatch.setattr(spectral, "_pair_max", lambda n: 1)  # every cluster through the block loop
    assert np.abs(got - squared_projection_sum(vecs, dec.ends)).max() <= 1e-13


def test_limiting_density_of_a_long_cycle_matches_closed_form():
    # 299 clusters of two: every one of them goes through the pair GEMM
    nu = 600
    row = np.array([float(d_cycle_exact(nu, 0, q)) for q in range(nu)])
    want = row[(np.arange(nu)[None, :] - np.arange(nu)[:, None]) % nu]
    got = limiting_density(build_named("cycle", [nu])).values
    assert np.abs(got - want).max() <= 1e-12


def test_cluster_splits_use_each_row_gap():
    # the same steps split or join by each row's own gap, tol * max(1, max|value|)
    rows = np.array([[0.0, 4e-8, 1.0], [0.0, 4e-8, 5.0], [-6.0, -6.0 + 5e-8, 0.0]])
    np.testing.assert_array_equal(cluster_gap(rows), [1e-8, 1e-8 * 5.0, 1e-8 * 6.0])
    split = _cluster_splits(rows, 1e-8)
    assert split.tolist() == [[True, True], [False, True], [False, True]]
    for row, s in zip(rows, split):
        assert cluster_eigenvalues(row).tolist() == (np.flatnonzero(s) + 1).tolist() + [3]
    with pytest.raises(ValueError, match="ascending"):
        _cluster_splits(rows[:, ::-1], 1e-8)


@pytest.mark.parametrize("tol", [2.0, 1e3, 1e308, np.finfo(float).max])
def test_tolerances_above_two_join_every_row_and_stay_finite(tol):
    rows = np.array([[-5.0, 0.0, 5.0], [-0.5, 0.0, 0.5], [-1e300, 0.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # tol * max|value| would overflow past 2
        gap = cluster_gap(rows, tol)
        split = _cluster_splits(rows, tol)
    np.testing.assert_array_equal(gap, [10.0, 2.0, 2e300])
    assert not split.any()
    assert cluster_eigenvalues(rows[0], tol).tolist() == [3]


def test_analytic_spectrum_path_values():
    dec = analytic_spectrum("path", [6])
    want = np.sort(2.0 * np.cos(np.pi * np.arange(1, 7) / 7))
    np.testing.assert_allclose(dec.eigenvalues, want, atol=1e-12)
    assert all(len(c) == 1 for c in dec.clusters)


def test_analytic_spectrum_hypercube_multiplicities():
    dec = analytic_spectrum("hypercube", [4])
    assert [len(c) for c in dec.clusters] == [1, 4, 6, 4, 1]
    np.testing.assert_allclose(cluster_values(dec), [-4.0, -2.0, 0.0, 2.0, 4.0], atol=0)


def test_analytic_spectrum_rejects_unknown():
    with pytest.raises(ParameterError):
        analytic_spectrum("petersen", [])
    with pytest.raises(ParameterError):
        analytic_spectrum("cycle", [])
    with pytest.raises(ParameterError):
        analytic_spectrum("hypercube", [0])


def test_numerical_error_hierarchy():
    assert issubclass(EigenSolverError, NumericalError)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_invalid_cluster_tolerance_is_rejected(tol):
    with pytest.raises(ParameterError, match="tolerance"):
        cluster_gap(np.array([0.0, 1.0]), tol)
    with pytest.raises(ParameterError, match="tolerance"):
        cluster_eigenvalues(np.array([-2.0, 0.0, 0.0, 2.0]), tol)
    with pytest.raises(ParameterError, match="tolerance"):
        cluster_eigenvalues(np.zeros(0), tol)
    with pytest.raises(ParameterError, match="tolerance"):
        limiting_density(build_named("cycle", [4]), tol)


@pytest.mark.parametrize(
    "values",
    [np.full((2, 2), np.nan), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[0.5, 0.5], [0.5, np.nan]])],
)
def test_density_matrix_rejects_nan(values):
    with pytest.raises(NumericalError):
        DensityMatrix(values=values, source="numeric")


def test_empty_spectrum_clusters_to_nothing():
    assert cluster_gap(np.zeros(0), 1e-8) == 1e-8
    assert cluster_eigenvalues(np.zeros(0)).tolist() == []


def test_within_is_at_most_and_fails_on_nan():
    tol = 1e-10
    _within(tol, tol, "residual")
    _within(np.float64(0.0), tol, "residual")
    _within(-1.0, 0.0, "residual")
    for err in (np.nan, np.float64(np.nan), np.inf, np.nextafter(tol, np.inf)):
        with pytest.raises(NumericalError, match="^residual: deviation "):
            _within(err, tol, "residual")
    with pytest.raises(EigenSolverError, match="^residual: deviation 2.000e-10$"):
        _within(2e-10, tol, "residual", EigenSolverError)


def _checks_outside_within(tree):
    """Residual comparisons and NumericalError raises outside spectral._within.

    Returns (offending line numbers, raises inside ``except LinAlgError``).
    """
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_within":
            allowed.update(map(id, ast.walk(node)))
    translations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and "LinAlgError" in ast.unparse(node.type):
            translations += [n for n in ast.walk(node) if isinstance(n, ast.Raise)]
    allowed.update(map(id, translations))
    bad = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) in ("NumericalError", "EigenSolverError"):
                bad.append(node.lineno)
        if isinstance(node, ast.Compare):
            names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
            if any(n.startswith("_") and n.endswith(("_TOL", "_REL")) for n in names):
                bad.append(node.lineno)
    return bad, len(translations)


def test_every_tolerance_check_goes_through_within():
    src = Path(crystalwalk.__file__).parent
    bad, translations = {}, 0
    for path in sorted(src.glob("*.py")):
        lines, n = _checks_outside_within(ast.parse(path.read_text()))
        translations += n
        if lines:
            bad[path.name] = lines
    assert bad == {}
    assert translations == 2  # the eigh failures in spectral and floquet, which are not residuals


def test_arrays_are_frozen_with_setflags():
    """Assigning ``flags.writeable`` leaves an object per array in tracemalloc's count; ``setflags`` leaves none."""
    src = Path(crystalwalk.__file__).parent
    bad = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(ast.unparse(t).endswith("flags.writeable") for t in node.targets):
                bad.setdefault(path.name, []).append(node.lineno)
    assert bad == {}


def _setattrs_outside_store(tree):
    """Lines of ``object.__setattr__`` calls outside graphs._store, and how many it holds itself."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_store":
            inside.update(map(id, ast.walk(node)))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n.func) == "object.__setattr__"]
    return [n.lineno for n in calls if id(n) not in inside], sum(id(n) in inside for n in calls)


def test_records_set_their_fields_only_through_store():
    sample = "def _store(r, **f):\n    object.__setattr__(r, 'a', 1)\nobject.__setattr__(r, 'b', 2)\n"
    assert _setattrs_outside_store(ast.parse(sample)) == ([3], 1)
    src = Path(crystalwalk.__file__).parent
    bad, stores = {}, 0
    for path in sorted(src.glob("*.py")):
        lines, n = _setattrs_outside_store(ast.parse(path.read_text()))
        stores += n
        if lines:
            bad[path.name] = lines
    assert bad == {}
    assert stores == 1


def _private_defs(trees):
    """Private (not dunder) function and class definitions of ``trees``."""
    return [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
            and not node.name.endswith("__")]


def _private_defs_without_a_caller(trees):
    """Names of private functions and classes that no code of ``trees`` refers to outside their own definition."""
    used = [name for tree in trees for name in _referenced_names(tree)]
    return sorted(d.name for d in _private_defs(trees) if used.count(d.name) == list(_referenced_names(d)).count(d.name))


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper kept alive only by a test is dead code; recursion does not count as a caller
    sample = "def _a():\n    return 1\ndef _b():\n    return _b()\nclass _C:\n    pass\nx = _a()\n"
    assert _private_defs_without_a_caller([ast.parse(sample)]) == ["_C", "_b"]
    src = Path(crystalwalk.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    assert len(_private_defs(trees)) > 40
    assert _private_defs_without_a_caller(trees) == []


def _referenced_names(tree):
    """Identifiers a module uses: loaded names, attributes, imports and string constants.

    Definitions (stored names, def and class names) and the module's own
    ``__all__`` list do not count. String constants count because a caller
    may look a function up by name, as ``bench/spans.py`` does.
    """
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_exported_name_has_a_caller():
    # a caller is the package itself, the benchmark or the README; tests do not count
    root = Path(__file__).resolve().parents[1]
    sources = [p for p in sorted((root / "src" / "crystalwalk").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((root / "bench").glob("*.py"))
    used = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in sources:
        used.update(_referenced_names(ast.parse(path.read_text())))
    assert sorted(set(crystalwalk.__all__) - used) == []


def test_package_exports_each_module_list_once():
    modules = [crystalwalk.graphs, crystalwalk.spectral, crystalwalk.closed_forms,
               crystalwalk.floquet, crystalwalk.dynamics, crystalwalk.classical]
    want = ["__version__"] + [name for m in modules for name in m.__all__]
    assert crystalwalk.__all__ == want
    assert len(set(want)) == len(want)
    for m in modules:
        for name in m.__all__:
            assert getattr(crystalwalk, name) is getattr(m, name), name
