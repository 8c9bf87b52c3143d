import numpy as np
import pytest

from crystalwalk import (
    BandStructure,
    BaseLattice,
    EigenSolverError,
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
    projection_kernels,
)
from crystalwalk.spectral import DensityMatrix, cluster_gap, squared_projection_sum


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
    bands = BandStructure(BaseLattice.zd(1), spectrum, ProductKind.TENSOR)
    assert flat_band_check(bands) == ([] if above else [0, 1])


@pytest.mark.parametrize(
    "ends",
    [[1, 3, 5], [1, 3], [1, 1, 4], [3, 1, 4], [[1, 3, 4]]],
    ids=["overshoot", "short", "repeated", "decreasing", "two-dimensional"],
)
def test_decomposition_rejects_bad_cluster_ends(ends):
    vals, vecs = np.linalg.eigh(build_named("cycle", [4]).adjacency)  # -2, 0, 0, 2
    dec = SpectralDecomposition(vals, vecs, [1, 3, 4])
    assert dec.clusters == (range(0, 1), range(1, 3), range(3, 4))
    with pytest.raises(ValueError, match="cluster ends"):
        SpectralDecomposition(vals, vecs, ends)


def test_eigendecompose_p2():
    dec = eigendecompose_symmetric(build_named("path", [2]).adjacency)
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert dec.distinct_count == 2


def test_eigendecompose_c5_clusters():
    dec = eigendecompose_symmetric(build_named("cycle", [5]).adjacency)
    assert [dec.multiplicity(s) for s in range(dec.distinct_count)] == [2, 2, 1]
    golden = 2.0 * np.cos(2.0 * np.pi * np.array([2, 1, 0]) / 5)
    np.testing.assert_allclose(dec.cluster_values, golden, atol=1e-12)


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
    kernels = projection_kernels(dec)
    # top eigenvalue 2 has the constant eigenvector
    np.testing.assert_allclose(kernels[-1].matrix, np.full((5, 5), 0.2), atol=1e-12)
    dec = eigendecompose_symmetric(build_named("star", [3]).adjacency)
    zero = projection_kernels(dec)[1]
    assert zero.eigenvalue == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(np.diag(zero.matrix), [2 / 3, 2 / 3, 2 / 3, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "family,params",
    [("cycle", [6]), ("path", [5]), ("star", [4]), ("hypercube", [3]), ("petersen", [])],
)
def test_projection_invariants(family, params):
    dec = eigendecompose_symmetric(build_named(family, params).adjacency)
    kernels = projection_kernels(dec)
    nu = dec.nu
    total = np.zeros((nu, nu))
    for i, k in enumerate(kernels):
        assert np.abs(k.matrix @ k.matrix - k.matrix).max() <= 1e-10
        assert abs(np.trace(k.matrix) - k.multiplicity) <= 1e-8
        total += k.matrix
        for other in kernels[i + 1 :]:
            assert np.abs(k.matrix @ other.matrix).max() <= 1e-10
    assert np.abs(total - np.eye(nu)).max() <= 1e-10


def test_limiting_density_petersen_golden():
    g = build_named("petersen")
    d = limiting_density(g).values
    for p in range(10):
        assert d[p, p] == pytest.approx(21 / 50, abs=1e-9)
        for q in range(10):
            if q == p:
                continue
            want = 49 / 450 if g.has_edge(p, q) else 19 / 450
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
    dec = SpectralDecomposition(
        eigenvalues=np.array([val for val, vecs in groups for _ in vecs]),
        eigenvectors=np.column_stack([w for _, vecs in groups for w in vecs]),
        ends=np.cumsum([len(vecs) for _, vecs in groups]),
    )
    dec.validate()
    return dec


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
    [[1] * 9, [9], [1, 3, 1, 1, 2, 1], [1]],
    ids=["singletons", "one-cluster", "mixed", "n=1"],
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


def test_analytic_spectrum_path_values():
    dec = analytic_spectrum("path", [6])
    want = np.sort(2.0 * np.cos(np.pi * np.arange(1, 7) / 7))
    np.testing.assert_allclose(dec.eigenvalues, want, atol=1e-12)
    assert all(len(c) == 1 for c in dec.clusters)


def test_analytic_spectrum_hypercube_multiplicities():
    dec = analytic_spectrum("hypercube", [4])
    assert [len(c) for c in dec.clusters] == [1, 4, 6, 4, 1]
    np.testing.assert_allclose(dec.cluster_values, [-4.0, -2.0, 0.0, 2.0, 4.0], atol=0)


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
        limiting_density(build_named("cycle", [4]), tol)


@pytest.mark.parametrize(
    "values",
    [np.full((2, 2), np.nan), np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[0.5, 0.5], [0.5, np.nan]])],
)
def test_density_matrix_rejects_nan(values):
    with pytest.raises(NumericalError):
        DensityMatrix(values=values, source="numeric")
