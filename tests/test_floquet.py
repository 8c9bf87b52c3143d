import math
import tracemalloc

import numpy as np
import pytest

from crystalwalk import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_COLLISION_DELTA,
    DensityMatrix,
    EigenSolverError,
    FIBER_BUDGET,
    PAIR_COUNT_BUDGET,
    FiniteGraph,
    FloquetScanReport,
    NumericalError,
    ParameterError,
    ProductKind,
    build_floquet_matrix,
    build_named,
    closed_form_density,
    cluster_eigenvalues,
    flat_band_check,
    floquet_condition_fraction,
    general_density,
    honeycomb_spec,
    limiting_density,
    product_spec,
    triangular_spec,
    zd_product_spec,
)
from crystalwalk import floquet
from crystalwalk.graphs import PeriodicGraphSpec
from crystalwalk.spectral import squared_projection_sum


def zd_line_spec():
    """One-vertex integer lattice: H(theta) = 2 cos(2 pi theta)."""
    return PeriodicGraphSpec(d=1, nu=1, offset_edges=((0, 0, 1), (0, 0, -1)))


# the band rule E_j = rule(E_0, mu_j) of each product kind
_RULES = {
    ProductKind.CARTESIAN: lambda e0, mu: e0 + mu,
    ProductKind.TENSOR: lambda e0, mu: mu * e0,
    ProductKind.STRONG: lambda e0, mu: (1.0 + mu) * e0 + mu,
}


def zd_base(d=1):
    """One-vertex base Z^d."""
    return zd_product_spec(FiniteGraph(1), d)


def base_band(kind, theta):
    """Band function of a one-vertex base lattice at one quasimomentum theta.

    ``kind`` is this oracle's own label, "zd" or "triangular", so the
    formulas never read a spec's offsets. Z^d: 2 sum_i cos(2 pi theta_i).
    Triangular: 2cos(2 pi theta_1) + 2cos(2 pi theta_2) + 2cos(2 pi
    (theta_1 + theta_2)).
    """
    th = 2.0 * np.pi * np.atleast_1d(np.asarray(theta, dtype=float))
    if kind == "zd":
        return float(2.0 * np.cos(th).sum())
    assert kind == "triangular" and th.shape == (2,)
    return float(2.0 * (np.cos(th[0]) + np.cos(th[1]) + np.cos(th[0] + th[1])))


def product_bands(bands, theta, kind="zd"):
    """All nu band values at one theta, ordered like the factor eigenvalues.

    The band rules evaluated point by point over the base band of ``kind``:
    the independent oracle that ``build_floquet_matrix`` is checked against.
    """
    return _RULES[bands.rule](base_band(kind, theta), bands.spectrum.eigenvalues)


@pytest.mark.parametrize(
    "base,theta,want",
    [
        (("zd", zd_base(1)), 0.0, 2.0),
        (("zd", zd_base(1)), 0.5, -2.0),
        (("zd", zd_base(2)), (0.5, 0.0), 0.0),
        (("zd", zd_base(3)), (0.5, 0.5, 0.5), -6.0),
        (("triangular", triangular_spec()), (0.0, 0.0), 6.0),
        (("triangular", triangular_spec()), (0.5, 0.5), -2.0),
    ],
)
def test_base_band_values(base, theta, want):
    kind, spec = base
    assert base_band(kind, theta) == pytest.approx(want, abs=1e-12)
    np.testing.assert_allclose(build_floquet_matrix(spec, theta), [[want]], atol=1e-12)


def test_base_band_rejects_wrong_arity():
    with pytest.raises(ParameterError):
        build_floquet_matrix(zd_product_spec(build_named("path", [2]), d=2), 0.25)
    with pytest.raises(ParameterError, match="d must be >= 1"):
        zd_base(0)
    with pytest.raises(ParameterError, match="one vertex per cell"):
        product_spec(honeycomb_spec(), build_named("path", [2]), ProductKind.CARTESIAN)


def _per_axis_grid(kind, d, N):
    """Base grid from per-axis formulas, the bitwise reference for ``base_grid``.

    Z^d adds the axes' 2cos(2 pi min(k, N - k) / N) to a zero grid one by one; the
    triangular lattice is c(k_1) + c(k_2) + c(k_1 + k_2 mod N).
    """
    k = np.arange(N)
    c = 2.0 * np.cos(2.0 * np.pi * np.minimum(k, N - k) / N)
    if kind == "triangular":
        return c[:, None] + c[None, :] + c[(k[:, None] + k[None, :]) % N]
    grid = np.zeros((N,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = N
        grid = grid + c.reshape(shape)
    return grid


@pytest.mark.parametrize("N", [2, 3, 5, 6, 12, 16, 40, 64, 101, 1024])
def test_base_grid_is_the_per_axis_formula_bit_for_bit(N):
    cases = [("zd", d, zd_base(d)) for d in (1, 2, 3) if N**d <= 1 << 20] + [("triangular", 2, triangular_spec())]
    for kind, d, spec in cases:
        got, want = floquet.base_grid(spec, N), _per_axis_grid(kind, d, N)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (kind, d)


def test_base_grid_is_the_fiber_matrix_of_any_one_vertex_spec():
    # offsets of several lengths, one with a negative entry and one above N
    rows = [(0, 0, 2, -1), (0, 0, -2, 1), (0, 0, 0, 9), (0, 0, 0, -9), (0, 0, 1, 1), (0, 0, -1, -1)]
    spec = PeriodicGraphSpec(d=2, nu=1, offset_edges=rows)
    N = 7
    theta = np.stack(np.unravel_index(np.arange(N * N), (N, N)), axis=-1) / N
    want = build_floquet_matrix(spec, theta).real.reshape(N, N)
    np.testing.assert_allclose(floquet.base_grid(spec, N), want, atol=1e-12)


@pytest.mark.parametrize(
    "spec,N,message",
    [
        (honeycomb_spec(), 4, "one vertex per cell, got 2"),  # its rows are no offsets of one band
        (zd_product_spec(build_named("path", [2]), 1), 4, "one vertex per cell, got 2"),
        (zd_base(1), 2.5, "grid size N must be an integer, got 2.5"),
        (zd_base(1), 0, "grid size N must be >= 1"),
    ],
)
def test_base_grid_rejects_a_spec_of_several_vertices_and_a_bad_grid_size(spec, N, message):
    with pytest.raises(ParameterError, match=message):
        floquet.base_grid(spec, N)


def test_triangular_spec_offsets():
    spec = triangular_spec()
    assert (spec.d, spec.nu) == (2, 1)
    n = [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    assert spec.offset_edges.tolist() == [[0, 0, *x] for x in n]


def test_floquet_matrix_line():
    spec = zd_line_spec()
    for theta in (0.0, 0.17, 0.5):
        h = build_floquet_matrix(spec, theta)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(2.0 * math.cos(2.0 * math.pi * theta), abs=1e-12)


def test_floquet_matrix_honeycomb():
    h = build_floquet_matrix(honeycomb_spec(), (0.0, 0.0))
    np.testing.assert_allclose(h, [[0.0, 3.0], [3.0, 0.0]], atol=1e-12)
    h = build_floquet_matrix(honeycomb_spec(), (1 / 3, 2 / 3))
    # Conical degeneracy point: the off-diagonal entry vanishes
    assert abs(h[0, 1]) <= 1e-12


def test_floquet_matrix_rejects_nan():
    with pytest.raises(NumericalError, match="Hermitian"):
        build_floquet_matrix(honeycomb_spec(), (math.nan, 0.0))


def _crossing_spec(dimers=1):
    """nu = 2 dimers + 1, d = 1: dimers (eigenvalues -1, 1) beside a chain site.

    The chain band 2 cos(2 pi theta) meets the dimers' eigenvalues at
    theta = 1/6, 1/3, 2/3, 5/6, so on a grid of N = 12 or 24 some fibers of a
    block are degenerate and the others are not; on N = 8 none is. With three
    dimers (nu = 7) the clusters at those points hold 4 eigenvalues.
    """
    nu = 2 * dimers + 1
    entries = [(p, p ^ 1, 0) for p in range(nu - 1)] + [(nu - 1, nu - 1, 1), (nu - 1, nu - 1, -1)]
    return PeriodicGraphSpec(d=1, nu=nu, offset_edges=entries)


def _per_edge_matrix(spec, theta):
    """H(theta) one offset edge at a time, the builder the stacked fiber matrices replaced."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    h = np.zeros((spec.nu, spec.nu), dtype=complex)
    for p, q, *off in spec.offset_edges.tolist():
        h[p, q] += np.exp(2j * np.pi * float(np.dot(th, off)))
    return h


def _per_fiber_density(spec, N, tol=DEFAULT_CLUSTER_TOL):
    """The grid quadrature one fiber at a time, the loop the blocked quadrature replaced.

    Also returns each fiber's cluster ends, in grid order.
    """
    acc = np.zeros((spec.nu, spec.nu))
    ends = []
    for r in np.ndindex(*((N,) * spec.d)):
        vals, vecs = np.linalg.eigh(_per_edge_matrix(spec, np.asarray(r, dtype=float) / N))
        ends.append(cluster_eigenvalues(vals, tol))
        acc += squared_projection_sum(vecs, ends[-1])
    acc /= N**spec.d
    return acc, ends


def _quadrature_cases():
    cases = [pytest.param(honeycomb_spec(), N, id=f"honeycomb-{N}") for N in (3, 6, 9, 24, 40, 45)]
    for family, params, d, N in [("petersen", [], 1, 16), ("petersen", [], 2, 8), ("cycle", [6], 2, 9),
                                 ("hypercube", [3], 2, 8)]:
        spec = zd_product_spec(build_named(family, params), d=d)
        cases.append(pytest.param(spec, N, id=f"{family}{params}-d{d}-{N}"))
    for dimers, name in [(1, "crossing"), (3, "crossing3")]:
        cases += [pytest.param(_crossing_spec(dimers), N, id=f"{name}-{N}") for N in (8, 12, 24)]
    return cases


@pytest.mark.parametrize("fibers", [None, 1])
@pytest.mark.parametrize("spec,N", _quadrature_cases())
def test_blocked_quadrature_is_the_per_fiber_loop_bit_for_bit(monkeypatch, spec, N, fibers):
    if fibers is not None:
        monkeypatch.setattr(floquet, "_block_fibers", lambda nu: fibers)
    want, ends = _per_fiber_density(spec, N)
    got = general_density(spec, N).values
    assert np.array_equal(got, want)
    # blocks on these grids mix cluster patterns: Dirac points when 3 | N, crossings at the sixths
    # when 6 | N, and beside three dimers the chain band moves across the triple clusters at -1 and 1
    block = floquet._block_fibers(spec.nu)
    patterns = [tuple(e) for e in ends]
    mixed = any(len(set(patterns[i : i + block])) > 1 for i in range(0, len(patterns), block))
    expected = spec.nu == 7 or (spec.nu == 3 and N % 6 == 0) or (spec.nu == 2 and N % 3 == 0)
    assert mixed == (block > 1 and expected)


def test_mixed_block_sums_each_run_of_one_pattern_on_a_view(monkeypatch):
    # honeycomb N = 3 is one block of nine fibers, whose bands touch at fibers 5 and 7 (the Dirac points)
    want = general_density(honeycomb_spec(), 3).values
    stacks, calls = [], []
    eigh, kernel = np.linalg.eigh, floquet.squared_projection_sum

    def recording_eigh(m):
        vals, vecs = eigh(m)
        stacks.append(vecs)
        return vals, vecs

    def recording_kernel(vecs, ends):
        calls.append((vecs, ends.tolist()))
        return kernel(vecs, ends)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(floquet, "squared_projection_sum", recording_kernel)
    assert np.array_equal(general_density(honeycomb_spec(), 3).values, want)
    assert [(len(v), e) for v, e in calls] == [(5, [1, 2]), (1, [2]), (1, [1, 2]), (1, [2]), (1, [1, 2])]
    assert all(not v.flags.owndata and np.shares_memory(v, stacks[0]) for v, _ in calls)


def test_block_fibers_hold_at_most_288_entries():
    fibers = {nu: floquet._block_fibers(nu) for nu in range(1, 200)}
    assert [fibers[nu] for nu in (2, 6, 8, 10, 12, 13)] == [16, 4, 3, 2, 2, 1]
    assert max(k * nu**2 for nu, k in fibers.items() if k > 1) == 288


_STACK_SPECS = [
    honeycomb_spec(),
    zd_product_spec(build_named("petersen", []), d=2),
    _crossing_spec(),
    zd_product_spec(build_named("path", [3]), d=3),
]


@pytest.mark.parametrize("spec", _STACK_SPECS)
def test_floquet_matrix_stack_matches_single_calls(spec):
    thetas = np.random.default_rng(5).random((7, spec.d))
    thetas[:2] = [[0.0] * spec.d, [0.5] * spec.d]
    stack = build_floquet_matrix(spec, thetas)
    assert stack.shape == (7, spec.nu, spec.nu)
    assert np.array_equal(stack, np.stack([build_floquet_matrix(spec, t) for t in thetas]))
    assert np.array_equal(stack, np.stack([_per_edge_matrix(spec, t) for t in thetas]))


def test_floquet_matrix_theta_shapes():
    assert build_floquet_matrix(zd_line_spec(), 0.25).shape == (1, 1)
    assert build_floquet_matrix(zd_line_spec(), [[0.25], [0.5]]).shape == (2, 1, 1)
    for bad in (0.25, np.zeros((4, 3)), np.zeros((4, 1)), np.zeros((2, 4, 2))):
        with pytest.raises(ParameterError, match="component"):
            build_floquet_matrix(honeycomb_spec(), bad)
    thetas = np.full((5, 2), 0.25)
    thetas[3, 1] = math.nan
    with pytest.raises(NumericalError, match="Hermitian"):
        build_floquet_matrix(honeycomb_spec(), thetas)


def test_floquet_matrix_matches_product_bands():
    g = build_named("cycle", [4])
    spec = zd_product_spec(g, d=1)
    bands = product_spec(zd_base(1), g, ProductKind.CARTESIAN)
    for theta in (0.0, 0.3, 0.71):
        h = build_floquet_matrix(spec, theta)
        vals = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(vals, np.sort(product_bands(bands, theta)), atol=1e-9)


def test_product_bands_cartesian_c3():
    bands = product_spec(zd_base(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    np.testing.assert_allclose(sorted(product_bands(bands, 0.0)), [1.0, 1.0, 4.0], atol=1e-9)


def test_product_bands_tensor_and_strong():
    c4 = build_named("cycle", [4])
    tensor = product_spec(zd_base(1), c4, ProductKind.TENSOR)
    vals = product_bands(tensor, 0.2)
    e0 = base_band("zd", 0.2)
    np.testing.assert_allclose(np.sort(vals), np.sort(np.array([-2, 0, 0, 2]) * e0), atol=1e-9)
    strong = product_spec(zd_base(1), build_named("path", [2]), ProductKind.STRONG)
    vals = product_bands(strong, 0.2)
    np.testing.assert_allclose(np.sort(vals), np.sort([(1 - 1) * e0 - 1, 2 * e0 + 1]), atol=1e-9)


def test_a_product_rule_given_by_its_value_is_that_rule():
    c4 = build_named("cycle", [4])
    by_value = floquet_condition_fraction(product_spec(zd_base(1), c4, "tensor"), 16)
    assert by_value == floquet_condition_fraction(product_spec(zd_base(1), c4, ProductKind.TENSOR), 16)
    assert (by_value.max_fraction, by_value.worst_pair, by_value.flat_bands) == (1.0, (1, 1), (1, 2))
    spectrum = product_spec(zd_base(1), c4, ProductKind.STRONG).spectrum
    assert floquet.BandStructure(zd_base(1), spectrum, "tensor").rule is ProductKind.TENSOR


@pytest.mark.parametrize("rule", ["bogus", "Tensor", None, 1])
def test_an_unknown_product_rule_is_rejected(rule):
    c4 = build_named("cycle", [4])
    with pytest.raises(ParameterError, match="unknown product rule"):
        product_spec(zd_base(1), c4, rule)
    spectrum = product_spec(zd_base(1), c4, ProductKind.STRONG).spectrum
    with pytest.raises(ParameterError, match="unknown product rule"):
        floquet.BandStructure(zd_base(1), spectrum, rule)


def test_flat_band_check():
    c4 = build_named("cycle", [4])
    assert flat_band_check(product_spec(zd_base(1), c4, ProductKind.CARTESIAN)) == []
    assert flat_band_check(product_spec(zd_base(1), c4, ProductKind.TENSOR)) == [1, 2]
    p2 = build_named("path", [2])
    assert flat_band_check(product_spec(zd_base(1), p2, ProductKind.STRONG)) == [0]


def brute_force_scan(mu, N, delta=1e-9):
    """Direct collision count over all shifts, pairs, and grid points."""
    def band(j, k):
        return 2.0 * math.cos(2.0 * math.pi * k / N) + mu[j]

    best = 0
    for m in range(1, N):
        for s in range(len(mu)):
            for w in range(len(mu)):
                count = sum(
                    1 for r in range(N) if abs(band(s, (r + m) % N) - band(w, r)) < delta
                )
                best = max(best, count)
    return best / N


def test_scan_cartesian_c3_brute_force():
    bands = product_spec(zd_base(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    report = floquet_condition_fraction(bands, 16)
    assert report.max_fraction == brute_force_scan([-1.0, -1.0, 2.0], 16)
    assert report.max_fraction <= 2 / 16 + 1e-12
    assert report.N == 16
    assert report.flat_bands == ()


def test_scan_small_grid_no_collisions():
    # N=2 box product with P_2: all band differences are in {+-2, +-4, +-6},
    # so the report names the first shift and pair
    bands = product_spec(zd_base(1), build_named("path", [2]), ProductKind.CARTESIAN)
    report = floquet_condition_fraction(bands, 2)
    assert report == FloquetScanReport(N=2, max_fraction=0.0, worst_shift=(1,), worst_pair=(0, 0), flat_bands=())


def test_scan_flat_band_forces_full_fraction():
    bands = product_spec(zd_base(1), build_named("cycle", [4]), ProductKind.TENSOR)
    report = floquet_condition_fraction(bands, 16)
    assert report.max_fraction == 1.0
    assert report.flat_bands == (1, 2)
    assert report.worst_pair == (1, 1)
    assert report.worst_shift == (1,)


def test_scan_deterministic_worst_case():
    bands = product_spec(zd_base(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    r1 = floquet_condition_fraction(bands, 16)
    r2 = floquet_condition_fraction(bands, 16)
    assert (r1.worst_shift, r1.worst_pair, r1.max_fraction) == (
        r2.worst_shift,
        r2.worst_pair,
        r2.max_fraction,
    )


def test_scan_rejects_bad_parameters():
    bands = product_spec(zd_base(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    with pytest.raises(ParameterError):
        floquet_condition_fraction(bands, 1)
    for delta in (0.0, -0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ParameterError, match="delta"):
            floquet_condition_fraction(bands, 16, delta=delta)


def test_grid_sizes_reject_non_integers():
    bands = product_spec(zd_base(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    with pytest.raises(ParameterError, match="grid size N must be an integer"):
        floquet_condition_fraction(bands, 16.5)
    with pytest.raises(ParameterError, match="grid size N must be an integer"):
        general_density(honeycomb_spec(), 4.0)
    assert floquet_condition_fraction(bands, np.int64(16)).N == 16


def test_scan_triangular_base_runs():
    bands = product_spec(triangular_spec(), build_named("path", [2]), ProductKind.CARTESIAN)
    report = floquet_condition_fraction(bands, 6)
    assert 0.0 <= report.max_fraction <= 1.0
    assert len(report.worst_shift) == 2


def _dense_grid(bands, N):
    base = floquet.base_grid(bands.base, N)
    return np.stack([_RULES[bands.rule](base, float(mu)) for mu in bands.spectrum.eigenvalues])


def _dense_counts(bands, N, delta):
    """Yield (shift, C[shift]) over every shift: all nu^2 pairs at every point."""
    d = bands.base.d
    nu = bands.nu
    grid = _dense_grid(bands, N)
    for shift in np.ndindex(*((N,) * d)):
        rolled = np.roll(grid, tuple(-s for s in shift), axis=tuple(range(1, d + 1)))
        close = np.abs(rolled[:, None] - grid[None, :]) < delta
        yield shift, close.reshape(nu, nu, -1).sum(axis=2)


def _dense_scan(bands, N, delta=DEFAULT_COLLISION_DELTA):
    """Reference scan: one dense pass per nonzero shift, first maximum kept."""
    best_count, best_shift, best_pair = -1, (), (0, 0)
    for shift, counts in _dense_counts(bands, N, delta):
        if not any(shift):
            continue
        s, w = np.unravel_index(int(np.argmax(counts)), counts.shape)
        if counts[s, w] > best_count:
            best_count = int(counts[s, w])
            best_shift = tuple(int(x) for x in shift)
            best_pair = (int(s), int(w))
    return FloquetScanReport(
        N=N,
        max_fraction=best_count / N**bands.base.d,
        worst_shift=best_shift,
        worst_pair=best_pair,
        flat_bands=tuple(flat_band_check(bands)),
    )


_SCAN_CASES = [
    (zd_base(1), "cycle", [5], ProductKind.CARTESIAN, 24),
    (zd_base(1), "star", [3], ProductKind.TENSOR, 16),
    (zd_base(1), "path", [3], ProductKind.STRONG, 20),
    (zd_base(2), "complete", [4], ProductKind.CARTESIAN, 8),
    (zd_base(2), "path", [3], ProductKind.TENSOR, 8),
    (zd_base(2), "cycle", [3], ProductKind.STRONG, 9),
    (zd_base(3), "cycle", [3], ProductKind.CARTESIAN, 4),
    (zd_base(3), "path", [2], ProductKind.TENSOR, 6),
    (zd_base(3), "star", [3], ProductKind.STRONG, 4),
    (triangular_spec(), "cycle", [3], ProductKind.CARTESIAN, 9),
    (triangular_spec(), "path", [3], ProductKind.TENSOR, 8),
    (triangular_spec(), "star", [4], ProductKind.STRONG, 6),
]


@pytest.mark.parametrize("base,family,params,rule,N", _SCAN_CASES)
def test_scan_matches_dense_reference(base, family, params, rule, N):
    bands = product_spec(base, build_named(family, params), rule)
    assert floquet_condition_fraction(bands, N) == _dense_scan(bands, N)


def _occurring_gap(grid):
    """A small positive difference between two band values of the grid."""
    x = np.unique(grid)
    gaps = np.diff(x)
    return float(gaps[gaps > 1e-6].min())


def _assert_counts_match(bands, N, delta):
    nu, d = bands.nu, bands.base.d
    got = floquet._collision_counts([_dense_grid(bands, N).reshape(nu, N**d)], N, d, delta)
    for shift, counts in _dense_counts(bands, N, delta):
        if any(shift):  # shift 0 leaves out each point paired with itself
            np.testing.assert_array_equal(got[shift], counts, err_msg=f"shift {shift}, delta {delta!r}")
    assert floquet_condition_fraction(bands, N, delta) == _dense_scan(bands, N, delta)


@pytest.mark.parametrize("base,family,params,rule,N", [_SCAN_CASES[0], _SCAN_CASES[5], _SCAN_CASES[9]])
def test_scan_counts_exact_at_an_occurring_delta(base, family, params, rule, N):
    # A width equal to a difference that occurs, and one ulp either side: the
    # pairs at exactly that difference count only under the wider width.
    bands = product_spec(base, build_named(family, params), rule)
    gap = _occurring_gap(_dense_grid(bands, N))
    for delta in (np.nextafter(gap, 0.0), gap, np.nextafter(gap, np.inf)):
        _assert_counts_match(bands, N, delta)
    wide = sum(c.sum() for _, c in _dense_counts(bands, N, np.nextafter(gap, np.inf)))
    assert wide > sum(c.sum() for _, c in _dense_counts(bands, N, gap))


@pytest.mark.parametrize("case", [0, 3, 6, 11])
def test_scan_counts_exact_at_a_wide_delta(case):
    # a width of 0.25 gives long runs of partners in the sweep, some of them
    # ending at the largest value of the grid
    base, family, params, rule, N = _SCAN_CASES[case]
    _assert_counts_match(product_spec(base, build_named(family, params), rule), N, 0.25)


def test_scan_early_exit_off_diagonal_pair():
    # At N=2, E(theta + 1/2) = -E(theta), so the tensor bands -E and +E swap
    # under the first shift and pair (0, 1) meets at every point.
    bands = product_spec(zd_base(1), build_named("path", [2]), ProductKind.TENSOR)
    report = floquet_condition_fraction(bands, 2)
    assert report == FloquetScanReport(N=2, max_fraction=1.0, worst_shift=(1,), worst_pair=(0, 1), flat_bands=())
    assert report == _dense_scan(bands, 2)


@pytest.mark.parametrize(
    "base,family,params,rule,N,flat",
    [
        (zd_base(2), "star", [3], ProductKind.TENSOR, 8, 1),
        (triangular_spec(), "complete", [4], ProductKind.STRONG, 6, 0),
    ],
)
def test_scan_flat_band_names_first_flat_index(base, family, params, rule, N, flat):
    bands = product_spec(base, build_named(family, params), rule)
    report = floquet_condition_fraction(bands, N)
    assert report.flat_bands[0] == flat
    assert report.worst_pair == (flat, flat)
    assert report.worst_shift == (0,) * (base.d - 1) + (1,)
    assert report == _dense_scan(bands, N)


def test_scan_budget_rejects_before_allocating():
    bands = product_spec(zd_base(3), build_named("cycle", [3]), ProductKind.CARTESIAN)
    assert 9 * 128**3 > PAIR_COUNT_BUDGET
    with pytest.raises(ParameterError, match="budget"):
        floquet_condition_fraction(bands, 128)
    # a grid this size could not even be allocated, so the check came first
    with pytest.raises(ParameterError, match="budget"):
        floquet_condition_fraction(bands, 10**9)


def test_scan_budget_boundary(monkeypatch):
    bands = product_spec(zd_base(2), build_named("path", [2]), ProductKind.CARTESIAN)
    monkeypatch.setattr(floquet, "PAIR_COUNT_BUDGET", 4 * 8**2)
    assert floquet_condition_fraction(bands, 8) == _dense_scan(bands, 8)
    with pytest.raises(ParameterError):
        floquet_condition_fraction(bands, 9)


def test_scan_pair_count_memory_stays_within_the_walks():
    # strong star3 x Z^3 at N = 12: 249306 close pairs over 5184 band values.
    # Counting them one offset at a time peaked at the int32 table plus 16.1
    # N^d int64 entries, N^d-pair chunks with a full copy of the table for the
    # mirror pairs at 11.8. With the mirror added in place and int32 run ends
    # the peak is 9.7, in the walk. The bound sits 0.8 N^d int64 entries,
    # about 6% of that peak, above it.
    bands = product_spec(zd_base(3), build_named("star", [2]), ProductKind.STRONG)
    N, nu = 12, bands.nu
    grid = floquet._band_grid(bands, N).reshape(nu, N**3)
    floquet._collision_counts([grid], N, 3, DEFAULT_COLLISION_DELTA)  # first calls allocate numpy's own caches
    tracemalloc.start()
    try:
        counts = floquet._collision_counts([grid], N, 3, DEFAULT_COLLISION_DELTA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2 * 249306
    assert peak <= counts.nbytes + 10.5 * 8 * N**3


@pytest.mark.parametrize(
    "base,family,params,rule,N",
    [
        (zd_base(2), "complete", [4], ProductKind.CARTESIAN, 40),
        (zd_base(2), "complete", [4], ProductKind.CARTESIAN, 256),
        (zd_base(3), "star", [3], ProductKind.STRONG, 12),
        (zd_base(1), "cycle", [5], ProductKind.CARTESIAN, 4096),
    ],
)
def test_scan_memory_stays_within_its_count_table(base, family, params, rule, N):
    # The whole scan, band grid and first shift included, peaks at 1.93-2.40
    # times its int32 count table. With a full copy of the table for the
    # mirror pairs, int64 run ends and the band grid alive through the walk it
    # peaked at 2.93-3.42.
    bands = product_spec(base, build_named(family, params), rule)
    table = 4 * bands.nu**2 * N**base.d
    assert floquet_condition_fraction(bands, N).max_fraction < 1  # the scan sweeps
    tracemalloc.start()
    try:
        floquet_condition_fraction(bands, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * table


def test_quadrature_budget_rejects_before_allocating():
    assert 1025**2 > FIBER_BUDGET
    with pytest.raises(ParameterError, match="budget"):
        general_density(honeycomb_spec(), 1025)
    # 10^18 fibers: nothing of the grid could be allocated, so the check came first
    with pytest.raises(ParameterError, match="budget"):
        general_density(honeycomb_spec(), 10**9)


def test_quadrature_budget_boundary(monkeypatch):
    monkeypatch.setattr(floquet, "FIBER_BUDGET", 4**2)
    assert general_density(honeycomb_spec(), 4).source == "quadrature"
    with pytest.raises(ParameterError, match="budget"):
        general_density(honeycomb_spec(), 5)


def test_scan_pair_budget_boundary(monkeypatch):
    # path2 x Z^3 on N = 4: no pair meets at every point of the first shift, so the scan sweeps
    bands = product_spec(zd_base(3), build_named("path", [2]), ProductKind.CARTESIAN)
    x = floquet._band_grid(bands, 4).reshape(-1)
    pairs = (np.count_nonzero(np.abs(x[:, None] - x) < DEFAULT_COLLISION_DELTA) - x.size) // 2
    monkeypatch.setattr(floquet, "SCAN_PAIR_BUDGET", pairs)
    report = floquet_condition_fraction(bands, 4)
    monkeypatch.setattr(floquet, "SCAN_PAIR_BUDGET", pairs - 1)
    with pytest.raises(ParameterError, match=f"walks {pairs} close pairs, over the budget"):
        floquet_condition_fraction(bands, 4)
    monkeypatch.undo()
    assert floquet_condition_fraction(bands, 4) == report


def test_scan_pair_budget_is_checked_before_the_int32_running_sum(monkeypatch):
    # The scan's run lengths and their running sum are int32: no sum within the budget overflows,
    # and a scan over it never reaches the walk that forms the sum.
    assert floquet.SCAN_PAIR_BUDGET < 2**31
    bands = product_spec(zd_base(3), build_named("path", [2]), ProductKind.CARTESIAN)

    def walk(*args):
        raise AssertionError("the walk ran over the budget")

    monkeypatch.setattr(floquet, "SCAN_PAIR_BUDGET", 10)
    monkeypatch.setattr(floquet, "_pair_counts", walk)
    with pytest.raises(ParameterError, match="close pairs, over the budget"):
        floquet_condition_fraction(bands, 4)


def test_scan_pair_budget_keeps_the_dense_first_shift_exit(monkeypatch):
    # a flat band meets itself at every grid point of the first shift, so the sweep never runs
    bands = product_spec(zd_base(2), build_named("cycle", [4]), ProductKind.TENSOR)
    monkeypatch.setattr(floquet, "SCAN_PAIR_BUDGET", 0)
    assert floquet_condition_fraction(bands, 16).max_fraction == 1.0


def test_quadrature_eigh_failure_names_the_block(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    # the first block of 16 honeycomb fibers runs from grid point (0, 0) to (1, 7)
    with pytest.raises(EigenSolverError, match=r"grid points \(0, 0\) to \(1, 7\)"):
        general_density(honeycomb_spec(), 8)
    # and that of 2 Petersen fibers (nu = 10) from (0, 0) to (0, 1)
    with pytest.raises(EigenSolverError, match=r"grid points \(0, 0\) to \(0, 1\)"):
        general_density(zd_product_spec(build_named("petersen", []), d=2), 4)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, "x"])
def test_quadrature_checks_the_clustering_tolerance_before_any_fiber(monkeypatch, tol):
    def fail(*args, **kwargs):
        raise AssertionError("a fiber was diagonalized")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ParameterError, match="clustering tolerance"):
        general_density(honeycomb_spec(), 8, tol)


@pytest.mark.parametrize(
    "spec,N",
    [
        (honeycomb_spec(), 45),
        (zd_product_spec(build_named("petersen", []), d=2), 16),
        (zd_product_spec(build_named("cycle", [6]), d=2), 18),
        (zd_product_spec(build_named("hypercube", [3]), d=2), 16),
    ],
)
def test_quadrature_memory_stays_within_one_block(spec, N):
    # 7.8, 12.4, 9.4 and 11.7 KB with blocks of ``_block_fibers(nu)`` fibers (numpy 2.4.6);
    # a larger block fails here before it moves the benchmark's quadrature peak
    general_density(spec, N)  # first calls allocate numpy's own caches
    tracemalloc.start()
    try:
        general_density(spec, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**10


def test_general_density_line_is_trivial():
    result = general_density(zd_line_spec(), 32)
    np.testing.assert_allclose(result.values, [[1.0]], atol=1e-12)


def test_general_density_box_cycle_matches_closed_form():
    spec = zd_product_spec(build_named("cycle", [5]))
    want = closed_form_density("cycle", [5]).values
    err50 = np.abs(general_density(spec, 50).values - want).max()
    err100 = np.abs(general_density(spec, 100).values - want).max()
    assert err50 <= 2e-3
    assert err100 <= 2e-3
    # theta-independent projections make both grids exact, so accept either a
    # genuine decrease or convergence to rounding level
    assert err100 < err50 or err100 <= 1e-12


def test_general_density_honeycomb_uniform():
    result = general_density(honeycomb_spec(), 64)
    np.testing.assert_allclose(result.values, np.full((2, 2), 0.5), atol=2e-3)
    assert isinstance(result, DensityMatrix) and result.source == "quadrature"
    assert result.to_density_matrix() is result


def test_general_density_monotone_refinement():
    spec = zd_product_spec(build_named("path", [3]))
    want = limiting_density(build_named("path", [3])).values
    errs = [np.abs(general_density(spec, n).values - want).max() for n in (16, 32, 64)]
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= coarse or fine <= 1e-12


def test_general_density_honeycomb_refinement():
    # When 3 | N the grid hits the two conical points, where the degenerate
    # fiber contributes the identity instead of the generic 1/2 profile, so
    # the quadrature error is exactly 1/N^2.
    want = np.full((2, 2), 0.5)
    errs = []
    for n in (6, 12, 24):
        err = np.abs(general_density(honeycomb_spec(), n).values - want).max()
        assert err == pytest.approx(1.0 / n**2, abs=1e-12)
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_general_density_rows_sum_to_one():
    result = general_density(honeycomb_spec(), 20)
    assert np.abs(result.values.sum(axis=1) - 1.0).max() <= 1e-8


def test_band_continuity_on_grid():
    # Weyl: eigenvalues move by at most the operator norm of the fiber
    # difference; a theta_1 step of 1/n changes each off-diagonal entry by at
    # most 2 pi / n, so 4 pi / n is a safe bound
    spec = honeycomb_spec()
    n = 32
    bound = 4.0 * math.pi / n
    prev = np.linalg.eigvalsh(build_floquet_matrix(spec, (0.0, 0.0)))
    for r in range(1, n + 1):
        cur = np.linalg.eigvalsh(build_floquet_matrix(spec, (r / n, 0.0)))
        assert np.abs(cur - prev).max() <= bound + 1e-12
        prev = cur


def test_general_density_rejects_invalid_tolerance():
    bands = product_spec(zd_base(1), build_named("cycle", [3]), ProductKind.TENSOR)
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ParameterError, match="tolerance"):
            general_density(honeycomb_spec(), 4, tol=tol)
        with pytest.raises(ParameterError, match="tolerance"):
            floquet_condition_fraction(bands, 8, tol=tol)


def test_grid_density_rejects_nan():
    with pytest.raises(NumericalError):
        DensityMatrix(values=np.full((2, 2), np.nan), source="quadrature")
    with pytest.raises(NumericalError):
        DensityMatrix(values=np.array([[np.nan, 0.0], [0.0, 1.0]]), source="quadrature")


def _chunked_pairs(k, chunk):
    """(i, j) of every pair of the runs k, from chunks of at most ``chunk`` pairs."""
    ends = np.cumsum(k)
    total = int(ends[-1]) if ends.size else 0
    pairs = []
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        first, reps, j = floquet._run_pair_chunk(ends, lo, hi)
        i = np.repeat(np.arange(first, first + reps.size), reps)
        assert i.size == j.size == hi - lo
        pairs += zip(i.tolist(), j.tolist())
    return sorted(pairs)


def _assert_runs_match(k, brute):
    # brute: every pair (i, j), i < j, that the runs k must hold
    for chunk in (1, 3, max(k.size, 1)):
        assert _chunked_pairs(k, chunk) == sorted(brute), f"chunk {chunk}"  # each pair once


@pytest.mark.parametrize("seed", range(6))
def test_run_pairs_covers_each_cluster_pair_once(seed):
    # the infinite average's rule: pairs inside runs of a partition, where
    # runs marked alone (end 0) are left out
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 7, size=rng.integers(1, 12))
    alone = rng.random(sizes.size) < 0.3
    ends = np.cumsum(sizes)
    n = int(ends[-1])
    span = np.repeat(np.where(alone, 0, ends), sizes) - np.arange(n)
    brute = [
        (i, j)
        for lo, hi, skip in zip(ends - sizes, ends, alone)
        if not skip
        for i in range(lo, hi)
        for j in range(i + 1, hi)
    ]
    _assert_runs_match(np.maximum(span - 1, 0), brute)


def _assert_close_runs_match(x, delta):
    # x: ascending values ending in the inf sentinel
    n = x.size - 1
    brute = [(i, j) for i in range(n) for j in range(i + 1, n) if abs(x[j] - x[i]) < delta]
    want = np.bincount([i for i, _ in brute], minlength=n).astype(np.int64)
    for block in (1, 3, max(n, 1)):
        got = floquet._close_runs(x, delta, block)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want, err_msg=f"delta {delta!r}, block {block}")
    _assert_runs_match(want, brute)
    return want


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("delta", [0.5, 1.0, 2.5])
def test_run_pairs_covers_each_close_pair_once(seed, delta):
    # the scan's rule on sorted values with ties: delta 1.0 pairs only equal
    # values, as 1 apart does not count
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 30))
    _assert_close_runs_match(np.append(np.sort(rng.integers(0, 8, n)).astype(float), np.inf), delta)


def test_close_runs_exact_at_the_rounded_boundary():
    # bit-equal groups, values exactly delta apart and one ulp either side of
    # x + delta: the searchsorted guess of each run's end is off both ways
    rng = np.random.default_rng(3)
    off = np.zeros(2, dtype=int)
    for _ in range(30):
        delta = float(rng.choice([1e-9, 0.1, 0.5, 1.0]))
        n = int(rng.integers(2, 30))
        base = rng.choice([0.0, -1e-12, 1.0, -3.0, 1e6], n) + rng.integers(-3, 4, n) * delta
        near = np.stack([base, base + delta, np.nextafter(base + delta, np.inf), np.nextafter(base + delta, -np.inf)])
        x = np.append(np.sort(rng.choice(near.reshape(-1), n)), np.inf)
        want = _assert_close_runs_match(x, delta)
        guess = np.searchsorted(x, x[:n] + delta) - np.arange(1, n + 1)
        off += [(guess < want).sum(), (guess > want).sum()]
    assert off.min() > 0
    for n in (0, 1):
        assert floquet._close_runs(np.append(np.zeros(n), np.inf), 1e-9, 1).tolist() == [0] * n


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d,N", [(1, 7), (2, 4), (3, 3)])
def test_pair_counts_match_cluster_pair_enumeration(d, N, seed):
    # the infinite average's rule over band-major positions s * N^d + r in a
    # random order, cut into runs of a partition, where runs marked alone are
    # left out: every ordered pair of distinct positions in a kept run counts
    # once at the torus offset of its cells
    rng = np.random.default_rng([d, seed])
    nu = int(rng.integers(1, 4))
    shape, cells = (N,) * d, N**d
    n = nu * cells
    order = rng.permutation(n)
    cuts = np.cumsum(rng.integers(1, 2 * cells, size=n))
    ends = np.append(cuts[cuts < n], n)
    sizes = np.diff(ends, prepend=0)
    alone = rng.random(sizes.size) < 0.3
    alone[np.argmax(sizes)] = False
    span = np.repeat(np.where(alone, 0, ends), sizes) - np.arange(n)
    positions = [order]
    got = floquet._pair_counts(positions, np.maximum(span - 1, 0), N, d)
    assert positions == []  # the sorted positions are freed with the list
    want = np.zeros((cells, nu, nu), dtype=int)
    for lo, hi, skip in zip(ends - sizes, ends, alone):
        run = [] if skip else order[lo:hi].tolist()
        for a in run:
            for b in run:
                if a != b:
                    diff = np.subtract(np.unravel_index(a % cells, shape), np.unravel_index(b % cells, shape))
                    want[np.ravel_multi_index(tuple(diff % N), shape), a // cells, b // cells] += 1
    assert got.dtype == np.int32
    assert want.max() > 1  # some offset and band pair is hit more than once
    np.testing.assert_array_equal(got, want)


def _unravelled_offset(ra, rb, N, d):
    """Flat index of (r_a - r_b) mod N per axis, from the digits ``np.unravel_index`` gives."""
    shape = (N,) * d
    diff = np.array(np.unravel_index(ra, shape)) - np.array(np.unravel_index(rb, shape))
    return np.ravel_multi_index(tuple(diff % N), shape)


@pytest.mark.parametrize("d,N", [(1, 7)] + [(d, N) for d in range(1, 9) for N in range(2, 6)])
def test_torus_offset_matches_unravelled_difference(d, N):
    rng = np.random.default_rng([d, N])
    cells = N**d
    a, b = rng.integers(0, cells, (2, 200))
    r = np.arange(cells)
    # the count table's limit at nu = 1 and nu = 3 (band pairs in the low 4 bits, offsets times 9),
    # and a limit of 2N entries, which gives every axis its own field from d = 2
    for limit, low, unit in ((cells, 0, 1), (9 * cells, 4, 9), (2 * N, 0, 1)):
        keys, bias, fields = floquet._cell_keys(N, d, limit, low, unit)
        assert all(table.size <= max(limit, N) for _, _, table in fields)
        if limit == 2 * N:
            assert len(fields) == d
        below = rng.integers(0, 1 << low, a.size)  # anything in the low bits stays there
        got = floquet._torus_offsets(keys[a] - keys[b] + bias + below, fields)
        np.testing.assert_array_equal(got, unit * _unravelled_offset(a, b, N, d))
        # cell 0 has key 0: -r
        want = unit * _unravelled_offset(np.zeros_like(r), r, N, d)
        np.testing.assert_array_equal(floquet._torus_offsets(bias - keys, fields), want)


@pytest.mark.parametrize("nu", [1, 2, 3])
@pytest.mark.parametrize("d,N", [(1, 7), (3, 4), (8, 3), (11, 3)])
def test_pair_counts_match_a_direct_count_of_every_pair(d, N, nu, monkeypatch):
    # the scan's rule: sorted position i pairs with its k[i] successors, k drawn at random on
    # about 10000 positions; (11, 3) at nu = 3 needs int64 codes, every other case int32
    rng = np.random.default_rng([d, N, nu])
    cells = N**d
    n = nu * cells
    order = rng.permutation(n)
    k = rng.integers(0, 4, n) * (rng.random(n) < 10000 / n)
    k = np.minimum(k, n - 1 - np.arange(n))
    i = np.repeat(np.arange(n), k)
    j = i + np.arange(i.size) - np.repeat(np.cumsum(k) - k, k) + 1
    a, b = order[j], order[i]
    want = np.zeros((cells, nu, nu), dtype=np.int64)
    np.add.at(want, (_unravelled_offset(a % cells, b % cells, N, d), a // cells, b // cells), 1)
    np.add.at(want, (_unravelled_offset(b % cells, a % cells, N, d), b // cells, a // cells), 1)
    torus_offsets, calls = floquet._torus_offsets, []

    def offsets(diff, fields):
        calls.append((diff.dtype, [table.size for _, _, table in fields]))
        return torus_offsets(diff, fields)

    monkeypatch.setattr(floquet, "_torus_offsets", offsets)
    got = floquet._pair_counts([order], k, N, d)
    # the first call finds the mirror cells, every later one reads a chunk of code differences
    assert len(calls) > 1
    assert {dtype for dtype, _ in calls[1:]} == {np.dtype(np.int64 if (d, nu) == (11, 3) else np.int32)}
    assert all(size <= nu * nu * cells for _, sizes in calls for size in sizes)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("d,N,nu", [(1, 7, 3), (1, 8, 2), (2, 5, 1), (2, 6, 3), (3, 3, 2), (3, 4, 2)])
def test_pair_counts_equal_the_full_copy_mirror(d, N, nu):
    # the in-place mirror against the table it replaced: the pairs (p_(i + t), p_i) counted
    # directly, then counts += counts[-r].swapaxes(1, 2) from a full copy; even N has cells
    # r = -r besides r = 0, which get C + C^T
    rng = np.random.default_rng([d, N, nu])
    cells = N**d
    n = nu * cells
    order = rng.permutation(n)
    k = np.minimum(rng.integers(0, 6, n), n - 1 - np.arange(n))
    i = np.repeat(np.arange(n), k)
    j = i + np.arange(i.size) - np.repeat(np.cumsum(k) - k, k) + 1
    a, b = order[j], order[i]
    want = np.zeros((cells, nu, nu), dtype=np.int64)
    np.add.at(want, (_unravelled_offset(a % cells, b % cells, N, d), a // cells, b // cells), 1)
    r = np.arange(cells)
    mirror = _unravelled_offset(np.zeros_like(r), r, N, d)
    selves = r[mirror == r]
    assert selves.size == (2**d if N % 2 == 0 else 1)
    if nu > 1:
        assert (want[selves] != want[selves].swapaxes(1, 2)).any()  # the self cells' C + C^T is tested
    want += want[mirror].swapaxes(1, 2)
    got = floquet._pair_counts([order], k.copy(), N, d)
    assert got.dtype == np.int32
    np.testing.assert_array_equal(got, want)
