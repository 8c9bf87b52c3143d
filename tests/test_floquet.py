import math

import numpy as np
import pytest

from crystalwalk import (
    DEFAULT_COLLISION_DELTA,
    SCAN_COUNT_BUDGET,
    BaseLattice,
    FloquetScanReport,
    NumericalError,
    ParameterError,
    ProductKind,
    base_band,
    build_floquet_matrix,
    build_named,
    closed_form_density,
    flat_band_check,
    floquet_condition_fraction,
    general_density,
    honeycomb_spec,
    limiting_density,
    product_bands,
    product_spec,
    zd_product_spec,
)
from crystalwalk import floquet
from crystalwalk.graphs import PeriodicGraphSpec


def zd_line_spec():
    """One-vertex integer lattice: H(theta) = 2 cos(2 pi theta)."""
    return PeriodicGraphSpec(d=1, nu=1, offset_edges=((0, 0, (1,)), (0, 0, (-1,))))


@pytest.mark.parametrize(
    "base,theta,want",
    [
        (BaseLattice.zd(1), 0.0, 2.0),
        (BaseLattice.zd(1), 0.5, -2.0),
        (BaseLattice.zd(2), (0.5, 0.0), 0.0),
        (BaseLattice.zd(3), (0.5, 0.5, 0.5), -6.0),
        (BaseLattice.triangular(), (0.0, 0.0), 6.0),
        (BaseLattice.triangular(), (0.5, 0.5), -2.0),
    ],
)
def test_base_band_values(base, theta, want):
    assert base_band(base, theta) == pytest.approx(want, abs=1e-12)


def test_base_band_rejects_wrong_arity():
    with pytest.raises(ParameterError):
        base_band(BaseLattice.zd(2), 0.25)
    with pytest.raises(ParameterError):
        BaseLattice("hexagonal", 2)
    with pytest.raises(ParameterError):
        BaseLattice.zd(0)


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


def test_floquet_matrix_with_potential():
    g = build_named("path", [2])
    spec = zd_product_spec(g, d=1, potential=(0.5, -0.25))
    h = build_floquet_matrix(spec, 0.25)
    np.testing.assert_allclose(np.diag(h).real, [0.5, -0.25], atol=1e-12)
    assert np.abs(h - h.conj().T).max() <= 1e-12


def test_floquet_matrix_matches_product_bands():
    g = build_named("cycle", [4])
    spec = zd_product_spec(g, d=1)
    bands = product_spec(BaseLattice.zd(1), g, ProductKind.CARTESIAN)
    for theta in (0.0, 0.3, 0.71):
        h = build_floquet_matrix(spec, theta)
        vals = np.linalg.eigvalsh(h)
        np.testing.assert_allclose(vals, np.sort(product_bands(bands, theta)), atol=1e-9)


def test_product_bands_cartesian_c3():
    bands = product_spec(BaseLattice.zd(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    np.testing.assert_allclose(sorted(product_bands(bands, 0.0)), [1.0, 1.0, 4.0], atol=1e-9)


def test_product_bands_tensor_and_strong():
    c4 = build_named("cycle", [4])
    tensor = product_spec(BaseLattice.zd(1), c4, ProductKind.TENSOR)
    vals = product_bands(tensor, 0.2)
    e0 = base_band(BaseLattice.zd(1), 0.2)
    np.testing.assert_allclose(np.sort(vals), np.sort(np.array([-2, 0, 0, 2]) * e0), atol=1e-9)
    strong = product_spec(BaseLattice.zd(1), build_named("path", [2]), ProductKind.STRONG)
    vals = product_bands(strong, 0.2)
    np.testing.assert_allclose(np.sort(vals), np.sort([(1 - 1) * e0 - 1, 2 * e0 + 1]), atol=1e-9)


def test_flat_band_check():
    c4 = build_named("cycle", [4])
    assert flat_band_check(product_spec(BaseLattice.zd(1), c4, ProductKind.CARTESIAN)) == []
    assert flat_band_check(product_spec(BaseLattice.zd(1), c4, ProductKind.TENSOR)) == [1, 2]
    p2 = build_named("path", [2])
    assert flat_band_check(product_spec(BaseLattice.zd(1), p2, ProductKind.STRONG)) == [0]


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
    bands = product_spec(BaseLattice.zd(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    report = floquet_condition_fraction(bands, 16)
    assert report.max_fraction == brute_force_scan([-1.0, -1.0, 2.0], 16)
    assert report.max_fraction <= 2 / 16 + 1e-12
    assert report.N == 16
    assert report.flat_bands == ()


def test_scan_small_grid_no_collisions():
    # N=2 box product with P_2: all band differences are in {+-2, +-4, +-6},
    # so the report names the first shift and pair
    bands = product_spec(BaseLattice.zd(1), build_named("path", [2]), ProductKind.CARTESIAN)
    report = floquet_condition_fraction(bands, 2)
    assert report == FloquetScanReport(N=2, max_fraction=0.0, worst_shift=(1,), worst_pair=(0, 0), flat_bands=())


def test_scan_flat_band_forces_full_fraction():
    bands = product_spec(BaseLattice.zd(1), build_named("cycle", [4]), ProductKind.TENSOR)
    report = floquet_condition_fraction(bands, 16)
    assert report.max_fraction == 1.0
    assert report.flat_bands == (1, 2)
    assert report.worst_pair == (1, 1)
    assert report.worst_shift == (1,)


def test_scan_deterministic_worst_case():
    bands = product_spec(BaseLattice.zd(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    r1 = floquet_condition_fraction(bands, 16)
    r2 = floquet_condition_fraction(bands, 16)
    assert (r1.worst_shift, r1.worst_pair, r1.max_fraction) == (
        r2.worst_shift,
        r2.worst_pair,
        r2.max_fraction,
    )


def test_scan_rejects_bad_parameters():
    bands = product_spec(BaseLattice.zd(1), build_named("cycle", [3]), ProductKind.CARTESIAN)
    with pytest.raises(ParameterError):
        floquet_condition_fraction(bands, 1)
    with pytest.raises(ParameterError):
        floquet_condition_fraction(bands, 16, delta=0.0)


def test_scan_triangular_base_runs():
    bands = product_spec(BaseLattice.triangular(), build_named("path", [2]), ProductKind.CARTESIAN)
    report = floquet_condition_fraction(bands, 6)
    assert 0.0 <= report.max_fraction <= 1.0
    assert len(report.worst_shift) == 2


_RULES = {
    ProductKind.CARTESIAN: lambda e0, mu: e0 + mu,
    ProductKind.TENSOR: lambda e0, mu: mu * e0,
    ProductKind.STRONG: lambda e0, mu: (1.0 + mu) * e0 + mu,
}


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
    (BaseLattice.zd(1), "cycle", [5], ProductKind.CARTESIAN, 24),
    (BaseLattice.zd(1), "star", [3], ProductKind.TENSOR, 16),
    (BaseLattice.zd(1), "path", [3], ProductKind.STRONG, 20),
    (BaseLattice.zd(2), "complete", [4], ProductKind.CARTESIAN, 8),
    (BaseLattice.zd(2), "path", [3], ProductKind.TENSOR, 8),
    (BaseLattice.zd(2), "cycle", [3], ProductKind.STRONG, 9),
    (BaseLattice.zd(3), "cycle", [3], ProductKind.CARTESIAN, 4),
    (BaseLattice.zd(3), "path", [2], ProductKind.TENSOR, 6),
    (BaseLattice.zd(3), "star", [3], ProductKind.STRONG, 4),
    (BaseLattice.triangular(), "cycle", [3], ProductKind.CARTESIAN, 9),
    (BaseLattice.triangular(), "path", [3], ProductKind.TENSOR, 8),
    (BaseLattice.triangular(), "star", [4], ProductKind.STRONG, 6),
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
    got = floquet._collision_counts(_dense_grid(bands, N).reshape(nu, N**d), N, d, delta)
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
    bands = product_spec(BaseLattice.zd(1), build_named("path", [2]), ProductKind.TENSOR)
    report = floquet_condition_fraction(bands, 2)
    assert report == FloquetScanReport(N=2, max_fraction=1.0, worst_shift=(1,), worst_pair=(0, 1), flat_bands=())
    assert report == _dense_scan(bands, 2)


@pytest.mark.parametrize(
    "base,family,params,rule,N,flat",
    [
        (BaseLattice.zd(2), "star", [3], ProductKind.TENSOR, 8, 1),
        (BaseLattice.triangular(), "complete", [4], ProductKind.STRONG, 6, 0),
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
    bands = product_spec(BaseLattice.zd(3), build_named("cycle", [3]), ProductKind.CARTESIAN)
    assert 9 * 128**3 > SCAN_COUNT_BUDGET
    with pytest.raises(ParameterError, match="budget"):
        floquet_condition_fraction(bands, 128)
    # a grid this size could not even be allocated, so the check came first
    with pytest.raises(ParameterError, match="budget"):
        floquet_condition_fraction(bands, 10**9)


def test_scan_budget_boundary(monkeypatch):
    bands = product_spec(BaseLattice.zd(2), build_named("path", [2]), ProductKind.CARTESIAN)
    monkeypatch.setattr(floquet, "SCAN_COUNT_BUDGET", 4 * 8**2)
    assert floquet_condition_fraction(bands, 8) == _dense_scan(bands, 8)
    with pytest.raises(ParameterError):
        floquet_condition_fraction(bands, 9)


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
    dm = result.to_density_matrix()
    assert dm.source == "quadrature"


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
    for tol in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ParameterError, match="tolerance"):
            general_density(honeycomb_spec(), 4, tol=tol)
        with pytest.raises(ParameterError, match="tolerance"):
            product_spec(BaseLattice.zd(1), build_named("cycle", [3]), ProductKind.TENSOR, tol=tol)


def test_grid_density_rejects_nan():
    with pytest.raises(NumericalError):
        floquet.GridDensityResult(values=np.full((2, 2), np.nan), N=4)
    with pytest.raises(NumericalError):
        floquet.GridDensityResult(values=np.array([[np.nan, 0.0], [0.0, 1.0]]), N=4)


def _walked_pairs(n, block, within):
    """(t, i) of every pair the walk yields, in the order it yields them."""
    steps = []
    for i, t in floquet._run_pairs(n, block, within):
        assert i.size <= block
        steps += [(t, int(k)) for k in i]
    return steps


def _assert_walk_matches(n, within, brute):
    # brute: every pair (i, j), i < j, that the walk must visit
    want = sorted((j - i, i) for i, j in brute)
    for block in (1, 3, max(n, 1)):
        got = _walked_pairs(n, block, within)
        assert got == want, f"block {block}"  # each pair once, by offset, then by position


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
    _assert_walk_matches(n, lambda i, t: span[i] > t, brute)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("delta", [0.5, 1.0, 2.5])
def test_run_pairs_covers_each_close_pair_once(seed, delta):
    # the scan's rule on sorted values with ties: delta 1.0 pairs only equal
    # values, as 1 apart does not count
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 30))
    x = np.append(np.sort(rng.integers(0, 8, n)).astype(float), np.inf)
    brute = [(i, j) for i in range(n) for j in range(i + 1, n) if abs(x[j] - x[i]) < delta]
    _assert_walk_matches(n, lambda i, t: np.abs(x[i + t] - x[i]) < delta, brute)


@pytest.mark.parametrize("d,N", [(1, 7), (2, 5), (3, 4)])
def test_torus_offset_matches_unravelled_difference(d, N):
    rng = np.random.default_rng(d)
    shape = (N,) * d
    cells = N**d

    def want(ra, rb):
        diff = np.array(np.unravel_index(ra, shape)) - np.array(np.unravel_index(rb, shape))
        return np.ravel_multi_index(tuple(diff % N), shape)

    # band-major index s * N^d + r: the band digit above the cell drops out
    a, b = rng.integers(0, 3 * cells, (2, 200))
    np.testing.assert_array_equal(floquet._torus_offset(a, b, N, d), want(a % cells, b % cells))
    # cell-major index r * nu + j with a unit of nu
    nu = 3
    got = floquet._torus_offset(a, b, N, d, nu)
    np.testing.assert_array_equal(got, want(a // nu % cells, b // nu % cells) * nu)
    # a = 0 gives -r
    r = np.arange(cells)
    np.testing.assert_array_equal(floquet._torus_offset(0, r, N, d), want(np.zeros_like(r), r))
