"""Band structures of periodic graphs and their collision and density scans.

A periodic graph reduces, fiber by fiber over the torus of quasimomenta
theta in [0,1)^d, to a nu x nu Hermitian matrix H(theta) whose eigenvalue
branches are the band functions. Two scan operations live here: counting
near-collisions E_s(theta + m/N) = E_w(theta) over a finite grid (the
ergodicity condition for the time average to converge), and accumulating the
grid approximation of the limiting density from per-point eigenprojections.

The collision scan sorts the nu N^d band values once and walks each value's
run of close successors, so it costs O(nu N^d log(nu N^d) + close pairs)
instead of nu^2 N^2d tests, and holds one count per shift and band pair.
Its sorted pair walk (``_run_pairs``) and torus offset rule
(``_torus_offset``) also serve the time averages in ``dynamics``: the scan
walks partner i + t while |x[i + t] - x[i]| < delta, the infinite-time
average while i + t stays in the eigenvalue cluster of i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .graphs import FiniteGraph, ParameterError, PeriodicGraphSpec, ProductKind
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DensityMatrix,
    EigenSolverError,
    NumericalError,
    SpectralDecomposition,
    cluster_eigenvalues,
    cluster_gap,
    eigendecompose_symmetric,
    squared_projection_sum,
)

__all__ = [
    "DEFAULT_COLLISION_DELTA",
    "SCAN_COUNT_BUDGET",
    "BaseLattice",
    "BandStructure",
    "FloquetScanReport",
    "GridDensityResult",
    "base_band",
    "base_grid",
    "build_floquet_matrix",
    "product_spec",
    "product_bands",
    "flat_band_check",
    "floquet_condition_fraction",
    "general_density",
]

DEFAULT_COLLISION_DELTA = 1e-9
# The collision scan keeps one count per (shift, band pair): nu^2 N^d integers.
SCAN_COUNT_BUDGET = 1 << 20

_HERMITICITY_TOL = 1e-12
_GRID_ROW_SUM_TOL = 1e-8


@dataclass(frozen=True)
class BaseLattice:
    """One-vertex periodic base: the integer lattice Z^d or the triangular lattice."""

    kind: str
    d: int

    def __post_init__(self) -> None:
        if self.kind not in ("zd", "triangular"):
            raise ParameterError(f"unknown base lattice {self.kind!r}")
        d = int(self.d)
        if self.kind == "zd" and d < 1:
            raise ParameterError("integer lattice needs d >= 1")
        if self.kind == "triangular" and d != 2:
            raise ParameterError("triangular lattice is two-dimensional")
        object.__setattr__(self, "d", d)

    @staticmethod
    def zd(d: int = 1) -> "BaseLattice":
        return BaseLattice("zd", d)

    @staticmethod
    def triangular() -> "BaseLattice":
        return BaseLattice("triangular", 2)


def base_band(base: BaseLattice, theta: float | Sequence[float]) -> float:
    """Band function of the one-vertex base lattice at quasimomentum theta.

    Z^d: 2 sum_i cos(2 pi theta_i). Triangular: 2cos(2 pi theta_1)
    + 2cos(2 pi theta_2) + 2cos(2 pi (theta_1 + theta_2)). Periodic in each
    component with period 1.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != (base.d,):
        raise ParameterError(f"theta must have {base.d} component(s)")
    if base.kind == "zd":
        return float(2.0 * np.cos(2.0 * np.pi * th).sum())
    return float(
        2.0 * np.cos(2.0 * np.pi * th[0])
        + 2.0 * np.cos(2.0 * np.pi * th[1])
        + 2.0 * np.cos(2.0 * np.pi * (th[0] + th[1]))
    )


def build_floquet_matrix(spec: PeriodicGraphSpec, theta: float | Sequence[float]) -> np.ndarray:
    """Fiber matrix H(theta)(p, q) = sum over offset edges e^(2 pi i theta.n) + Q(p) delta_pq."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape != (spec.d,):
        raise ParameterError(f"theta must have {spec.d} component(s)")
    h = np.zeros((spec.nu, spec.nu), dtype=complex)
    for p, q, off in spec.offset_edges:
        h[p, q] += np.exp(2j * np.pi * float(np.dot(th, off)))
    h[np.diag_indices(spec.nu)] += np.asarray(spec.potential, dtype=float)
    if np.abs(h - h.conj().T).max() > _HERMITICITY_TOL:
        raise NumericalError("fiber matrix is not Hermitian")
    return h


@dataclass(frozen=True)
class BandStructure:
    """Band functions of a product of a one-vertex base with a finite graph.

    The bands are E_j(theta) = rule(E_0(theta), mu_j) over the eigenvalues
    mu_j of the finite factor: E_0 + mu_j for the box product, mu_j * E_0 for
    the tensor product, (1 + mu_j) E_0 + mu_j for the strong product.
    """

    base: BaseLattice
    spectrum: SpectralDecomposition
    rule: ProductKind

    @property
    def nu(self) -> int:
        return self.spectrum.nu


def product_spec(
    base: BaseLattice,
    graph: FiniteGraph,
    kind: ProductKind,
    tol: float = DEFAULT_CLUSTER_TOL,
) -> BandStructure:
    """Band structure of the product of a base lattice with a finite graph."""
    spectrum = eigendecompose_symmetric(graph.adjacency, tol)
    return BandStructure(base=base, spectrum=spectrum, rule=kind)


def _apply_rule(rule: ProductKind, e0: np.ndarray | float, mu: float) -> np.ndarray | float:
    if rule is ProductKind.CARTESIAN:
        return e0 + mu
    if rule is ProductKind.TENSOR:
        return mu * e0
    return (1.0 + mu) * e0 + mu


def product_bands(bands: BandStructure, theta: float | Sequence[float]) -> np.ndarray:
    """All nu band values at one theta, ordered like the factor eigenvalues."""
    e0 = base_band(bands.base, theta)
    return np.array([_apply_rule(bands.rule, e0, float(mu)) for mu in bands.spectrum.eigenvalues])


def flat_band_check(bands: BandStructure, tol: float = DEFAULT_CLUSTER_TOL) -> list[int]:
    """Indices of theta-independent bands.

    The box product has none; the tensor product is flat where mu_j = 0; the
    strong product is flat where mu_j = -1. Matching uses the clustering
    gap ``cluster_gap(mu, tol)``.
    """
    mu = bands.spectrum.eigenvalues
    scale = cluster_gap(mu, tol)
    if bands.rule is ProductKind.CARTESIAN:
        return []
    if bands.rule is ProductKind.TENSOR:
        return [int(j) for j in np.nonzero(np.abs(mu) <= scale)[0]]
    return [int(j) for j in np.nonzero(np.abs(mu + 1.0) <= scale)[0]]


def base_grid(base: BaseLattice, N: int) -> np.ndarray:
    """Base band sampled on the grid {0..N-1}^d / N, shape (N,) * d.

    Each axis evaluates 2cos(2 pi min(k, N-k) / N), so mirrored grid points
    are bit-identical and exact band degeneracies under k -> N-k survive
    floating point.
    """
    k = np.arange(N)
    c = 2.0 * np.cos(2.0 * np.pi * np.minimum(k, N - k) / N)
    if base.kind == "zd":
        grid = np.zeros((N,) * base.d)
        for axis in range(base.d):
            shape = [1] * base.d
            shape[axis] = N
            grid = grid + c.reshape(shape)
        return grid
    return c[:, None] + c[None, :] + c[(k[:, None] + k[None, :]) % N]


def _band_grid(bands: BandStructure, N: int) -> np.ndarray:
    """All band values on the grid {0..N-1}^d / N, shape (nu,) + (N,) * d."""
    base = base_grid(bands.base, N)
    return np.stack([np.asarray(_apply_rule(bands.rule, base, float(mu))) for mu in bands.spectrum.eigenvalues])


@dataclass(frozen=True)
class FloquetScanReport:
    """Worst near-collision fraction of band pairs over a shifted grid.

    ``max_fraction`` is the largest fraction of grid points where band s at
    theta + m/N meets band w at theta within delta, over all nonzero integer
    shifts m and band pairs (s, w). The time average converges to the
    limiting density exactly when this fraction vanishes as N grows.
    """

    N: int
    max_fraction: float
    worst_shift: tuple[int, ...]
    worst_pair: tuple[int, int]
    flat_bands: tuple[int, ...]


def floquet_condition_fraction(
    bands: BandStructure, N: int, delta: float = DEFAULT_COLLISION_DELTA
) -> FloquetScanReport:
    """Scan all nonzero grid shifts for band near-collisions.

    For every m in {0..N-1}^d except 0 and every band pair (s, w), counts the
    grid points r with |E_s((r + m)/N) - E_w(r/N)| < delta and reports the
    maximum count divided by N^d. Ties keep the first shift and pair in
    lexicographic order. A flat band forces max_fraction = 1.

    Shift (0, ..., 0, 1), the first in that order, is counted densely. If a
    pair already meets at all N^d points there, no later shift can beat it
    and the scan stops; a flat band always ends here. Otherwise one sorted
    sweep over all nu N^d band values counts every shift at once (see
    ``_collision_counts``): O(nu N^d log(nu N^d) + close pairs) time and
    nu^2 N^d integer counts of memory. Scans needing more than
    ``SCAN_COUNT_BUDGET`` counts are rejected before anything is allocated.
    """
    N = int(N)
    if N < 2:
        raise ParameterError("grid size N must be >= 2")
    if not delta > 0:
        raise ParameterError("collision width delta must be positive")
    d = bands.base.d
    nu = bands.nu
    cells = N**d
    if nu * nu * cells > SCAN_COUNT_BUDGET:
        raise ParameterError(
            f"collision scan needs {nu * nu * cells} counts, over the budget {SCAN_COUNT_BUDGET}"
        )
    grid = _band_grid(bands, N)
    flat = grid.reshape(nu, cells)
    # shift (0, ..., 0, 1) comes first in C order; count it densely, one band row at a time
    counts = np.stack(
        [(np.abs(np.roll(row, -1, axis=-1).reshape(-1) - flat) < delta).sum(axis=1) for row in grid]
    ).reshape(-1)
    if counts.max() < cells:
        counts = _collision_counts(flat, N, d, delta).reshape(-1)[nu * nu :]
    best = int(np.argmax(counts))
    shift, pair = divmod(best, nu * nu)
    return FloquetScanReport(
        N=N,
        max_fraction=int(counts[best]) / cells,
        worst_shift=tuple(int(x) for x in np.unravel_index(shift + 1, (N,) * d)),
        worst_pair=divmod(pair, nu),
        flat_bands=tuple(flat_band_check(bands)),
    )


def _torus_offset(a: np.ndarray | int, b: np.ndarray, N: int, d: int, unit: int = 1) -> np.ndarray:
    """Flat C-order index of (cell(a) - cell(b)) mod N per axis, times ``unit``.

    a and b index (N,)*d cells of ``unit`` entries each; digits above the cell drop out.
    """
    stride = N ** (d - 1) * unit
    m = (a // stride - b // stride) % N * stride
    for _ in range(d - 1):
        stride //= N
        m += (a // stride - b // stride) % N * stride
    return m


def _run_pairs(n: int, block: int, within: Callable) -> Iterator[tuple[np.ndarray, int]]:
    """Walk the pairs (i, i + t) of n sorted positions for which ``within(i, t)`` holds.

    ``within`` must hold for a run of offsets t = 1, 2, ... at each position
    and fail by i + t = n. For each t in turn, yields the ascending positions
    that pass, tested ``block`` at a time, with t.
    """
    active = np.arange(n - 1)
    t = 1
    while active.size:
        kept = 0
        for lo in range(0, active.size, block):
            i = active[lo : lo + block]
            i = i[within(i, t)]
            active[kept : kept + i.size] = i
            kept += i.size
            yield i, t
        t += 1
        active = active[:kept]


def _collision_counts(grid: np.ndarray, N: int, d: int, delta: float) -> np.ndarray:
    """C[m, s, w] = #{r : |E_s(r + m) - E_w(r)| < delta} from one sorted sweep.

    ``grid`` holds E_s(r) at [s, r] with r flat in C order over (N,)*d.
    Returns C of shape (N,)*d + (nu, nu); at shift 0 no point is paired with
    itself. Counts fit int32 because they are at most N^d.

    Sorted ascending, x[i + t] - x[i] rounds to a nondecreasing function of
    t (rounding is monotone), so the hits of position i form the run that
    ``_run_pairs`` walks. A hit a = (s, r_a) after b = (w, r_b) counts at
    m = r_a - r_b; its mirror (b, a) at -m is filled in at the end.
    """
    nu, cells = grid.shape
    order = np.argsort(grid, axis=None, kind="stable")
    x = np.append(grid.reshape(-1)[order], np.inf)  # the inf ends every run at the last position
    counts = np.zeros((cells, nu, nu), dtype=np.int32)
    flat = counts.reshape(-1)
    # blocks of at most N^d positions keep each step's temporaries at N^d entries
    for i, t in _run_pairs(order.size, cells, lambda i, t: np.abs(x[i + t] - x[i]) < delta):
        a, b = order[i + t], order[i]
        # an increment of the counts' own dtype keeps add.at on its fast path
        np.add.at(flat, (_torus_offset(a, b, N, d) * nu + a // cells) * nu + b // cells, np.int32(1))
    counts += counts[_torus_offset(0, np.arange(cells), N, d)].swapaxes(1, 2)
    return counts.reshape((N,) * d + (nu, nu))


@dataclass(frozen=True)
class GridDensityResult:
    """Grid approximation of the limiting density of a periodic graph.

    ``values[p, q]`` averages sum_s |P_s(theta)(p, q)|^2 over the N^d grid of
    quasimomenta. Rows sum to 1 within 1e-8 (per-point projections are
    complete, only rounding accumulates).
    """

    values: np.ndarray
    N: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("grid density must be square")
        row_err = np.abs(v.sum(axis=1) - 1.0).max()
        if not row_err <= _GRID_ROW_SUM_TOL:  # NaN fails too
            raise NumericalError(f"grid density rows do not sum to 1: deviation {row_err:.3e}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "N", int(self.N))

    @property
    def nu(self) -> int:
        return self.values.shape[0]

    def to_density_matrix(self) -> DensityMatrix:
        """Repackage with the stricter DensityMatrix row tolerance."""
        return DensityMatrix(values=self.values, source="quadrature")


def general_density(
    spec: PeriodicGraphSpec, N: int, tol: float = DEFAULT_CLUSTER_TOL
) -> GridDensityResult:
    """Grid-quadrature limiting density of an arbitrary periodic spec.

    Diagonalizes H(r/N) at every grid point, clusters the eigenvalues with
    the shared single-linkage rule, and accumulates the squared moduli of the
    distinct-eigenvalue projections.
    """
    N = int(N)
    if N < 1:
        raise ParameterError("grid size N must be >= 1")
    acc = np.zeros((spec.nu, spec.nu))
    for r in np.ndindex(*((N,) * spec.d)):
        theta = np.asarray(r, dtype=float) / N
        h = build_floquet_matrix(spec, theta)
        try:
            vals, vecs = np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise EigenSolverError(f"fiber eigendecomposition failed at grid point {r}") from exc
        acc += squared_projection_sum(vecs, cluster_eigenvalues(vals, tol))
    acc /= N**spec.d
    return GridDensityResult(values=acc, N=N)
