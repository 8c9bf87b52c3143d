"""Time evolution and time-averaged distributions on discrete-torus products.

The simulation graph is the box product of a d-dimensional discrete torus
(N-cycle per axis) with a finite graph. Its eigenpairs factor into plane
waves over the cells and eigenvectors of the finite factor, with eigenvalues
lambda_(r, j) = 2 sum_i cos(2 pi r_i / N) + mu_j. All dynamics here run in
that factored eigenbasis; states are dense complex vectors indexed in
C order by (cell_0, ..., cell_(d-1), q), i.e. flat index (cell)*nu + q.

Evolution costs one inverse FFT over the cells. Both time averages are
exact double sums over eigenpairs, and both sum the pairs by their
plane-wave difference into one grid that a single inverse FFT turns into the
distribution. The infinite-time average keeps the pairs inside each
eigenvalue cluster, except that a cluster whose pairs cost more than one FFT
of its own is projected on its own. The finite-horizon average keeps every
pair, weighted by its phase average over [0, T]: dim^2 / 2 weights in
memory linear in the states. Both take Delta from the torus offset rule of
``floquet``, and the infinite-time average walks its pairs with floquet's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .floquet import BaseLattice, _run_pairs, _torus_offset, base_grid
from .graphs import FiniteGraph, ParameterError
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    NumericalError,
    SpectralDecomposition,
    cluster_eigenvalues,
    density_from_decomposition,
    eigendecompose_symmetric,
)

__all__ = [
    "STATE_BUDGET",
    "PAIR_SUM_LIMIT",
    "TorusOperator",
    "TimeAveragedDistribution",
    "build_torus",
    "evolve",
    "apply_adjacency",
    "time_averaged",
    "infinite_time_averaged",
    "total_variation",
    "limit_prediction",
]

# Dense state vectors only; no truncation anywhere.
STATE_BUDGET = 1 << 20
# The exact finite-horizon average evaluates dim^2 / 2 pair weights, so it
# gets a much smaller ceiling than vector evolution: 4096 states take about
# half a second, in memory linear in the states.
PAIR_SUM_LIMIT = 4096

_NORM_TOL = 1e-10
_MASS_TOL = 1e-10
_REALNESS_TOL = 1e-12

Start = tuple[Sequence[int] | int, int]


@dataclass(frozen=True)
class TorusOperator:
    """Adjacency operator of (d-dimensional N-torus) box (finite graph).

    ``spectrum`` is the eigendecomposition of the finite factor,
    ``base_grid`` the torus band 2 sum_i cos(2 pi r_i / N) over the cell
    grid, and ``eigenvalues`` the full array lambda[r, j] of shape
    (N,)*d + (nu,). Mirror-degenerate cells r and N - r hold bit-identical
    band values by construction.
    """

    spectrum: SpectralDecomposition
    N: int
    d: int
    base_grid: np.ndarray
    eigenvalues: np.ndarray

    @property
    def nu(self) -> int:
        return self.spectrum.nu

    @property
    def dim(self) -> int:
        return self.nu * self.N**self.d

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d


def build_torus(
    graph: FiniteGraph, d: int, N: int, tol: float = DEFAULT_CLUSTER_TOL
) -> TorusOperator:
    """Assemble the factored eigenstructure of the torus product.

    Requires N >= 3 (smaller cycles degenerate to multi-edges) and a total
    state count nu * N^d within the dense budget of 2^20.
    """
    d, N = int(d), int(N)
    if d < 1:
        raise ParameterError("torus dimension d must be >= 1")
    if N < 3:
        raise ParameterError("cells per axis N must be >= 3")
    dim = graph.nu * N**d
    if dim > STATE_BUDGET:
        raise ParameterError(f"state count {dim} exceeds the dense budget {STATE_BUDGET}")
    spectrum = eigendecompose_symmetric(graph.adjacency, tol)
    base = base_grid(BaseLattice.zd(d), N)
    lam = base[..., None] + spectrum.eigenvalues
    base.flags.writeable = False
    lam.flags.writeable = False
    return TorusOperator(spectrum=spectrum, N=N, d=d, base_grid=base, eigenvalues=lam)


def _normalize_start(op: TorusOperator, start: Start) -> tuple[tuple[int, ...], int]:
    cell, p = start
    if isinstance(cell, (int, np.integer)):
        cell = (int(cell),)
    cell = tuple(int(x) % op.N for x in cell)
    if len(cell) != op.d:
        raise ParameterError(f"start cell must have {op.d} component(s)")
    p = int(p)
    if not 0 <= p < op.nu:
        raise ParameterError(f"start vertex {p} out of range 0..{op.nu - 1}")
    return cell, p


def _assemble(op: TorusOperator, start: tuple[tuple[int, ...], int], weights: np.ndarray) -> np.ndarray:
    """Sum of weighted eigenpair contributions for a walk started at (n, p).

    Returns the flat complex vector with entries
    sum_(r, j) weights[r, j] e^(2 pi i r.(k - n)/N) w_j(p) w_j(q) / N^d
    at (k, q); evolve and the averaged distributions differ only in weights.
    """
    cell, p = start
    w = op.spectrum.eigenvectors
    fiber = (weights * w[p, :]) @ w.T  # (grid..., q)
    axes = tuple(range(op.d))
    psi = np.fft.ifftn(fiber, axes=axes)
    psi = np.roll(psi, cell, axis=axes)
    return psi.reshape(-1)


def evolve(op: TorusOperator, start: Start, t: float) -> np.ndarray:
    """Amplitude vector e^(itA) delta_(n, p), flat over (cells, q).

    The result is validated to stay normalized within 1e-10.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ParameterError("time t must be finite")
    start = _normalize_start(op, start)
    psi = _assemble(op, start, np.exp(1j * t * op.eigenvalues))
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NumericalError(f"evolution lost unitarity: norm {norm:.12g}")
    return psi


def apply_adjacency(op: TorusOperator, x: np.ndarray) -> np.ndarray:
    """Apply the torus adjacency operator through the factored eigenbasis."""
    x = np.asarray(x)
    if x.shape != (op.dim,):
        raise ParameterError(f"state must be a flat vector of length {op.dim}")
    grid = x.reshape(op.grid_shape + (op.nu,))
    axes = tuple(range(op.d))
    w = op.spectrum.eigenvectors
    hat = np.fft.fftn(grid, axes=axes) @ w
    hat *= op.eigenvalues
    out = np.fft.ifftn(hat @ w.T, axes=axes)
    return out.reshape(-1)


@dataclass(frozen=True)
class TimeAveragedDistribution:
    """Site distribution of the walk averaged over [0, T] (T may be inf).

    ``values`` is the flat probability vector over (cells, q) in the same
    C-order layout as ``evolve``. Entries are nonnegative and sum to 1
    within 1e-10.
    """

    values: np.ndarray
    horizon: float
    start: tuple[tuple[int, ...], int]
    N: int
    d: int
    nu: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.nu * self.N**self.d:
            raise ValueError("distribution length must equal nu * N^d")
        # written so that NaN fails each check
        if not v.min() >= 0.0:
            raise NumericalError("distribution has negative or NaN entries")
        mass_err = abs(float(v.sum()) - 1.0)
        if not mass_err <= _MASS_TOL:
            raise NumericalError(f"distribution mass deviates from 1 by {mass_err:.3e}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def cell_masses(self) -> np.ndarray:
        """Total mass per cell, shape (N,) * d."""
        return self.values.reshape((self.N,) * self.d + (self.nu,)).sum(axis=-1)


def _finalize_distribution(
    op: TorusOperator, start: tuple[tuple[int, ...], int], values: np.ndarray, horizon: float
) -> TimeAveragedDistribution:
    if not values.min() >= -_REALNESS_TOL:  # NaN fails too
        raise NumericalError(f"averaged distribution has negative mass {values.min():.3e}")
    return TimeAveragedDistribution(
        values=np.maximum(values, 0.0),
        horizon=horizon,
        start=start,
        N=op.N,
        d=op.d,
        nu=op.nu,
    )


def _from_pair_grid(op: TorusOperator, cell: tuple[int, ...], grid: np.ndarray) -> np.ndarray:
    """Flat distribution roll(ifftn(G), n) / N^d from a pair grid G[Delta, q].

    Raises NumericalError when the inverse FFT leaves an imaginary residue
    above the realness tolerance.
    """
    axes = tuple(range(op.d))
    cells = op.N**op.d
    psi = np.fft.ifftn(grid, axes=axes)
    imag_err = float(np.abs(psi.imag).max()) / cells
    if not imag_err <= _REALNESS_TOL:  # NaN fails too
        raise NumericalError(f"averaged distribution not real: residue {imag_err:.3e}")
    mu = np.roll(psi.real, cell, axis=axes).reshape(-1)
    mu /= cells
    return mu


def _phi(x: np.ndarray) -> np.ndarray:
    """Mean of e^(i x s) over s in [0, 1]: (e^(ix) - 1)/(ix), 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape, dtype=complex)
    big = np.abs(x) > 1e-8
    xb = x[big]
    out[big] = (np.exp(1j * xb) - 1.0) / (1j * xb)
    return out


def time_averaged(op: TorusOperator, start: Start, horizon: float) -> TimeAveragedDistribution:
    """Exact average of |e^(itA) delta|^2 over t in [0, horizon].

    Expands the average into eigenpair cross terms weighted by
    phi(T (lambda_alpha - lambda_beta)), phi(x) = (e^(ix) - 1)/(ix); no time
    quadrature is involved. As in ``infinite_time_averaged`` the pair
    alpha = (r, j), beta = (r', j') reaches (n + m, q) as
    N^-2d e^(2 pi i (r - r').m / N) c_j(q) c_j'(q), so the pairs are summed
    per plane-wave difference Delta = r - r' mod N:
    S[Delta, j, j'] = sum_r phi(T (lambda[r, j] - lambda[r - Delta, j'])) and
    G[Delta, q] = sum_(j, j') c_j(q) c_j'(q) S[Delta, j, j'], and one inverse
    FFT of G gives the average. phi(-x) = conj phi(x) makes S[-Delta] the
    conjugate transpose of S[Delta], so only the offsets with flat index at
    most that of -Delta are summed and G[-Delta] = conj G[Delta] fills the
    rest. Cost: dim^2 / 2 phi evaluations, N^d nu^3 for G and one FFT, in
    O(dim nu) memory.
    """
    horizon = float(horizon)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ParameterError("averaging horizon must be positive and finite")
    start = _normalize_start(op, start)
    if op.dim > PAIR_SUM_LIMIT:
        raise ParameterError(
            f"finite-horizon averaging supports up to {PAIR_SUM_LIMIT} states, got {op.dim}"
        )
    cell, p = start
    N, d, nu = op.N, op.d, op.nu
    cells = N**d
    lam = op.eigenvalues.reshape(cells, nu)
    r = np.arange(cells)
    mirror = _torus_offset(0, r, N, d)  # flat index of -Delta
    half = np.nonzero(r <= mirror)[0]
    s = np.empty((half.size, nu, nu), dtype=complex)
    # blocks of offsets keep the (block, N^d, nu, nu) temporaries within max(8, nu) * dim entries
    block = max(1, 8 // nu)
    for lo in range(0, half.size, block):
        delta = half[lo : lo + block]
        shifted = _torus_offset(r, delta[:, None], N, d)
        x = horizon * (lam[:, :, None] - lam[shifted][:, :, None, :])  # T (lambda_alpha - lambda_beta)
        s[lo : lo + block] = _phi(x).sum(axis=1)
    w = op.spectrum.eigenvectors
    coef = w[p, :] * w  # coef[q, j] = w_j(p) w_j(q)
    grid = np.empty((cells, nu), dtype=complex)
    grid[half] = np.einsum("bjk,qj,qk->bq", s, coef, coef)
    rest = np.nonzero(r > mirror)[0]
    grid[rest] = grid[mirror[rest]].conj()
    mu = _from_pair_grid(op, cell, grid.reshape(op.grid_shape + (nu,)))
    return _finalize_distribution(op, start, mu, horizon)


def infinite_time_averaged(
    op: TorusOperator, start: Start, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> TimeAveragedDistribution:
    """Infinite-horizon average: squared projections onto eigenvalue clusters.

    All nu N^d eigenvalues are clustered with the shared single-linkage rule,
    so the structural r <-> N - r degeneracies (bit-identical here) and any
    accidental cross-band coincidences within tolerance land in one cluster.

    Within a cluster C the squared projection at (n + m, q) is
    N^-2d sum_(alpha, beta in C) e^(2 pi i (r_alpha - r_beta).m / N)
    c_alpha(q) c_beta(q) with c_(r, j)(q) = w_j(p) w_j(q). So every ordered
    pair only adds c_alpha(q) c_beta(q) to a coefficient grid G[Delta, q] at
    Delta = r_alpha - r_beta mod N, and one inverse FFT of G over the cell
    axes gives the sum over all clusters: O(nu sum |C|^2 + dim log N) work.
    The collision scan's pair walk, keeping partner i + t in the cluster of
    i, and its offset rule give each pair once; its mirror fills -Delta. A
    cluster whose nu |C|^2 pair terms exceed the N^d nu^2 + dim log2(dim)
    cost of projecting it on its own (a flat or highly degenerate band) is
    projected on its own instead.
    """
    start = _normalize_start(op, start)
    cell, p = start
    N, d, nu, dim = op.N, op.d, op.nu, op.dim
    cells = N**d
    lam = op.eigenvalues.reshape(-1)
    order = np.argsort(lam, kind="stable")
    ends = cluster_eigenvalues(lam[order], cluster_tol)
    sizes = np.diff(ends, prepend=0)
    alone = nu * sizes**2 > cells * nu**2 + dim * math.log2(dim)
    # sorted positions from each one to its cluster's end, <= 0 where the cluster is projected alone
    span = np.repeat(np.where(alone, 0, ends), sizes) - np.arange(dim)
    w = op.spectrum.eigenvectors
    coef = w[p, :] * w  # coef[q, j] = w_j(p) w_j(q)
    grid = np.zeros(dim)
    lanes = np.arange(nu)[:, None]
    # blocks of at most N^d positions keep the (nu, block) temporaries within dim
    for i, t in _run_pairs(dim, cells, lambda i, t: span[i] > t):
        a, b = order[i], order[i + t]
        np.add.at(grid, _torus_offset(a, b, N, d, nu) + lanes, coef[:, a % nu] * coef[:, b % nu])
    grid = grid.reshape(cells, nu)
    grid += grid[_torus_offset(0, np.arange(cells), N, d)]
    grid[0] += coef**2 @ np.bincount(order[span > 0] % nu, minlength=nu)  # alpha = beta
    mu = _from_pair_grid(op, cell, grid.reshape(op.grid_shape + (nu,)))
    for lo, hi in zip(ends[alone] - sizes[alone], ends[alone]):
        weights = np.zeros(dim)
        weights[order[lo:hi]] = 1.0
        a = _assemble(op, start, weights.reshape(op.grid_shape + (nu,)))
        mu += a.real**2 + a.imag**2
    return _finalize_distribution(op, start, mu, math.inf)


def total_variation(a: np.ndarray, b: np.ndarray) -> float:
    """Total variation distance between two distributions of equal length."""
    av = np.asarray(getattr(a, "values", a), dtype=float)
    bv = np.asarray(getattr(b, "values", b), dtype=float)
    if av.shape != bv.shape:
        raise ValueError("distributions must have equal length")
    return 0.5 * float(np.abs(av - bv).sum())


def limit_prediction(op: TorusOperator, start: Start) -> np.ndarray:
    """Factored prediction for the infinite-time average.

    Cells decouple in the limit: each of the N^d cells carries the finite
    factor's limiting density row of the start vertex divided by N^d. Exact
    whenever no accidental cross-band degeneracies couple the factors.
    """
    _, p = _normalize_start(op, start)
    row = density_from_decomposition(op.spectrum).values[p]
    return np.tile(row / op.N**op.d, op.N**op.d)
