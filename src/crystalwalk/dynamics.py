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
pair, weighted by the real part sin(x)/x of its phase average over [0, T]:
the reflection r -> -r maps the band grid onto itself bit for bit and
cancels the imaginary parts. Its pair grid is real and the same on every
orbit of the signed axis permutations. A weight depends on its pair only
through the base-band values E0 of the two cells and the gap between the two
bands, so it evaluates one sine per pair of distinct E0 values and distinct
band gap, in memory linear in the states. Both take Delta from the cell keys
of ``floquet`` (``_cell_keys``: one key subtraction and a table gather per
pair) and hand a table S[Delta, j, j'] to ``_from_pair_grid``, one GEMM per
band to the pair grid; the infinite-time average counts S in the scan's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import floquet
from .floquet import _cell_keys, _pair_counts, _torus_offsets, base_grid
from .graphs import FiniteGraph, ParameterError, _budget, _int, _real, _store, zd_product_spec
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    SpectralDecomposition,
    _within,
    cluster_eigenvalues,
    density_from_decomposition,
    eigendecompose_symmetric,
)

__all__ = [
    "STATE_BUDGET",
    "PAIR_SUM_LIMIT",
    "HORIZON_LIMIT",
    "TorusOperator",
    "TimeAveragedDistribution",
    "build_torus",
    "evolve",
    "time_averaged",
    "infinite_time_averaged",
    "total_variation",
    "limit_prediction",
]

# Dense state vectors only; no truncation anywhere.
STATE_BUDGET = 1 << 20
# The exact finite-horizon average sums N^d nu (nu + 1) / 2 real pair weights
# per symmetry orbit of cell offsets, so it gets a much smaller ceiling than
# vector evolution: 4096 states take 45-100 ms on a 1-D torus (48 ms for path2,
# N = 2048) and 9-35 ms on a 2-D one (9 ms for cycle4, N = 32) on a 2-core Xeon
# with one BLAS thread, in memory linear in the states.
PAIR_SUM_LIMIT = 4096
# Its pair weights are sin(x)/x at x = T (E0(r) - E0(r') - (mu_j' - mu_j)).
# Within PAIR_SUM_LIMIT, nu N^d <= 4096 and N >= 3 give d <= 7 and nu <= 1365,
# so |E0| <= 2d and |mu| < nu give |x| < T (4d + 2 nu) < 3000 T: below this
# horizon ceiling every x, and so every weight, stays finite (doubles end near
# 1.8e308). It bounds the time |t| of ``evolve`` too: STATE_BUDGET and
# graphs.VERTEX_BUDGET give d <= 12 and nu <= 4096, so |lambda| <= 2d + nu <
# 4200 and every phase t lambda stays below 4.2e303.
HORIZON_LIMIT = 1e300

_NORM_TOL = 1e-10
_MASS_TOL = 1e-10
_REALNESS_TOL = 1e-12

Start = tuple[Sequence[int] | int, int]


@dataclass(frozen=True)
class TorusOperator:
    """Adjacency operator of (d-dimensional N-torus) box (finite graph).

    ``spectrum`` is the eigendecomposition of the finite factor and
    ``base_band`` the band E0(r) = 2 sum_i cos(2 pi r_i / N) of shape (N,)*d
    as ``floquet.base_grid`` builds it. ``eigenvalues`` forms the full array
    lambda[r, j] = E0(r) + mu_j of shape (N,)*d + (nu,) on each access, so an
    operator holds N^d floats beyond its factor, not nu N^d. Both are invariant
    under the 2^d d! signed permutations of the cell axes (r_i -> -r_i, axes
    swapped), which ``time_averaged`` relies on: mirror-degenerate cells r
    and N - r hold bit-identical band values by construction, and swapped
    axes hold the same sum of cosines, bit for bit up to d = 2 and up to
    rounding above.
    """

    spectrum: SpectralDecomposition
    N: int
    d: int
    base_band: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.base_band[..., None] + self.spectrum.eigenvalues

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
    d, N = _int(d, "torus dimension d", 1), _int(N, "cells per axis N", 3)
    _budget("torus needs", graph.nu * N**d, "states", STATE_BUDGET)
    spectrum = eigendecompose_symmetric(graph.adjacency, tol)
    e0 = base_grid(zd_product_spec(FiniteGraph(1), d), N)
    e0.setflags(write=False)
    return TorusOperator(spectrum=spectrum, N=N, d=d, base_band=e0)


def _normalize_start(op: TorusOperator, start: Start) -> tuple[tuple[int, ...], int]:
    cell, p = start
    if np.ndim(cell) == 0:
        cell = (cell,)
    cell = tuple(_int(x, "start cell coordinate") % op.N for x in cell)
    if len(cell) != op.d:
        raise ParameterError(f"start cell must have {op.d} component(s)")
    return cell, _int(p, "start vertex", 0, op.nu - 1)


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
    t = _real(t, "time t", -math.nextafter(HORIZON_LIMIT, math.inf), HORIZON_LIMIT)  # |t| <= HORIZON_LIMIT
    start = _normalize_start(op, start)
    psi = _assemble(op, start, np.exp(1j * t * op.eigenvalues))
    norm = float(np.linalg.norm(psi))
    _within(abs(norm - 1.0), _NORM_TOL, "evolution lost unitarity")
    return psi


@dataclass(frozen=True)
class TimeAveragedDistribution:
    """Site distribution of the walk averaged over [0, T] (T may be inf).

    ``values`` is the flat probability vector over (cells, q) in the same
    C-order layout as ``evolve``. Entries are nonnegative and sum to 1
    within 1e-10.
    """

    values: np.ndarray
    N: int
    d: int
    nu: int

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.nu * self.N**self.d:
            raise ValueError("distribution length must equal nu * N^d")
        _within(-v.min(), 0.0, "distribution has negative entries")
        _within(abs(float(v.sum()) - 1.0), _MASS_TOL, "distribution mass deviates from 1")
        _store(self, values=v)


def _finalize_distribution(op: TorusOperator, values: np.ndarray) -> TimeAveragedDistribution:
    _within(-values.min(), _REALNESS_TOL, "averaged distribution has negative mass")
    return TimeAveragedDistribution(values=np.maximum(values, 0.0), N=op.N, d=op.d, nu=op.nu)


def _from_pair_grid(
    op: TorusOperator, start: tuple[tuple[int, ...], int], table: list, pair: np.ndarray, orbit: np.ndarray | slice
) -> np.ndarray:
    """Flat distribution roll(ifftn(G), n) / N^d of the walk from (n, p), both averages' tail.

    G[Delta, q] = sum_(j, j') c_j(q) c_j'(q) T[pair[j, j'], orbit[Delta]], c_j(q) = w_j(p) w_j(q),
    takes one GEMM per band j on the float64 cast of T[pair[j]]. The table T comes in a one-element
    list, emptied so that T is freed before the inverse FFT allocates. Raises NumericalError when
    the FFT leaves an imaginary residue above the realness tolerance.
    """
    cell, p = start
    w = op.spectrum.eigenvectors
    coef = w[p, :] * w  # coef[q, j] = w_j(p) w_j(q)
    t = table.pop()
    grid = np.zeros((op.nu, t.shape[1]))
    for j in range(op.nu):
        grid += coef[:, j, None] * (coef @ t[pair[j]].astype(float, copy=False))
    del t
    axes = tuple(range(op.d))
    cells = op.N**op.d
    psi = np.fft.ifftn(grid.T[orbit].reshape(op.grid_shape + (op.nu,)), axes=axes)
    _within(float(np.abs(psi.imag).max()) / cells, _REALNESS_TOL, "averaged distribution not real")
    mu = np.roll(psi.real, cell, axis=axes).reshape(-1)
    mu /= cells
    return mu


def _canonical_offsets(N: int, d: int) -> np.ndarray:
    """Flat C-order index of the canonical offset of every Delta in {0..N-1}^d.

    Each axis folds to min(k, N - k) and the folded axes are sorted, so all
    offsets in one orbit of the signed axis permutations share one canonical
    offset, which is its own canonical offset.
    """
    k = np.indices((N,) * d).reshape(d, -1)
    k = np.minimum(k, N - k)
    k.sort(axis=0)
    return np.ravel_multi_index(k, (N,) * d)


def time_averaged(op: TorusOperator, start: Start, horizon: float) -> TimeAveragedDistribution:
    """Exact average of |e^(itA) delta|^2 over t in [0, horizon].

    Expands the average into eigenpair cross terms weighted by the mean
    phi(x) = (e^(ix) - 1)/(ix) of e^(i t (lambda_alpha - lambda_beta)) over
    [0, T], x = T (lambda_alpha - lambda_beta); no time quadrature is involved.
    Only Re phi(x) = sinc(x) = sin(x)/x is summed: the Im phi terms of the
    pairs (r, r') and (-r, -r') cancel because lambda[-r] = lambda[r] bitwise. As in
    ``infinite_time_averaged`` the pair alpha = (r, j), beta = (r', j')
    reaches (n + m, q) as N^-2d e^(2 pi i (r - r').m / N) c_j(q) c_j'(q), so
    the pairs are summed per plane-wave difference Delta = r - r' mod N:
    S[Delta, j, j'] = sum_r sinc(T (lambda[r, j] - lambda[r - Delta, j'])) and
    G[Delta, q] = sum_(j, j') c_j(q) c_j'(q) S[Delta, j, j'], both real, and
    one inverse FFT of G gives the average. A signed permutation sigma of the
    cell axes keeps lambda (see ``TorusOperator``), so r -> sigma r gives
    S[sigma Delta] = S[Delta] and G[sigma Delta] = G[Delta]: both are computed
    at one canonical offset per orbit (``_canonical_offsets``) and gathered to
    the rest. r -> Delta - r, lambda[-r] = lambda[r] and sinc being even give
    S[Delta, j', j] = S[Delta, j, j'].

    The weights take far fewer sines than there are pairs. The argument is
    T (E0(r) - E0(r - Delta) - g) with the base band E0 (``base_band``) and the
    band gap g = mu_j' - mu_j, and r -> Delta - r maps it to minus the
    argument at -g, so S depends on the bands only through |g|. E0 takes V distinct values v_a
    (about N / 2 in 1-D), and the G distinct gaps include 0 for j = j'. So the
    table sinc(T (v_a - v_b - g)) over class pairs and gaps holds every weight:
    F[Delta, g] sums, over r, its entry at the classes of r and r - Delta,
    found through the cell keys, and S[Delta, j, j'] = F[Delta, |mu_j' - mu_j|]
    goes to ``_from_pair_grid``. F is built for blocks of classes and gathered
    for blocks of offsets, so that no temporary exceeds max(8 N^d, 2048)
    entries beyond one class and one offset. Cost: V^2 G sines, N^d G gathered
    weights per orbit, of which there are C(floor(N/2) + d, d), nu^3 per orbit
    in one GEMM per band and one FFT, in O(dim nu) memory.
    """
    horizon = _real(horizon, "averaging horizon", 0.0, HORIZON_LIMIT)
    start = _normalize_start(op, start)
    _budget("finite-horizon average needs", op.dim, "states", PAIR_SUM_LIMIT)
    N, d, nu = op.N, op.d, op.nu
    cells = N**d
    reps, orbit = np.unique(_canonical_offsets(N, d), return_inverse=True)
    keys, bias, fields = _cell_keys(N, d, nu * nu * cells)
    rep_keys = keys[reps] - bias
    # the distinct band values v_a of E0 and the class a of every cell, cells grouped by class
    vals, cls = np.unique(op.base_band.reshape(-1), return_inverse=True)
    cls = cls.astype(np.int32)  # V <= N^d <= PAIR_SUM_LIMIT
    by_class = np.argsort(cls, kind="stable")
    first = np.searchsorted(cls, np.arange(vals.size + 1), sorter=by_class)
    # the distinct band gaps |mu_j' - mu_j|, 0 for j = j', and the gap of every band pair
    ev = op.spectrum.eigenvalues
    gaps, gap = np.unique(np.abs(ev - ev[:, None]), return_inverse=True)
    V, G = vals.size, gaps.size
    eps = np.finfo(float).eps
    f = np.zeros((G, reps.size))
    # blocks of classes and of offsets keep the (G, classes, V) table and the (G, cells, offsets) gather
    # within 8 N^d entries, or 2048 on small tori, whose smaller blocks would cost more numpy calls than memory
    limit = max(8 * cells, 1 << 11)
    step = max(1, limit // (V * G))
    for a in range(0, V, step):
        # sin(x) / x at x = T (v_a - v_b - g) for the block's classes a, every class b and gap g, with eps for x = 0
        x = np.subtract(vals[a : a + step, None] - vals, gaps[:, None, None])
        x *= horizon
        x[x == 0] = eps
        y = np.sin(x)
        y /= x
        del x  # so a block holds at most two tables at once
        y = y.reshape(G, -1)
        r = by_class[first[a] : first[min(a + step, V)]]  # the block's cells
        row = (cls[r, None] - a) * V  # column of class a, b = 0 in y
        block = max(1, limit // (r.size * (G + 1)))  # G weights and one index per (cell, offset)
        for lo in range(0, reps.size, block):
            # the column of the classes of r and r - Delta in y
            b = cls.take(_torus_offsets(keys[r, None] - rep_keys[lo : lo + block], fields))
            b += row
            f[:, lo : lo + block] += y.take(b, axis=1).sum(axis=1)
        del y
    mu = _from_pair_grid(op, start, [f], gap.reshape(nu, nu), orbit)
    return _finalize_distribution(op, mu)


def infinite_time_averaged(
    op: TorusOperator, start: Start, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> TimeAveragedDistribution:
    """Infinite-horizon average: squared projections onto eigenvalue clusters.

    All nu N^d eigenvalues are clustered with the shared single-linkage rule,
    so the structural r <-> N - r degeneracies (bit-identical here) and any
    accidental cross-band coincidences within tolerance land in one cluster.

    Within a cluster C the squared projection at (n + m, q) is
    N^-2d sum_(alpha, beta in C) e^(2 pi i (r_alpha - r_beta).m / N)
    c_alpha(q) c_beta(q) with c_(r, j)(q) = w_j(p) w_j(q). So the ordered
    pairs only need counting per Delta = r_alpha - r_beta mod N and band pair:
    S[Delta, j, j'] is the collision scan's count table (``_pair_counts``)
    over runs that pair the sorted eigenpair i with its k_i = e - i - 1
    successors up to its cluster's end e, plus one count per eigenpair at
    Delta = 0 for alpha = beta. The eigenvalues mu_j + E0(r) are sorted in
    the scan's band-major layout, j N^d + r, so the sorted positions go to
    ``_pair_counts`` as they are and it frees them before the walk; only the
    positions of the clusters projected alone are copied. The table counts
    the pairs of all runs in chunks of at most N^d, in O(nu + sum |C|^2 /
    N^d) numpy calls. As in ``time_averaged``, ``_from_pair_grid`` contracts
    S into G with one GEMM per band, N^d nu^3 multiply-adds in BLAS, and one
    inverse FFT of G sums all clusters: O(sum |C|^2 + N^d nu^3 + dim log N)
    work. A cluster with nu |C|^2 > N^d nu^2 + dim log2(dim) (a flat or highly
    degenerate band) is projected on its own instead, with k_i = 0, so a
    counted cluster has at most N^d nu + dim log2(dim) / nu pairs. Averages
    over ``floquet.PAIR_COUNT_BUDGET`` counts are rejected before allocating.
    """
    start = _normalize_start(op, start)
    N, d, nu, dim = op.N, op.d, op.nu, op.dim
    cells = N**d
    _budget("infinite-time average needs", nu * nu * cells, "counts", floquet.PAIR_COUNT_BUDGET)
    # band-major lambda[j, r] = mu_j + E0(r), bit for bit the sums ``op.eigenvalues`` forms, in the scan's layout
    lam = np.add.outer(op.spectrum.eigenvalues, op.base_band.reshape(-1)).reshape(-1)
    order = [np.argsort(lam, kind="stable")]
    ends = cluster_eigenvalues(lam[order[0]], cluster_tol)
    del lam  # the nu N^d eigenvalues go before the count table is allocated
    sizes = np.diff(ends, prepend=0)
    alone = nu * sizes**2 > cells * nu**2 + dim * math.log2(dim)
    # successors of each sorted position in its cluster, < 0 where the cluster is projected alone
    k = np.repeat(np.where(alone, 0, ends), sizes) - np.arange(1, dim + 1)
    same = np.bincount(order[0][k >= 0] // cells, minlength=nu)  # alpha = beta
    # copies, so that no view keeps the positions alive once ``_pair_counts`` drops them
    lone = [order[0][lo:hi].copy() for lo, hi in zip(ends[alone] - sizes[alone], ends[alone])]
    # T[j nu + j', Delta], a view of the count table that ``_from_pair_grid`` frees before its inverse FFT
    counts = [_pair_counts(order, np.maximum(k, 0, out=k), N, d).reshape(cells, nu * nu).T]
    del k  # the running sum is dead; the FFT and the lone clusters' projections need none of it
    counts[0][:: nu + 1, 0] += same  # rows j nu + j at Delta = 0
    mu = _from_pair_grid(op, start, counts, np.arange(nu * nu).reshape(nu, nu), slice(None))
    for positions in lone:
        weights = np.zeros((nu, cells))
        weights.reshape(-1)[positions] = 1.0
        a = _assemble(op, start, weights.T.reshape(op.grid_shape + (nu,)))
        mu += a.real**2 + a.imag**2
    return _finalize_distribution(op, mu)


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
