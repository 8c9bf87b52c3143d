"""Band structures of periodic graphs and their collision and density scans.

A periodic graph reduces, fiber by fiber over the torus of quasimomenta
theta in [0,1)^d, to a nu x nu Hermitian matrix H(theta) whose eigenvalue
branches are the band functions. Two scan operations live here: counting
near-collisions E_s(theta + m/N) = E_w(theta) over a finite grid (the
ergodicity condition for the time average to converge), and accumulating the
grid approximation of the limiting density from per-point eigenprojections.

The collision scan sorts the nu N^d band values once. Each sorted position i
pairs with the run of its k_i successors closer than delta, so the scan
costs O(nu N^d log(nu N^d) + close pairs) instead of nu^2 N^2d tests and
holds one count per shift and band pair. That table, ``_pair_counts``, also
serves the infinite-time average in ``dynamics``, whose runs end at the end
of each eigenvalue cluster. It counts the pairs of all runs in chunks of at
most N^d, with one code subtraction, one cell-key table gather and one
``np.add.at`` per chunk, so it takes O(nu + pairs / N^d) numpy calls however
long the runs are. Each cell has a padded key (``_cell_keys``), and a small
int32 table maps the difference of two keys to their flat torus offset
(r_a - r_b) mod N, with no division. The same keys give the offsets
r - Delta of the finite-horizon average.

The grid quadrature walks the grid in blocks of K = max(1, 64 // nu^2, 24 // nu)
fibers, so a block of several fibers holds at most 288 matrix entries: per
block one stacked fiber-matrix build, one stacked ``eigh``, the row-wise
clustering rule of ``spectral`` and one ``squared_projection_sum`` per
cluster pattern, so a block costs a fixed few dozen numpy calls instead of K
times a per-fiber loop. It adds the fibers in grid order and so gives the
per-fiber loop's values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import FiniteGraph, ParameterError, PeriodicGraphSpec, ProductKind, _budget, _int, _real
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    DensityMatrix,
    EigenSolverError,
    SpectralDecomposition,
    _cluster_splits,
    _cluster_tol,
    _split_ends,
    _within,
    cluster_gap,
    eigendecompose_symmetric,
    squared_projection_sum,
)

__all__ = [
    "DEFAULT_COLLISION_DELTA",
    "PAIR_COUNT_BUDGET",
    "SCAN_PAIR_BUDGET",
    "FIBER_BUDGET",
    "BandStructure",
    "FloquetScanReport",
    "base_grid",
    "build_floquet_matrix",
    "product_spec",
    "flat_band_check",
    "floquet_condition_fraction",
    "general_density",
]

DEFAULT_COLLISION_DELTA = 1e-9
# The collision scan and the infinite-time torus average each fill one int32
# ``_pair_counts`` table of nu^2 N^d counts, 16 MB at this budget, beside two
# int32 codes per band value and cell-key tables of at most nu^2 N^d int32
# entries each, built by the same call. C3 on a 512 x 512 torus needs 2.4M
# counts. At the budget the whole scan of complete4 x Z^2 at N = 512 peaks at
# 36 MB (tracemalloc) and the average on a C4 x 512 x 512 torus at 42 MB.
PAIR_COUNT_BUDGET = 1 << 22
# The scan's sweep walks every close pair of band values, about 15 ns each
# (10.4M pairs took 0.14 s, 40.1M 0.69 s), so this budget keeps a walk near a
# second, as ``classical.STEP_BUDGET`` does: scans with more are rejected
# before the walk. Its memory is bounded by PAIR_COUNT_BUDGET and N^d chunks.
SCAN_PAIR_BUDGET = 1 << 26
# Grid quadrature diagonalizes one fiber matrix per grid point: N^d of them.
FIBER_BUDGET = 1 << 20
# Quadrature blocks hold K fibers with K nu^2 <= _BLOCK_ENTRIES matrix entries
# or K nu <= _BLOCK_ROWS matrix rows, whichever allows more (``_block_fibers``):
# 16 fibers at nu = 2, 4 at nu = 6, 2 at nu = 10-12, one from nu = 13. They
# set the per-block temporaries, which stay under the spec build's memory peak.
_BLOCK_ENTRIES = 64
_BLOCK_ROWS = 24

_HERMITICITY_TOL = 1e-12


def build_floquet_matrix(spec: PeriodicGraphSpec, theta: float | Sequence[float]) -> np.ndarray:
    """Fiber matrix H(theta)(p, q) = sum over the offset edges (p, q, n) of e^(2 pi i theta.n).

    ``theta`` is one quasimomentum of d components, giving a (nu, nu)
    matrix, or a stack of shape (K, d), giving (K, nu, nu). Each distinct
    offset n contributes one phase column e^(2 pi i theta.n), added to its
    (p, q) entries in ascending order of n, so each matrix of a stack equals
    the single-theta call bit for bit: one gather and one addition per level
    of ``PeriodicGraphSpec._offset_targets``, whatever the number of offsets.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.ndim > 2 or th.shape[-1] != spec.d:
        raise ParameterError(f"theta must have {spec.d} component(s)")
    nu = spec.nu
    offsets, levels = spec._offset_targets
    # e^(2 pi i theta.n), a row per distinct offset and a column per theta,
    # over a row of zeros that pads the levels. A NaN theta makes the real
    # part of 2j * pi * x NaN too, so exp stays quiet and the check fails.
    x = offsets @ th.reshape(-1, spec.d).T
    phases = np.empty((x.shape[0] + 1, x.shape[1]), dtype=complex)
    phases[-1] = 0.0
    p = phases[:-1]
    np.multiply(x, 2j * np.pi, out=p)
    del x
    np.exp(p, out=p)
    # Each entry starts at +0 and gains its phases in ascending order of n, as
    # a loop over the offsets would add them. Such a sum is never -0, so
    # neither the padding's +0 nor the sign of a phase's zero part moves a bit.
    h = np.zeros((nu * nu, phases.shape[1]), dtype=complex)
    for entries in levels:
        h += phases.take(entries, axis=0)
    del phases, p
    h = np.ascontiguousarray(h.T).reshape(th.shape[:-1] + (nu, nu))  # fiber k was column k
    skew = h.conj()
    skew -= h.swapaxes(-1, -2)  # H^H - H, transposed
    _within(np.abs(skew).max(initial=0.0), _HERMITICITY_TOL, "fiber matrix is not Hermitian")
    return h


@dataclass(frozen=True)
class BandStructure:
    """Band functions of a product of a one-vertex base with a finite graph.

    ``base`` is a one-vertex ``PeriodicGraphSpec`` with band E_0(theta), such
    as ``zd_product_spec(FiniteGraph(1), d)`` or ``triangular_spec()``. The
    bands are E_j(theta) = rule(E_0(theta), mu_j) over the eigenvalues mu_j
    of the finite factor: E_0 + mu_j for the box product, mu_j * E_0 for the
    tensor product, (1 + mu_j) E_0 + mu_j for the strong product.
    """

    base: PeriodicGraphSpec
    spectrum: SpectralDecomposition
    rule: ProductKind

    @property
    def nu(self) -> int:
        return self.spectrum.nu


def product_spec(base: PeriodicGraphSpec, graph: FiniteGraph, kind: ProductKind) -> BandStructure:
    """Band structure of the product of a one-vertex base spec with a finite graph."""
    if base.nu != 1:
        raise ParameterError(f"a product base must have one vertex per cell, got {base.nu}")
    return BandStructure(base=base, spectrum=eigendecompose_symmetric(graph.adjacency), rule=kind)


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


def base_grid(base: PeriodicGraphSpec, N: int) -> np.ndarray:
    """Band of a one-vertex spec sampled on the grid {0..N-1}^d / N, shape (N,) * d.

    Starting from zero, each offset pair +-n adds 2cos(2 pi min(j, N-j) / N)
    at j = n.k mod N, so mirrored grid points are bit-identical and exact
    band degeneracies under k -> N-k survive floating point. The pairs are
    added shortest n first, then in descending lexicographic order: e_0, ...,
    e_(d-1) on Z^d and e_1, e_2, e_1 + e_2 on the triangular lattice.
    """
    digits = np.indices((N,) * base.d, sparse=True)
    k = digits[-1]  # 0 .. N - 1 along the last axis
    c = 2.0 * np.cos(2.0 * np.pi * np.minimum(k, N - k) / N)
    # one vertex: the rows are the offsets, ascending and closed under n -> -n, so the last half is +n
    rows = base.offset_edges
    half = rows[len(rows) // 2 :, 2:].tolist()[::-1]
    half.sort(key=lambda n: sum(map(abs, n)))  # stable, so equal lengths stay in descending order
    grid = np.zeros((N,) * base.d)
    for n in half:
        # j = n.k mod N; take wraps the index sum, whose terms are below N^2 each
        j = sum(s % N * digits[i] for i, s in enumerate(n) if s % N)
        grid += c.take(j, mode="wrap")
    return grid


def _band_grid(bands: BandStructure, N: int) -> np.ndarray:
    """All band values on the grid {0..N-1}^d / N, shape (nu,) + (N,) * d."""
    e0 = base_grid(bands.base, N)
    mu = bands.spectrum.eigenvalues.reshape((-1,) + (1,) * e0.ndim)
    if bands.rule is ProductKind.CARTESIAN:
        return e0 + mu
    if bands.rule is ProductKind.TENSOR:
        return mu * e0
    return (1.0 + mu) * e0 + mu


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
    bands: BandStructure, N: int, delta: float = DEFAULT_COLLISION_DELTA, tol: float = DEFAULT_CLUSTER_TOL
) -> FloquetScanReport:
    """Scan all nonzero grid shifts for band near-collisions.

    For every m in {0..N-1}^d except 0 and every band pair (s, w), counts the
    grid points r with |E_s((r + m)/N) - E_w(r/N)| < delta and reports the
    maximum count divided by N^d. Ties keep the first shift and pair in
    lexicographic order. A flat band forces max_fraction = 1. ``flat_bands``
    lists the bands ``flat_band_check`` finds flat at clustering tolerance tol.

    Shift (0, ..., 0, 1), the first in that order, is counted densely. If a
    pair already meets at all N^d points there, no later shift can beat it
    and the scan stops; a flat band always ends here. Otherwise one sorted
    sweep over all nu N^d band values counts every shift at once (see
    ``_collision_counts``): O(nu N^d log(nu N^d) + close pairs) time and
    nu^2 N^d integer counts of memory. Scans needing more than
    ``PAIR_COUNT_BUDGET`` counts are rejected before anything is allocated.
    """
    N = _int(N, "grid size N", 2)
    delta = _real(delta, "collision width delta", 0.0)
    d = bands.base.d
    nu = bands.nu
    cells = N**d
    _budget("collision scan needs", nu * nu * cells, "counts", PAIR_COUNT_BUDGET)
    flat_bands = tuple(flat_band_check(bands, tol))
    grid = _band_grid(bands, N)
    flat = [grid.reshape(nu, cells)]
    # shift (0, ..., 0, 1) comes first in C order; count it densely, one band row at a time
    counts = np.stack(
        [(np.abs(np.roll(row, -1, axis=-1).reshape(-1) - flat[0]) < delta).sum(axis=1) for row in grid]
    ).reshape(-1)
    del grid  # the sweep frees the band values once it has sorted them
    if counts.max() < cells:
        counts = _collision_counts(flat, N, d, delta).reshape(-1)[nu * nu :]
    best = int(np.argmax(counts))
    shift, pair = divmod(best, nu * nu)
    return FloquetScanReport(
        N=N,
        max_fraction=int(counts[best]) / cells,
        worst_shift=tuple(int(x) for x in np.unravel_index(shift + 1, (N,) * d)),
        worst_pair=divmod(pair, nu),
        flat_bands=flat_bands,
    )


def _cell_keys(
    N: int, d: int, limit: int, low: int = 0, unit: int = 1
) -> tuple[np.ndarray, int, list[tuple[int, int, np.ndarray]]]:
    """Padded keys of the cells of the (N,)*d torus, their bias, and the fields that read torus offsets.

    The axes form groups of consecutive axes, the top group first, and each
    group one bit field of the key above its ``low`` bits, with digit r_i at
    stride (2N)^j, j counting from the group's last axis. ``bias`` holds N
    per digit except the top one, so in key[a] - key[b] + bias each digit
    difference plus N lies in [1, 2N - 1]: no digit borrows, and a value
    below 2^low added to it stays in the low bits. Each field (shift, mask,
    table) maps its value to its axes' part of unit * the flat C-order index
    of (r_a - r_b) mod N, added up by ``_torus_offsets``. The top digit alone
    can go negative, so the top table, N (2N)^(g - 1) entries for g axes, is
    read with ``take(mode="wrap")``; a lower one has (2N)^g. A group takes
    axes while its table stays within ``limit`` entries, and at least one.
    """
    groups, lo = [], 0
    while lo < d:
        g, size = 1, N if lo == 0 else 2 * N
        while lo + g < d and size * 2 * N <= limit:
            g, size = g + 1, size * 2 * N
        groups.append((lo, g))
        lo += g
    digits = np.indices((N,) * d, sparse=True)
    keys, bias, shift, fields = 0, 0, low, []
    for lo, g in reversed(groups):
        e = np.indices((N if lo == 0 else 2 * N,) + (2 * N,) * (g - 1), sparse=True)
        table = sum((x % N * (unit * N ** (d - 1 - lo - j))).astype(np.int32) for j, x in enumerate(e))
        width = ((2 * N) ** g - 1).bit_length()
        fields.append((shift, (1 << width) - 1, table.reshape(-1)))
        for j in range(g):
            stride = (2 * N) ** (g - 1 - j) << shift
            keys = keys + digits[lo + j] * stride
            bias += N * stride if lo + j else 0
        shift += width
    return keys.reshape(-1), bias, fields[::-1]


def _torus_offsets(diff: np.ndarray, fields: list[tuple[int, int, np.ndarray]]) -> np.ndarray:
    """unit * the flat index of (r_a - r_b) mod N from key[a] - key[b] + bias + low bits (``_cell_keys``)."""
    shift, _, table = fields[0]
    m = table.take(diff >> shift, mode="wrap")
    for shift, mask, table in fields[1:]:
        m += table.take((diff >> shift) & mask)
    return m


def _close_runs(x: np.ndarray, delta: float, block: int) -> np.ndarray:
    """k[i] = #{j > i : x[j] - x[i] < delta} of ascending x ending in inf, int32, block positions at a time.

    Rounding is monotone, so x[j] - x[i] < delta holds exactly for j below a
    boundary J_i, and k[i] = J_i - i - 1. ``np.searchsorted(x, x[i] + delta)``
    guesses J_i; where the rounded sum and difference disagree, the guess
    steps up while x[J] passes and down while x[J - 1] fails, a whole group of
    equal values per step, until it sits on the boundary. That is a dozen
    numpy calls per block while no guess is off. The scan holds at most
    ``PAIR_COUNT_BUDGET`` (2^22) values, so each k[i] fits int32, and it
    checks ``SCAN_PAIR_BUDGET`` (2^26) before the running sum, so that fits too.
    """
    n = x.size - 1
    k = np.empty(n, dtype=np.int32)
    for lo in range(0, n, block):
        xi = x[lo : min(lo + block, n)]
        J = np.searchsorted(x, xi + delta)
        while True:
            up = x[J] - xi < delta  # x[n] = inf never passes
            down = ~up & ~(x[J - 1] - xi < delta)  # J = 0 only where x[0] passes
            if not (up.any() or down.any()):
                break
            J[up] = np.searchsorted(x, x[J[up]], side="right")
            J[down] = np.searchsorted(x, x[J[down] - 1], side="left")
        J -= np.arange(lo + 1, lo + 1 + xi.size)
        k[lo : lo + block] = J
    return k


def _run_pair_chunk(ends: np.ndarray, lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(first, reps, j) of the pairs lo .. hi - 1 when each position i pairs with i + 1 .. i + k[i].

    ``ends`` is the running sum of k, so pairs ends[i] - k[i] .. ends[i] - 1
    belong to i, pair g with j = i + ends[i] - g. The chunk's pairs (i, j)
    take i = first, first + 1, ... reps[0], reps[1], ... times each, so a
    caller repeats what it needs of i without gathering it; j comes from one
    ``np.repeat`` of i + ends[i] and the ramp g. reps and j have the dtype of
    ``ends``: int32 for the scan, int64 for the average.
    """
    # needles of the dtype of ends: Python ints would make searchsorted convert all of ends
    first, last = ends.searchsorted(np.array([lo, hi - 1], dtype=ends.dtype), side="right")
    e = ends[first : last + 1]
    reps = np.minimum(e, hi)
    reps[1:] -= e[:-1]
    reps[0] -= lo
    pos = np.arange(first, last + 1, dtype=ends.dtype)
    pos += e
    j = np.repeat(pos, reps)
    j -= np.arange(lo, hi, dtype=ends.dtype)
    return int(first), reps, j


def _pair_counts(order: list, k: np.ndarray, N: int, d: int) -> np.ndarray:
    """C[m, s, w] = #{counted pairs of a = (s, r_a), b = (w, r_b) with r_a - r_b = m}.

    ``order`` is a one-element list holding the band-major positions p_i =
    s * N^d + r in sorted order, and sorted position i pairs with its k[i]
    successors: (a, b) = (p_(i + t), p_i) for t = 1 .. k[i] counts, and so
    does its mirror (b, a); no position pairs with itself. Position i gets
    the codes a_i = key << sh + s nu and b_i = (key - bias) << sh - s from
    the cell key of r (``_cell_keys``), 2^sh >= nu^2, so the fields read nu^2
    (r_j - r_i) mod N from a_j - b_i and its low bits hold the band pair: a
    pair's flat count index takes no division. The codes are int32 when
    every difference fits, else int64; ``order`` is emptied, so the
    positions are freed once the codes exist. The pairs are counted in
    chunks of at most N^d pairs from one block of N^d positions, each with
    one ``_run_pair_chunk``, one code gather, repeat and subtraction, one
    table gather per field and one ``np.add.at``: O(nu + pairs / N^d) numpy
    calls and chunk temporaries of at most N^d entries. ``k`` is overwritten
    with its running sum. The codes and tables are freed before the mirror
    pairs are added in place, in four blocks of N^d / 4 cells whose gathered
    mirror rows stay within a quarter of the table: each cell r gets C[r] +
    C[-r]^T, so a cell with r = -r gets C + C^T, and a cell whose mirror lies
    in an earlier block, and so holds that sum already, gets its transpose.
    int32 counts (each at most N^d), shape (N^d, nu, nu).
    """
    positions = order.pop()
    cells = N**d
    n = positions.size
    nu = n // cells
    sh = (nu * nu - 1).bit_length()
    keys, bias, fields = _cell_keys(N, d, nu * nu * cells, sh, nu * nu)
    mirror = _torus_offsets(bias - keys, fields) // (nu * nu)
    dtype = np.int32 if int(keys[-1]) + bias + nu * nu <= np.iinfo(np.int32).max else np.int64
    keys = keys.astype(dtype)
    band = np.arange(nu, dtype=dtype)[:, None]
    lut = np.add(keys, band * nu)  # band-major, one buffer for both lookups
    code_a = lut.reshape(-1).take(positions)
    keys -= bias
    code_b = np.subtract(keys, band, out=lut).reshape(-1).take(positions)
    del positions, keys, lut  # the walk needs the codes only
    low = (1 << sh) - 1
    ends = np.cumsum(k, out=k)
    counts = np.zeros((cells, nu, nu), dtype=np.int32)
    flat = counts.reshape(-1)
    for block in range(0, n, cells):
        start = int(ends[block - 1]) if block else 0
        stop = int(ends[min(block + cells, n) - 1])
        for lo in range(start, stop, cells):
            first, reps, j = _run_pair_chunk(ends, lo, min(lo + cells, stop))
            diff = code_a.take(j)
            del j
            diff -= np.repeat(code_b[first : first + reps.size], reps)
            m = _torus_offsets(diff, fields)
            diff &= low
            m += diff
            # an increment of the counts' own dtype keeps add.at on its fast path
            np.add.at(flat, m, np.int32(1))
            del diff, m
    del code_a, code_b, fields
    step = -(-cells // 4)
    for lo in range(0, cells, step):
        rows = counts[lo : lo + step]
        neg = mirror[lo : lo + step]
        mirrored = counts.take(neg, axis=0)
        rows[neg < lo] = 0  # those mirrors hold their sums already, C[-r] + C[r]^T
        rows += mirrored.swapaxes(1, 2)
    return counts


def _collision_counts(grid: list, N: int, d: int, delta: float) -> np.ndarray:
    """C[m, s, w] = #{r : |E_s(r + m) - E_w(r)| < delta} from one sorted sweep.

    ``grid`` is a one-element list holding E_s(r) at [s, r] with r flat in C
    order over (N,)*d; it is emptied, so the band values are freed once
    sorted. Returns C of shape (N,)*d + (nu, nu). Sorted ascending, the hits
    of position i are the run of its successors closer than delta;
    ``_close_runs`` finds each run's length N^d positions at a time, and
    ``_pair_counts`` counts the runs' pairs from the sorted band-major
    positions, held in a list that it empties. That is O(nu + pairs / N^d)
    numpy calls.
    """
    values = grid.pop()
    nu, cells = values.shape
    order = [np.argsort(values, axis=None, kind="stable")]
    x = np.empty(order[0].size + 1)
    values.reshape(-1).take(order[0], out=x[:-1])
    x[-1] = np.inf  # the inf ends every run at the last position
    del values
    k = _close_runs(x, delta, cells)
    del x  # the pair counts need the run lengths only
    _budget("collision scan walks", int(k.sum()), "close pairs", SCAN_PAIR_BUDGET)
    return _pair_counts(order, k, N, d).reshape((N,) * d + (nu, nu))


def _block_fibers(nu: int) -> int:
    """Fibers K per quadrature block of nu x nu fiber matrices, at least one."""
    return max(1, _BLOCK_ENTRIES // nu**2, _BLOCK_ROWS // nu)


def _mixed_densities(vecs: np.ndarray, split: np.ndarray) -> np.ndarray:
    """sum_s |P_s|^2 of each fiber of a block whose cluster patterns differ, shape (K, nu, nu).

    One ``squared_projection_sum`` per pattern, over the fibers that share it.
    """
    d = np.empty(vecs.shape, dtype=float)
    todo = np.ones(len(split), dtype=bool)
    while todo.any():
        same = (split == split[todo.argmax()]).all(axis=1)
        rows = np.flatnonzero(same)
        d[rows] = squared_projection_sum(vecs[rows], _split_ends(split[rows[0]]))
        todo &= ~same
    return d


def general_density(
    spec: PeriodicGraphSpec, N: int, tol: float = DEFAULT_CLUSTER_TOL
) -> DensityMatrix:
    """Grid-quadrature limiting density of an arbitrary periodic spec, source ``quadrature``.

    Walks the N^d grid points r/N in C order, in blocks of K fibers, K =
    ``_block_fibers(nu)`` (16 for nu = 2, 4 for nu = 6, one from nu = 13).
    Each block builds its K fiber matrices with one ``build_floquet_matrix``
    call, diagonalizes them with one stacked ``eigh``, clusters every row
    with the shared single-linkage rule, and adds the squared moduli of the
    distinct-eigenvalue projections, one ``squared_projection_sum`` per
    cluster pattern in the block. A block whose fibers all repeat the last
    uniform block's pattern reuses its cluster ends, which is all that
    crosses blocks. That is O(K nu^3) work per block and O(K nu^2) memory.
    ``tol`` is checked once, before the first fiber. The fibers are summed
    in grid order, so the result is bit for bit that of a loop over single
    fibers. The ``DensityMatrix`` checks the result's symmetry, its range and
    its row sums (within 1e-10). Grids of more than ``FIBER_BUDGET`` points
    are rejected before anything is allocated.
    """
    N = _int(N, "grid size N", 1)
    tol = _cluster_tol(tol)
    fibers = N**spec.d
    _budget("grid quadrature needs", fibers, "fibers", FIBER_BUDGET)
    shape = (N,) * spec.d
    block = _block_fibers(spec.nu)
    acc = np.zeros((spec.nu, spec.nu))
    pattern = ends = None  # the cluster pattern that every fiber of a recent block shared, and its ends
    for lo in range(0, fibers, block):
        hi = min(lo + block, fibers)
        theta = np.array(np.unravel_index(np.arange(lo, hi), shape), dtype=float).T
        theta /= N
        try:
            vals, vecs = np.linalg.eigh(build_floquet_matrix(spec, theta))
        except np.linalg.LinAlgError as exc:
            first, last = (tuple(map(int, np.unravel_index(i, shape))) for i in (lo, hi - 1))
            raise EigenSolverError(
                f"fiber eigendecomposition failed in the block of grid points {first} to {last}"
            ) from exc
        split = _cluster_splits(vals, tol)
        if pattern is None or not (split == pattern).all():
            if (split == split[0]).all():  # a copy, so this block's split goes with the block
                pattern, ends = split[0].copy(), _split_ends(split[0])
            else:
                pattern = None
        d = _mixed_densities(vecs, split) if pattern is None else squared_projection_sum(vecs, ends)
        d[0] += acc  # then the sum over the block adds fiber after fiber, as a per-fiber loop would
        acc = d.sum(axis=0)
        del vals, vecs, split, d  # so two blocks' temporaries are never alive at once
    acc /= fibers
    return DensityMatrix(values=acc, source="quadrature")
