"""Symmetric eigendecompositions, eigenvalue clustering, and limiting densities.

The limiting density of the time-averaged quantum walk on a finite graph is
assembled from the spectral projections onto distinct eigenvalues of the
adjacency matrix: d(p, q) = sum_s P_s(p, q)^2. Eigenvalues are grouped into
numerically distinct clusters by single linkage with an absolute gap of
tol * max(1, spectral radius); each cluster is a contiguous run of the
ascending order, carried as the exclusive end of that run. The one rule,
``_cluster_splits``, works on a stack of spectra row by row, each row with
its own gap, so one call clusters a whole block of Bloch fibers.

Each term P_s o P_s is the Schur square of a projection, which expands over
pairs of the cluster's eigenvectors (the average mixing matrix of Godsil,
JCTA 2013). ``squared_projection_sum`` therefore sums every cluster of at
most ``_pair_max(n)`` eigenvalues (a measured crossover that grows with the
matrix size n) by GEMMs over all such clusters at once, and forms only the
larger clusters' projections block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import FiniteGraph, _real

__all__ = [
    "DEFAULT_CLUSTER_TOL",
    "NumericalError",
    "EigenSolverError",
    "SpectralDecomposition",
    "DensityMatrix",
    "cluster_gap",
    "cluster_eigenvalues",
    "eigendecompose_symmetric",
    "squared_projection_sum",
    "density_from_decomposition",
    "limiting_density",
]

DEFAULT_CLUSTER_TOL = 1e-8

_SYMMETRY_TOL = 1e-12
_RECONSTRUCTION_REL = 1e-9
_ORTHONORMALITY_TOL = 1e-10
_ROW_SUM_TOL = 1e-10


class NumericalError(RuntimeError):
    """A computed quantity violated its tolerance contract."""


class EigenSolverError(NumericalError):
    """Eigendecomposition failed or did not reproduce the input matrix."""


def _within(err: float, tol: float, what: str, error: type[Exception] = NumericalError) -> None:
    """Raise ``error`` unless the residual ``err`` is at most ``tol``; NaN fails.

    Every tolerance contract in the package is checked here.
    """
    if not err <= tol:
        raise error(f"{what}: deviation {err:.3e}")


def _cluster_tol(tol) -> float:
    """``tol`` as a float when it is a finite real above 0 (``graphs._real``), else ParameterError."""
    return _real(tol, "clustering tolerance", 0.0)


def _gap(values: np.ndarray, tol: float) -> np.ndarray:
    """``cluster_gap`` of an accepted tolerance, keeping the last axis with length 1."""
    return min(tol, 2.0) * np.abs(values).max(axis=-1, initial=1.0, keepdims=True)


def cluster_gap(values: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL) -> float | np.ndarray:
    """Clustering gap tol * max(1, max|value|) over the last axis of eigenvalues.

    A float for a 1-D array, one gap per row for a stack of rows. Raises
    ParameterError unless tol is a finite real above 0 (``_cluster_tol``).
    No two values of a row are more than 2 max|value| apart, so tol = 2
    already joins every row into one cluster; larger tolerances are taken as
    2, which keeps the gap finite.
    """
    return _gap(values, _cluster_tol(tol))[..., 0]


def _cluster_splits(values: np.ndarray, tol: float) -> np.ndarray:
    """Where each row of ascending eigenvalues starts a new cluster, shape (..., n - 1).

    Single linkage: consecutive values of a row no further apart than the
    row's ``cluster_gap`` share a cluster, so ``split[..., j]`` is True where
    value j + 1 opens the next one. This is the package's one clustering rule.
    The callers check ``tol`` (``_cluster_tol``), the quadrature once for all its blocks.
    """
    step = values[..., 1:] - values[..., :-1]  # np.diff and np.any cost more per block of Bloch fibers
    if step.min(initial=0.0) < 0:
        raise ValueError("values must be ascending")
    return step > _gap(values, tol)


def _split_ends(split: np.ndarray) -> np.ndarray:
    """Cluster ends of one row of ``_cluster_splits``, rising to its length + 1."""
    return np.append(np.flatnonzero(split) + 1, split.size + 1)


def cluster_eigenvalues(values: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL) -> np.ndarray:
    """Group an ascending array of eigenvalues into degenerate clusters.

    The rows of ``_cluster_splits`` for one array: every cluster is a
    contiguous run. Returns the exclusive end of each run, rising to
    len(values); its length is the number of clusters.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    split = _cluster_splits(values, _cluster_tol(tol))  # before the empty return, so tol is checked there too
    if values.size == 0:
        return np.zeros(0, dtype=np.intp)
    return _split_ends(split)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues, eigenvectors, and degeneracy clusters of a symmetric matrix.

    ``eigenvalues`` is ascending, ``eigenvectors`` holds orthonormal columns
    in the same order, and ``ends`` holds the exclusive end of each cluster
    of numerically distinct eigenvalues, as ``cluster_eigenvalues`` returns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ends: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        ends = np.asarray(self.ends, dtype=np.intp)
        n = vals.size
        if vecs.shape != (n, n):
            raise ValueError("eigenvectors must be square and match eigenvalues")
        if ends.ndim != 1 or np.any(np.diff(ends, prepend=0) <= 0) or ends.max(initial=0) != n:
            raise ValueError("cluster ends must rise strictly to the eigenvalue count")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        ends.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "ends", ends)

    @property
    def clusters(self) -> tuple[range, ...]:
        """Index range of each cluster, in ascending order."""
        ends = self.ends.tolist()
        return tuple(map(range, [0] + ends[:-1], ends))

    @property
    def nu(self) -> int:
        return self.eigenvalues.size

    def validate(self) -> None:
        """Check orthonormality of the eigenvector columns."""
        v = self.eigenvectors
        err = np.abs(v.T @ v - np.eye(self.nu)).max()
        _within(err, _ORTHONORMALITY_TOL, "eigenvectors not orthonormal")


def eigendecompose_symmetric(
    matrix: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL
) -> SpectralDecomposition:
    """Eigendecompose a real symmetric matrix with degeneracy clustering.

    Raises ValueError for empty or non-symmetric input and EigenSolverError
    when the solver fails to converge or the decomposition does not
    reconstruct the matrix to 1e-9 * max(1, ||M||_max).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError("matrix must be square and nonempty")
    _within(np.abs(m - m.T).max(), _SYMMETRY_TOL, "matrix is not symmetric", ValueError)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
    scale = max(1.0, float(np.abs(m).max()))
    recon = np.abs(m - (vecs * vals) @ vecs.T).max()
    _within(recon, _RECONSTRUCTION_REL * scale, "decomposition does not reconstruct input",
            EigenSolverError)
    dec = SpectralDecomposition(
        eigenvalues=vals, eigenvectors=vecs, ends=cluster_eigenvalues(vals, tol)
    )
    dec.validate()
    return dec


@dataclass(frozen=True)
class DensityMatrix:
    """Limiting density d(p, q) of the time-averaged walk, one row per start vertex.

    Rows are probability distributions: entries lie in [0, 1] and each row
    sums to 1 within 1e-10. ``source`` records how the values were obtained,
    one of ``numeric``, ``closed-form``, ``quadrature``.
    """

    values: np.ndarray
    source: str

    def __post_init__(self) -> None:
        d = np.asarray(self.values, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("density must be square")
        if self.source not in ("numeric", "closed-form", "quadrature"):
            raise ValueError(f"unknown source {self.source!r}")
        _within(np.abs(d - d.T).max(), _ROW_SUM_TOL, "density matrix not symmetric")
        # each side exactly as d.min() >= -1e-12 and d.max() <= 1 + 1e-12
        outside = np.maximum(-1e-12 - d.min(), d.max() - (1.0 + 1e-12))
        _within(outside, 0.0, "density entries outside [0, 1]")
        _within(np.abs(d.sum(axis=1) - 1.0).max(), _ROW_SUM_TOL, "density rows do not sum to 1")
        d.setflags(write=False)
        object.__setattr__(self, "values", d)

    @property
    def nu(self) -> int:
        return self.values.shape[0]

    def to_density_matrix(self) -> DensityMatrix:
        """This density itself, for callers of the former quadrature result type.

        ``bench/workloads.py`` still calls it on ``general_density``; ROADMAP
        item 3 removes that call, and then this method.
        """
        return self


def _pair_max(n: int) -> int:
    """Largest cluster that ``squared_projection_sum`` sums by pairs, for n x n eigenvectors.

    The measured crossover of its two forms, which grows with n: for
    random orthonormal columns in uniform clusters of m (timeit, 2-core
    Xeon, OpenBLAS on 1 thread, real and complex, single matrices and
    stacks of 32) the pair GEMM is the faster up to m = 3 at n = 8 to 24,
    5 at n = 48 to 64, 6 to 8 at n = 96, 8 to 10 at n = 192, 12 at
    n = 384, 13 to 14 at n = 480 and 18 to 19 at n = 768.
    """
    return 3 + n // 48


def squared_projection_sum(vecs: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """sum_s |V_s V_s^H|^2 entrywise, for real or complex orthonormal columns V.

    ``vecs`` is one n x n matrix V or a stack of them, shape (..., n, n),
    whose matrices all share ``ends``, the cluster ends of
    ``cluster_eigenvalues``: cluster s is the column run
    V_s = V[..., ends[s-1]:ends[s]]. Each term is the Schur square
    E_s o E_s of the cluster's projection, and with x_ab = v_a o conj(v_b)

        |V_s V_s^H|^2 = sum_(a in s) |v_a|^2 (|v_a|^2)^T + 2 Re sum_(a < b in s) x_ab x_ab^H.

    Clusters of at most ``_pair_max(n)`` = 3 + n // 48 columns (the
    measured crossover of the two forms) use this identity: all their
    columns enter one GEMM (|W|^2)(|W|^2)^T, and all their in-cluster pairs
    a < b enter 2 Y Y^T, where Y holds the x_ab (a complex x viewed as
    interleaved real and imaginary parts, so Y Y^T = Re X X^H), n pairs per
    GEMM so that no temporary exceeds n x n entries. A spectrum of simple
    eigenvalues runs the first GEMM alone, and when no cluster is larger
    than ``_pair_max(n)`` that GEMM reads V itself, with no gathered copy.
    Larger clusters form their projection, one block at a time.
    """
    n = vecs.shape[-1]
    pair_max = _pair_max(n)
    own: list[int] = []
    first: list[int] = []
    second: list[int] = []
    blocks = []
    lo = 0
    for hi in ends.tolist():  # lists: numpy index building costs more than a quadrature block's few columns
        if hi - lo > pair_max:
            blocks.append((lo, hi))
        else:
            own.extend(range(lo, hi))
            for a in range(lo, hi - 1):
                first.extend([a] * (hi - 1 - a))
                second.extend(range(a + 1, hi))
        lo = hi
    # take: no indexing buffers for a stack; a spectrum without large clusters keeps every column
    w = np.abs(vecs if len(own) == n else vecs.take(own, axis=-1)) ** 2
    d = w @ w.swapaxes(-1, -2)
    del w
    for c in range(0, len(first), n):  # n pairs per GEMM: no temporary above n x n entries
        x = vecs.take(first[c:c + n], axis=-1)
        x_b = vecs.take(second[c:c + n], axis=-1)
        x *= np.conjugate(x_b, out=x_b)
        del x_b
        y = x.view(x.real.dtype)
        cross = y @ y.swapaxes(-1, -2)
        del x, y
        cross *= 2.0  # a power of two: exact
        d += cross
        del cross
    for lo, hi in blocks:
        block = vecs[..., lo:hi]
        d += np.abs(block @ block.conj().swapaxes(-1, -2)) ** 2
    return d


def density_from_decomposition(dec: SpectralDecomposition) -> DensityMatrix:
    """Entrywise squared projection kernels summed over distinct eigenvalues."""
    return DensityMatrix(values=squared_projection_sum(dec.eigenvectors, dec.ends), source="numeric")


def limiting_density(graph: FiniteGraph, tol: float = DEFAULT_CLUSTER_TOL) -> DensityMatrix:
    """Limiting density of the time-averaged quantum walk on a finite graph."""
    dec = eigendecompose_symmetric(graph.adjacency, tol)
    return density_from_decomposition(dec)
