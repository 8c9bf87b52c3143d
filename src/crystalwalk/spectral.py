"""Symmetric eigendecompositions, eigenvalue clustering, and limiting densities.

The limiting density of the time-averaged quantum walk on a finite graph is
assembled from the spectral projections onto distinct eigenvalues of the
adjacency matrix: d(p, q) = sum_s P_s(p, q)^2. Eigenvalues are grouped into
numerically distinct clusters by single linkage with an absolute gap of
tol * max(1, spectral radius); each cluster is a contiguous run of the
ascending order, carried as the exclusive end of that run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import FiniteGraph, ParameterError

__all__ = [
    "DEFAULT_CLUSTER_TOL",
    "NumericalError",
    "EigenSolverError",
    "SpectralDecomposition",
    "ProjectionKernel",
    "DensityMatrix",
    "cluster_gap",
    "cluster_eigenvalues",
    "eigendecompose_symmetric",
    "projection_kernels",
    "squared_projection_sum",
    "density_from_decomposition",
    "limiting_density",
]

DEFAULT_CLUSTER_TOL = 1e-8

_SYMMETRY_TOL = 1e-12
_RECONSTRUCTION_REL = 1e-9
_ORTHONORMALITY_TOL = 1e-10
_COMPLETENESS_TOL = 1e-10
_ROW_SUM_TOL = 1e-10


class NumericalError(RuntimeError):
    """A computed quantity violated its tolerance contract."""


class EigenSolverError(NumericalError):
    """Eigendecomposition failed or did not reproduce the input matrix."""


def cluster_gap(values: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL) -> float:
    """Clustering gap tol * max(1, max|value|) of a nonempty array of eigenvalues.

    Raises ParameterError unless tol is positive and finite.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"clustering tolerance must be positive and finite, got {tol!r}")
    return tol * max(1.0, float(np.abs(values).max()))


def cluster_eigenvalues(values: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL) -> np.ndarray:
    """Group an ascending array of eigenvalues into degenerate clusters.

    Single linkage: consecutive values no further apart than
    ``cluster_gap(values, tol)`` share a cluster, so every cluster is a
    contiguous run. Returns the exclusive end of each run, rising to
    len(values); its length is the number of clusters.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if values.size == 0:
        return np.zeros(0, dtype=np.intp)
    step = values[1:] - values[:-1]  # np.diff and np.any cost more per Bloch fiber
    if (step < 0).any():
        raise ValueError("values must be ascending")
    return np.append(np.nonzero(step > cluster_gap(values, tol))[0] + 1, values.size)


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
        vals.flags.writeable = False
        vecs.flags.writeable = False
        ends.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "ends", ends)

    @property
    def clusters(self) -> tuple[range, ...]:
        """Index range of each cluster, in ascending order."""
        ends = self.ends.tolist()
        return tuple(map(range, [0] + ends[:-1], ends))

    @property
    def cluster_values(self) -> np.ndarray:
        """Mean eigenvalue of each cluster."""
        return np.array([self.eigenvalues[g.start:g.stop].mean() for g in self.clusters])

    @property
    def nu(self) -> int:
        return self.eigenvalues.size

    @property
    def distinct_count(self) -> int:
        return self.ends.size

    def multiplicity(self, s: int) -> int:
        return len(self.clusters[s])

    def validate(self) -> None:
        """Check orthonormality of the eigenvector columns."""
        v = self.eigenvectors
        err = np.abs(v.T @ v - np.eye(self.nu)).max()
        if err > _ORTHONORMALITY_TOL:
            raise NumericalError(f"eigenvectors not orthonormal: deviation {err:.3e}")


def eigendecompose_symmetric(
    matrix: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL
) -> SpectralDecomposition:
    """Eigendecompose a real symmetric matrix with degeneracy clustering.

    Raises ValueError for non-symmetric input and EigenSolverError when the
    solver fails to converge or the decomposition does not reconstruct the
    matrix to 1e-9 * max(1, ||M||_max).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size and np.abs(m - m.T).max() > _SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue iteration failed: {exc}") from exc
    scale = max(1.0, float(np.abs(m).max()) if m.size else 1.0)
    recon = np.abs(m - (vecs * vals) @ vecs.T).max()
    if recon > _RECONSTRUCTION_REL * scale:
        raise EigenSolverError(f"decomposition does not reconstruct input: error {recon:.3e}")
    dec = SpectralDecomposition(
        eigenvalues=vals, eigenvectors=vecs, ends=cluster_eigenvalues(vals, tol)
    )
    dec.validate()
    return dec


@dataclass(frozen=True)
class ProjectionKernel:
    """Orthogonal projection onto one distinct-eigenvalue eigenspace."""

    matrix: np.ndarray
    eigenvalue: float
    multiplicity: int

    def __post_init__(self) -> None:
        p = np.asarray(self.matrix, dtype=float)
        err_idem = np.abs(p @ p - p).max()
        if err_idem > _ORTHONORMALITY_TOL:
            raise NumericalError(f"projection not idempotent: deviation {err_idem:.3e}")
        tr = float(np.trace(p))
        if abs(tr - self.multiplicity) > 1e-8:
            raise NumericalError(
                f"projection trace {tr:.12g} does not match multiplicity {self.multiplicity}"
            )
        p.flags.writeable = False
        object.__setattr__(self, "matrix", p)


def projection_kernels(dec: SpectralDecomposition) -> list[ProjectionKernel]:
    """Projections onto each distinct eigenvalue, mutually orthogonal, summing to I."""
    v = dec.eigenvectors
    kernels = []
    total = np.zeros((dec.nu, dec.nu))
    for group, value in zip(dec.clusters, dec.cluster_values):
        block = v[:, group.start:group.stop]
        p = block @ block.T
        total += p
        kernels.append(ProjectionKernel(matrix=p, eigenvalue=float(value), multiplicity=len(group)))
    err = np.abs(total - np.eye(dec.nu)).max()
    if err > _COMPLETENESS_TOL:
        raise NumericalError(f"projections do not sum to identity: deviation {err:.3e}")
    return kernels


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
        # written so that NaN fails each check
        if not np.abs(d - d.T).max() <= _ROW_SUM_TOL:
            raise NumericalError("density matrix not symmetric")
        if not (d.min() >= -1e-12 and d.max() <= 1.0 + 1e-12):
            raise NumericalError("density entries outside [0, 1]")
        row_err = np.abs(d.sum(axis=1) - 1.0).max()
        if not row_err <= _ROW_SUM_TOL:
            raise NumericalError(f"density rows do not sum to 1: deviation {row_err:.3e}")
        d.flags.writeable = False
        object.__setattr__(self, "values", d)

    @property
    def nu(self) -> int:
        return self.values.shape[0]


def squared_projection_sum(vecs: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """sum_s |V_s V_s^H|^2 entrywise, for real or complex orthonormal columns V.

    ``ends`` are the cluster ends of ``cluster_eigenvalues``: cluster s is the
    column run V_s = V[:, ends[s-1]:ends[s]]. Simple eigenvalues contribute
    (|V|^2)(|V|^2)^T in one GEMM; only degenerate clusters form their
    projection, one block at a time.
    """
    starts = np.concatenate(([0], ends[:-1]))
    simple = ends - starts == 1
    w = np.abs(vecs[:, starts[simple]]) ** 2
    d = w @ w.T
    del w  # hold at most one projection-sized temporary beside d in the loop below
    for lo, hi in zip(starts[~simple], ends[~simple]):
        block = vecs[:, lo:hi]
        d += np.abs(block @ block.conj().T) ** 2
    return d


def density_from_decomposition(dec: SpectralDecomposition) -> DensityMatrix:
    """Entrywise squared projection kernels summed over distinct eigenvalues."""
    return DensityMatrix(values=squared_projection_sum(dec.eigenvectors, dec.ends), source="numeric")


def limiting_density(graph: FiniteGraph, tol: float = DEFAULT_CLUSTER_TOL) -> DensityMatrix:
    """Limiting density of the time-averaged quantum walk on a finite graph."""
    dec = eigendecompose_symmetric(graph.adjacency, tol)
    return density_from_decomposition(dec)
