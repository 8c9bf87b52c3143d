"""Symmetric eigendecompositions, eigenvalue clustering, and limiting densities.

The limiting density of the time-averaged quantum walk on a finite graph is
assembled from the spectral projections onto distinct eigenvalues of the
adjacency matrix: d(p, q) = sum_s P_s(p, q)^2. Eigenvalues are grouped into
numerically distinct clusters by single linkage with an absolute gap of
tol * max(1, spectral radius).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import FiniteGraph, ParameterError, build_named

__all__ = [
    "DEFAULT_CLUSTER_TOL",
    "NumericalError",
    "EigenSolverError",
    "SpectralDecomposition",
    "ProjectionKernel",
    "DensityMatrix",
    "cluster_eigenvalues",
    "eigendecompose_symmetric",
    "projection_kernels",
    "squared_projection_sum",
    "density_from_decomposition",
    "limiting_density",
    "analytic_spectrum",
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


def _cluster_ends(values: np.ndarray, tol: float) -> np.ndarray:
    """Exclusive end of each cluster of ``cluster_eigenvalues``, in order."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if values.size == 0:
        return np.zeros(0, dtype=np.intp)
    step = np.diff(values)
    if np.any(step < 0):
        raise ValueError("values must be ascending")
    gap = tol * max(1.0, float(np.abs(values).max()))
    return np.append(np.nonzero(step > gap)[0] + 1, values.size)


def cluster_eigenvalues(values: np.ndarray, tol: float = DEFAULT_CLUSTER_TOL) -> list[np.ndarray]:
    """Group an ascending array of eigenvalues into degenerate clusters.

    Single linkage: consecutive values closer than tol * max(1, max|value|)
    share a cluster. Returns index arrays partitioning range(len(values)).
    """
    ends = _cluster_ends(values, tol).tolist()
    index = np.arange(ends[-1] if ends else 0)
    return [index[lo:hi] for lo, hi in zip([0] + ends, ends)]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues, eigenvectors, and degeneracy clusters of a symmetric matrix.

    ``eigenvalues`` is ascending, ``eigenvectors`` holds orthonormal columns
    in the same order, ``clusters`` partitions the indices into numerically
    distinct eigenvalues, and ``cluster_values`` holds one representative per
    cluster.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    cluster_values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        n = vals.size
        if vecs.shape != (n, n):
            raise ValueError("eigenvectors must be square and match eigenvalues")
        flat = [i for group in self.clusters for i in group]
        if flat != list(range(n)):
            raise ValueError("clusters must partition eigenvalue indices in order")
        cvals = np.asarray(self.cluster_values, dtype=float)
        if cvals.size != len(self.clusters):
            raise ValueError("one representative value per cluster required")
        vals.flags.writeable = False
        vecs.flags.writeable = False
        cvals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "clusters", tuple(tuple(int(i) for i in g) for g in self.clusters))
        object.__setattr__(self, "cluster_values", cvals)

    @property
    def nu(self) -> int:
        return self.eigenvalues.size

    @property
    def distinct_count(self) -> int:
        return len(self.clusters)

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
    groups = cluster_eigenvalues(vals, tol)
    cluster_values = np.array([vals[g].mean() for g in groups])
    dec = SpectralDecomposition(
        eigenvalues=vals,
        eigenvectors=vecs,
        clusters=tuple(tuple(int(i) for i in g) for g in groups),
        cluster_values=cluster_values,
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
    for s, group in enumerate(dec.clusters):
        idx = list(group)
        p = v[:, idx] @ v[:, idx].T
        total += p
        kernels.append(
            ProjectionKernel(matrix=p, eigenvalue=float(dec.cluster_values[s]), multiplicity=len(idx))
        )
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
        if np.abs(d - d.T).max() > _ROW_SUM_TOL:
            raise NumericalError("density matrix not symmetric")
        if d.min() < -1e-12 or d.max() > 1.0 + 1e-12:
            raise NumericalError("density entries outside [0, 1]")
        row_err = np.abs(d.sum(axis=1) - 1.0).max()
        if row_err > _ROW_SUM_TOL:
            raise NumericalError(f"density rows do not sum to 1: deviation {row_err:.3e}")
        d.flags.writeable = False
        object.__setattr__(self, "values", d)

    @property
    def nu(self) -> int:
        return self.values.shape[0]


def squared_projection_sum(vecs: np.ndarray, clusters: Sequence[Sequence[int]]) -> np.ndarray:
    """sum_s |V_s V_s^H|^2 entrywise, for real or complex orthonormal columns V.

    ``clusters`` partitions the column indices by distinct eigenvalue. Simple
    eigenvalues (|V|^2)(|V|^2)^T contribute in one GEMM; only degenerate
    clusters form their projection, one block at a time.
    """
    singles = [g[0] for g in clusters if len(g) == 1]
    w = np.abs(vecs[:, singles]) ** 2
    d = w @ w.T
    del w  # hold at most one projection-sized temporary beside d in the loop below
    for group in clusters:
        if len(group) > 1:
            block = vecs[:, list(group)]
            d += np.abs(block @ block.conj().T) ** 2
    return d


def density_from_decomposition(
    dec: SpectralDecomposition, source: str = "numeric"
) -> DensityMatrix:
    """Entrywise squared projection kernels summed over distinct eigenvalues."""
    return DensityMatrix(values=squared_projection_sum(dec.eigenvectors, dec.clusters), source=source)


def limiting_density(graph: FiniteGraph, tol: float = DEFAULT_CLUSTER_TOL) -> DensityMatrix:
    """Limiting density of the time-averaged quantum walk on a finite graph."""
    dec = eigendecompose_symmetric(graph.adjacency, tol)
    return density_from_decomposition(dec, source="numeric")


def _cycle_real_basis(nu: int, size: int) -> list[tuple[float, list[np.ndarray]]]:
    """Real orthonormal cosine/sine eigenbasis of the nu-cycle, grouped by eigenvalue.

    Vectors are typed over ``size`` coordinates with the cycle occupying the
    first nu entries (used directly for cycles and reused, minus the constant
    vector, for the star's zero eigenspace on the leaves).
    """
    k = np.arange(nu)
    groups: list[tuple[float, list[np.ndarray]]] = []
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


def _analytic_groups(family: str, params: Sequence[int]) -> list[tuple[float, list[np.ndarray]]]:
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


def analytic_spectrum(family: str, params: Sequence[int] = ()) -> SpectralDecomposition:
    """Exact eigendecomposition of a cycle, path, star, or hypercube.

    Eigenvalues come from the closed forms (2cos(2 pi r / nu) for cycles,
    2cos(pi j / (nu + 1)) for paths, {-sqrt(nu), 0, sqrt(nu)} for stars,
    m - 2k for hypercubes), eigenvectors from the matching Fourier, sine,
    and character bases. Clusters reflect the exact multiplicities.
    """
    groups = sorted(_analytic_groups(family, params), key=lambda g: g[0])
    values: list[float] = []
    vectors: list[np.ndarray] = []
    clusters: list[tuple[int, ...]] = []
    pos = 0
    for val, vecs in groups:
        clusters.append(tuple(range(pos, pos + len(vecs))))
        values.extend([val] * len(vecs))
        vectors.extend(vecs)
        pos += len(vecs)
    dec = SpectralDecomposition(
        eigenvalues=np.array(values),
        eigenvectors=np.column_stack(vectors),
        clusters=tuple(clusters),
        cluster_values=np.array([g[0] for g in groups]),
    )
    dec.validate()
    return dec
