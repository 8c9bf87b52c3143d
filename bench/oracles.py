"""Independent references that check the benchmark's outputs.

Every check runs outside the timed region and raises ``OracleError`` on a
mismatch. Tolerances are the library's own and never looser: densities must
match a reference to 1e-9 (the README's closed-form comparison), and rows or
total mass must sum to 1 within 1e-10 (``DensityMatrix`` and
``TimeAveragedDistribution``). References are built with plain numpy from the
raw inputs, not from the library code under test; ``closed_forms`` is the one
library module used, as the exact oracle it is.
"""

from __future__ import annotations

import json

import numpy as np

DENSITY_TOL = 1e-9
MASS_TOL = 1e-10
# The library's default clustering tolerance; every op runs with the default.
CLUSTER_TOL = 1e-8
COLLISION_DELTA = 1e-9

_STRIP = str.maketrans("", "", "[]}\n")


class OracleError(Exception):
    """An output disagrees with its reference or breaks an invariant."""


def clusters(values: np.ndarray) -> list[np.ndarray]:
    """Index groups of ascending ``values`` split at gaps above the library's rule."""
    gap = CLUSTER_TOL * max(1.0, float(np.abs(values).max()))
    return np.split(np.arange(values.size), np.nonzero(np.diff(values) > gap)[0] + 1)


def adjacency_from_edges(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def dense_density(adjacency: np.ndarray) -> np.ndarray:
    """sum_s P_s**2 from one dense eigh; simple eigenvalues in one GEMM."""
    vals, vecs = np.linalg.eigh(adjacency)
    d = np.zeros_like(adjacency)
    simple = []
    for idx in clusters(vals):
        if idx.size == 1:
            simple.append(idx[0])
        else:
            p = vecs[:, idx] @ vecs[:, idx].T
            d += p * p
    w = vecs[:, simple] ** 2
    return d + w @ w.T


def honeycomb_density(N: int) -> np.ndarray:
    """Exact N-grid quadrature for the honeycomb: d(0,0) = 1/2 + c/(2N^2), c = 2 iff 3 | N."""
    d00 = 0.5 + (2.0 if N % 3 == 0 else 0.0) / (2.0 * N * N)
    return np.array([[d00, 1.0 - d00], [1.0 - d00, d00]])


def parse_density_json(payload: bytes) -> np.ndarray:
    head, sep, body = payload.decode("ascii").partition('"d":')
    if not sep:
        raise OracleError("output holds no density matrix")
    nu = int(json.loads(head.rstrip(",") + "}")["nu"])
    values = np.fromstring(body.translate(_STRIP), sep=",")
    if values.size != nu * nu:
        raise OracleError(f"density has {values.size} entries, expected {nu * nu}")
    return values.reshape(nu, nu)


def check_density(values: np.ndarray, reference: np.ndarray) -> None:
    if values.shape != reference.shape:
        raise OracleError(f"density shape {values.shape}, reference {reference.shape}")
    err = float(np.abs(values - reference).max())
    if err > DENSITY_TOL:
        raise OracleError(f"density differs from the reference by {err:.3e}")
    row_err = float(np.abs(values.sum(axis=1) - 1.0).max())
    if row_err > MASS_TOL:
        raise OracleError(f"density rows miss 1 by {row_err:.3e}")


def _base_grid(base: str, d: int, N: int) -> np.ndarray:
    k = np.arange(N) / N
    if base == "triangular":
        a, b = np.meshgrid(k, k, indexing="ij")
        return 2 * np.cos(2 * np.pi * a) + 2 * np.cos(2 * np.pi * b) + 2 * np.cos(2 * np.pi * (a + b))
    axes = np.meshgrid(*([k] * d), indexing="ij")
    return sum(2 * np.cos(2 * np.pi * x) for x in axes)


def _bands(rule: str, e0: np.ndarray, mu: np.ndarray) -> np.ndarray:
    mu = mu.reshape((-1,) + (1,) * e0.ndim)
    if rule == "cartesian":
        return e0 + mu
    if rule == "tensor":
        return mu * e0
    return (1.0 + mu) * e0 + mu


def check_scan(payload: bytes, mu: np.ndarray, rule: str, base: str, d: int, N: int) -> None:
    """Redo the collision scan from the band rule and compare every report field.

    ``mu`` are the factor eigenvalues in the library's band order (ascending).
    Ties keep the first shift and pair in lexicographic order, as documented.
    """
    report = json.loads(payload)
    grid = _bands(rule, _base_grid(base, d, N), mu)
    axes = tuple(range(1, d + 1))
    nu = mu.size
    best, best_shift, best_pair = -1, (), (0, 0)
    for shift in np.ndindex(*((N,) * d)):
        if not any(shift):
            continue
        rolled = np.roll(grid, tuple(-s for s in shift), axis=axes)
        counts = (np.abs(rolled[:, None] - grid[None, :]) < COLLISION_DELTA).reshape(nu, nu, -1).sum(axis=2)
        flat = int(np.argmax(counts))
        if counts.flat[flat] > best:
            best, best_shift, best_pair = int(counts.flat[flat]), shift, divmod(flat, nu)
    scale = CLUSTER_TOL * max(1.0, float(np.abs(mu).max()))
    if rule == "tensor":
        flat_bands = np.nonzero(np.abs(mu) <= scale)[0].tolist()
    elif rule == "strong":
        flat_bands = np.nonzero(np.abs(mu + 1.0) <= scale)[0].tolist()
    else:
        flat_bands = []
    expected = {
        "N": N,
        "max_fraction": best / N**d,
        "worst_shift": list(best_shift),
        "worst_pair": list(best_pair),
        "flat_bands": flat_bands,
    }
    if report != expected:
        raise OracleError(f"scan report {report} differs from the reference {expected}")
    if flat_bands and report["max_fraction"] != 1.0:
        raise OracleError("a flat band must give max_fraction = 1")


def torus_adjacency(factor: np.ndarray, d: int, N: int) -> np.ndarray:
    """Kronecker-assembled (N-cycle)^d box factor, indexed (cell_0, .., cell_(d-1), q)."""
    cycle = np.roll(np.eye(N), 1, axis=0) + np.roll(np.eye(N), -1, axis=0)
    nu = factor.shape[0]
    a = np.kron(np.eye(N**d), factor)
    for axis in range(d):
        a += np.kron(np.kron(np.eye(N**axis), cycle), np.eye(N ** (d - 1 - axis) * nu))
    return a


def dense_torus_average(factor: np.ndarray, d: int, N: int, start: int, horizon: float) -> np.ndarray:
    """Time average of |exp(itA) delta_start|^2 over [0, horizon] from a dense eigh.

    x_c = P_c delta_start per eigenvalue cluster c; the average is
    sum_(c,c') x_c x_c' sinc(T (lambda_c - lambda_c')), which is sum_c x_c^2
    for T = inf.
    """
    vals, vecs = np.linalg.eigh(torus_adjacency(factor, d, N))
    groups = clusters(vals)
    x = np.column_stack([vecs[:, g] @ vecs[start, g] for g in groups])
    if np.isinf(horizon):
        return (x * x).sum(axis=1)
    lam = np.array([vals[g].mean() for g in groups])
    weights = np.sinc(horizon * (lam[:, None] - lam[None, :]) / np.pi)
    return ((x @ weights) * x).sum(axis=1)


def parse_distribution_csv(payload: bytes, d: int) -> np.ndarray:
    _, _, body = payload.decode("ascii").strip().partition("\n")
    return np.fromstring(body.replace("\n", ","), sep=",").reshape(-1, d + 2)[:, -1]


def check_distribution(
    masses: np.ndarray, N: int, d: int, nu: int, cell: tuple[int, ...], reference: np.ndarray | None
) -> None:
    """Mass, sign and the symmetries that fix the start, plus a dense reference if given.

    Reflecting any torus axis about the start cell, and for d = 2 swapping the
    axes about it, are graph automorphisms fixing the start vertex, so the
    averaged distribution is invariant under them.
    """
    if masses.size != nu * N**d:
        raise OracleError(f"distribution has {masses.size} entries, expected {nu * N**d}")
    mass_err = abs(float(masses.sum()) - 1.0)
    if mass_err > MASS_TOL or masses.min() < 0.0:
        raise OracleError(f"distribution mass misses 1 by {mass_err:.3e} or is negative")
    rel = np.roll(masses.reshape((N,) * d + (nu,)), tuple(-c for c in cell), axis=tuple(range(d)))
    images = [np.roll(np.flip(rel, axis), 1, axis) for axis in range(d)]
    if d == 2:
        images.append(rel.transpose(1, 0, 2))
    for image in images:
        err = float(np.abs(image - rel).max())
        if err > DENSITY_TOL:
            raise OracleError(f"distribution breaks a symmetry fixing the start by {err:.3e}")
    if reference is not None:
        err = float(np.abs(masses - reference).max())
        if err > DENSITY_TOL:
            raise OracleError(f"distribution differs from the dense reference by {err:.3e}")


def check_tv_summary(stdout: str, masses: np.ndarray, factor_row: np.ndarray, cells: int) -> None:
    """The summary line must give the TV distance to the factored prediction."""
    prefix = "tv_to_prediction = "
    lines = [ln for ln in stdout.splitlines() if ln.startswith(prefix)]
    if len(lines) != 1:
        raise OracleError(f"expected one summary line, got {stdout!r}")
    tv = 0.5 * float(np.abs(masses - np.tile(factor_row / cells, cells)).sum())
    err = abs(float(lines[0][len(prefix):]) - tv)
    if err > DENSITY_TOL:
        raise OracleError(f"summary TV differs from the recomputed one by {err:.3e}")
