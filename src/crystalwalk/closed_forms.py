"""Closed-form limiting densities for cycles, paths, stars, and hypercubes.

Each family admits an exact rational formula for the limiting density of the
time-averaged walk. The ``*_exact`` functions return ``fractions.Fraction``
values, and ``closed_form_density`` holds the float of each.
Paths and stars use the 1-based vertex labeling of their family builders
(the star's center is vertex nu + 1); cycles are 0-based; hypercube entries
depend only on the Hamming distance u between the two vertices.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .graphs import FiniteGraph, ParameterError, _int, build_named
from .spectral import DensityMatrix

__all__ = [
    "CLOSED_FORM_FAMILIES",
    "d_cycle_exact",
    "d_path_exact",
    "d_star_exact",
    "d_hypercube_exact",
    "closed_form_density",
]

CLOSED_FORM_FAMILIES = ("cycle", "path", "star", "hypercube")


def d_cycle_exact(nu: int, p: int, q: int) -> Fraction:
    """Cycle density for vertices p, q in 0..nu-1 (nu >= 3).

    Odd nu: (2nu - 1)/nu^2 on the diagonal, (nu - 1)/nu^2 off it. Even nu:
    2(nu - 1)/nu^2 when q is p or the antipode p + nu/2, (nu - 2)/nu^2
    otherwise.
    """
    nu = _int(nu, "cycle size nu", 3)
    p, q = (_int(x, "cycle vertex", 0, nu - 1) for x in (p, q))
    if nu % 2 == 1:
        if p == q:
            return Fraction(2 * nu - 1, nu * nu)
        return Fraction(nu - 1, nu * nu)
    if q == p or (q - p) % nu == nu // 2:
        return Fraction(2 * (nu - 1), nu * nu)
    return Fraction(nu - 2, nu * nu)


def d_path_exact(nu: int, p: int, q: int) -> Fraction:
    """Path density for vertices p, q in 1..nu (nu >= 2).

    2/(nu + 1) at the middle vertex pair p = q = (nu + 1)/2 (odd nu),
    3/(2(nu + 1)) when p = q or p + q = nu + 1 otherwise, 1/(nu + 1) else.
    """
    nu = _int(nu, "path size nu", 2)
    p, q = (_int(x, "path vertex", 1, nu) for x in (p, q))
    if nu % 2 == 1 and 2 * p == nu + 1 and p == q:
        return Fraction(2, nu + 1)
    if p == q or p + q == nu + 1:
        return Fraction(3, 2 * (nu + 1))
    return Fraction(1, nu + 1)


def d_star_exact(nu: int, p: int, q: int) -> Fraction:
    """Star density for vertices p, q in 1..nu+1, center nu + 1 (nu >= 1 leaves).

    Diagonal leaf entries carry (nu - 1)^2/nu^2 + 1/(2 nu^2), distinct leaf
    pairs 1/nu^2 + 1/(2 nu^2), leaf-center pairs 1/(2 nu), and the center
    diagonal 1/2.
    """
    nu = _int(nu, "star leaf count nu", 1)
    p, q = (_int(x, "star vertex", 1, nu + 1) for x in (p, q))
    center = nu + 1
    if p == center and q == center:
        return Fraction(1, 2)
    if p == center or q == center:
        return Fraction(1, 2 * nu)
    if p == q:
        return Fraction((nu - 1) ** 2, nu * nu) + Fraction(1, 2 * nu * nu)
    return Fraction(1, nu * nu) + Fraction(1, 2 * nu * nu)


def d_hypercube_exact(m: int, u: int) -> Fraction:
    """Hypercube density at Hamming distance u in an m-cube (0 <= u <= m).

    Alternating-binomial inner sums squared, over exact integers:
    sum_j (sum_b (-1)^b C(u, b) C(m - u, j - b))^2 / 2^(2m).
    """
    m = _int(m, "hypercube dimension m", 1)
    u = _int(u, "Hamming distance", 0, m)
    total = 0
    for j in range(m + 1):
        inner = 0
        for b in range(u + 1):
            if 0 <= j - b <= m - u:
                inner += (-1) ** b * comb(u, b) * comb(m - u, j - b)
        total += inner * inner
    return Fraction(total, 1 << (2 * m))


def closed_form_density(family: str, params: Sequence[int], graph: FiniteGraph | None = None) -> DensityMatrix:
    """Assemble the full closed-form density matrix for a supported family.

    Vertex indexing matches ``build_named``: 0-based storage with the family's
    conventional labels on top. Cycles, paths and stars take at most four
    distinct values: each is float() of its ``*_exact`` value at one vertex
    pair, placed with masks, so the matrix equals the entry-by-entry floats
    without a ``Fraction`` per entry. Hypercube entries are looked up by the
    Hamming weight of p XOR q. A caller that holds ``build_named(family,
    params)`` already passes it as ``graph``.
    """
    if family not in CLOSED_FORM_FAMILIES:
        raise ParameterError(f"no closed form for family {family!r}")
    nu = (build_named(family, params) if graph is None else graph).nu
    p, q = np.ogrid[:nu, :nu]
    if family == "cycle":
        hit = p == q if nu % 2 else (q - p) % (nu // 2) == 0  # q = p, or its antipode for even nu
        values = np.where(hit, float(d_cycle_exact(nu, 0, 0)), float(d_cycle_exact(nu, 0, 1)))
    elif family == "path":  # labels 1..nu
        values = np.where((p == q) | (p + q == nu - 1), float(d_path_exact(nu, 1, 1)), float(d_path_exact(nu, 1, 2)))
        if nu % 2:
            mid = nu // 2
            values[mid, mid] = float(d_path_exact(nu, mid + 1, mid + 1))
    elif family == "star":  # labels 1..nu, the center last
        center = nu - 1
        values = np.where(p == q, float(d_star_exact(center, 1, 1)), float(d_star_exact(center, 1, 2)))
        values[center, :] = values[:, center] = float(d_star_exact(center, 1, nu))
        values[center, center] = float(d_star_exact(center, nu, nu))
    else:
        m = nu.bit_length() - 1
        table = np.array([float(d_hypercube_exact(m, u)) for u in range(m + 1)])
        # the entry of each value of p XOR q, by its Hamming weight
        table = table[[bin(x).count("1") for x in range(nu)]]
        k = np.arange(nu, dtype=np.uint16)  # nu <= graphs.VERTEX_BUDGET = 2^12
        values = table[k[:, None] ^ k]
    return DensityMatrix(values=values, source="closed-form")
