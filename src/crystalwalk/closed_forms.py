"""Closed-form limiting densities for cycles, paths, stars, and hypercubes.

Each family admits an exact rational formula for the limiting density of the
time-averaged walk. The ``*_exact`` functions return ``fractions.Fraction``
values, which ``closed_form_density`` converts to float entry by entry.
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
    conventional labels on top. Hypercube entries are looked up by the Hamming
    distance between the binary expansions of the endpoints. A caller that
    holds ``build_named(family, params)`` already passes it as ``graph``.
    """
    if family not in CLOSED_FORM_FAMILIES:
        raise ParameterError(f"no closed form for family {family!r}")
    size = (build_named(family, params) if graph is None else graph).nu
    if family == "cycle":
        values = [[float(d_cycle_exact(size, p, q)) for q in range(size)] for p in range(size)]
    elif family == "path":
        values = [[float(d_path_exact(size, p + 1, q + 1)) for q in range(size)] for p in range(size)]
    elif family == "star":
        values = [[float(d_star_exact(size - 1, p + 1, q + 1)) for q in range(size)] for p in range(size)]
    else:
        m = size.bit_length() - 1
        dist_values = [float(d_hypercube_exact(m, u)) for u in range(m + 1)]
        values = [[dist_values[bin(p ^ q).count("1")] for q in range(size)] for p in range(size)]
    return DensityMatrix(values=np.array(values), source="closed-form")

