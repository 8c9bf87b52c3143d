"""Finite graphs, periodic graph specifications, and named graph families.

Finite graphs live on vertices 0..nu-1 and are simple (no loops, no
multi-edges). Periodic graphs are described by a fundamental domain of nu
vertices together with offset edges (p, q, n): vertex p in a cell is joined
to vertex q in the cell shifted by the integer vector n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ParameterError",
    "EdgeListError",
    "ProductKind",
    "FiniteGraph",
    "PeriodicGraphSpec",
    "FAMILIES",
    "build_named",
    "from_edge_list",
    "zd_product_spec",
    "honeycomb_spec",
]


class ParameterError(ValueError):
    """Invalid construction parameters (family params, vertex ranges, offsets)."""


class EdgeListError(ValueError):
    """Edge-list text that cannot be parsed into a simple graph."""


class ProductKind(Enum):
    """Rule combining a periodic base band with a finite graph spectrum."""

    CARTESIAN = "cartesian"
    TENSOR = "tensor"
    STRONG = "strong"


def _check_vertex(v: int, nu: int) -> int:
    v = int(v)
    if not 0 <= v < nu:
        raise ParameterError(f"vertex {v} out of range 0..{nu - 1}")
    return v


@dataclass(frozen=True)
class FiniteGraph:
    """Simple undirected graph on vertices 0..nu-1.

    Edges are normalized to sorted pairs and deduplicated; self loops are
    rejected. ``labels``, when present, holds one display name per vertex.
    Family builders fill it with the conventional numbering of the family
    (paths and stars are 1-based, hypercube vertices are bit strings).
    """

    nu: int
    edges: frozenset[tuple[int, int]] = frozenset()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        nu = int(self.nu)
        if nu < 1:
            raise ParameterError("vertex count must be >= 1")
        object.__setattr__(self, "nu", nu)
        norm = set()
        for edge in self.edges:
            u, v = (int(x) for x in edge)
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            _check_vertex(u, nu)
            _check_vertex(v, nu)
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != nu:
                raise ParameterError("labels length must equal vertex count")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (read-only float array)."""
        a = np.zeros((self.nu, self.nu))
        for u, v in self.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
        a.flags.writeable = False
        return a

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(int(u), int(v)), max(int(u), int(v))) in self.edges

    def vertex_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(str(v) for v in range(self.nu))


FAMILIES = (
    "cycle",
    "path",
    "star",
    "complete",
    "complete_bipartite",
    "hypercube",
    "petersen",
)

# Standard drawing of the Petersen graph: outer 5-cycle, five spokes, inner
# 5-cycle taken with step 2. Isomorphic to the usual disjointness graph on
# 2-element subsets of a 5-element set.
_PETERSEN_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
)


def _arity(family: str, params: Sequence[int], n: int) -> list[int]:
    if len(params) != n:
        raise ParameterError(f"family {family!r} takes {n} parameter(s), got {len(params)}")
    return [int(p) for p in params]


def build_named(family: str, params: Sequence[int] = ()) -> FiniteGraph:
    """Construct a named graph family.

    Parameters
    ----------
    family:
        One of ``cycle`` (nu >= 3), ``path`` (nu >= 2), ``star`` (nu >= 1
        leaves, center stored last), ``complete`` (nu >= 2),
        ``complete_bipartite`` (m, n >= 1), ``hypercube`` (dimension m >= 1,
        vertex i carries the binary expansion of i, bit i = coordinate i),
        ``petersen`` (no parameters).
    params:
        Integer parameters of the family, see above.
    """
    if family == "cycle":
        (nu,) = _arity(family, params, 1)
        if nu < 3:
            raise ParameterError("cycle needs nu >= 3")
        edges = [(i, (i + 1) % nu) for i in range(nu)]
        return FiniteGraph(nu, frozenset(edges), tuple(str(i) for i in range(nu)))
    if family == "path":
        (nu,) = _arity(family, params, 1)
        if nu < 2:
            raise ParameterError("path needs nu >= 2")
        edges = [(i, i + 1) for i in range(nu - 1)]
        return FiniteGraph(nu, frozenset(edges), tuple(str(i + 1) for i in range(nu)))
    if family == "star":
        (nu,) = _arity(family, params, 1)
        if nu < 1:
            raise ParameterError("star needs nu >= 1 leaves")
        # Leaves are 0..nu-1 (displayed 1..nu), the center is the last index.
        edges = [(i, nu) for i in range(nu)]
        return FiniteGraph(nu + 1, frozenset(edges), tuple(str(i + 1) for i in range(nu + 1)))
    if family == "complete":
        (nu,) = _arity(family, params, 1)
        if nu < 2:
            raise ParameterError("complete needs nu >= 2")
        edges = [(i, j) for i in range(nu) for j in range(i + 1, nu)]
        return FiniteGraph(nu, frozenset(edges), tuple(str(i + 1) for i in range(nu)))
    if family == "complete_bipartite":
        m, n = _arity(family, params, 2)
        if m < 1 or n < 1:
            raise ParameterError("complete_bipartite needs m, n >= 1")
        edges = [(i, m + j) for i in range(m) for j in range(n)]
        return FiniteGraph(m + n, frozenset(edges), tuple(str(i + 1) for i in range(m + n)))
    if family == "hypercube":
        (m,) = _arity(family, params, 1)
        if m < 1:
            raise ParameterError("hypercube needs dimension m >= 1")
        nu = 1 << m
        edges = [(x, x ^ (1 << b)) for x in range(nu) for b in range(m) if x < x ^ (1 << b)]
        labels = tuple("".join(str((x >> b) & 1) for b in range(m)) for x in range(nu))
        return FiniteGraph(nu, frozenset(edges), labels)
    if family == "petersen":
        _arity(family, params, 0)
        return FiniteGraph(10, frozenset(_PETERSEN_EDGES), tuple(str(i) for i in range(10)))
    raise ParameterError(f"unknown family {family!r}")


def from_edge_list(text: str) -> FiniteGraph:
    """Parse an edge-list text into a FiniteGraph.

    One edge per line as ``u v`` with non-negative integer vertex ids.
    Everything after a ``#`` is a comment; blank lines are skipped. Duplicate
    edges are merged, self loops raise EdgeListError. The vertex count is
    1 + the largest index mentioned.
    """
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListError(f"line {lineno}: non-integer vertex in {raw.strip()!r}") from exc
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: negative vertex id")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((min(u, v), max(u, v)))
    if not edges:
        raise EdgeListError("no edges found")
    nu = 1 + max(v for _, v in edges)
    return FiniteGraph(nu, frozenset(edges))


@dataclass(frozen=True)
class PeriodicGraphSpec:
    """Fundamental-domain description of a d-dimensional periodic graph.

    ``offset_edges`` holds directed entries (p, q, n) meaning vertex p of a
    cell is adjacent to vertex q of the cell offset by n. The list must be
    closed under (p, q, n) <-> (q, p, -n); entries are deduplicated and kept
    sorted. ``potential`` is an optional finite real on-site term, one value
    per fundamental-domain vertex. Connectivity of the infinite graph is not
    checked here.
    """

    d: int
    nu: int
    offset_edges: tuple[tuple[int, int, tuple[int, ...]], ...]
    potential: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        d, nu = int(self.d), int(self.nu)
        if d < 1:
            raise ParameterError("periodic dimension d must be >= 1")
        if nu < 1:
            raise ParameterError("fundamental domain must have >= 1 vertex")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "nu", nu)
        norm = set()
        for entry in self.offset_edges:
            p, q, off = entry
            p = _check_vertex(p, nu)
            q = _check_vertex(q, nu)
            off = tuple(int(x) for x in off)
            if len(off) != d:
                raise ParameterError(f"offset {off} must have length d={d}")
            if p == q and all(x == 0 for x in off):
                raise ParameterError(f"self-loop at fundamental vertex {p}")
            norm.add((p, q, off))
        for p, q, off in norm:
            if (q, p, tuple(-x for x in off)) not in norm:
                raise ParameterError(
                    f"offset edges not symmetric: ({p}, {q}, {off}) present "
                    f"without its reverse"
                )
        object.__setattr__(self, "offset_edges", tuple(sorted(norm)))
        if self.potential is None:
            object.__setattr__(self, "potential", (0.0,) * nu)
        else:
            pot = tuple(float(x) for x in self.potential)
            if len(pot) != nu:
                raise ParameterError("potential length must equal nu")
            if not all(math.isfinite(x) for x in pot):
                raise ParameterError("potential entries must be finite")
            object.__setattr__(self, "potential", pot)


def zd_product_spec(
    graph: FiniteGraph, d: int = 1, potential: Sequence[float] | None = None
) -> PeriodicGraphSpec:
    """Periodic spec of the d-dimensional integer lattice box product with a graph.

    Each cell carries a copy of ``graph``; every vertex is additionally joined
    to its own copy in the two neighbouring cells along each lattice axis.
    """
    d = int(d)
    if d < 1:
        raise ParameterError("periodic dimension d must be >= 1")
    zero = (0,) * d
    entries: list[tuple[int, int, tuple[int, ...]]] = []
    for u, v in sorted(graph.edges):
        entries.append((u, v, zero))
        entries.append((v, u, zero))
    for p in range(graph.nu):
        for axis in range(d):
            step = tuple(1 if i == axis else 0 for i in range(d))
            entries.append((p, p, step))
            entries.append((p, p, tuple(-x for x in step)))
    return PeriodicGraphSpec(d=d, nu=graph.nu, offset_edges=tuple(entries), potential=potential)


def honeycomb_spec() -> PeriodicGraphSpec:
    """Two-vertex periodic spec of the honeycomb lattice.

    Vertex 0 of each cell is joined to vertex 1 of the same cell and of the
    cells offset by (-1, 0) and (0, -1), giving the three nearest neighbours
    of the hexagonal tiling.
    """
    half = [(0, 1, (0, 0)), (0, 1, (-1, 0)), (0, 1, (0, -1))]
    entries = half + [(q, p, tuple(-x for x in off)) for p, q, off in half]
    return PeriodicGraphSpec(d=2, nu=2, offset_edges=tuple(entries))
