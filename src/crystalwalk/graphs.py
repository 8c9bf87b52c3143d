"""Finite graphs, periodic graph specifications, and named graph families.

Finite graphs live on vertices 0..nu-1 and are simple (no loops, no
multi-edges). Periodic graphs are described by a fundamental domain of nu
vertices together with offset edges (p, q, n): vertex p in a cell is joined
to vertex q in the cell shifted by the integer vector n.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "VERTEX_BUDGET",
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
    "triangular_spec",
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


_INTEGERS = (int, np.integer)

# Every finite graph is held as a dense nu x nu adjacency matrix, which the
# densities, classical walks and torus factors diagonalize with a dense eigh:
# at 4096 vertices that is 128 MiB per matrix and O(nu^3) work, and the
# density alone prints 16.8M numbers. The finite benchmark ladder's largest
# graph has 512 vertices.
VERTEX_BUDGET = 1 << 12


def _int(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """``x`` as an int in lo..hi, each bound when given; ParameterError naming ``what`` otherwise.

    A float or text is rejected, which int() would mangle. Every integer bound in the package is checked here.
    """
    if not isinstance(x, _INTEGERS):
        raise ParameterError(f"{what} must be an integer, got {x!r}")
    x = int(x)
    if hi is not None and not lo <= x <= hi:
        raise ParameterError(f"{what} {x} out of range {lo}..{hi}")
    if lo is not None and x < lo:
        raise ParameterError(f"{what} must be >= {lo}")
    return x


def _real(x, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``x`` as a float when it is a finite real with lo < x <= hi; ParameterError naming ``what`` otherwise.

    Rejects text, which float() would parse, None and complex numbers. Every float bound is checked here.
    """
    try:
        f = float(x) if isinstance(x, numbers.Real) else math.nan
    except OverflowError:  # an int or Fraction beyond the doubles
        f = math.inf
    if not (lo < f <= hi and math.isfinite(f)):
        raise ParameterError(f"{what} must be a finite real in ({lo:g}, {hi:g}], got {x!r}")
    return f


def _budget(what: str, need: int, unit: str, budget: int) -> None:
    """ParameterError when a workload needs more than its ``budget``; every work ceiling is checked here."""
    if need > budget:
        raise ParameterError(f"{what} {need} {unit}, over the budget {budget}")


def _vertices(what: str, nu: int) -> int:
    """``nu`` when a graph of that many vertices is within ``VERTEX_BUDGET``."""
    _budget(f"{what} needs", nu, "vertices", VERTEX_BUDGET)
    return nu


def _int_rows(rows, width: int, what: str, shape_error: str) -> np.ndarray:
    """Any sized collection of rows of ``width`` integers as a new (m, width) int64 array.

    ParameterError names the first row holding a float, text or other object, which a cast would mangle.
    """
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    try:
        a = np.array(rows)
    except ValueError as exc:  # rows of mixed lengths
        raise ParameterError(shape_error) from exc
    if len(a) and a.shape[1:] != (width,):
        raise ParameterError(shape_error)
    if a.dtype.kind != "i":  # also integers that numpy promoted to float or object
        for row in rows:
            if not all(isinstance(x, _INTEGERS) for x in row):
                raise ParameterError(f"{what} {tuple(np.asarray(row).tolist())} has a non-integer entry")
        try:
            a = np.array(rows, dtype=np.int64)
        except OverflowError as exc:
            raise ParameterError(f"{what} entry out of the int64 range") from exc
    return a.astype(np.int64, copy=False).reshape(-1, width)  # np.array copied the rows already


def _sorted_rows(rows: np.ndarray, keys: Sequence[int]) -> np.ndarray:
    """``rows`` sorted by the columns ``keys``, which name every column, first key first, repeats dropped."""
    for k in reversed(keys):
        rows = rows.take(rows[:, k].argsort(kind="stable"), axis=0)
    return np.concatenate((rows[:1], rows[1:].compress((rows[1:] != rows[:-1]).any(axis=1), axis=0)))


def _pairs(u, v) -> np.ndarray:
    """The broadcast pairs (u, v) as an (m, 2) int64 array."""
    uv = np.empty((*np.broadcast(u, v).shape, 2), dtype=np.int64)
    uv[..., 0], uv[..., 1] = u, v
    return uv.reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class FiniteGraph:
    """Simple undirected graph on vertices 0..nu-1.

    ``edges``, any sized collection of integer vertex pairs, is normalized
    to one read-only (m, 2) int64 array of ascending rows u < v, so repeats
    and reversed pairs merge; self loops and ids that are not integers are
    rejected. ``labels``, when present, holds one display name per vertex.
    Family builders fill it with the conventional numbering of the family
    (paths and stars are 1-based, hypercube vertices are bit strings).
    Graphs of more than ``VERTEX_BUDGET`` vertices are rejected, and so are
    named families before they build any array. Graphs compare by identity.
    """

    nu: int
    edges: np.ndarray = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        nu = _vertices("graph", _int(self.nu, "vertex count", 1))
        object.__setattr__(self, "nu", nu)
        uv = _int_rows(self.edges, 2, "edge", "every edge must be a pair of vertices")
        u, v = uv.T
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= nu)
        if bad.any():  # report the first bad edge in iteration order, as a per-edge loop would
            p, q = uv[bad.argmax()].tolist()
            if p == q:
                raise ParameterError(f"self-loop at vertex {p}")
            _int(p, "vertex", 0, nu - 1)
            _int(q, "vertex", 0, nu - 1)
        uv.sort(axis=1)
        uv = _sorted_rows(uv, (0, 1))
        uv.setflags(write=False)
        object.__setattr__(self, "edges", uv)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != nu:
                raise ParameterError("labels length must equal vertex count")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (read-only float array)."""
        a = np.zeros((self.nu, self.nu))
        u, v = self.edges.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        a.setflags(write=False)
        return a

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    def vertex_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(str(v) for v in range(self.nu))


# Each family's parameters in order, as (name, minimum) pairs; the names are the CLI's flags.
_FAMILY_PARAMS = {
    "cycle": (("nu", 3),),
    "path": (("nu", 2),),
    "star": (("nu", 1),),
    "complete": (("nu", 2),),
    "complete_bipartite": (("m", 1), ("n", 1)),
    "hypercube": (("m", 1),),
    "petersen": (),
}
FAMILIES = tuple(_FAMILY_PARAMS)


def _arity(family: str, params: Sequence[int]) -> list[int]:
    """The family's parameters as ints, each at least its minimum in ``_FAMILY_PARAMS``."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    lo = [m for _, m in _FAMILY_PARAMS[family]]
    if len(params) != len(lo):
        raise ParameterError(f"family {family!r} takes {len(lo)} parameter(s), got {len(params)}")
    return [_int(p, f"family {family!r} parameter", m) for p, m in zip(params, lo)]


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
    params = _arity(family, params)
    if family == "cycle":
        (nu,) = params
        _vertices(f"family {family!r}", nu)
        edges = _pairs(np.arange(nu), np.arange(1, nu + 1) % nu)
        return FiniteGraph(nu, edges, tuple(str(i) for i in range(nu)))
    if family == "path":
        (nu,) = params
        _vertices(f"family {family!r}", nu)
        edges = _pairs(np.arange(nu - 1), np.arange(1, nu))
        return FiniteGraph(nu, edges, tuple(str(i + 1) for i in range(nu)))
    if family == "star":
        (nu,) = params
        _vertices(f"family {family!r}", nu + 1)
        # Leaves are 0..nu-1 (displayed 1..nu), the center is the last index.
        edges = _pairs(np.arange(nu), nu)
        return FiniteGraph(nu + 1, edges, tuple(str(i + 1) for i in range(nu + 1)))
    if family == "complete":
        (nu,) = params
        _vertices(f"family {family!r}", nu)
        edges = np.argwhere(np.less.outer(np.arange(nu), np.arange(nu)))
        return FiniteGraph(nu, edges, tuple(str(i + 1) for i in range(nu)))
    if family == "complete_bipartite":
        m, n = params
        _vertices(f"family {family!r}", m + n)
        edges = _pairs(np.arange(m)[:, None], np.arange(m, m + n))
        return FiniteGraph(m + n, edges, tuple(str(i + 1) for i in range(m + n)))
    if family == "hypercube":
        (m,) = params
        # 2^m vertices: the bound is the vertex budget's, checked on m so that no huge 2^m is formed
        nu = 1 << _int(m, f"family {family!r} parameter", 1, VERTEX_BUDGET.bit_length() - 1)
        x = np.arange(nu)[:, None]
        edges = _pairs(x, x ^ (1 << np.arange(m)))  # each edge twice, merged by FiniteGraph
        labels = tuple(format(v, f"0{m}b")[::-1] for v in range(nu))
        return FiniteGraph(nu, edges, labels)
    # The Petersen graph, the last family. Standard drawing, one broadcast row each: the outer
    # 5-cycle i ~ i + 1, the spokes i ~ i + 5 and the inner 5-cycle taken with step 2. Isomorphic
    # to the usual disjointness graph on 2-element subsets of a 5-element set.
    i = np.arange(5)
    edges = _pairs(i + [[0], [0], [5]], (i + [[1], [0], [2]]) % 5 + [[0], [5], [5]])
    return FiniteGraph(10, edges, tuple(str(i) for i in range(10)))


_DECIMAL = re.compile(r"-?[0-9]+")


def from_edge_list(text: str) -> FiniteGraph:
    """Parse an edge-list text into a FiniteGraph.

    One edge per line as ``u v`` with non-negative vertex ids in ASCII
    decimal digits (no ``+``, no ``_`` and no other script's digits, which
    ``int`` would accept); a leading ``-``, as in ``-0``, makes a negative
    id. Everything after a ``#`` is a comment; blank lines are skipped.
    Duplicate edges are merged, self loops raise EdgeListError. The vertex
    count is 1 + the largest index mentioned.
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
            if not all(map(_DECIMAL.fullmatch, parts)):
                raise ValueError("not a decimal vertex id")
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:  # int() also refuses ids over its digit limit
            raise EdgeListError(f"line {lineno}: non-integer vertex in {raw.strip()!r}") from exc
        if parts[0][0] == "-" or parts[1][0] == "-":  # -0 too, which int() reads as 0
            raise EdgeListError(f"line {lineno}: negative vertex id")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((min(u, v), max(u, v)))
    if not edges:
        raise EdgeListError("no edges found")
    nu = 1 + max(v for _, v in edges)
    return FiniteGraph(nu, edges)


@dataclass(frozen=True, eq=False)
class PeriodicGraphSpec:
    """Fundamental-domain description of a d-dimensional periodic graph.

    ``offset_edges``, any sized collection of integer rows (p, q, n_1, ...,
    n_d), holds directed entries: vertex p of a cell is adjacent to vertex q
    of the cell offset by n. The rows must be closed under (p, q, n) <->
    (q, p, -n). They are normalized to one read-only (m, 2 + d) int64 array
    sorted by (n, p, q), with repeated rows merged. A spec describes the
    adjacency operator alone: its fiber matrices carry no on-site term.
    Connectivity of the infinite graph is not checked here. Specs compare by
    identity.
    """

    d: int
    nu: int
    offset_edges: np.ndarray

    def __post_init__(self) -> None:
        d, nu = _int(self.d, "periodic dimension d", 1), _int(self.nu, "fundamental domain size nu", 1)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "nu", nu)
        shape_error = f"every offset edge must be {2 + d} integers (p, q, n)"
        rows = _int_rows(self.offset_edges, 2 + d, "offset edge", shape_error)
        pq, n = rows[:, :2], rows[:, 2:]
        bad = pq[(pq < 0) | (pq >= nu)]  # in iteration order
        if bad.size:
            _int(bad[0], "vertex", 0, nu - 1)
        loop = (pq[:, 0] == pq[:, 1]) & ~n.any(axis=1)
        if loop.any():
            raise ParameterError(f"self-loop at fundamental vertex {pq[loop.argmax(), 0]}")
        if n.min(initial=0) == -(1 << 63):  # -n would wrap to n
            raise ParameterError("offset edge entry out of the int64 range")
        keys = (*range(2, 2 + d), 0, 1)
        rows = _sorted_rows(rows, keys)
        mirror = -rows  # (q, p, -n)
        mirror[:, :2] = rows[:, 1::-1]
        if not np.array_equal(_sorted_rows(mirror, keys), rows):
            have = set(map(tuple, mirror.tolist()))
            p, q, *off = next(r for r in rows.tolist() if tuple(r) not in have)
            lone = (p, q, tuple(off))
            raise ParameterError(f"offset edges not symmetric: {lone} present without its reverse")
        rows.setflags(write=False)
        object.__setattr__(self, "offset_edges", rows)

    @cached_property
    def _offset_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct offsets in ascending order, shape (m, d), and the (L, nu^2) table of levels, read-only.

        Entry p * nu + q of a fiber matrix sums the phases of its rows (p, q, n) in ascending order of n.
        Level l holds the offset index of each entry's (l + 1)-th row, or m past the entry's last row.
        """
        rows = self.offset_edges
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:, 2:] != rows[:-1, 2:]).any(axis=1)
        offsets = rows[:, 2:].compress(new, axis=0).astype(float)
        flat = rows[:, 0] * self.nu + rows[:, 1]
        order = np.argsort(flat, kind="stable")  # each entry's rows stay in ascending order of n
        flat = flat.take(order)
        rank = np.arange(len(flat)) - flat.searchsorted(flat)  # a row's place among its entry's rows
        # in the narrowest unsigned dtype, as the table lives as long as the spec
        levels = np.full((rank.max(initial=-1) + 1, self.nu**2), len(offsets), np.min_scalar_type(len(offsets)))
        # take, compress and put: fancy indexing would allocate a few KB of index machinery
        levels.put(rank * self.nu**2 + flat, (np.cumsum(new) - 1).take(order))
        # setflags: assigning flags.writeable leaves a 57-byte object per array in tracemalloc's count (numpy 2.4)
        offsets.setflags(write=False)
        levels.setflags(write=False)  # and so its rows
        return offsets, levels


def zd_product_spec(graph: FiniteGraph, d: int = 1) -> PeriodicGraphSpec:
    """Periodic spec of the d-dimensional integer lattice box product with a graph.

    Each cell carries a copy of ``graph``; every vertex is additionally joined
    to its own copy in the two neighbouring cells along each lattice axis.
    """
    d = _int(d, "periodic dimension d", 1)
    m, nu = len(graph.edges), graph.nu
    rows = np.zeros((2 * m + 2 * nu * d, 2 + d), dtype=np.int64)
    rows[:m, :2] = rows[m : 2 * m, 1::-1] = graph.edges  # (u, v, 0) and (v, u, 0)
    # (p, p, +-e_axis) for every vertex p, sign and axis
    steps = rows[2 * m :].reshape(nu, 2, d, 2 + d)
    steps[..., 0] = steps[..., 1] = np.arange(nu)[:, None, None]
    steps[..., 2:] = np.eye(d, dtype=np.int64) * np.array([1, -1])[:, None, None]
    return PeriodicGraphSpec(d=d, nu=nu, offset_edges=rows)


def honeycomb_spec() -> PeriodicGraphSpec:
    """Two-vertex periodic spec of the honeycomb lattice.

    Vertex 0 of each cell is joined to vertex 1 of the same cell and of the
    cells offset by (-1, 0) and (0, -1), giving the three nearest neighbours
    of the hexagonal tiling.
    """
    rows = np.zeros((6, 4), dtype=np.int64)
    rows[:3, 1] = rows[3:, 0] = 1  # (0, 1, n) for n = (0, 0), (-1, 0), (0, -1), then (1, 0, -n)
    rows[[1, 2, 4, 5], [2, 3, 2, 3]] = -1, -1, 1, 1
    return PeriodicGraphSpec(d=2, nu=2, offset_edges=rows)


def triangular_spec() -> PeriodicGraphSpec:
    """One-vertex periodic spec of the triangular lattice: offsets +-(1, 0), +-(0, 1) and +-(1, 1)."""
    rows = np.zeros((6, 4), dtype=np.int64)
    rows[:, 2:] = [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]]
    return PeriodicGraphSpec(d=2, nu=1, offset_edges=rows)
