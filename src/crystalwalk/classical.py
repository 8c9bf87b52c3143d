"""Classical random-walk baseline: stationary law, bipartiteness, iteration."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import FiniteGraph, ParameterError, _budget, _int
from .spectral import _within

__all__ = [
    "STEP_BUDGET",
    "WalkReport",
    "transition_matrix",
    "stationary_distribution",
    "is_bipartite",
    "iterate_distribution",
    "walk_report",
]

_STATIONARY_TOL = 1e-12
# Iteration does one (nu,) x (nu, nu) product per step. Its Python and numpy
# overhead, about 1 us, costs as much as 2048 entries at about 0.5 ns each, so
# steps * max(nu^2, _STEP_FLOOR) <= STEP_BUDGET keeps a walk to about a
# second: 2^19 steps on a graph of at most 45 vertices, 256 steps on 2048
# vertices (0.6-0.9 and 0.5-0.6 s, 2-core Xeon, OpenBLAS on 1 thread).
_STEP_FLOOR = 1 << 11
STEP_BUDGET = 1 << 30


def transition_matrix(graph: FiniteGraph, lazy: bool = False) -> np.ndarray:
    """Row-stochastic simple (or lazy) random-walk matrix D^{-1} A."""
    deg = graph.degrees()
    if np.any(deg == 0):
        isolated = int(np.nonzero(deg == 0)[0][0])
        raise ParameterError(f"vertex {isolated} is isolated; the walk is undefined")
    p = graph.adjacency / deg[:, None]
    if lazy:
        p = 0.5 * (np.eye(graph.nu) + p)
    return p


def stationary_distribution(graph: FiniteGraph) -> np.ndarray:
    """Degree-proportional stationary law pi(v) = deg(v) / (2 |E|)."""
    p = transition_matrix(graph)
    deg = graph.degrees()
    pi = deg / deg.sum()
    _within(np.abs(pi @ p - pi).max(), _STATIONARY_TOL, "stationarity check failed")
    return pi


def is_bipartite(graph: FiniteGraph) -> bool:
    """Two-colorability by breadth-first search over every component."""
    color = np.full(graph.nu, -1, dtype=int)
    neighbors: list[list[int]] = [[] for _ in range(graph.nu)]
    for u, v in graph.edges.tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    for root in range(graph.nu):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def iterate_distribution(
    graph: FiniteGraph, start: int, steps: int, lazy: bool = False
) -> np.ndarray:
    """Distribution of the walk after ``steps`` moves from ``start``.

    Walks of more than ``STEP_BUDGET`` entry updates, steps * max(nu^2,
    2048), are rejected before the first step.
    """
    start, steps = _int(start, "start vertex", 0, graph.nu - 1), _int(steps, "step count", 0)
    _budget(f"{steps} steps need", steps * max(graph.nu**2, _STEP_FLOOR), "entry updates", STEP_BUDGET)
    p = transition_matrix(graph, lazy=lazy)
    dist = np.zeros(graph.nu)
    dist[start] = 1.0
    for _ in range(steps):
        dist = dist @ p
    return dist


@dataclass(frozen=True)
class WalkReport:
    """Stationary law, bipartiteness, and optional iterates of the walk, as read-only arrays."""

    stationary: np.ndarray
    bipartite: bool
    iterates: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        arrays = [np.asarray(a, dtype=float) for a in (self.stationary, *(self.iterates or ()))]
        for a in arrays:
            a.setflags(write=False)
        object.__setattr__(self, "stationary", arrays[0])
        if self.iterates is not None:
            object.__setattr__(self, "iterates", tuple(arrays[1:]))


def walk_report(
    graph: FiniteGraph,
    start: int | None = None,
    steps: int | None = None,
    lazy: bool = False,
) -> WalkReport:
    """Bundle the classical quantities; iterates included when start and steps given."""
    iterates = None
    if start is not None and steps is not None:
        iterates = (iterate_distribution(graph, start, steps, lazy=lazy),)
    return WalkReport(
        stationary=stationary_distribution(graph),
        bipartite=is_bipartite(graph),
        iterates=iterates,
    )
