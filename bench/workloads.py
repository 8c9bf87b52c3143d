"""Seeded input ladders for the benchmark workloads.

Each workload is a fixed ladder of CLI invocations (or, for the quadrature of
product cells, library calls) built from the seed. The seed draws only what
leaves the cost of an op unchanged: random edges at a fixed vertex and edge
count, vertex relabellings, factor graphs among families of one size, start
vertices and horizons. So the same seed gives the same inputs, and runs on
different seeds measure the same amount of work.

Why these workloads, one per CLI command of ROADMAP aim 1:

- ``finite``: ``density`` on seeded sparse random graphs (mostly simple
  spectra) and degenerate named graphs. One large ``eigh``, an O(n^3)
  cluster-by-cluster assembly and n^2 JSON floats: ``spectral`` and
  ``serialize`` do the work, ``floquet`` and ``dynamics`` are never entered.
  Both the singleton path and the block path of a spectral kernel run.
- ``quadrature``: grid quadrature of periodic cells (honeycomb on an N
  ladder with and without the Dirac points on the grid, and Z^d cells of
  small graphs). A per-fiber Python loop of N^d tiny ``eigh`` and clustering
  calls in ``floquet``; the dense ``spectral`` path is idle.
- ``scan``: band-collision scans over cartesian, tensor and strong products
  on Z^d (d = 1..3) and triangular bases, with one flat-band case. A
  vectorised loop over N^d shifts in ``floquet``, disjoint from quadrature.
- ``torus_inf``: ``simulate --T inf`` on 1- and 2-D tori. One FFT per torus
  eigenvalue cluster in ``dynamics``; ``spectral`` sees a nu x nu ``eigh``.
- ``torus_T``: ``simulate --T <float>`` up to the 1024-state pair-sum limit.
  dim^2 pair terms and dim^2 memory in ``dynamics``.

Periodic graphs and tori each get one workload per command, so that a gain on
one use of a module cannot hide a loss on another use of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from crystalwalk import floquet, graphs
from crystalwalk.closed_forms import closed_form_density

# Ops at or below this state count are checked against a dense eigh.
DENSE_LIMIT = 1024


@dataclass
class Op:
    """One invocation: ``argv`` for the CLI (``-o FILE`` is appended), else ``call``.

    ``check(payload, stdout)`` raises ``OracleError`` when the output is wrong.
    ``expect`` holds the counts the traced run must observe for this op.
    """

    label: str
    check: Callable[[bytes, str], None]
    argv: tuple[str, ...] = ()
    call: Callable[[], object] | None = None
    expect: dict[str, int] = field(default_factory=dict)


def _family_args(family: str, size: int) -> tuple[str, ...]:
    if family == "star":
        return ("--family", "star", "--nu", str(size - 1))
    return ("--family", family, "--nu", str(size))


def _family_graph(family: str, size: int) -> graphs.FiniteGraph:
    return graphs.build_named(family, [size - 1 if family == "star" else size])


def _random_edges(rng: np.random.Generator, n: int, mean_degree: int) -> list[tuple[int, int]]:
    """A random Hamiltonian cycle plus random chords: connected, n vertices, n*deg/2 edges."""
    perm = rng.permutation(n)
    edges = {tuple(sorted((int(a), int(b)))) for a, b in zip(perm, np.roll(perm, 1))}
    while len(edges) < n * mean_degree // 2:
        a, b = (int(x) for x in rng.integers(0, n, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def _density_check(reference: Callable[[], np.ndarray]) -> Callable[[bytes, str], None]:
    return lambda payload, _: oracles.check_density(oracles.parse_density_json(payload), reference())


def finite(rng: np.random.Generator, work: Path, smoke: bool) -> list[Op]:
    ops = []
    for n in (24, 40) if smoke else (120, 240, 360, 480):
        edges = _random_edges(rng, n, mean_degree=8)
        path = work / f"graph{n}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        ref = lambda n=n, edges=edges: oracles.dense_density(oracles.adjacency_from_edges(n, edges))
        ops.append(Op(f"density random n={n}", _density_check(ref), ("density", "--edge-list", str(path))))
    m, half, cyc = (4, 6, 12) if smoke else (9, 150, 400)
    bipartite = np.zeros((2 * half, 2 * half))
    bipartite[:half, half:] = bipartite[half:, :half] = 1.0
    ops += [
        Op(f"density hypercube m={m}", _density_check(lambda: closed_form_density("hypercube", [m]).values),
           ("density", "--family", "hypercube", "--m", str(m))),
        Op(f"density complete_bipartite {half},{half}", _density_check(lambda: oracles.dense_density(bipartite)),
           ("density", "--family", "complete_bipartite", "--m", str(half), "--n", str(half))),
        Op(f"density cycle {cyc}", _density_check(lambda: closed_form_density("cycle", [cyc]).values),
           ("density", "--family", "cycle", "--nu", str(cyc))),
    ]
    return ops


def quadrature(rng: np.random.Generator, work: Path, smoke: bool) -> list[Op]:
    ops = []
    for N in (6, 8) if smoke else (24, 30, 36, 40, 45):
        ops.append(Op(
            f"density --periodic honeycomb N={N}",
            _density_check(lambda N=N: oracles.honeycomb_density(N)),
            ("density", "--periodic", "honeycomb", "--N", str(N)),
            expect={"floquet.fibers": N * N, "floquet.quadrature": 1},
        ))
    cells = ([("petersen", (), 1, 8), ("cycle", (6,), 2, 4)] if smoke else
             [("petersen", (), 1, 64), ("petersen", (), 2, 16), ("cycle", (6,), 2, 18), ("hypercube", (3,), 2, 16)])
    for family, params, d, N in cells:
        base = graphs.build_named(family, params)
        perm = rng.permutation(base.nu)
        g = graphs.FiniteGraph(base.nu, frozenset((int(perm[u]), int(perm[v])) for u, v in base.edges))
        adjacency = oracles.adjacency_from_edges(g.nu, g.edges)

        def call(g=g, d=d, N=N):
            return floquet.general_density(graphs.zd_product_spec(g, d), N).to_density_matrix()

        ops.append(Op(
            f"general_density zd {family}{list(params)} d={d} N={N}",
            lambda payload, _, nu=g.nu, a=adjacency: oracles.check_density(
                np.frombuffer(payload).reshape(nu, nu), oracles.dense_density(a)),
            call=call,
            expect={"floquet.fibers": N**d, "floquet.quadrature": 1},
        ))
    return ops


# Factor families with the same vertex count cost the same to scan.
_SCAN_FAMILIES = ("cycle", "path", "complete", "star")


def scan(rng: np.random.Generator, work: Path, smoke: bool) -> list[Op]:
    # (product, base, d, nu, N); the last entry is the flat-band tensor case.
    ladder = ([("cartesian", "zd", 1, 5, 16), ("strong", "triangular", 2, 4, 6), ("tensor", "zd", 1, 4, 8)]
              if smoke else
              [("cartesian", "zd", 1, 5, 1024), ("cartesian", "zd", 2, 4, 40), ("tensor", "zd", 2, 3, 40),
               ("strong", "zd", 3, 3, 12), ("cartesian", "triangular", 2, 3, 40),
               ("strong", "triangular", 2, 4, 32), ("tensor", "zd", 1, 4, 256)])
    ops = []
    for i, (rule, base, d, nu, N) in enumerate(ladder):
        family = "cycle" if i == len(ladder) - 1 else _SCAN_FAMILIES[rng.integers(len(_SCAN_FAMILIES))]
        mu = np.linalg.eigh(_family_graph(family, nu).adjacency)[0]
        argv = ("floquet-check", *_family_args(family, nu), "--product", rule, "--base", base, "--N", str(N))
        if base == "zd":
            argv += ("--d", str(d))
        ops.append(Op(
            f"floquet-check {family}{nu} {rule} {base} d={d} N={N}",
            lambda payload, _, mu=mu, rule=rule, base=base, d=d, N=N: oracles.check_scan(payload, mu, rule, base, d, N),
            argv,
            expect={"floquet.scan": 1, "floquet.scan_tests": (N**d - 1) * N**d * nu * nu},
        ))
    return ops


def _simulate(rng: np.random.Generator, family: str, nu: int, d: int, N: int, horizon: float) -> Op:
    cell = tuple(int(c) for c in rng.integers(0, N, d))
    p = int(rng.integers(nu))
    factor = _family_graph(family, nu).adjacency
    T = "inf" if np.isinf(horizon) else f"{horizon:.6g}"
    dim = nu * N**d

    def check(payload: bytes, stdout: str) -> None:
        masses = oracles.parse_distribution_csv(payload, d)
        reference = None
        if dim <= DENSE_LIMIT:
            start = int(np.ravel_multi_index(cell + (p,), (N,) * d + (nu,)))
            reference = oracles.dense_torus_average(factor, d, N, start, float(T))
        oracles.check_distribution(masses, N, d, nu, cell, reference)
        oracles.check_tv_summary(stdout, masses, oracles.dense_density(factor)[p], N**d)

    expect = {"dynamics.average_inf": 1} if T == "inf" else {"dynamics.average_T": 1, "dynamics.pair_terms": dim * dim}
    argv = ("simulate", *_family_args(family, nu), "--d", str(d), "--N", str(N), "--T", T,
            "--start-cell", *(str(c) for c in cell), "--start-p", str(p))
    return Op(f"simulate {family}{nu} d={d} N={N} T={T}", check, argv, expect=expect)


def torus_inf(rng: np.random.Generator, work: Path, smoke: bool) -> list[Op]:
    ladder = ([("cycle", 3, 2, 12), ("cycle", 4, 2, 16), ("path", 3, 1, 40)] if smoke else
              [("cycle", 3, 2, 72), ("cycle", 4, 2, 48), ("path", 3, 2, 56), ("cycle", 3, 2, 12),
               ("cycle", 4, 2, 16), ("path", 3, 2, 14), ("path", 3, 1, 96)])
    return [_simulate(rng, f, nu, d, N, np.inf) for f, nu, d, N in ladder]


def torus_T(rng: np.random.Generator, work: Path, smoke: bool) -> list[Op]:
    ladder = ([("cycle", 4, 2, 6), ("path", 2, 1, 64)] if smoke else
              [("cycle", 4, 2, 16), ("path", 3, 2, 18), ("cycle", 3, 1, 341), ("path", 2, 1, 512),
               ("cycle", 3, 2, 10), ("cycle", 4, 1, 64)])
    return [_simulate(rng, f, nu, d, N, 10.0 ** rng.uniform(1.0, 4.0)) for f, nu, d, N in ladder]


WORKLOADS = {
    "finite": finite,
    "quadrature": quadrature,
    "scan": scan,
    "torus_inf": torus_inf,
    "torus_T": torus_T,
}


def build(name: str, seed: int, work: Path, smoke: bool) -> list[Op]:
    return WORKLOADS[name](np.random.default_rng(seed), work, smoke)
