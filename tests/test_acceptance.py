"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Each
test states a user-facing contract of the package: closed forms agree with
the numeric path, published golden values are reproduced, scans and
quadrature behave on the documented instances within the documented
tolerances, and the dynamics converge in the documented directions.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import scipy.integrate

from crystalwalk import (
    FiniteGraph,
    ProductKind,
    build_named,
    build_torus,
    closed_form_density,
    d_hypercube_exact,
    eigendecompose_symmetric,
    evolve,
    floquet_condition_fraction,
    from_edge_list,
    general_density,
    honeycomb_spec,
    infinite_time_averaged,
    limit_prediction,
    limiting_density,
    product_spec,
    stationary_distribution,
    time_averaged,
    total_variation,
    zd_product_spec,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def random_edge_list(rng, max_nu=32):
    nu = int(rng.integers(2, max_nu + 1))
    prob = float(rng.uniform(0.15, 0.7))
    pairs = [(u, v) for u in range(nu) for v in range(u + 1, nu) if rng.random() < prob]
    if not pairs:
        pairs = [(0, 1)]
    return "\n".join(f"{u} {v}" for u, v in pairs)


def test_criterion_1_closed_form_equivalence():
    with criterion(1, "closed-form oracle equivalence"):
        t0 = time.perf_counter()
        cases = (
            [("cycle", [nu]) for nu in range(3, 17)]
            + [("path", [nu]) for nu in range(2, 17)]
            + [("star", [nu]) for nu in range(1, 17)]
            + [("hypercube", [m]) for m in range(1, 7)]
        )
        for family, params in cases:
            numeric = limiting_density(build_named(family, params)).values
            exact = closed_form_density(family, params).values
            err = np.abs(numeric - exact).max()
            assert err <= 1e-9, f"{family} {params}: max error {err:.3e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_golden_values():
    with criterion(2, "golden values on named graphs"):
        petersen = build_named("petersen", [])
        d = limiting_density(petersen).values
        for p in range(10):
            assert abs(d[p, p] - 21 / 50) <= 1e-9
            for q in range(10):
                if p == q:
                    continue
                want = 49 / 450 if petersen.adjacency[p, q] else 19 / 450
                assert abs(d[p, q] - want) <= 1e-9

        by_distance = {3: {0: 5 / 16, 1: 1 / 16}, 4: {0: 35 / 128, 1: 5 / 128, 2: 3 / 128}}
        for m, table in by_distance.items():
            d = limiting_density(build_named("hypercube", [m])).values
            for q in range(2**m):
                u = bin(q).count("1")
                if u in table:
                    assert abs(d[0, q] - table[u]) <= 1e-9

        assert abs(limiting_density(build_named("complete", [4])).values[0, 0] - 5 / 8) <= 1e-9
        assert abs(limiting_density(build_named("complete", [5])).values[0, 0] - 0.68) <= 0.005
        assert abs(limiting_density(build_named("complete", [100])).values[0, 0] - 0.98) <= 0.005
        assert (
            abs(limiting_density(build_named("complete_bipartite", [4, 4])).values[0, 0] - 0.59)
            <= 0.005
        )
        assert (
            abs(
                limiting_density(build_named("complete_bipartite", [100, 100])).values[0, 0]
                - 0.98
            )
            <= 0.005
        )
        leaf = limiting_density(build_named("star", [10])).values[0, 0]
        assert abs(leaf - 0.815) <= 1e-9


def test_criterion_3_row_normalization():
    with criterion(3, "density rows sum to one"):
        graphs = (
            [build_named("cycle", [nu]) for nu in range(3, 13)]
            + [build_named("path", [nu]) for nu in range(2, 13)]
            + [build_named("star", [nu]) for nu in range(1, 13)]
            + [build_named("complete", [nu]) for nu in range(2, 13)]
            + [build_named("complete_bipartite", [m, n]) for m, n in [(1, 1), (2, 5), (4, 4)]]
            + [build_named("hypercube", [m]) for m in range(1, 6)]
            + [build_named("petersen", [])]
        )
        rng = np.random.default_rng(2026)
        graphs += [from_edge_list(random_edge_list(rng)) for _ in range(100)]
        for g in graphs:
            rows = limiting_density(g).values.sum(axis=1)
            assert np.abs(rows - 1.0).max() <= 1e-10


def test_criterion_4_hypercube_identities():
    with criterion(4, "hypercube rational identities"):
        for m in range(1, 9):
            for u in range(m + 1):
                assert d_hypercube_exact(m, u) == d_hypercube_exact(m, m - u)
            b1 = d_hypercube_exact(m, 1)
            want = (
                Fraction(math.comb(2 * m, m), 1)
                - 4 * math.comb(2 * m - 1, m - 1)
                + 4 * math.comb(2 * m - 2, m - 1)
            ) / 4**m
            assert b1 == want


def test_criterion_5_floquet_scan():
    with criterion(5, "band collision scan"):
        cartesian = product_spec(
            zd_product_spec(FiniteGraph(1)), build_named("cycle", [3]), ProductKind.CARTESIAN
        )
        for n in (16, 32, 64):
            report = floquet_condition_fraction(cartesian, n)
            assert report.max_fraction <= 2 / n + 1e-12

        # brute-force collision count at N=16 over all shifts, pairs, points
        n = 16
        mu = cartesian.spectrum.eigenvalues
        best = 0
        for m in range(1, n):
            for s in range(3):
                for w in range(3):
                    count = sum(
                        1
                        for r in range(n)
                        if abs(
                            2 * math.cos(2 * math.pi * ((r + m) % n) / n)
                            + mu[s]
                            - 2 * math.cos(2 * math.pi * r / n)
                            - mu[w]
                        )
                        < 1e-9
                    )
                    best = max(best, count)
        assert floquet_condition_fraction(cartesian, n).max_fraction == best / n

        line = zd_product_spec(FiniteGraph(1))
        tensor = product_spec(line, build_named("cycle", [4]), ProductKind.TENSOR)
        for n in (16, 32, 64):
            assert floquet_condition_fraction(tensor, n).max_fraction == 1.0


def test_criterion_6_quadrature_density():
    with criterion(6, "grid quadrature density"):
        spec = zd_product_spec(build_named("cycle", [5]))
        want = closed_form_density("cycle", [5]).values
        err50 = np.abs(general_density(spec, 50).values - want).max()
        err100 = np.abs(general_density(spec, 100).values - want).max()
        print(f"  quadrature errors: N=50 {err50:.3e}, N=100 {err100:.3e}")
        assert err50 <= 2e-3
        # the cycle product has theta-independent projections, so both grids
        # sit at rounding level; require a real decrease or that floor
        assert err100 < err50 or max(err50, err100) <= 1e-12

        honeycomb = general_density(honeycomb_spec(), 64).values
        assert np.abs(honeycomb - 0.5).max() <= 2e-3


def test_criterion_7_dynamics_consistency():
    with criterion(7, "dynamics convergence trends"):
        t0 = time.perf_counter()

        # (a) exact finite-horizon average vs Simpson quadrature of |psi(t)|^2
        for family, params, n, horizon in [("path", [2], 4, 50.0), ("cycle", [3], 8, 37.5)]:
            op = build_torus(build_named(family, params), d=1, N=n)
            dist = time_averaged(op, ((0,), 0), horizon)
            ts = np.linspace(0.0, horizon, 10001)
            samples = np.stack([np.abs(evolve(op, ((0,), 0), t)) ** 2 for t in ts])
            oracle = scipy.integrate.simpson(samples, x=ts, axis=0) / horizon
            assert np.abs(dist.values - oracle).max() <= 1e-6

        # (b) finite horizons approach the infinite average
        op = build_torus(build_named("cycle", [3]), d=1, N=8)
        infinite = infinite_time_averaged(op, ((0,), 0))
        tvs = [
            total_variation(time_averaged(op, ((0,), 0), horizon), infinite)
            for horizon in (1e2, 1e3, 1e4)
        ]
        assert tvs[0] > tvs[1] > tvs[2]

        # (c) the factored prediction improves with torus size
        for family, params in [("cycle", [3]), ("cycle", [5]), ("path", [4]), ("complete_bipartite", [3, 1])]:
            gaps = []
            for n in (32, 64):
                op = build_torus(build_named(family, params), d=1, N=n)
                dist = infinite_time_averaged(op, ((0,), 0))
                gaps.append(total_variation(dist, limit_prediction(op, ((0,), 0))))
            assert gaps[1] < gaps[0], f"{family} {params}: {gaps}"

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_8_classical_contrast():
    with criterion(8, "classical uniform vs quantum bias"):
        for family, params, diag in [("petersen", [], 21 / 50), ("hypercube", [3], 5 / 16)]:
            g = build_named(family, params)
            pi = stationary_distribution(g)
            assert np.all(pi == pi[0])  # regular graph: exactly uniform
            assert pi[0] == 1.0 / g.nu
            d = limiting_density(g).values
            assert abs(d[0, 0] - diag) <= 1e-9
            assert abs(d[0, 0] - 1.0 / g.nu) > 1e-3  # quantum average is not uniform


def test_criterion_9_projection_invariants():
    with criterion(9, "projection kernel invariants"):
        graphs = [
            build_named("cycle", [5]),
            build_named("cycle", [6]),
            build_named("path", [7]),
            build_named("star", [6]),
            build_named("complete", [8]),
            build_named("complete_bipartite", [3, 4]),
            build_named("hypercube", [4]),
            build_named("petersen", []),
        ]
        rng = np.random.default_rng(99)
        graphs += [from_edge_list(random_edge_list(rng, max_nu=16)) for _ in range(10)]
        for g in graphs:
            dec = eigendecompose_symmetric(g.adjacency)
            blocks = [dec.eigenvectors[:, c.start : c.stop] for c in dec.clusters]
            kernels = [v @ v.T for v in blocks]  # P_s = V_s V_s^T
            total = np.zeros((g.nu, g.nu))
            for i, k in enumerate(kernels):
                assert np.abs(k @ k - k).max() <= 1e-10
                total += k
                for other in kernels[i + 1 :]:
                    assert np.abs(k @ other).max() <= 1e-10
            assert np.abs(total - np.eye(g.nu)).max() <= 1e-10
