import numpy as np
import pytest

from crystalwalk import (
    STEP_BUDGET,
    FiniteGraph,
    ParameterError,
    WalkReport,
    build_named,
    classical,
    is_bipartite,
    iterate_distribution,
    stationary_distribution,
    transition_matrix,
    walk_report,
)


def test_transition_matrix_is_row_stochastic():
    for family, params in [("cycle", [5]), ("star", [4]), ("petersen", [])]:
        p = transition_matrix(build_named(family, params))
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-14)


def test_transition_matrix_lazy():
    g = build_named("cycle", [4])
    p = transition_matrix(g, lazy=True)
    np.testing.assert_allclose(np.diag(p), 0.5, atol=1e-14)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-14)


def test_transition_matrix_rejects_isolated_vertex():
    g = FiniteGraph(nu=3, edges=(((0, 1),)))
    with pytest.raises(ParameterError, match="isolated"):
        transition_matrix(g)
    with pytest.raises(ParameterError, match="isolated"):
        stationary_distribution(g)


@pytest.mark.parametrize(
    "family,params,want",
    [
        ("complete", [4], [0.25] * 4),
        ("petersen", [], [0.1] * 10),
        ("cycle", [7], [1 / 7] * 7),
        ("complete", [31], [1 / 31] * 31),
    ],
)
def test_stationary_uniform_on_regular_graphs(family, params, want):
    np.testing.assert_allclose(stationary_distribution(build_named(family, params)), want, atol=1e-14)


def test_stationary_star_weights_center():
    pi = stationary_distribution(build_named("star", [4]))
    np.testing.assert_allclose(pi, [1 / 8] * 4 + [1 / 2], atol=1e-14)


def test_stationary_is_fixed_point():
    for family, params in [("path", [6]), ("complete_bipartite", [2, 5]), ("hypercube", [3])]:
        g = build_named(family, params)
        pi = stationary_distribution(g)
        np.testing.assert_allclose(pi @ transition_matrix(g), pi, atol=1e-13)


@pytest.mark.parametrize(
    "family,params,want",
    [
        ("cycle", [5], False),
        ("cycle", [6], True),
        ("path", [7], True),
        ("star", [9], True),
        ("hypercube", [3], True),
        ("complete", [3], False),
        ("complete_bipartite", [3, 4], True),
        ("petersen", [], False),
    ],
)
def test_is_bipartite(family, params, want):
    assert is_bipartite(build_named(family, params)) is want


def test_is_bipartite_handles_disconnected_graph():
    g = FiniteGraph(nu=5, edges=((0, 1), (2, 3), (3, 4), (4, 2)))
    assert is_bipartite(g) is False
    h = FiniteGraph(nu=4, edges=((0, 1), (2, 3)))
    assert is_bipartite(h) is True


def test_iterate_zero_steps_is_delta():
    dist = iterate_distribution(build_named("cycle", [5]), 3, 0)
    np.testing.assert_allclose(dist, [0, 0, 0, 1, 0], atol=1e-15)


def test_iterate_matches_matrix_power():
    g = build_named("petersen", [])
    p = transition_matrix(g)
    start = np.zeros(10)
    start[4] = 1.0
    want = start @ np.linalg.matrix_power(p, 9)
    np.testing.assert_allclose(iterate_distribution(g, 4, 9), want, atol=1e-13)


def test_iterate_converges_on_aperiodic_graph():
    # odd cycles are aperiodic, so the simple walk mixes to uniform
    g = build_named("cycle", [5])
    dist = iterate_distribution(g, 0, 200)
    np.testing.assert_allclose(dist, 0.2, atol=1e-6)


def test_lazy_walk_converges_on_bipartite_graph():
    # the simple walk on a bipartite graph oscillates; laziness removes the period
    g = build_named("hypercube", [3])
    plain = iterate_distribution(g, 0, 401)
    assert plain[0] == 0.0  # odd step count keeps all mass on the far class
    dist = iterate_distribution(g, 0, 400, lazy=True)
    np.testing.assert_allclose(dist, 1 / 8, atol=1e-6)


def test_iterate_rejects():
    g = build_named("cycle", [5])
    with pytest.raises(ParameterError):
        iterate_distribution(g, 5, 1)
    with pytest.raises(ParameterError):
        iterate_distribution(g, 0, -1)
    # int() would walk 2 steps from vertex 1
    with pytest.raises(ParameterError, match="start vertex must be an integer"):
        iterate_distribution(g, 1.5, 2)
    with pytest.raises(ParameterError, match="step count must be an integer"):
        iterate_distribution(g, 1, 2.9)


def test_iterate_step_budget_boundary(monkeypatch):
    # 2^19 steps is the largest walk a graph of at most 45 vertices may take
    assert STEP_BUDGET == 2**19 * 2048
    with pytest.raises(ParameterError, match="budget"):
        iterate_distribution(build_named("cycle", [5]), 0, 2**19 + 1)
    with pytest.raises(ParameterError, match="budget"):
        walk_report(build_named("cycle", [5]), start=0, steps=2**31 - 1)
    # below the per-step floor a step counts 2048 entries, above it nu^2
    small, large = build_named("cycle", [5]), build_named("cycle", [64])
    for g, cost in ((small, 2048), (large, 64**2)):
        monkeypatch.setattr(classical, "STEP_BUDGET", 7 * cost)
        want = iterate_distribution(g, 0, 7)
        with pytest.raises(ParameterError, match=f"8 steps need {8 * cost} entry updates"):
            iterate_distribution(g, 0, 8)
        monkeypatch.undo()
        assert np.array_equal(iterate_distribution(g, 0, 7), want)


def test_walk_report():
    g = build_named("cycle", [6])
    report = walk_report(g)
    assert report.bipartite is True
    assert report.iterates is None
    np.testing.assert_allclose(report.stationary, 1 / 6, atol=1e-14)
    report = walk_report(g, start=2, steps=4, lazy=True)
    assert report.iterates is not None and len(report.iterates) == 1
    np.testing.assert_allclose(
        report.iterates[0], iterate_distribution(g, 2, 4, lazy=True), atol=1e-15
    )


@pytest.mark.parametrize("lone", [{"start": 0}, {"steps": 3}])
def test_walk_report_refuses_a_lone_start_or_steps(lone):
    with pytest.raises(ParameterError, match="start and steps must be given together"):
        walk_report(build_named("cycle", [5]), **lone)
    # before any work: the isolated vertices would fail the stationary law first
    with pytest.raises(ParameterError, match="together"):
        walk_report(FiniteGraph(3), **lone)


@pytest.mark.parametrize("iterates", [np.full(3, 1 / 3), np.full((1, 4), 0.25), np.full((1, 3, 1), 1 / 3)],
                         ids=["one-dimensional", "wrong-length", "three-dimensional"])
def test_walk_report_iterates_are_rows_over_the_vertices(iterates):
    with pytest.raises(ValueError, match="^iterates must hold one distribution over the vertices per row$"):
        WalkReport(np.full(3, 1 / 3), True, iterates)
    assert WalkReport(np.full(3, 1 / 3), True, np.full((2, 3), 1 / 3)).iterates.shape == (2, 3)


def test_walk_report_arrays_are_read_only():
    report = walk_report(build_named("cycle", [5]), start=0, steps=3)
    for a in (report.stationary, *report.iterates):
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
