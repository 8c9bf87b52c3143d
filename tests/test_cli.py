import hashlib
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import crystalwalk
from crystalwalk import NumericalError, cli, floquet, from_edge_list, limiting_density, serialize
from crystalwalk.cli import main
from test_serialize import _json_row_by_row, _record_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_json(capsys):
    code, out, err = run_cli(capsys, "density", "--family", "cycle", "--nu", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["nu"] == 5
    assert obj["source"] == "numeric"
    assert obj["d"][0][0] == pytest.approx(9 / 25, abs=1e-12)
    assert obj["d"][0][1] == pytest.approx(4 / 25, abs=1e-12)


def test_density_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "density", "--family", "petersen")
    _, second, _ = run_cli(capsys, "density", "--family", "petersen")
    assert first == second


def test_density_csv(capsys):
    code, out, _ = run_cli(capsys, "density", "--family", "cycle", "--nu", "5", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,q,d"
    assert "0,0,0.36" in lines


def test_density_from_edge_list(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("# a triangle\n0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "density", "--edge-list", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["nu"] == 3
    assert obj["d"][0][0] == pytest.approx(5 / 9, abs=1e-12)


def test_density_json_of_a_random_graph_is_the_row_by_row_reference(capsys, monkeypatch, tmp_path):
    # a Hamiltonian cycle plus chords: n = 100, mean degree 8, a mostly simple spectrum
    rng = np.random.default_rng(19)
    n = 100
    cycle = rng.permutation(n)
    edges = {tuple(sorted(pair)) for pair in zip(cycle.tolist(), np.roll(cycle, 1).tolist())}
    while len(edges) < 4 * n:
        a, b = sorted(rng.integers(0, n, 2).tolist())
        if a != b:
            edges.add((a, b))
    text = "".join(f"{a} {b}\n" for a, b in sorted(edges))
    path = tmp_path / "random.txt"
    path.write_text(text)
    symmetric = []
    _record_rows(monkeypatch, "_symmetric_rows", symmetric)
    code, out, _ = run_cli(capsys, "density", "--edge-list", str(path))
    assert code == 0
    # the reference formats every entry on its own, so no digest depends on the BLAS build
    assert out == _json_row_by_row(limiting_density(from_edge_list(text)))
    assert len(symmetric) == n


def test_density_releases_the_graph_before_serializing(capsys, monkeypatch):
    refs, alive = [], []
    resolve, emit = cli._resolve_graph, serialize.density_json

    def resolve_and_watch(args):
        graph = resolve(args)
        graph.adjacency  # the cached n x n matrix goes with the graph
        refs.append(weakref.ref(graph))
        return graph

    monkeypatch.setattr(cli, "_resolve_graph", resolve_and_watch)
    monkeypatch.setattr(serialize, "density_json", lambda density: alive.append(refs[0]() is not None) or emit(density))
    assert run_cli(capsys, "density", "--family", "petersen")[0] == 0
    assert alive == [False]


def test_density_periodic_honeycomb(capsys):
    code, out, _ = run_cli(capsys, "density", "--periodic", "honeycomb", "--N", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["source"] == "quadrature"
    assert obj["nu"] == 2
    assert obj["d"][0][0] == pytest.approx(0.5, abs=2e-2)


def test_density_periodic_excludes_family(capsys):
    code, _, err = run_cli(
        capsys, "density", "--periodic", "honeycomb", "--family", "cycle", "--nu", "3"
    )
    assert code == 2
    assert "error:" in err


def test_density_output_file(capsys, tmp_path):
    target = tmp_path / "density.json"
    code, out, _ = run_cli(
        capsys, "density", "--family", "complete", "--nu", "4", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["d"][0][0] == pytest.approx(5 / 8, abs=1e-12)


def test_closed_form_hypercube(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "--family", "hypercube", "--m", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,q,d"
    assert "0000,0000,0.2734375" in lines
    assert "0000,1000,0.0390625" in lines
    assert "0000,1100,0.0234375" in lines


def test_closed_form_builds_its_graph_once(capsys, monkeypatch):
    calls = []

    def build_named(family, params=()):
        calls.append((family, list(params)))
        return crystalwalk.build_named(family, params)

    monkeypatch.setattr(cli, "build_named", build_named)
    monkeypatch.setattr(crystalwalk.closed_forms, "build_named", build_named)
    code, out, _ = run_cli(capsys, "closed-form", "--family", "hypercube", "--m", "4")
    assert code == 0
    assert calls == [("hypercube", [4])]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a2661930094d4582fe7cf337c31feeb58404f73d1e0584cab33fd292292b62f7"
    )


def test_closed_form_rejects_unsolved_family(capsys):
    code, _, _ = run_cli(capsys, "closed-form", "--family", "petersen")
    assert code == 2


def test_floquet_check_cartesian(capsys):
    code, out, _ = run_cli(
        capsys, "floquet-check", "--family", "cycle", "--nu", "3", "--N", "16"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "N": 16,
        "max_fraction": 0.125,
        "worst_shift": [2],
        "worst_pair": [0, 0],
        "flat_bands": [],
    }


def test_floquet_check_flat_band(capsys):
    code, out, _ = run_cli(
        capsys,
        "floquet-check", "--family", "cycle", "--nu", "4",
        "--product", "tensor", "--N", "16",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["max_fraction"] == 1.0
    assert obj["flat_bands"] == [1, 2]


@pytest.mark.parametrize("tol,flat", [((), [1]), (("--tol", "1e-20"), [])])
def test_floquet_check_tol_reaches_flat_band_check(capsys, tol, flat):
    # the middle eigenvalue of P3 is about -6e-18: flat at the default gap, not at a 1.4e-20 gap
    code, out, _ = run_cli(
        capsys, "floquet-check", "--family", "path", "--nu", "3", "--product", "tensor", "--N", "8", *tol
    )
    assert code == 0
    assert json.loads(out)["flat_bands"] == flat


@pytest.mark.parametrize(
    "argv,want",
    [
        (
            ("--nu", "3", "--N", "64"),
            '{"N":64,"max_fraction":0.03125,"worst_shift":[2],"worst_pair":[0,0],"flat_bands":[]}\n',
        ),
        (
            ("--nu", "4", "--product", "tensor", "--N", "64"),
            '{"N":64,"max_fraction":1,"worst_shift":[1],"worst_pair":[1,1],"flat_bands":[1,2]}\n',
        ),
    ],
)
def test_floquet_check_readme_examples_exact_bytes(capsys, argv, want):
    code, out, _ = run_cli(capsys, "floquet-check", "--family", "cycle", *argv)
    assert code == 0
    assert out == want


@pytest.mark.parametrize(
    "argv,digest,summary",
    [
        (
            ("--family", "cycle", "--nu", "3", "--N", "64", "--T", "inf"),
            "f28eccf59feaabd3a09393cb8b51e195673f2bc3032792d25948629ba6545d23",
            "tv_to_prediction = 0.0302734375\n",
        ),
        (
            ("--family", "path", "--nu", "2", "--N", "8", "--T", "1e4", "--start-cell", "3"),
            "cb2d7be394546a7c4db5c2b515c157adf0c679210392830294111bc79447aa94",
            "tv_to_prediction = 0.218749567895\n",
        ),
        # not in the README: 60 bands over Z_3, one GEMM each in the pair-grid tail of the average
        (
            ("--family", "cycle", "--nu", "60", "--N", "3", "--T", "inf"),
            "f706d130b9ab690bf2bf48f4f8cc372692efc7271c4951ca6687111dc00b6c7f",
            "tv_to_prediction = 0.222222222222\n",
        ),
    ],
)
def test_simulate_readme_examples_exact_bytes(capsys, argv, digest, summary):
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == summary


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("density", "--family", "cycle", "--nu", "5", "--csv"),
            "59253710342b67a32d165e7b83d5fd0a2a3d311a07c97464e0666aa73ecb6e91",
        ),
        (
            ("density", "--periodic", "honeycomb", "--N", "12", "--csv"),
            "326696d2fa1187bd17cd7b833ea06e563611d66a0dff0f8034a6d4b2f0243a19",
        ),
        (
            ("closed-form", "--family", "hypercube", "--m", "4"),
            "a2661930094d4582fe7cf337c31feeb58404f73d1e0584cab33fd292292b62f7",
        ),
        (
            ("compare", "--family", "petersen"),
            "32233f74dd2b02020d3e1b58a7bbccabc7b58bdea8c4a23beca0a181985a1f26",
        ),
    ],
)
def test_csv_tables_exact_bytes(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_csv_longer_than_a_chunk_exact_bytes(capsys):
    # 3072 lines over 24 distinct masses: the %s-template path of serialize._table
    code, out, err = run_cli(
        capsys, "simulate", "--family", "cycle", "--nu", "3", "--d", "2", "--N", "32", "--T", "inf"
    )
    assert code == 0
    assert out.count("\n") == 1 + 3 * 32**2
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a5e2846b9a8df2b4541f543b4d553c09f8cdf55eee2611baf2735144c3a5cff9"
    )
    assert err == "tv_to_prediction = 0.176345825195\n"


def test_floquet_check_rejects_scan_over_budget(capsys):
    code, out, err = run_cli(
        capsys, "floquet-check", "--family", "cycle", "--nu", "3", "--d", "3", "--N", "128"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_density_periodic_rejects_quadrature_over_budget(capsys, tmp_path):
    # 1025^2 = 1050625 fibers, 2049 over the 2^20 budget: rejected before the fiber loop starts
    out_file = tmp_path / "d.json"
    for extra in ([], ["-o", str(out_file)]):
        code, out, err = run_cli(capsys, "density", "--periodic", "honeycomb", "--N", "1025", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "budget" in err
    assert not out_file.exists()


def test_simulate_rejects_infinite_average_over_budget(capsys):
    # 2^20 states fit the state budget, but the average's count table would hold 2^26 counts
    code, out, err = run_cli(
        capsys, "simulate", "--family", "complete", "--nu", "64", "--N", "16384", "--T", "inf"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "budget" in err


def test_density_periodic_eigh_failure_exits_1(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    code, out, err = run_cli(capsys, "density", "--periodic", "honeycomb", "--N", "8")
    assert code == 1
    assert out == ""
    assert err.startswith("numeric failure: fiber eigendecomposition failed")


def test_simulate_summary_goes_to_stderr(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--family", "cycle", "--nu", "3",
        "--N", "8", "--T", "100",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "cell_0,q,mass"
    assert len(lines) == 1 + 24
    assert err.startswith("tv_to_prediction = ")


def test_simulate_output_file_moves_summary_to_stdout(capsys, tmp_path):
    target = tmp_path / "dist.csv"
    code, out, err = run_cli(
        capsys,
        "simulate", "--family", "cycle", "--nu", "3",
        "--N", "8", "--T", "inf", "-o", str(target),
    )
    assert code == 0
    assert out.startswith("tv_to_prediction = ")
    assert err == ""
    assert target.read_text().startswith("cell_0,q,mass")


def test_simulate_infinite_horizon_matches_prediction_scale(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--family", "cycle", "--nu", "3", "--N", "64", "--T", "inf",
    )
    assert code == 0
    tv = float(err.split("=")[1])
    assert tv == pytest.approx(2 * 62 / 64**2, abs=1e-9)


def test_simulate_start_arguments(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--family", "path", "--nu", "2",
        "--N", "8", "--T", "inf", "--start-cell", "3", "--start-p", "1",
    )
    assert code == 0
    assert "cell_0,q,mass" in out


def test_simulate_rejects_bad_horizon(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--family", "cycle", "--nu", "3", "--N", "8", "--T", "soon"
    )
    assert code == 2
    assert "error:" in err
    code, _, _ = run_cli(
        capsys, "simulate", "--family", "cycle", "--nu", "3", "--N", "8", "--T", "-5"
    )
    assert code == 2


_SIMULATE_C3_N8 = ("simulate", "--family", "cycle", "--nu", "3", "--N", "8", "--start-cell", "5")


@pytest.mark.parametrize("spelling", ["Infinity", "+inf", " INF "])
def test_simulate_takes_every_spelling_of_infinity(capsys, spelling):
    want = run_cli(capsys, *_SIMULATE_C3_N8, "--T", "inf")
    assert want[0] == 0
    assert run_cli(capsys, *_SIMULATE_C3_N8, f"--T={spelling}") == want


@pytest.mark.parametrize(
    "text,line",
    [
        ("abc", "error: argument --T: invalid float value: 'abc'"),
        ("-inf", "error: averaging horizon must be a finite real in (0, 1e+300], got -inf"),
        ("nan", "error: averaging horizon must be a finite real in (0, 1e+300], got nan"),
    ],
)
def test_simulate_rejects_a_horizon_that_is_not_a_positive_float(capsys, text, line):
    assert run_cli(capsys, *_SIMULATE_C3_N8, f"--T={text}") == (2, "", line + "\n")


_SIMULATE_HORIZON = "error: averaging horizon must be a finite real in (0, 1e+300], got "


@pytest.mark.parametrize(
    "argv,line",
    [
        ((*_SIMULATE_C3_N8, "--T", "-1e5"), _SIMULATE_HORIZON + "-100000.0"),
        ((*_SIMULATE_C3_N8, "--T=-1e5"), _SIMULATE_HORIZON + "-100000.0"),
        ((*_SIMULATE_C3_N8, "--T", "-inf"), _SIMULATE_HORIZON + "-inf"),
        ((*_SIMULATE_C3_N8, "--T", "-1x"), "error: argument --T: expected one argument"),  # not a number
        (
            ("floquet-check", "--family", "cycle", "--nu", "3", "--N", "8", "--delta", "-1e-9"),
            "error: collision width delta must be a finite real in (0, inf], got -1e-09",
        ),
    ],
)
def test_negative_float_words_reach_the_bound_message(capsys, argv, line):
    # argparse's own negative-number pattern has no exponent and no inf: -1e5 and -inf were unknown flags
    assert run_cli(capsys, *argv) == (2, "", line + "\n")


def test_no_option_string_reads_as_a_negative_number():
    parsers = [cli._PARSER, *cli._PARSER._subparsers._group_actions[0].choices.values()]
    options = [option for parser in parsers for option in parser._option_string_actions]
    assert len(parsers) == 7 and "--T" in options
    assert not [option for parser in parsers for option in options if parser._negative_number_matcher.match(option)]


def test_simulate_rejects_oversized_finite_average(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--family", "cycle", "--nu", "3", "--N", "2048", "--T", "10"
    )
    assert code == 2
    assert "error:" in err


def test_classical_json(capsys):
    code, out, _ = run_cli(capsys, "classical", "--family", "petersen")
    assert code == 0
    obj = json.loads(out)
    assert obj["bipartite"] is False
    np.testing.assert_allclose(obj["stationary"], [0.1] * 10)
    assert "iterates" not in obj


def test_classical_with_iteration(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "--family", "cycle", "--nu", "4", "--start", "0",
        "--steps", "2", "--lazy",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["iterates"]) == 1
    assert sum(obj["iterates"][0]) == pytest.approx(1.0, abs=1e-12)


def test_classical_requires_paired_start_steps(capsys):
    code, _, err = run_cli(capsys, "classical", "--family", "cycle", "--nu", "4", "--start", "0")
    assert code == 2
    assert "together" in err


def test_compare_table(capsys):
    code, out, _ = run_cli(capsys, "compare", "--family", "complete", "--nu", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,quantum_density,classical_stationary,uniform"
    assert lines[1] == "1,0.625,0.25,0.25"


def test_compare_rejects_bad_start(capsys):
    code, _, _ = run_cli(capsys, "compare", "--family", "complete", "--nu", "4", "--start-p", "9")
    assert code == 2


@pytest.mark.parametrize(
    "argv,line",
    [
        (("density", "--family", "cycle"), "error: family 'cycle' requires --nu"),
        (("density", "--family", "complete_bipartite", "--m", "2"),
         "error: family 'complete_bipartite' requires --m and --n"),
        (("density",), "error: a --family is required here"),
    ],
)
def test_missing_family_flags_exact_stderr(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", line + "\n")


_TRIANGULAR = ("floquet-check", "--family", "path", "--nu", "4", "--product", "strong", "--base", "triangular",
               "--N", "6")


def test_floquet_check_triangular_base_takes_only_d_2(capsys):
    want = '{"N":6,"max_fraction":0.44444444444444442,"worst_shift":[2,2],"worst_pair":[0,0],"flat_bands":[]}'
    assert run_cli(capsys, *_TRIANGULAR) == (0, want + "\n", "")
    assert run_cli(capsys, *_TRIANGULAR, "--d", "2") == (0, want + "\n", "")
    for d in ("1", "3"):
        line = f"error: the triangular base has d = 2, got --d {d}\n"
        assert run_cli(capsys, *_TRIANGULAR, "--d", d) == (2, "", line)


def test_argument_errors_exit_2(capsys):
    assert run_cli(capsys, "density")[0] == 2  # no graph given
    assert run_cli(capsys, "density", "--family", "cycle")[0] == 2  # missing --nu
    assert run_cli(capsys, "density", "--family", "nonsense", "--nu", "3")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "density", "--edge-list", "/no/such/file")[0] == 2


def test_each_subcommand_parses_to_its_handler():
    commands = ["density", "closed-form", "floquet-check", "simulate", "classical", "compare"]
    assert cli._PARSER._subparsers._group_actions[0].choices.keys() == set(commands)
    for name in commands:
        assert cli._PARSER.parse_args([name]).run is getattr(cli, "_cmd_" + name.replace("-", "_"))


def test_family_and_edge_list_conflict(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    code, _, err = run_cli(
        capsys, "density", "--family", "cycle", "--nu", "3", "--edge-list", str(path)
    )
    assert code == 2
    assert "not both" in err


def test_bad_edge_list_content_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n2 2\n")
    code, _, err = run_cli(capsys, "density", "--edge-list", str(path))
    assert code == 2
    assert "self-loop" in err


def test_edge_list_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1\n1 \xff2\n")
    code, out, err = run_cli(capsys, "density", "--edge-list", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read edge list: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_edge_list_byte_order_mark_is_skipped(capsys, tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"0 1\n1 2\n")
    marked.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n")
    want = run_cli(capsys, "density", "--edge-list", str(plain))
    assert want[0] == 0
    assert run_cli(capsys, "density", "--edge-list", str(marked)) == want


@pytest.mark.parametrize(
    "line, message",
    [
        ("0 1_0", "non-integer vertex in '0 1_0'"),  # int() would read 10
        ("+0 1", "non-integer vertex in '+0 1'"),
        ("0 \u0661", "non-integer vertex in '0 \u0661'"),  # ARABIC-INDIC DIGIT ONE
        ("0 " + "1" * 5000, f"non-integer vertex in '0 {'1' * 5000}'"),  # over int()'s digit limit
        ("-1 2", "negative vertex id"),
        ("-1_0 2", "non-integer vertex in '-1_0 2'"),
    ],
    ids=["underscore", "plus", "arabic-indic", "over-digit-limit", "negative", "negative-underscore"],
)
def test_edge_list_vertex_ids_are_ascii_decimal(capsys, tmp_path, line, message):
    path = tmp_path / "g.txt"
    path.write_text(f"{line}\n", encoding="utf-8")
    assert run_cli(capsys, "density", "--edge-list", str(path)) == (2, "", f"error: line 1: {message}\n")


@pytest.mark.parametrize("target", ["missing/dist.csv", "."])
def test_unwritable_output_exits_2(capsys, tmp_path, target):
    # a missing directory, then a directory; simulate would print its summary to stdout after the write
    argv = ("simulate", "--family", "path", "--nu", "2", "--N", "8", "--T", "inf", "-o", str(tmp_path / target))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_numeric_failures_exit_1(capsys, monkeypatch):
    def boom(graph, tol):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("crystalwalk.cli.spectral.limiting_density", boom)
    code, _, err = run_cli(capsys, "density", "--family", "cycle", "--nu", "5")
    assert code == 1
    assert "numeric failure" in err


def test_help_exits_zero(capsys):
    for flag in ("--help", "-h"):
        code, out, _ = run_cli(capsys, flag)
        assert code == 0
        for command in ("density", "closed-form", "floquet-check", "simulate", "classical", "compare"):
            assert command in out


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch):
    def rebuild():
        raise AssertionError("main built a new parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert run_cli(capsys, "closed-form", "--family", "cycle", "--nu", "5")[0] == 0
    assert run_cli(capsys, "density", "--family", "cycle")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def test_back_to_back_calls_share_no_arguments(capsys, tmp_path):
    simulate = ("simulate", "--family", "path", "--nu", "2", "--N", "8", "--T", "inf")
    origin = run_cli(capsys, *simulate)
    moved = run_cli(capsys, *simulate, "--start-cell", "3")
    assert moved[1] != origin[1]
    assert run_cli(capsys, *simulate) == origin

    target = tmp_path / "dist.csv"
    code, out, err = run_cli(capsys, *simulate, "-o", str(target))
    assert (code, out, err) == (0, origin[2], "")
    assert target.read_text() == origin[1]
    target.unlink()
    assert run_cli(capsys, *simulate) == origin
    assert not target.exists()

    code, out, err = run_cli(capsys, *simulate, "--start-p", "x")
    assert code == 2 and out == "" and "invalid int value" in err
    assert run_cli(capsys, *simulate) == origin


def test_module_entry_point_matches_in_process(capsys):
    argv = ["closed-form", "--family", "cycle", "--nu", "5"]
    _, expected, _ = run_cli(capsys, *argv)
    # The child must import the same package copy as this process, installed or not.
    src = str(Path(crystalwalk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "crystalwalk", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


@pytest.mark.parametrize(
    "argv,message",
    [
        (("floquet-check", "--family", "path", "--nu", "2", "--N", "2", "--d", "15"), "155084752 close pairs"),
        (("classical", "--family", "cycle", "--nu", "5", "--start", "0", "--steps", "2147483647"), "entry updates"),
    ],
)
def test_work_ceilings_exit_2_before_the_work(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_scan_walks_40m_close_pairs_within_the_budget(capsys):
    # one dimension below the rejected case above: 40100216 close pairs, under 2^26
    argv = ("floquet-check", "--family", "path", "--nu", "2", "--N", "2", "--d", "14")
    code, out, err = run_cli(capsys, *argv)
    shift = ",".join(["0"] * 12 + ["1", "1"])
    assert (code, err) == (0, "")
    assert out == f'{{"N":2,"max_fraction":0.5,"worst_shift":[{shift}],"worst_pair":[0,0],"flat_bands":[]}}\n'


@pytest.mark.parametrize(
    "argv,line",
    [
        (("floquet-check", "--family", "cycle", "--nu", "2"), "error: family 'cycle' parameter must be >= 3"),
        (("simulate", "--family", "path", "--nu", "2", "--d", "2", "--N", "1024"),
         "error: torus needs 2097152 states, over the budget 1048576"),
        (("simulate", "--family", "cycle", "--nu", "3", "--N", "2048", "--T", "10"),
         "error: finite-horizon average needs 6144 states, over the budget 4096"),
    ],
)
def test_bound_and_ceiling_messages_exact_stderr(capsys, argv, line):
    assert run_cli(capsys, *argv) == (2, "", line + "\n")


def test_oversized_graphs_exit_2_before_allocating(capsys, tmp_path):
    # each would have allocated billions of entries, or failed inside numpy with exit 1
    path = tmp_path / "far.txt"
    path.write_text("1 3000000000\n")
    for argv, line in [
        (("density", "--family", "cycle", "--nu", "3000000000"),
         "error: family 'cycle' needs 3000000000 vertices, over the budget 4096"),
        (("density", "--family", "hypercube", "--m", "64"),
         "error: family 'hypercube' parameter 64 out of range 1..12"),
        (("closed-form", "--family", "hypercube", "--m", "64"),
         "error: family 'hypercube' parameter 64 out of range 1..12"),
        (("density", "--edge-list", str(path)), "error: graph needs 3000000001 vertices, over the budget 4096"),
    ]:
        assert run_cli(capsys, *argv) == (2, "", line + "\n")


def test_eight_dimensional_scan_keeps_its_bytes_and_small_key_tables(capsys, monkeypatch):
    # nu^2 N^d = 26244 counts; one key table over all eight axes would hold 2^7 3^8 = 839808 entries
    sizes = []
    cell_keys = floquet._cell_keys

    def spy(*args):
        keys, bias, fields = cell_keys(*args)
        sizes.extend(table.size for _, _, table in fields)
        return keys, bias, fields

    monkeypatch.setattr(floquet, "_cell_keys", spy)
    out = run_cli(capsys, "floquet-check", "--family", "path", "--nu", "2", "--d", "8", "--N", "3")
    assert out == (0, '{"N":3,"max_fraction":0.33333333333333331,"worst_shift":[0,0,0,0,0,0,0,1],'
                      '"worst_pair":[0,0],"flat_bands":[]}\n', "")
    assert len(sizes) > 1 and max(sizes) <= 4 * 3**8


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--family", "cycle", "--nu", "4"),
        ("density", "--periodic", "honeycomb", "--N", "4"),
        ("floquet-check", "--family", "cycle", "--nu", "3", "--N", "8", "--product", "tensor"),
        ("simulate", "--family", "cycle", "--nu", "3", "--N", "8", "--T", "inf"),
        ("simulate", "--family", "cycle", "--nu", "3", "--N", "8", "--T", "10"),
    ],
)
def test_invalid_tolerance_exits_2(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tolerance" in err


# Each numeric flag a user types, with the rest of a small command around it. Integer flags see
# values of at most 16: the torus and scan budgets reject every larger grid of these commands early.
_SIMULATE_C3_N6 = ("simulate", "--family", "cycle", "--nu", "3", "--N", "6", "--T", "inf")
_NUMERIC_FLAGS = {
    "simulate --T": (("simulate", "--family", "cycle", "--nu", "3", "--N", "6"), "--T"),
    "simulate --N": (("simulate", "--family", "cycle", "--nu", "3", "--T", "inf"), "--N"),
    "simulate --d": (("simulate", "--family", "path", "--nu", "2", "--N", "3", "--T", "1"), "--d"),
    "simulate --start-cell": (_SIMULATE_C3_N6, "--start-cell"),
    "simulate --start-p": (_SIMULATE_C3_N6, "--start-p"),
    "floquet-check --delta": (("floquet-check", "--family", "cycle", "--nu", "3", "--N", "8"), "--delta"),
    "floquet-check --tol": (
        ("floquet-check", "--family", "cycle", "--nu", "3", "--N", "8", "--product", "tensor"), "--tol"
    ),
    "floquet-check --N": (("floquet-check", "--family", "cycle", "--nu", "3", "--d", "2"), "--N"),
    "floquet-check --d": (("floquet-check", "--family", "path", "--nu", "2", "--N", "65"), "--d"),
    "density --periodic honeycomb --N": (("density", "--periodic", "honeycomb"), "--N"),
    "density --nu": (("density", "--family", "cycle"), "--nu"),
    "density --m": (("density", "--family", "complete_bipartite", "--n", "2"), "--m"),
    "density --n": (("density", "--family", "complete_bipartite", "--m", "2"), "--n"),
    "classical --start": (("classical", "--family", "cycle", "--nu", "4", "--steps", "3"), "--start"),
    "classical --steps": (("classical", "--family", "cycle", "--nu", "4", "--start", "1"), "--steps"),
}

_NUMERIC_TEXT = st.one_of(
    st.integers(-3, 16).map(str),
    st.floats().map(repr),  # nan, +-inf, -0.0, 1.7976931348623157e+308, subnormals
    st.sampled_from(["nan", "-inf", "Infinity", "-0.0", "1e308", "-1e308", "1e300", "1.0000000000000002e300",
                     "5e-324", "2.2250738585072014e-308", "16.0", "0x10", "1_0", "", " "]),
    st.text(alphabet="-+.0aefinx ", max_size=5),  # text, with no digit above 0
)


@settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flag=st.sampled_from(sorted(_NUMERIC_FLAGS)), value=_NUMERIC_TEXT)
@example(flag="simulate --T", value="1e308")  # overflowed x = T (lambda - lambda') before the horizon ceiling
@example(flag="floquet-check --delta", value="inf")  # exited 0 with every pair a collision
@example(flag="floquet-check --tol", value="1e308")  # overflowed the clustering gap tol * max|mu|
@example(flag="floquet-check --N", value="abc")  # printed argparse's usage block above its error line
def test_numeric_flags_exit_cleanly_on_any_text(capsys, flag, value):
    prefix, name = _NUMERIC_FLAGS[flag]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow or invalid-value warning raises out of main
        code = main([*prefix, f"{name}={value}"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 0:
        assert out and (lines == [] or len(lines) == 1 and lines[0].startswith("tv_to_prediction = "))
        return
    assert out == ""
    # argparse's own errors too: one line, no usage block
    assert len(lines) == 1 and lines[0].startswith(("error: ", "numeric failure: "))
