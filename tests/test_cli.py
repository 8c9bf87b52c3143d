import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crystalwalk
from crystalwalk import NumericalError
from crystalwalk.cli import main


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
    ],
)
def test_simulate_readme_examples_exact_bytes(capsys, argv, digest, summary):
    code, out, err = run_cli(capsys, "simulate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == summary


def test_floquet_check_rejects_scan_over_budget(capsys):
    code, out, err = run_cli(
        capsys, "floquet-check", "--family", "cycle", "--nu", "3", "--d", "3", "--N", "128"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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


def test_argument_errors_exit_2(capsys):
    assert run_cli(capsys, "density")[0] == 2  # no graph given
    assert run_cli(capsys, "density", "--family", "cycle")[0] == 2  # missing --nu
    assert run_cli(capsys, "density", "--family", "nonsense", "--nu", "3")[0] == 2
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "density", "--edge-list", "/no/such/file")[0] == 2


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


def test_numeric_failures_exit_1(capsys, monkeypatch):
    def boom(graph, tol):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr("crystalwalk.cli.spectral.limiting_density", boom)
    code, _, err = run_cli(capsys, "density", "--family", "cycle", "--nu", "5")
    assert code == 1
    assert "numeric failure" in err


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


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
