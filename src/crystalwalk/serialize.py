"""Deterministic JSON and CSV emitters with fixed float formatting.

Machine-facing JSON carries 17 significant digits (round-trip exact for
float64); human-facing tables carry 12. Formatting goes through one helper
so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .classical import WalkReport
from .dynamics import TimeAveragedDistribution
from .floquet import FloquetScanReport
from .spectral import DensityMatrix

__all__ = [
    "JSON_DIGITS",
    "TABLE_DIGITS",
    "format_float",
    "density_json",
    "density_csv",
    "scan_report_json",
    "distribution_csv",
    "walk_report_json",
    "comparison_csv",
]

JSON_DIGITS = 17
TABLE_DIGITS = 12


def format_float(x: float, digits: int = JSON_DIGITS) -> str:
    return "%.*g" % (digits, float(x))


def _float_list(values: Iterable[float], digits: int) -> str:
    # one %-format for the whole list prints each value as format_float does
    values = tuple(np.asarray(values, dtype=float).tolist())
    return ("[" + ",".join([f"%.{digits}g"] * len(values)) + "]") % values


def density_json(density: DensityMatrix) -> str:
    """JSON object {"nu", "source", "d"} with the matrix in row-major order."""
    rows = ",".join(_float_list(row, JSON_DIGITS) for row in density.values)
    return f'{{"nu":{density.nu},"source":"{density.source}","d":[{rows}]}}\n'


def density_csv(values: np.ndarray, labels: Sequence[str]) -> str:
    """Entrywise density table with header p,q,d in display labeling."""
    lines = ["p,q,d"]
    for p, row in enumerate(np.asarray(values)):
        for q, v in enumerate(row):
            lines.append(f"{labels[p]},{labels[q]},{format_float(v, TABLE_DIGITS)}")
    return "\n".join(lines) + "\n"


def scan_report_json(report: FloquetScanReport) -> str:
    shift = ",".join(str(int(x)) for x in report.worst_shift)
    pair = ",".join(str(int(x)) for x in report.worst_pair)
    flat = ",".join(str(int(x)) for x in report.flat_bands)
    return (
        f'{{"N":{report.N},'
        f'"max_fraction":{format_float(report.max_fraction)},'
        f'"worst_shift":[{shift}],'
        f'"worst_pair":[{pair}],'
        f'"flat_bands":[{flat}]}}\n'
    )


def distribution_csv(dist: TimeAveragedDistribution) -> str:
    """Per-site masses with one cell coordinate column per torus axis."""
    lines = [",".join(f"cell_{i}" for i in range(dist.d)) + ",q,mass"]
    values = iter(dist.values.tolist())
    columns = [f",{q}," for q in range(dist.nu)]
    for cell in itertools.product(range(dist.N), repeat=dist.d):
        prefix = ",".join(map(str, cell))
        # zip exhausts columns first, so each cell takes exactly nu values
        lines.extend(prefix + c + format_float(v, TABLE_DIGITS) for c, v in zip(columns, values))
    del values  # the join needs room for the whole text: drop the float list first
    lines.append("")
    return "\n".join(lines)


def walk_report_json(report: WalkReport) -> str:
    parts = [
        f'"stationary":{_float_list(report.stationary, JSON_DIGITS)}',
        f'"bipartite":{"true" if report.bipartite else "false"}',
    ]
    if report.iterates is not None:
        iterates = ",".join(_float_list(it, JSON_DIGITS) for it in report.iterates)
        parts.append(f'"iterates":[{iterates}]')
    return "{" + ",".join(parts) + "}\n"


def comparison_csv(
    labels: Sequence[str],
    quantum_row: np.ndarray,
    stationary: np.ndarray,
) -> str:
    """Side-by-side quantum limiting row vs classical stationary law."""
    nu = len(labels)
    lines = ["q,quantum_density,classical_stationary,uniform"]
    uniform = 1.0 / nu
    for q in range(nu):
        lines.append(
            f"{labels[q]},{format_float(quantum_row[q], TABLE_DIGITS)},"
            f"{format_float(stationary[q], TABLE_DIGITS)},{format_float(uniform, TABLE_DIGITS)}"
        )
    return "\n".join(lines) + "\n"
