"""Deterministic JSON and CSV emitters with fixed float formatting.

Machine-facing JSON carries 17 significant digits (round-trip exact for
float64); human-facing tables carry 12. JSON float lists go through
``_float_rows`` and every CSV table through ``_table``; each fills one
%-template with ``%.<digits>g``, which is what ``format_float`` prints, so
identical inputs always produce identical bytes. ``density_json`` formats
each distinct value once when few are distinct (``_density_rows``).

A 12-digit table entry can sit on an exact rounding tie, such as hypercube
m=9's d = 35/65536 = 0.0005340576171875; its last digit then follows the
last-ulp noise of the summation order. The 17-digit JSON stays exact.
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


def _float_rows(rows: np.ndarray) -> list[str]:
    """JSON list text of each row of a 2-D array, all rows through one template."""
    template = "[" + ",".join([f"%.{JSON_DIGITS}g"] * rows.shape[1]) + "]"
    return [template % tuple(row.tolist()) for row in rows]


def _float_list(values: Iterable[float]) -> str:
    return _float_rows(np.asarray(values, dtype=float).reshape(1, -1))[0]


def _table(header: str, keys: Iterable[str], *columns: np.ndarray) -> str:
    """CSV text: the header, then one line ``key,columns[0][i],columns[1][i],...`` per key i."""
    row = f",%.{TABLE_DIGITS}g" * len(columns) + "\n"
    # keys are escaped because labels are arbitrary strings
    template = "%s\n" + "".join(key.replace("%", "%%") + row for key in keys)
    return template % (header, *np.column_stack(columns).reshape(-1).tolist())


def _density_rows(values: np.ndarray) -> list[str]:
    """``_float_rows`` of a square matrix.

    When the distinct values are at most a quarter of the entries, each is
    formatted once and every row is looked up from those strings with one
    ``searchsorted``; above that, the distinct strings cost more time and
    memory than they save. Values are compared by bit pattern, so -0.0 stays
    apart from 0.0.
    """
    bits = np.ascontiguousarray(values).view(np.int64)
    keys = np.sort(bits, axis=None)
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    if 4 * np.count_nonzero(first) > keys.size:
        del keys, first  # release before the row strings are built
        return _float_rows(values)
    keys = keys[first]
    del first
    words = np.array(_float_list(keys.view(np.float64))[1:-1].split(","), dtype=object)
    return ["[" + ",".join(words.take(np.searchsorted(keys, row)).tolist()) + "]" for row in bits]


def density_json(density: DensityMatrix) -> str:
    """JSON object {"nu", "source", "d"} with the matrix in row-major order."""
    rows = _density_rows(density.values)
    # splice the frame into the end rows so that one join builds the text
    rows[0] = f'{{"nu":{density.nu},"source":"{density.source}","d":[{rows[0]}'
    rows[-1] += "]}\n"
    return ",".join(rows)


def density_csv(values: np.ndarray, labels: Sequence[str]) -> str:
    """Entrywise density table with header p,q,d in display labeling."""
    n = len(values)
    keys = (f"{labels[p]},{labels[q]}" for p in range(n) for q in range(n))
    return _table("p,q,d", keys, np.asarray(values).reshape(-1))


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
    header = ",".join(f"cell_{i}" for i in range(dist.d)) + ",q,mass"
    cells = map(",".join, itertools.product([str(k) for k in range(dist.N)], repeat=dist.d))
    sites = [f",{q}" for q in range(dist.nu)]
    return _table(header, (cell + q for cell in cells for q in sites), dist.values)


def walk_report_json(report: WalkReport) -> str:
    parts = [
        f'"stationary":{_float_list(report.stationary)}',
        f'"bipartite":{"true" if report.bipartite else "false"}',
    ]
    if report.iterates is not None:
        iterates = ",".join(_float_list(it) for it in report.iterates)
        parts.append(f'"iterates":[{iterates}]')
    return "{" + ",".join(parts) + "}\n"


def comparison_csv(
    labels: Sequence[str],
    quantum_row: np.ndarray,
    stationary: np.ndarray,
) -> str:
    """Side-by-side quantum limiting row vs classical stationary law."""
    header = "q,quantum_density,classical_stationary,uniform"
    return _table(header, labels, quantum_row, stationary, np.full(len(labels), 1.0 / len(labels)))
