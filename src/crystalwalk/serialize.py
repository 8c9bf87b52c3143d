"""Deterministic JSON and CSV emitters with fixed float formatting.

Machine-facing JSON carries 17 significant digits (round-trip exact for
float64); human-facing tables carry 12. Every float is printed with
``%.<digits>g``, which is what ``format_float`` prints, so identical inputs
always produce identical bytes. A CSV table (``_table``) fills one %-template
built axis by axis from its key labels. When at most a quarter of the values
are distinct, ``_distinct_strings`` formats each distinct bit pattern once
and the text is looked up from those strings: ``density_json`` row by row
(``_density_rows``), a table in one lookup of all its values. Otherwise a
bitwise-symmetric density formats its upper triangle once and mirrors those
strings (``_symmetric_rows``), and any other JSON rows use ``_float_rows``.

A 12-digit table entry can sit on an exact rounding tie, such as hypercube
m=9's d = 35/65536 = 0.0005340576171875; its last digit then follows the
last-ulp noise of the summation order. The 17-digit JSON stays exact.
"""

from __future__ import annotations

from typing import Sequence

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


def _distinct_strings(bits: np.ndarray, digits: int) -> tuple[np.ndarray, np.ndarray] | None:
    """A code per entry of ``bits`` and each distinct bit pattern formatted once.

    ``bits`` is a float64 array viewed as int64, so -0.0 stays apart from
    0.0. ``words[codes]`` are the strings of ``bits``; the codes, of its
    shape, take the narrowest unsigned dtype. Returns None when the distinct
    values are more than a quarter of the entries: above that, the distinct
    strings cost more time and memory than they save. A sort counts them,
    and only then does an argsort rank every entry, which costs less than a
    binary search per entry once they number in the hundreds.
    """
    keys = np.sort(bits, axis=None)
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    count = np.count_nonzero(first)
    if 4 * count > keys.size:
        return None
    text = ",".join([f"%.{digits}g"] * count) % tuple(keys[first].view(np.float64).tolist())
    del keys
    rank = np.cumsum(first, dtype=np.min_scalar_type(count))
    rank -= 1  # the code of each sorted entry
    codes = np.empty(bits.shape, dtype=rank.dtype)
    codes.put(np.argsort(bits, axis=None), rank)
    return codes, np.array(text.split(","), dtype=object)


def _table(header: str, axes: Sequence[Sequence[str]], *columns: np.ndarray) -> str:
    """CSV text: the header, then one line ``a_0,...,a_k,columns[0][i],columns[1][i],...`` per key i.

    The keys (a_0, ..., a_k) run over the product of ``axes``, the last axis fastest. The
    template has ``%s`` slots for the strings of ``_distinct_strings``, else ``%.12g`` slots.
    """
    found = _distinct_strings(np.concatenate(columns, dtype=np.float64).view(np.int64), TABLE_DIGITS)
    row = (f",%.{TABLE_DIGITS}g" if found is None else ",%s") * len(columns)
    # labels are arbitrary strings, so a % in one is escaped
    *outer, inner = [[label.replace("%", "%%") for label in axis] for axis in axes]
    lines = [label + row for label in inner]
    # a first axis longer than the lines of the others is folded in too; otherwise each of
    # its labels prefixes every line in one C-speed join
    while outer and (len(outer) > 1 or len(outer[0]) > len(lines)):
        lines = [label + "," + line for label in outer.pop() for line in lines]
    if outer:
        lines = [label + "," + ("\n" + label + ",").join(lines) for label in outer[0]]
    lines.insert(0, header.replace("%", "%%"))
    lines.append("")
    template = "\n".join(lines)
    # one name for each step, so that each temporary goes as the next one is made
    del lines
    if found is None:
        args = np.column_stack(columns).astype(np.float64, copy=False).reshape(-1)
    else:  # the codes of the concatenated columns, interleaved as the lines read them
        args = found[1].take(found[0].reshape(len(columns), -1).T.reshape(-1))
    del found
    args = args.tolist()
    args = tuple(args)
    return template % args


def _symmetric_rows(values: np.ndarray) -> list[str]:
    """``_float_rows`` of a bitwise-symmetric square matrix, formatting only its upper triangle.

    Row i formats ``values[i, i:]`` through one template and hands each
    string right of the diagonal to the list of its column. Row i is then
    its own list, filled by the rows above, followed by its upper strings;
    the list is dropped as soon as the row is built, so at most about n^2/4
    strings wait at a time.
    """
    n = len(values)
    template = f"%.{JSON_DIGITS}g,"
    columns: list[list[str] | None] = [[] for _ in range(n)]
    rows = []
    for i in range(n):
        upper = (template * (n - i)) % tuple(values[i, i:].tolist())
        # upper ends in a comma: its split ends in "", which zip leaves out
        for column, word in zip(columns[i + 1:], upper.split(",")[1:]):
            column.append(word)
        left = columns[i]
        columns[i] = None
        left.append(upper[:-1])
        rows.append("[" + ",".join(left) + "]")
    return rows


def _density_rows(values: np.ndarray) -> list[str]:
    """``_float_rows`` of a square matrix.

    With few distinct values (``_distinct_strings``) each row is looked up
    from their strings; otherwise a bitwise-symmetric matrix formats its
    upper triangle alone (``_symmetric_rows``). Symmetry is tested on the
    int64 views, so a 0.0 mirrored by -0.0 keeps a matrix on the
    ``_float_rows`` path.
    """
    bits = np.ascontiguousarray(values).view(np.int64)
    found = _distinct_strings(bits, JSON_DIGITS)
    if found is not None:  # the codes go with this frame, before density_json joins the rows
        codes, words = found
        return ["[" + ",".join(words.take(row).tolist()) + "]" for row in codes]
    if np.array_equal(bits, bits.T):
        return _symmetric_rows(values)
    return _float_rows(values)


def density_json(density: DensityMatrix) -> str:
    """JSON object {"nu", "source", "d"} with the matrix in row-major order."""
    rows = _density_rows(density.values)
    # splice the frame into the end rows so that one join builds the text
    rows[0] = f'{{"nu":{density.nu},"source":"{density.source}","d":[{rows[0]}'
    rows[-1] += "]}\n"
    return ",".join(rows)


def density_csv(values: np.ndarray, labels: Sequence[str]) -> str:
    """Entrywise density table with header p,q,d in display labeling."""
    return _table("p,q,d", [labels, labels], np.asarray(values).reshape(-1))


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
    cells = [str(k) for k in range(dist.N)]
    return _table(header, [cells] * dist.d + [[str(q) for q in range(dist.nu)]], dist.values)


def walk_report_json(report: WalkReport) -> str:
    parts = [
        f'"stationary":{_float_rows(report.stationary[None])[0]}',
        f'"bipartite":{"true" if report.bipartite else "false"}',
    ]
    if report.iterates is not None:
        parts.append(f'"iterates":[{",".join(_float_rows(report.iterates))}]')
    return "{" + ",".join(parts) + "}\n"


def comparison_csv(
    labels: Sequence[str],
    quantum_row: np.ndarray,
    stationary: np.ndarray,
) -> str:
    """Side-by-side quantum limiting row vs classical stationary law."""
    header = "q,quantum_density,classical_stationary,uniform"
    return _table(header, [labels], quantum_row, stationary, np.full(len(labels), 1.0 / len(labels)))
